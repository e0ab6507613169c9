"""One repetition of a benchmark workload, in a fresh process.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/worker.py WORKLOAD --seed N --dir DIR \
        --spawned-at T --deadline D [--trace] [--setup-only] [--calibrate]

The process sets the workload up, then runs its measured phase again
and again while the next one is expected to end before ``D``, checks
the outputs of each, and prints one JSON object as its last stdout
line.  ``setup_s`` runs from ``T`` (the parent's ``time.monotonic()``
just before it started this process; the clock is system-wide, and
``D`` is on the same clock) to the end of set-up, so it counts
interpreter start, imports and warm-up.  ``DIR`` is a fresh directory
that holds this repetition's artifact caches and temporary files;
``REPRO_CACHE_DIR`` points into it, so the user's cache is never read
or written.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# ----------------------------------------------------------------------
# Workload definitions.  Sizes were chosen so one run of every workload
# fits the benchmark's time budget with room for a traced repetition.
# ----------------------------------------------------------------------
#: dse-grid: workloads whose translation cost is large next to their
#: tracing cost, so the measured phase is dominated by translation and
#: replay; traces are warmed in set-up.
DSE_WORKLOADS = ("rawaudio_d", "quicksort", "rawaudio_e", "dijkstra")
#: dse-grid: an 8-point sub-grid of default_space().  The geometry axes
#: force fresh translations; the cache-slot axis reuses them.  The grid
#: is small enough that a run explores it about seven times.
DSE_AXES = (("rows", (16, 48)), ("alus_per_row", (4, 8)),
            ("mults_per_row", (2,)), ("ldsts_per_row", (2,)),
            ("cache_slots", (16, 64)), ("speculation", (True,)))
#: corpus-cold: one fixed corpus, so every run does the same work (the
#: kernel sizes drawn from a seed move the wall by about 15 % from one
#: corpus seed to the next), its size and the configurations swept.
#: The corpus is small enough that a run sweeps it about ten times.
CORPUS_SEED = 1
CORPUS_KERNELS = 24
CORPUS_CONFIGS = (("C1", 16, False), ("C2", 64, True), ("C3", 256, True),
                  ("ideal", 64, True))
#: serve-zipf: the workloads whose (workload, paper config) pairs the
#: schedule draws from; every pair is warmed in set-up.
SERVE_WORKLOADS = ("crc", "sha", "gsm_d", "quicksort")
#: serve-zipf: the fixed rate ladder (requests/s) and its light and
#: heavy rungs.  A rung sends RUNG_SECONDS of traffic but never fewer
#: than MIN_REQUESTS requests, so every p99 has at least ten samples
#: beyond it.  The rungs stay well below the knee: about 500
#: requests/s on a quiet 2-core host, but under 300 when the host slows
#: down, as shared hosts do for minutes at a time.  max_ok_rps therefore
#: reads the top rung unless the service itself gets slower.
LADDER = (100, 150, 200)
LIGHT_RPS = 100
HEAVY_RPS = 150
RUNG_SECONDS = 6.0
MIN_REQUESTS = 1000
#: max_ok_rps's p99 limit, as BENCHMARK.json states it.
LIMIT_MS = 250.0
ZIPF_S = 1.1
#: the Table 2 row every workload other than paper-cold evaluates after
#: its measured phase, for table2_error_pct and a reference check.
CALIBRATION = {"dse-grid": "quicksort", "corpus-cold": "crc"}


@functools.lru_cache(maxsize=None)
def _paper_data():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import paper_data

    return paper_data


@functools.lru_cache(maxsize=None)
def _reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def clear_process_caches(keep_runs: bool = False) -> None:
    """Empty the process-global caches a cold measured phase must not
    inherit from set-up or from the phase before it; ``keep_runs``
    keeps the functional traces (dse-grid warms them in set-up).

    The block-cost models and the memory-op prefix cache are keyed by
    block identity: a later phase never hits the entries of an earlier
    one, but would carry them (more memory, slower collections), so they
    are emptied too and the garbage collected before the phase starts.
    """
    import gc

    import repro.system.costmodel as costmodel
    import repro.system.sweep as sweep
    import repro.system.traceeval as traceeval
    import repro.workloads as workloads

    if not keep_runs:
        workloads._RUNS.clear()
        workloads._PROGRAMS.clear()
    sweep._DISK_TRACES.clear()
    sweep._COL_CONTEXTS.clear()
    costmodel._SHARED_MODELS.clear()
    traceeval._prefix_mem_ops.cache_clear()
    gc.collect()


def paper_key(system: str) -> Tuple[object, int]:
    """(PAPER_TABLE2 row key, column index) of a paper system name."""
    array, slots, spec = system.split("/")
    if array == "ideal":
        return "ideal", int(spec == "spec")
    return (array, spec == "spec"), (16, 64, 256).index(int(slots))


def cells_of(results_json: str) -> Dict[Tuple[str, str], dict]:
    """{(system, workload): result row} of a ``results_json()`` text."""
    payload = json.loads(results_json)
    return {(system["system"], row["workload"]): row
            for system in payload["systems"]
            for row in system["results"]}


def cell_error_pct(cells: Dict[Tuple[str, str], dict]) -> float:
    """Mean |ours - paper| / paper (percent) over Table 2 cells."""
    table = _paper_data().PAPER_TABLE2
    errors = []
    for (system, workload), row in cells.items():
        key, column = paper_key(system)
        paper = table[workload][key][column]
        errors.append(abs(row["speedup"] - paper) / paper)
    return 100.0 * sum(errors) / len(errors)


def average_row_error_pct(cells: Dict[Tuple[str, str], dict]) -> float:
    """Mean |ours - paper| / paper (percent) over Table 2's average row."""
    average = _paper_data().PAPER_TABLE2_AVERAGE
    by_system: Dict[str, List[float]] = {}
    for (system, _), row in cells.items():
        by_system.setdefault(system, []).append(row["speedup"])
    errors = []
    for system, speedups in by_system.items():
        key, column = paper_key(system)
        paper = average[key][column]
        ours = sum(speedups) / len(speedups)
        errors.append(abs(ours - paper) / paper)
    return 100.0 * sum(errors) / len(errors)


def mismatched(cells: Dict[Tuple[str, str], dict]) -> int:
    """Cells that differ from the committed paper-matrix reference."""
    reference = _reference()["paper_cells"]
    return sum(reference.get(system, {}).get(workload) != row
               for (system, workload), row in cells.items())


class Rep:
    """What one repetition measured and checked."""

    def __init__(self, seed: int, workdir: Path, spawned_at: float,
                 deadline: float, traced: bool, calibrating: bool):
        self.seed = seed
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.spawned_at = spawned_at
        self.deadline = deadline
        self.traced = traced
        #: run the checks that sit outside the measured phase (one
        #: repetition per run makes them).
        self.calibrating = calibrating
        self.out: Dict[str, object] = {"attempted": 0, "failed": 0,
                                       "problems": [], "metrics": {},
                                       "phases": []}

    def problem(self, text: str) -> None:
        self.out["problems"].append(text)

    def setup_done(self) -> None:
        self.out["setup_s"] = time.monotonic() - self.spawned_at

    def measure(self, prepare: Callable[[], None],
                phase: Callable[[Path], object],
                check: Callable[[object, dict], None]) -> None:
        """Run the measured phase while the next one is expected to end
        before the deadline: at least once, and twice when tracing,
        which alternates untraced and traced phases.

        ``prepare()`` runs untimed before each phase (it empties the
        caches a phase must not inherit); ``phase(cache_dir)`` is timed
        and gets a fresh artifact-cache directory; ``check(result,
        record)`` verifies its output untimed.  Each phase's record
        (wall, traced, layer metrics when traced) goes to ``phases``.
        """
        from tracer import Tracer, install, layer_metrics

        phases = self.out["phases"]
        start = time.monotonic()
        while True:
            traced = self.traced and len(phases) % 2 == 1
            cache_dir = self.workdir / f"cache{len(phases)}"
            prepare()
            tracer = Tracer() if traced else None
            if tracer is not None:
                install(tracer)
            began = time.perf_counter()
            try:
                result = phase(cache_dir)
            finally:
                wall = time.perf_counter() - began
                if tracer is not None:
                    tracer.uninstall()
            record = {"wall_s": wall, "traced": traced}
            if tracer is not None:
                record["layers"] = layer_metrics(*tracer.totals(), wall)
            if not phases:
                # the high-water mark of the first phase, so the number
                # of phases a run fits does not move it
                self.out["peak_rss_mb"] = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            phases.append(record)
            check(result, record)
            shutil.rmtree(cache_dir, ignore_errors=True)
            if self.traced and len(phases) < 2:
                continue
            now = time.monotonic()
            if now + (now - start) / len(phases) > self.deadline:
                break

    def check_columnar(self, inst) -> None:
        if inst.cells_columnar != inst.cells_replayed:
            self.problem(f"{inst.cells_replayed - inst.cells_columnar} "
                         f"cells replayed off the columnar engine")
            self.out["failed"] += inst.cells_replayed - inst.cells_columnar

    def calibrate(self, name: str) -> None:
        """table2_error_pct from one Table 2 row, checked against the
        reference (outside the measured phase)."""
        import repro

        matrix = repro.sweep(names=[name], fast=True,
                             cache_dir=self.cache_dir)
        cells = cells_of(matrix.results_json())
        bad = mismatched(cells)
        if bad:
            self.problem(f"{bad} calibration cells differ from the "
                         f"reference")
            self.out["failed"] += bad
        self.out["attempted"] += len(cells)
        self.out["metrics"]["table2_error_pct"] = cell_error_pct(cells)


# ----------------------------------------------------------------------
# The four workloads.
# ----------------------------------------------------------------------
def paper_cold(rep: Rep, setup_only: bool) -> None:
    import repro

    clear_process_caches()
    rep.setup_done()
    if setup_only:
        return

    def check(matrix, record):
        text = matrix.results_json()
        cells = cells_of(text)
        rep.out["attempted"] += len(cells)
        bad = mismatched(cells)
        if bad or _sha256(text) != _reference()["paper_matrix_sha256"]:
            rep.problem(f"paper matrix differs from the reference "
                        f"({bad} cells)")
            rep.out["failed"] += max(bad, 1)
        rep.check_columnar(matrix.instrumentation)
        rep.out["cells"] = len(cells)
        rep.out["metrics"]["table2_error_pct"] = average_row_error_pct(
            cells)

    rep.measure(clear_process_caches,
                lambda cache_dir: repro.sweep(fast=True,
                                              cache_dir=cache_dir),
                check)


def dse_space():
    from repro.dse import Axis, ParameterSpace

    return ParameterSpace(axes=tuple(Axis(name, values)
                                     for name, values in DSE_AXES))


def dse_grid(rep: Rep, setup_only: bool) -> None:
    import repro
    import repro.dse.runner as runner
    import repro.system.sweep as sweep
    from repro.workloads import collect_runs

    clear_process_caches()
    collect_runs(list(DSE_WORKLOADS), fast=True)
    rep.setup_done()
    if setup_only:
        return
    matrices = []

    def recording(*args, **kwargs):
        # looked up per call, so a traced phase reaches the tracer's
        # wrapper of evaluate_matrix
        matrix = sweep.evaluate_matrix(*args, **kwargs)
        matrices.append(matrix.instrumentation)
        return matrix

    def check(frontier, record):
        rep.out["attempted"] += frontier.cells
        rep.out["cells"] = frontier.cells
        if _sha256(frontier.to_json()) != _reference()["dse_grid_sha256"]:
            rep.problem("dse frontier differs from the reference")
            rep.out["failed"] += frontier.cells
        for inst in matrices:
            rep.check_columnar(inst)
        matrices.clear()

    evaluate_matrix = runner.evaluate_matrix
    runner.evaluate_matrix = recording
    try:
        rep.measure(lambda: clear_process_caches(keep_runs=True),
                    lambda cache_dir: repro.explore(
                        space=dse_space(), strategy="grid",
                        workloads=list(DSE_WORKLOADS), fast=True),
                    check)
    finally:
        runner.evaluate_matrix = evaluate_matrix
    if rep.calibrating:
        rep.calibrate(CALIBRATION["dse-grid"])


def corpus_cold(rep: Rep, setup_only: bool) -> None:
    import repro
    from repro.api import corpus as corpus_api
    from repro.system.config import paper_system

    start = time.perf_counter()
    corpus = corpus_api(seed=CORPUS_SEED, count=CORPUS_KERNELS,
                        profile="mixed")
    generate_s = time.perf_counter() - start
    clear_process_caches()
    rep.setup_done()
    if setup_only:
        return
    configs = [paper_system(*config) for config in CORPUS_CONFIGS]

    def check(matrix, record):
        if "layers" in record:
            record["layers"]["corpus.generate_s"] = generate_s
            record["layers"]["corpus.kernels"] = corpus.count
        text = matrix.results_json()
        cells = cells_of(text)
        rep.out["attempted"] += len(cells)
        rep.out["cells"] = len(cells)
        if _sha256(text) != _reference()["corpus_sha256"]:
            rep.problem("corpus results differ from the reference")
            rep.out["failed"] += len(cells)
        rep.check_columnar(matrix.instrumentation)

    rep.measure(clear_process_caches,
                lambda cache_dir: repro.sweep(configs, names=corpus.names(),
                                              fast=True,
                                              cache_dir=cache_dir),
                check)
    if rep.calibrating:
        rep.calibrate(CALIBRATION["corpus-cold"])


# ----------------------------------------------------------------------
# serve-zipf.
# ----------------------------------------------------------------------
def _wire(system: str) -> Dict[str, object]:
    array, slots, spec = system.split("/")
    return {"array": array,
            "slots": 64 if array == "ideal" else int(slots),
            "speculation": spec == "spec"}


class Server:
    """A ``repro serve`` subprocess with its production defaults."""

    def __init__(self, rep: Rep, traced: bool, tag: str):
        self.report_path = rep.workdir / f"server-{tag}.json"
        command = [sys.executable, "-u", str(HERE / "serve_host.py"),
                   str(self.report_path)]
        if traced:
            command.append("--trace")
        command += ["--port", "0", "--cache-dir", str(rep.cache_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True, env=env)
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split("listening on ")[1].split()[0]
        host, port = self.url[len("http://"):].split(":")
        self.host, self.port = host, int(port)
        import repro

        self.client = repro.connect(self.url)

    def warm(self) -> None:
        """One request per workload, so the server's first batches
        (lazy imports, first artifact reads) fall in set-up."""
        for workload in SERVE_WORKLOADS:
            job = self.client.submit("evaluate",
                                     configs=[_wire("C2/64/spec")],
                                     names=[workload], fast=True)
            self.client.wait(job["job_id"], poll=0.01)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def stop(self) -> dict:
        try:
            self.client.shutdown()
            self.client.close()
            self.process.stdout.read()
            self.process.wait(timeout=30)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        with open(self.report_path) as handle:
            return json.load(handle)


def serve_schedule(seed: int, rate: int):
    """The seeded (offset, workload, wire spec, system) requests of one
    rung: Poisson arrivals and Zipf draws over the pairs.

    The popularity ranking of the pairs is fixed, so every seed offers
    the same mix; the seed moves only arrival times and draws.  (Which
    workloads are hot sets how many batch windows a request waits for,
    so a seeded ranking would make the latencies depend on the seed.)
    """
    from repro.system.sweep import paper_matrix
    from repro.traffic import TrafficSpec, build_schedule

    pairs = [f"{workload}|{config.name}" for workload in SERVE_WORKLOADS
             for config in paper_matrix()]
    random.Random(0).shuffle(pairs)
    spec = TrafficSpec(seed=seed * 1000 + rate,
                       requests=max(MIN_REQUESTS, int(RUNG_SECONDS * rate)),
                       rate=float(rate),
                       zipf_s=ZIPF_S)
    requests = []
    for request in build_schedule(spec, pairs):
        workload, system = request.name.split("|")
        requests.append((request.at, workload, _wire(system), system))
    return requests


def run_ladder(rep: Rep, server: Server) -> Dict[str, object]:
    """Every rung in turn; returns per-rung stats plus the totals."""
    from loadgen import percentile, run_open_loop

    reference = _reference()["paper_cells"]
    before = server.client.metrics()
    cpu_before = server.cpu_s()
    rungs = {}
    outcomes_all = []
    start = time.perf_counter()
    for rate in LADDER:
        outcomes = run_open_loop(server.client, server.host, server.port,
                                 serve_schedule(rep.seed, rate))
        outcomes_all += outcomes
        latencies = []
        failed = 0
        for outcome in outcomes:
            ok = outcome.error is None and json.loads(
                outcome.result["suite_json"])["results"] == [
                reference[outcome.system][outcome.workload]]
            if ok:
                latencies.append(1000.0 * outcome.latency_s)
            else:
                failed += 1
                latencies.append(float("inf"))
        drain_ms = 1000.0 * (max(o.done for o in outcomes)
                             - max(o.due for o in outcomes))
        p99 = percentile(latencies, 99)
        rungs[rate] = {"p50_ms": percentile(latencies, 50), "p99_ms": p99,
                       "failed": failed, "drain_ms": drain_ms,
                       "ok": p99 <= LIMIT_MS and drain_ms <= LIMIT_MS
                       and not failed}
    wall = time.perf_counter() - start
    cpu = server.cpu_s() - cpu_before
    after = server.client.metrics()

    def diff(section, name):
        return after[section].get(name, 0) - before[section].get(name, 0)

    batches = diff("counters", "serve.batches")
    serve = {
        "serve.submit_ms_p50": percentile(
            [1000.0 * o.submit_s for o in outcomes_all if o.submit_s], 50),
        "serve.queue_s": diff("timers", "serve.queue_seconds"),
        "serve.exec_s": diff("timers", "serve.exec_seconds"),
        "serve.batches": batches,
        "serve.jobs_per_batch": (diff("counters", "serve.batched_jobs")
                                 / batches if batches else 0.0),
        "serve.max_queue_depth": after["counters"].get(
            "serve.max_queue_depth", 0),
        "loadgen.late_p99_ms": percentile(
            [1000.0 * (o.sent - o.due) for o in outcomes_all
             if o.sent], 99),
    }
    replayed = diff("counters", "sweep.cells_replayed")
    columnar = diff("counters", "sweep.cells_columnar")
    if columnar != replayed:
        rep.problem(f"{replayed - columnar} served cells replayed off "
                    f"the columnar engine")
    return {"rungs": rungs, "wall_s": wall, "cpu_s": cpu,
            "attempted": len(outcomes_all),
            "failed": sum(r["failed"] for r in rungs.values()),
            "serve": serve}


def serve_zipf(rep: Rep, setup_only: bool) -> None:
    import repro
    from repro.system.sweep import paper_matrix

    warm = repro.sweep(paper_matrix(), names=list(SERVE_WORKLOADS),
                       fast=True, cache_dir=rep.cache_dir)
    cells = cells_of(warm.results_json())
    bad = mismatched(cells)
    if bad:
        rep.problem(f"{bad} warmed cells differ from the reference")
    server = Server(rep, traced=False, tag="plain")
    try:
        server.warm()
        rep.setup_done()
        if setup_only:
            return
        ladder = run_ladder(rep, server)
    finally:
        report = server.stop()
    rep.out["phases"].append({"wall_s": ladder["wall_s"], "traced": False})
    rep.out["attempted"] += ladder["attempted"]
    rep.out["failed"] += ladder["failed"]
    rep.out["server_rss_mb"] = report["peak_rss_mb"]
    rungs = ladder["rungs"]
    passing = [rate for rate in LADDER if rungs[rate]["ok"]]
    rep.out["metrics"].update({
        "table2_error_pct": cell_error_pct(cells),
        "p50_ms_light": rungs[LIGHT_RPS]["p50_ms"],
        "p99_ms_light": rungs[LIGHT_RPS]["p99_ms"],
        "p50_ms_heavy": rungs[HEAVY_RPS]["p50_ms"],
        "p99_ms_heavy": rungs[HEAVY_RPS]["p99_ms"],
        "max_ok_rps": float(max(passing)) if passing else 0.0,
    })
    rep.out["rungs"] = {str(rate): stats for rate, stats in rungs.items()}
    if rep.traced:
        traced_server = Server(rep, traced=True, tag="traced")
        try:
            traced_server.warm()
            traced = run_ladder(rep, traced_server)
        finally:
            traced_report = traced_server.stop()
        from tracer import layer_metrics

        rep.out["attempted"] += traced["attempted"]
        rep.out["failed"] += traced["failed"]
        layers = layer_metrics(traced_report["self_s"],
                               traced_report["counts"], traced["wall_s"])
        layers.update(traced["serve"])
        layers["trace.overhead_pct"] = 100.0 * (
            traced["cpu_s"] / ladder["cpu_s"] - 1.0)
        rep.out["phases"].append({"wall_s": traced["wall_s"],
                                  "traced": True, "layers": layers})


WORKLOADS = {"paper-cold": paper_cold, "dse-grid": dse_grid,
             "corpus-cold": corpus_cold, "serve-zipf": serve_zipf}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)
    rep = Rep(args.seed, args.dir, args.spawned_at, args.deadline,
              args.trace, args.calibrate)
    WORKLOADS[args.workload](rep, args.setup_only)
    from repro.system.artifacts import code_fingerprint

    rep.out["code"] = code_fingerprint()
    if "server_rss_mb" in rep.out:
        rep.out["peak_rss_mb"] = rep.out.pop("server_rss_mb")
    print(json.dumps(rep.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
