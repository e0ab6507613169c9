"""perfbench: the repository's benchmark (see perfbench/README.md).

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs
in a fresh worker process (``worker.py``) under ``.perfbench/``, which
is removed afterwards.  The first repetition sets the workload up and
then repeats its measured phase, each time on emptied process caches
and a fresh artifact-cache directory, while the next phase is expected
to end within ``--seconds`` of the start (serve-zipf runs its rate
ladder once); it also runs the checks that sit outside the measured
phase.  Set-up-only repetitions follow until at least three set-ups,
and at least two seconds of them, are made.
With ``--trace 1`` the phases alternate untraced and traced (at least
one of each) and the per-layer metrics are reported.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full record, stamped with the
revision, interpreter, numpy version, usable cores and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-cold", "dse-grid", "corpus-cold", "serve-zipf")
MIN_SETUPS = 3
#: set-ups continue past MIN_SETUPS (up to MAX_SETUPS) until they add up
#: to this many seconds, so a set-up of a fraction of a second is timed
#: more often than one of several seconds.
SETUP_SECONDS = 2.0
MAX_SETUPS = 9
#: a repetition that runs longer than this is treated as hung.
REP_TIMEOUT_S = 120


def _config() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def spawn(workload: str, seed: int, scratch: Path, index: int,
          deadline: float, traced: bool = False,
          setup_only: bool = False) -> dict:
    """One repetition in a fresh process; returns its JSON record."""
    workdir = scratch / f"rep{index}"
    (workdir / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               REPRO_CACHE_DIR=str(workdir / "cache"),
               TMPDIR=str(workdir / "tmp"))
    env.pop("REPRO_CORPUS", None)
    command = [sys.executable, str(HERE / "worker.py"), workload,
               "--seed", str(seed), "--dir", str(workdir),
               "--deadline", repr(deadline)]
    if traced:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    elif index == 0:
        command.append("--calibrate")
    spawned_at = time.monotonic()
    # its own session, so a hung repetition is stopped together with
    # any server it started
    worker = subprocess.Popen(command + ["--spawned-at", repr(spawned_at)],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              text=True, start_new_session=True)
    try:
        stdout, _ = worker.communicate(timeout=REP_TIMEOUT_S)
    finally:
        try:
            os.killpg(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the worker and everything it started have ended
        worker.wait()
    shutil.rmtree(workdir, ignore_errors=True)
    if worker.returncode != 0:
        raise RuntimeError(f"{workload} repetition {index} exited with "
                           f"{worker.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def repetitions(workload: str, seed: int, seconds: float, trace: bool,
                scratch: Path) -> List[dict]:
    """The measuring repetition, then set-up-only ones (see
    ``SETUP_SECONDS``)."""
    deadline = time.monotonic() + seconds
    reps = [spawn(workload, seed, scratch, 0, deadline, traced=trace)]
    while len(reps) < MIN_SETUPS or (
            len(reps) < MAX_SETUPS
            and sum(rep["setup_s"] for rep in reps) < SETUP_SECONDS):
        reps.append(spawn(workload, seed, scratch, len(reps), deadline,
                          setup_only=True))
    return reps


def end_to_end(workload: str, reps: List[dict]) -> Dict[str, float]:
    measured = reps[0]
    walls = [phase["wall_s"] for phase in measured["phases"]
             if not phase["traced"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    metrics = {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        # the slowest phase: the host's speed flips between two levels
        # (about 1.6x apart) for seconds to minutes at a time, and nearly
        # every run spends a phase at the slower one, where the median
        # phase flips between the two from run to run (see README.md)
        "wall_s": max(walls),
        "peak_rss_mb": measured["peak_rss_mb"],
        "ok_share": 1.0 - failed / attempted,
        "table2_error_pct": measured["metrics"]["table2_error_pct"],
    }
    if workload == "serve-zipf":
        metrics.update((name, value) for name, value
                       in measured["metrics"].items()
                       if name != "table2_error_pct")
    else:
        # a batch run is one request: its latency is wall_s and its
        # rate the cells it completes per second.
        for name in ("p50_ms_light", "p99_ms_light", "p50_ms_heavy",
                     "p99_ms_heavy"):
            metrics[name] = 1000.0 * metrics["wall_s"]
        metrics["max_ok_rps"] = measured["cells"] / metrics["wall_s"]
    return metrics


def per_layer(workload: str, reps: List[dict], names: List[str]
              ) -> Dict[str, float]:
    phases = reps[0]["phases"]
    # every layer value comes from one traced phase, the one with the
    # median wall, so the self times still add up to its wall
    traced = sorted((phase for phase in phases if phase["traced"]),
                    key=lambda phase: phase["wall_s"])
    layers = traced[(len(traced) - 1) // 2]["layers"]
    metrics = {name: layers.get(name, 0.0) for name in names}
    if workload != "serve-zipf":
        plain = statistics.median(phase["wall_s"] for phase in phases
                                  if not phase["traced"])
        metrics["trace.overhead_pct"] = 100.0 * (
            metrics["trace.wall_s"] / plain - 1.0)
    return metrics


def stamp(seed: int, code: str) -> Dict[str, object]:
    """Provenance of a record; ``code`` is the package source fingerprint,
    which identifies the code where ``rev`` (git) is unavailable."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"rev": rev, "code": code, "python": sys.version.split()[0],
            "numpy": numpy, "cores": len(os.sched_getaffinity(0)),
            "seed": seed}


def layer_table(workload: str, metrics: Dict[str, float]) -> str:
    """The traced run's self-time split, which adds up to its wall."""
    from tracer import SELF_METRICS

    rows = [*SELF_METRICS.values(), "other.s"]
    wall = metrics["trace.wall_s"]
    lines = [f"{workload}: layer self times of the traced measured phase"]
    for name in rows:
        lines.append(f"  {name:<22} {metrics[name]:10.4f} s "
                     f"{100.0 * metrics[name] / wall:6.1f} %")
    lines.append(f"  {'sum':<22} {sum(metrics[name] for name in rows):10.4f}"
                 f" s = trace.wall_s {wall:.4f} s")
    lines += [f"  {name:<22} {value:.6g}" for name, value in metrics.items()
              if name not in rows and name != "trace.wall_s"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro package under src/ in this checkout",
              file=sys.stderr)
        return 2
    config = _config()
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        reps = repetitions(args.workload, args.seed, args.seconds,
                           bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it

    problems = [text for rep in reps for text in rep["problems"]]
    e2e = end_to_end(args.workload, reps)
    names = [metric["name"] for metric in config["per_layer"]]
    layers = per_layer(args.workload, reps, names) if args.trace else {}
    units = {metric["name"]: metric["unit"]
             for metric in config["end_to_end"] + config["per_layer"]}
    chosen = layers if args.trace else {
        metric["name"]: e2e[metric["name"]]
        for metric in config["end_to_end"]}
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for text in problems:
        print(f"perfbench: {text}", file=sys.stderr)
    if args.trace:
        print(layer_table(args.workload, layers))
    record = {"workload": args.workload, "trace": args.trace,
              "stamp": stamp(args.seed, reps[0]["code"]),
              "problems": problems, "repetitions": len(reps),
              "phase_walls": [phase["wall_s"]
                              for phase in reps[0]["phases"]],
              "end_to_end": e2e,
              "rungs": [rep["rungs"] for rep in reps if "rungs" in rep],
              "per_layer": layers}
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
