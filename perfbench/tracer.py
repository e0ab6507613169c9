"""Layer spans recorded from outside the program.

The tracer wraps the public entry points of each layer (see
``install``) and keeps, per thread, a stack of open spans.  When a span
closes, its duration minus the time its child spans covered is added to
its layer's self time, so the self times of nested layers never double
count: self times plus the time spent outside every span equal the
traced wall.  Counts are taken at the same boundaries, from the
arguments and results of the wrapped calls.

Nothing under ``src/`` knows about the tracer; ``install()`` patches the
loaded ``repro`` modules in place and ``uninstall()`` restores them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Self time and counts per layer, kept per thread and merged on read."""

    def __init__(self):
        self._local = threading.local()
        self._threads: List[Tuple[Counter, Counter]] = []
        self._threads_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], Counter(), Counter())
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state[1:])
        return state

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as a span of ``layer``; ``count(counts, args,
        result)`` adds the call's counts after it returns."""

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack, self_s, counts = self._state()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self_s[layer] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
            if count is not None:
                count(counts, args, result)
            return result

        return span

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(self seconds per layer, counts) merged over every thread."""
        self_s: Counter = Counter()
        counts: Counter = Counter()
        with self._threads_lock:
            for thread_self, thread_counts in self._threads:
                self_s.update(thread_self)
                counts.update(thread_counts)
        return dict(self_s), dict(counts)

    # ------------------------------------------------------------------
    # Patching.
    # ------------------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def patch_function(self, module: str, name: str, layer: str,
                       count: Optional[Callable] = None) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it.

        ``from x import f`` copies the function object into the
        importing module, so every loaded ``repro`` module holding the
        same object is patched, not only the defining one.
        """
        original = getattr(sys.modules[module], name)
        wrapped = self.wrap(layer, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def patch_method(self, cls: type, name: str, layer: str,
                     count: Optional[Callable] = None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(layer, raw.__func__, count))
        else:
            wrapped = self.wrap(layer, raw, count)
        self._set(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# The layer map: which entry point belongs to which layer, and what it
# counts.  ``SELF_METRICS`` names the metric of each self-time key.
# ----------------------------------------------------------------------
def _calls(key: str) -> Callable:
    def count(counts, args, result):
        counts[key] += 1
    return count


def _sim_count(counts, args, result):
    counts["sim.programs"] += 1
    counts["sim.instructions"] += result.stats.instructions


def _translate_count(counts, args, result):
    counts["dim.translations"] += 1
    counts["dim.translations_yielding"] += result is not None


def _place_count(counts, args, result):
    counts["cgra.place_calls"] += 1
    counts["cgra.place_ok"] += bool(result)


def _load_count(counts, args, result):
    counts["artifacts.loads"] += 1
    counts["artifacts.load_hits"] += result is not None


def _matrix_count(counts, args, result):
    inst = result.instrumentation
    counts["sweep.alloc_hits"] += inst.alloc_hits
    counts["sweep.alloc_misses"] += inst.alloc_misses


def _explore_count(counts, args, result):
    counts["dse.cells"] += result.cells
    counts["dse.frontier_points"] += len(result.points)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points.

    The modules that bind the entry points by name are imported first,
    so ``patch_function`` finds and patches every binding.
    """
    import repro.api  # noqa: F401
    import repro.cgra.allocation
    import repro.dim.translator
    import repro.dse.runner  # noqa: F401
    import repro.serve.server  # noqa: F401
    import repro.sim.coltrace
    import repro.system.artifacts

    tracer.patch_function("repro.minic.driver", "compile_to_program",
                          "minic", _calls("minic.programs"))
    tracer.patch_function("repro.asm.assembler", "assemble", "asm",
                          _calls("asm.programs"))
    tracer.patch_function("repro.sim.cpu", "run_program", "sim",
                          _sim_count)
    coltrace = repro.sim.coltrace
    tracer.patch_method(coltrace.ColumnarTrace, "__init__", "coltrace",
                        _calls("coltrace.lowerings"))
    tracer.patch_method(coltrace.ColumnarTrace, "from_payload",
                        "coltrace")
    tracer.patch_method(coltrace.PredictorTimeline, "build", "coltrace",
                        _calls("coltrace.timelines"))
    tracer.patch_method(repro.dim.translator.Translator, "translate",
                        "dim", _translate_count)
    tracer.patch_method(repro.cgra.allocation.Allocator, "place", "cgra",
                        _place_count)
    tracer.patch_function("repro.system.colreplay",
                          "evaluate_trace_columnar", "colreplay",
                          _calls("colreplay.cells"))
    tracer.patch_function("repro.system.colreplay",
                          "baseline_metrics_columnar", "colreplay")
    cache = repro.system.artifacts.ArtifactCache
    tracer.patch_method(cache, "load", "artifacts.load", _load_count)
    tracer.patch_method(cache, "load_trace", "artifacts.load")
    tracer.patch_method(cache, "store", "artifacts.store",
                        _calls("artifacts.stores"))
    tracer.patch_method(cache, "store_trace", "artifacts.store")
    tracer.patch_function("repro.system.sweep", "evaluate_matrix", "sweep",
                          _matrix_count)
    tracer.patch_function("repro.dse", "explore", "dse", _explore_count)
    # the service binds run_batch as a default argument at import time,
    # so the scheduler's runner is swapped after construction instead.
    scheduler = repro.serve.scheduler
    original_run_batch = scheduler.run_batch
    tracer.patch_function("repro.serve.scheduler", "run_batch", "serve")
    traced_run_batch = scheduler.run_batch
    original_init = scheduler.BatchScheduler.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if self.runner is original_run_batch:
            self.runner = traced_run_batch

    tracer._set(scheduler.BatchScheduler, "__init__", init)


#: self-time key -> metric name.
SELF_METRICS = {
    "minic": "minic.s",
    "asm": "asm.s",
    "sim": "sim.s",
    "coltrace": "coltrace.s",
    "dim": "dim.translate_s",
    "cgra": "cgra.place_s",
    "colreplay": "colreplay.s",
    "artifacts.load": "artifacts.load_s",
    "artifacts.store": "artifacts.store_s",
    "sweep": "sweep.s",
    "dse": "dse.s",
    "serve": "serve.batch_s",
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(self_s: Dict[str, float], counts: Dict[str, float],
                  wall: float) -> Dict[str, float]:
    """The per-layer metric values of one traced measurement."""
    out = {metric: self_s.get(key, 0.0)
           for key, metric in SELF_METRICS.items()}
    out["other.s"] = wall - sum(self_s.values())
    out["trace.wall_s"] = wall
    for key in ("minic.programs", "asm.programs", "sim.programs",
                "sim.instructions", "coltrace.timelines",
                "coltrace.lowerings", "dim.translations",
                "cgra.place_calls", "colreplay.cells",
                "artifacts.loads", "artifacts.stores", "dse.cells",
                "dse.frontier_points"):
        out[key] = counts.get(key, 0)
    out["sim.minstr_per_s"] = ratio(counts.get("sim.instructions", 0),
                                    1e6 * out["sim.s"])
    out["dim.translate_yield"] = ratio(
        counts.get("dim.translations_yielding", 0),
        counts.get("dim.translations", 0))
    hits = counts.get("sweep.alloc_hits", 0)
    out["dim.memo_hit_ratio"] = ratio(
        hits, hits + counts.get("sweep.alloc_misses", 0))
    out["cgra.place_ok_ratio"] = ratio(counts.get("cgra.place_ok", 0),
                                       counts.get("cgra.place_calls", 0))
    out["colreplay.cells_per_s"] = ratio(counts.get("colreplay.cells", 0),
                                         out["colreplay.s"])
    out["artifacts.hit_ratio"] = ratio(counts.get("artifacts.load_hits", 0),
                                       counts.get("artifacts.loads", 0))
    return out
