"""Regenerate ``perfbench/reference.json``, the correctness references.

Usage: ``PYTHONPATH=src python3 perfbench/make_reference.py``.

Run it only when the simulator's numbers change on purpose; commit the
new file with the change that moved them.  It records:

- ``paper_matrix_sha256`` / ``paper_cells``: the digest of Table 2's
  full matrix (``repro.sweep(fast=True).results_json()``) and its cells,
  which paper-cold, serve-zipf and the calibration rows compare against;
- ``dse_grid_sha256``: the digest of dse-grid's frontier JSON;
- ``corpus_sha256``: the digest of corpus-cold's results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    scratch = HERE.parent / ".perfbench" / "reference"
    shutil.rmtree(scratch, ignore_errors=True)
    os.environ["REPRO_CACHE_DIR"] = str(scratch)
    sys.path.insert(0, str(HERE))
    import repro
    import worker
    from repro.api import corpus as corpus_api
    from repro.system.config import paper_system

    try:
        paper = repro.sweep(fast=True, cache_dir=scratch).results_json()
        cells = {}
        for (system, workload), row in worker.cells_of(paper).items():
            cells.setdefault(system, {})[workload] = row
        frontier = repro.explore(space=worker.dse_space(),
                                 strategy="grid",
                                 workloads=list(worker.DSE_WORKLOADS),
                                 fast=True)
        configs = [paper_system(*config)
                   for config in worker.CORPUS_CONFIGS]
        generated = corpus_api(seed=worker.CORPUS_SEED,
                               count=worker.CORPUS_KERNELS, profile="mixed")
        corpus = repro.sweep(configs, names=generated.names(), fast=True,
                             cache_dir=scratch).results_json()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reference = {"paper_matrix_sha256": worker._sha256(paper),
                 "dse_grid_sha256": worker._sha256(frontier.to_json()),
                 "corpus_sha256": worker._sha256(corpus),
                 "paper_cells": cells}
    with open(worker.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
