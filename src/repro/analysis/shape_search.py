"""The coarse array-shape grid — the paper's future work #1.

"Currently, we are working on finding the ideal shape for the
reconfigurable array."  The search itself lives in the design-space
exploration subsystem (:mod:`repro.dse`, or the ``repro explore`` CLI);
this module keeps the grid of shapes around Table 1's designs that
shape-only explorations start from.
"""

from __future__ import annotations

from typing import List

from repro.cgra.shape import ArrayShape, default_immediate_slots


def default_grid() -> List[ArrayShape]:
    """A coarse but representative grid around Table 1's designs."""
    shapes = []
    for rows in (16, 24, 48, 96, 150):
        for alus in (4, 8, 12):
            for ldsts in (2, 6):
                shapes.append(ArrayShape(
                    rows=rows, alus_per_row=alus, mults_per_row=2,
                    ldsts_per_row=ldsts,
                    immediate_slots=default_immediate_slots(rows)))
    return shapes
