"""The paper's system configurations (Table 1) and the canonical
:class:`SystemSpec` every entry point builds them from.

A :class:`SystemSpec` is one frozen, JSON-round-trippable value that
names either a paper array or an arbitrary geometry (plus DIM policy
overrides) and builds its :class:`SystemConfig`.  The CLI, the serve
protocol, the DSE runners and the MPSoC scenario layer all build their
configurations through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.cgra.shape import (
    ArrayShape,
    INFINITE_SHAPE,
    default_immediate_slots,
)
from repro.dim.params import DimParams
from repro.sim.stats import TimingModel

#: Table 1 — the three array configurations evaluated in the paper.
#: "#Columns" is the per-line FU total (8+1+2=11, 8+2+6=16, 12+2+6=20).
#: Immediate-table capacity scales with the array (two slots per line) so
#: that lines, not immediates, are the binding resource — the paper never
#: reports immediate-table saturation.
PAPER_SHAPES: Dict[str, ArrayShape] = {
    "C1": ArrayShape(rows=24, alus_per_row=8, mults_per_row=1,
                     ldsts_per_row=2, immediate_slots=48),
    "C2": ArrayShape(rows=48, alus_per_row=8, mults_per_row=2,
                     ldsts_per_row=6, immediate_slots=96),
    "C3": ArrayShape(rows=150, alus_per_row=12, mults_per_row=2,
                     ldsts_per_row=6, immediate_slots=300),
    "ideal": INFINITE_SHAPE,
}

#: The reconfiguration-cache sizes swept in Table 2.
PAPER_CACHE_SLOTS = (16, 64, 256)


@dataclass(frozen=True)
class SystemConfig:
    """A complete system: array shape, DIM policies, core timing."""

    shape: ArrayShape
    dim: DimParams = field(default_factory=DimParams)
    timing: TimingModel = field(default_factory=TimingModel)
    name: str = ""

    def with_dim(self, **kwargs) -> "SystemConfig":
        return replace(self, dim=replace(self.dim, **kwargs))


def paper_system(array: str = "C3", slots: int = 64,
                 speculation: bool = False) -> SystemConfig:
    """Build one of the paper's evaluated systems.

    ``array`` is 'C1', 'C2', 'C3' or 'ideal'; ``slots`` is the
    reconfiguration-cache size (the ideal system gets an effectively
    unbounded cache, matching the paper's "infinite hardware resources"
    column).  An unknown array name raises :class:`ValueError` naming
    the valid choices.
    """
    shape = PAPER_SHAPES.get(array)
    if shape is None:
        valid = ", ".join(sorted(PAPER_SHAPES))
        raise ValueError(
            f"unknown array {array!r}: valid array names are {valid}")
    if array == "ideal":
        slots = 1 << 20
    dim = DimParams(cache_slots=slots, speculation=speculation)
    spec_tag = "spec" if speculation else "nospec"
    return SystemConfig(shape, dim, TimingModel(),
                        name=f"{array}/{slots}/{spec_tag}")


def custom_name(shape: ArrayShape, dim: DimParams) -> str:
    """The canonical name of an arbitrary (shape, dim) system.

    The scheme is injective over (shape, dim): the geometry is always
    spelled out, shape timing fields appear only when they differ from
    the :class:`ArrayShape` defaults (immediate slots: from the
    two-per-line convention), and DIM policy fields beyond
    slots/speculation ride in a sorted ``+key=value`` suffix.  Two
    different systems can therefore never collide, which is what lets
    the matrix engine and the evaluation service deduplicate and slice
    configurations by name alone.
    """
    base = (f"r{shape.rows}x{shape.alus_per_row}a"
            f"{shape.mults_per_row}m{shape.ldsts_per_row}l")
    if shape.immediate_slots != default_immediate_slots(shape.rows):
        base += f"-i{shape.immediate_slots}"
    defaults = ArrayShape(rows=shape.rows,
                          alus_per_row=shape.alus_per_row,
                          mults_per_row=shape.mults_per_row,
                          ldsts_per_row=shape.ldsts_per_row)
    if shape.alu_chain != defaults.alu_chain:
        base += f"-c{shape.alu_chain}"
    if (shape.rf_read_ports != defaults.rf_read_ports
            or shape.rf_write_ports != defaults.rf_write_ports):
        base += f"-p{shape.rf_read_ports}.{shape.rf_write_ports}"
    spec_tag = "spec" if dim.speculation else "nospec"
    name = f"{base}/{dim.cache_slots}/{spec_tag}"
    dim_defaults = DimParams(cache_slots=dim.cache_slots,
                             speculation=dim.speculation)
    extras = sorted(
        (f.name, getattr(dim, f.name)) for f in fields(DimParams)
        if getattr(dim, f.name) != getattr(dim_defaults, f.name))
    if extras:
        name += "+" + ",".join(f"{key}={value}"
                               for key, value in extras)
    return name


def custom_system(shape: ArrayShape, dim: Optional[DimParams] = None,
                  timing: Optional[TimingModel] = None) -> SystemConfig:
    """Build a system around an arbitrary array shape.

    The constructor behind every design-space exploration point
    (:mod:`repro.dse`): any geometry, any DIM policy, canonically named
    via :func:`custom_name` so distinct systems never share a name.
    """
    dim = dim if dim is not None else DimParams()
    return SystemConfig(shape, dim,
                        timing if timing is not None else TimingModel(),
                        name=custom_name(shape, dim))


#: ArrayShape field names in declaration order — the key set of a
#: :class:`SystemSpec` wire ``"shape"`` object.
SPEC_SHAPE_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(ArrayShape))

#: DimParams fields a :class:`SystemSpec` may override beyond the
#: top-level ``slots``/``speculation`` pair.
SPEC_DIM_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(DimParams)
    if f.name not in ("cache_slots", "speculation"))


@dataclass(frozen=True)
class SystemSpec:
    """The one canonical, JSON-round-trippable system description.

    Exactly one of ``array`` (a Table 1 name: C1/C2/C3/ideal) or
    ``shape`` (an arbitrary :class:`~repro.cgra.shape.ArrayShape`) is
    set.  ``slots``/``speculation`` are the reconfiguration-cache size
    and speculation switch; ``dim_extras`` carries any further
    :class:`~repro.dim.params.DimParams` overrides as sorted
    ``(name, value)`` pairs (shape form only, mirroring the serve wire
    protocol).  :meth:`build` produces the identically-named
    :class:`SystemConfig` that :func:`paper_system` /
    :func:`custom_system` always did, so specs, wire dicts and configs
    agree on names by construction.
    """

    array: Optional[str] = None
    shape: Optional[ArrayShape] = None
    slots: int = 64
    speculation: bool = False
    dim_extras: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if (self.array is None) == (self.shape is None):
            raise ValueError(
                "a SystemSpec names exactly one of array= or shape=")
        if self.array is not None and self.array not in PAPER_SHAPES:
            valid = ", ".join(sorted(PAPER_SHAPES))
            raise ValueError(f"unknown array {self.array!r}: valid "
                             f"array names are {valid}")
        if self.shape is not None and not isinstance(self.shape,
                                                     ArrayShape):
            raise ValueError("shape must be an ArrayShape")
        if not (isinstance(self.slots, int)
                and not isinstance(self.slots, bool) and self.slots > 0):
            raise ValueError("slots must be a positive integer")
        if not isinstance(self.speculation, bool):
            raise ValueError("speculation must be a boolean")
        extras = tuple(sorted(self.dim_extras))
        for name, _ in extras:
            if name not in SPEC_DIM_FIELDS:
                raise ValueError(
                    f"unknown dim extra {name!r}: valid extras are "
                    f"{', '.join(SPEC_DIM_FIELDS)} (slots/speculation "
                    f"are top-level fields)")
        if extras and self.array is not None:
            raise ValueError("dim extras require the shape form")
        object.__setattr__(self, "dim_extras", extras)

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, shape: ArrayShape,
           dim: Optional[DimParams] = None) -> "SystemSpec":
        """The spec denoting ``custom_system(shape, dim)`` — DimParams
        decomposed into slots/speculation plus non-default extras."""
        dim = dim if dim is not None else DimParams()
        defaults = DimParams(cache_slots=dim.cache_slots,
                             speculation=dim.speculation)
        extras = tuple(sorted(
            (f.name, getattr(dim, f.name)) for f in fields(DimParams)
            if getattr(dim, f.name) != getattr(defaults, f.name)))
        return cls(shape=shape, slots=dim.cache_slots,
                   speculation=dim.speculation, dim_extras=extras)

    def dim(self) -> DimParams:
        """The complete DimParams this spec pins."""
        return DimParams(cache_slots=self.slots,
                         speculation=self.speculation,
                         **dict(self.dim_extras))

    def build(self, timing: Optional[TimingModel] = None) -> SystemConfig:
        """The :class:`SystemConfig` this spec denotes.

        Names are exactly the historical ones — ``C2/64/spec`` for
        paper arrays (the ideal system keeps its unbounded-cache
        convention), :func:`custom_name` geometry names for shapes — so
        matrix slicing and serve coalescing by name keep working.
        """
        if self.array is not None:
            config = paper_system(self.array, self.slots,
                                  self.speculation)
            if timing is not None:
                config = replace(config, timing=timing)
            return config
        return custom_system(self.shape, self.dim(), timing=timing)

    @property
    def name(self) -> str:
        """The canonical configuration name (injective over specs)."""
        return self.build().name

    # ------------------------------------------------------------------
    # JSON round-trip (the serve wire config-object form).
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        if self.array is not None:
            return {"array": self.array, "slots": self.slots,
                    "speculation": self.speculation}
        payload: Dict[str, object] = {
            "shape": {name: getattr(self.shape, name)
                      for name in SPEC_SHAPE_FIELDS},
            "slots": self.slots,
            "speculation": self.speculation,
        }
        if self.dim_extras:
            payload["dim"] = dict(self.dim_extras)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SystemSpec":
        """Parse the wire form; raises :class:`ValueError` on bad input
        (the serve protocol wraps this with its structured-error
        vocabulary)."""
        if not isinstance(payload, Mapping):
            raise ValueError("a system spec must be a JSON object")
        unknown = set(payload) - {"array", "shape", "slots",
                                  "speculation", "dim"}
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        slots = payload.get("slots", 64)
        speculation = payload.get("speculation", False)
        if "shape" in payload:
            if "array" in payload:
                raise ValueError("array and shape are mutually "
                                 "exclusive")
            raw = payload["shape"]
            if not isinstance(raw, Mapping):
                raise ValueError("shape must be an object")
            bad = set(raw) - set(SPEC_SHAPE_FIELDS)
            if bad:
                raise ValueError(
                    f"shape has unknown fields: {sorted(bad)}")
            missing = [name for name in ("rows", "alus_per_row",
                                         "mults_per_row",
                                         "ldsts_per_row")
                       if name not in raw]
            if missing:
                raise ValueError(
                    f"shape is missing {', '.join(missing)}")
            values = dict(raw)
            if "immediate_slots" not in values:
                values["immediate_slots"] = default_immediate_slots(
                    int(values["rows"]))
            shape = ArrayShape(**values)
            extras = payload.get("dim", {})
            if not isinstance(extras, Mapping):
                raise ValueError("dim must be an object")
            return cls(shape=shape, slots=slots, speculation=speculation,
                       dim_extras=tuple(sorted(extras.items())))
        if "dim" in payload:
            raise ValueError("dim extras require the shape form")
        return cls(array=payload.get("array", "C3"), slots=slots,
                   speculation=speculation)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        return cls.from_dict(json.loads(text))
