"""The redesigned CLI option surface and the ``repro.api`` facade.

Every system-taking subcommand parses through one shared option parent
and builds configurations through the single
:class:`repro.SystemSpec` path — this file sweeps the flag matrix
(subcommand x array x slots x spec) at the parser level, without
running any simulation.
"""

import pytest

import repro
import repro.api
from repro.cli import _build_configs, _single_config, build_parser
from repro.system.config import PAPER_SHAPES, paper_system
from repro.system.sweep import paper_matrix

PARSER = build_parser()

#: every subcommand that takes a system, with its (array, slots, spec)
#: defaults; sweep's ``None`` array means "the full paper matrix".
SYSTEM_COMMANDS = {
    "run": ("C3", 64, "off"),
    "inspect": ("C1", 64, "off"),
    "report": ("C2", 64, "off"),
    "suite": ("C2", 64, "off"),
    "sweep": (None, "16,64,256", "both"),
}

_TARGET = {"run": ["x"], "inspect": ["x"], "report": ["x"],
           "suite": [], "sweep": []}


def _parse(command, *flags):
    return PARSER.parse_args([command, *_TARGET[command], *flags])


# ----------------------------------------------------------------------
# Defaults and the shared flag matrix.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("command", sorted(SYSTEM_COMMANDS))
def test_defaults(command):
    array, slots, spec = SYSTEM_COMMANDS[command]
    args = _parse(command)
    assert args.array == array
    assert str(args.slots) == str(slots)
    assert args.spec == spec


@pytest.mark.parametrize("command",
                         ["run", "inspect", "report", "suite"])
@pytest.mark.parametrize("array", sorted(PAPER_SHAPES))
@pytest.mark.parametrize("slots", [16, 64, 256])
@pytest.mark.parametrize("spec", [False, True])
def test_single_config_commands_cover_the_matrix(command, array, slots,
                                                 spec):
    flags = ["--array", array, "--slots", str(slots)]
    if spec:
        flags.append("--spec")
    config = _single_config(_parse(command, *flags))
    assert config == paper_system(array, slots, spec)
    expected_slots = 1 << 20 if array == "ideal" else slots
    assert config.name == (f"{array}/{expected_slots}/"
                           f"{'spec' if spec else 'nospec'}")


@pytest.mark.parametrize("spec_flag,expected",
                         [("off", [False]), ("on", [True]),
                          ("both", [False, True])])
def test_spec_values_expand(spec_flag, expected):
    configs = _build_configs(_parse("sweep", "--arrays", "C1",
                                    "--slots", "16", "--spec",
                                    spec_flag))
    assert [c.dim.speculation for c in configs] == expected


def test_bare_spec_means_on():
    args = _parse("run", "--spec")
    assert args.spec == "on"
    assert _single_config(args).dim.speculation is True


def test_array_and_arrays_are_the_same_option():
    one = _parse("sweep", "--array", "C2,C3", "--slots", "16")
    two = _parse("sweep", "--arrays", "C2,C3", "--slots", "16")
    assert [c.name for c in _build_configs(one)] == \
        [c.name for c in _build_configs(two)]


def test_sweep_defaults_to_paper_matrix():
    configs = _build_configs(_parse("sweep"))
    assert [c.name for c in configs] == \
        [c.name for c in paper_matrix()]


def test_sweep_expansion_order_and_ideal():
    args = _parse("sweep", "--arrays", "C1,C2", "--slots", "16,64",
                  "--spec", "both", "--ideal")
    names = [c.name for c in _build_configs(args)]
    assert names == [
        "C1/16/nospec", "C1/64/nospec", "C1/16/spec", "C1/64/spec",
        "C2/16/nospec", "C2/64/nospec", "C2/16/spec", "C2/64/spec",
        "ideal/1048576/nospec", "ideal/1048576/spec",
    ]


def test_ideal_in_arrays_ignores_slots():
    configs = _build_configs(_parse("sweep", "--arrays", "ideal",
                                    "--slots", "16,64"))
    assert [c.name for c in configs] == \
        ["ideal/1048576/nospec", "ideal/1048576/spec"]


# ----------------------------------------------------------------------
# Errors: one helpful message, through one path.
# ----------------------------------------------------------------------
def test_unknown_array_lists_valid_names():
    with pytest.raises(SystemExit,
                       match="valid array names are C1, C2, C3, ideal"):
        _single_config(_parse("run", "--array", "C9"))


def test_paper_system_raises_value_error_with_names():
    with pytest.raises(ValueError,
                       match="valid array names are C1, C2, C3, ideal"):
        paper_system("Z1")


def test_multi_config_selection_rejected_by_single_commands():
    for flags in (["--array", "C1,C2"], ["--slots", "16,64"],
                  ["--spec", "both"]):
        with pytest.raises(SystemExit, match="exactly one system"):
            _single_config(_parse("run", *flags))


def test_bad_slots_rejected():
    with pytest.raises(SystemExit, match="comma-separated integers"):
        _build_configs(_parse("sweep", "--arrays", "C1",
                              "--slots", "lots"))


# ----------------------------------------------------------------------
# The repro.api facade.
# ----------------------------------------------------------------------
def test_facade_reexported_from_top_level():
    assert repro.run is repro.api.run
    assert repro.evaluate is repro.api.evaluate
    assert repro.sweep is repro.api.sweep
    assert repro.load_target is repro.api.load_target
    assert repro.Telemetry is not None
    assert repro.NULL_TELEMETRY.enabled is False
    for name in ("run", "evaluate", "sweep",
                 "Telemetry", "NullTelemetry"):
        assert name in repro.__all__


def test_load_target_raises_value_error_not_exit():
    with pytest.raises(ValueError, match="unknown target"):
        repro.load_target("definitely_not_a_workload")


def test_load_target_passes_programs_through():
    program = repro.load_target("crc")
    assert repro.load_target(program) is program
