"""The shape grid and configuration rendering."""

from repro.analysis.shape_search import default_grid
from repro.asm import assemble
from repro.cgra.render import render_configuration
from repro.cgra.shape import ArrayShape
from repro.dim import BimodalPredictor, DimParams, Translator
from repro.sim import Simulator
from repro.system import PAPER_SHAPES


def test_default_grid_is_varied():
    grid = default_grid()
    assert len(grid) > 10
    assert len({(s.rows, s.alus_per_row, s.ldsts_per_row)
                for s in grid}) == len(grid)


# --- rendering ---------------------------------------------------------------

def test_render_configuration_contents():
    source = """
        addiu $t0, $t0, 1
        sll $t1, $t0, 2
        lw $t2, 0($t1)
        mult $t2, $t0
        mflo $t3
        jr $ra
    """
    sim = Simulator(assemble(source))
    translator = Translator(PAPER_SHAPES["C1"], DimParams(),
                            BimodalPredictor(64), sim.block_at)
    config = translator.translate(sim.block_at(sim.pc))
    text = render_configuration(config)
    assert "[A] addiu $t0, $t0, 1" in text
    assert "[L] lw $t2" in text
    assert "[M] mult" in text
    assert "input context" in text
    assert "$t0" in text
    assert "hi" in text and "lo" in text
    assert f"{config.exec_cycles} cycles" in text


def test_render_truncates_wide_lines():
    source = "\n".join(f"addiu $t{i % 8}, $zero, {i}" for i in range(12)) \
        + "\njr $ra\n"
    sim = Simulator(assemble(source))
    shape = ArrayShape(rows=4, alus_per_row=16, mults_per_row=1,
                       ldsts_per_row=2, immediate_slots=32)
    translator = Translator(shape, DimParams(), BimodalPredictor(64),
                            sim.block_at)
    config = translator.translate(sim.block_at(sim.pc))
    text = render_configuration(config, max_ops_per_line=4)
    assert "more)" in text
