"""Memory guards for "no code path may use O(n^2) memory on a tridiagonal
problem", and for the box study's cell-sized arrays.  A peak is the
`tracemalloc` peak of one call above what was allocated before it; numpy
reports its array buffers to `tracemalloc`."""
import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from cknlab import cli, fields
from cknlab.fields import BoxGrid, DiscreteField, RadialGrid
from cknlab.params import validate
from cknlab.regularity import campanato_profile, holder_quotient
from cknlab.solver import assemble, solve

MIB = float(1 << 20)


def traced_peak_mib(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - start) / MIB
    finally:
        tracemalloc.stop()


def test_holder_quotient_all_pairs_in_bounded_memory():
    # 1920 nodes at margin 0.1: 1.8 million pairs, all of them used
    u = DiscreteField.from_function(RadialGrid(0.0, 1.0, 2400), np.sqrt)
    assert traced_peak_mib(holder_quotient, u, 0.1, 0.5) <= 4.0


def test_holder_quotient_sampled_pairs_in_bounded_memory():
    # 4000 nodes at margin 0.1: 2 million sampled pairs, held as int32
    u = DiscreteField.from_function(RadialGrid(0.0, 1.0, 5000), np.sqrt)
    assert traced_peak_mib(holder_quotient, u, 0.1, 0.5, seed=1) <= 24.0


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_experiment_at_defaults_in_bounded_memory(tmp_path, name):
    """Each `ckn-lab run` experiment at its defaults peaks at most 2 MiB
    above its start.  A first untraced run loads what numpy loads lazily,
    so that only the run itself is measured."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment={name}\noutput_dir={tmp_path}\nparams.N=3\n"
                   "params.a=0.3\nparams.b=0.5\nseed=1\n")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.run(str(cfg))
        peak = traced_peak_mib(cli.run, str(cfg))
    assert peak <= 2.0, f"{name}: {peak:.2f} MiB"


def box32_with_tables(params):
    """The m = 32 cube of the box study with the weight tables it reads
    already built, as the study builds them first."""
    grid = BoxGrid((-1.0,) * 3, (1.0,) * 3, (32,) * 3)
    fields.cell_weights(grid, 3, -params.bp)
    fields.cell_weights(grid, 3, -2.0 * params.a)
    for axis in range(3):
        fields.box_face_dual_weights(grid, -2.0 * params.a, axis)
    return grid


def test_box_assembly_in_bounded_memory():
    """The raw stiffness and its Dirichlet-eliminated copy hold four
    cell-sized arrays each (1 MiB apiece at m = 32); the assembly peaks at
    2.96 MiB with both built.  Seven slots apiece, or seven rolled masks,
    read 4.74 MiB."""
    params = validate(3, 0.3, 0.5)
    grid = box32_with_tables(params)
    f = DiscreteField.from_function(grid, lambda p: np.cos(p[:, 0]))
    peak = traced_peak_mib(assemble, params, grid, f,
                           dirichlet=lambda p: p[:, 2] ** 2)
    assert peak <= 3.25, f"{peak:.2f} MiB"


def test_box_solve_in_bounded_memory():
    """The box solve holds the reduced operator (seven coefficient arrays
    of the half size, the black diagonal, the red scaling and two scratch
    arrays) and CG's vectors on the black half: at m = 32 it peaks at
    2.50 MiB, as did Jacobi-PCG on the whole box."""
    params = validate(3, 0.3, 0.5)
    grid = box32_with_tables(params)
    f = DiscreteField.from_function(grid, lambda p: np.cos(p[:, 0]))
    system = assemble(params, grid, f, dirichlet=lambda p: p[:, 2] ** 2)
    peak = traced_peak_mib(solve, system)
    assert peak <= 2.6, f"{peak:.2f} MiB"


def test_box_campanato_profile_in_bounded_memory():
    """The rim subsample is formed `_RIM_BLOCK` rows at a time: the
    profile of the box study peaks at 1.78 MiB, against 4.69 MiB with the
    whole rim of the largest ball at once."""
    params = validate(3, 0.3, 0.5)
    grid = box32_with_tables(params)
    u, _ = solve(assemble(params, grid, dirichlet=lambda p: p[:, 2] ** 2))
    radii = tuple(0.8 * 0.6 ** k for k in range(4))
    peak = traced_peak_mib(campanato_profile, params, u, (0.0, 0.0, 0.0), radii)
    assert peak <= 2.25, f"{peak:.2f} MiB"
