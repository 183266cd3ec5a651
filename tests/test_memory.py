"""Memory guards for "no code path may use O(n^2) memory on a tridiagonal
problem".  A peak is the `tracemalloc` peak of one call above what was
allocated before it; numpy reports its array buffers to `tracemalloc`."""
import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from cknlab import cli
from cknlab.fields import DiscreteField, RadialGrid
from cknlab.regularity import holder_quotient

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
    # 3277 nodes at margin 0.1: 2 million sampled pairs, held as int32
    u = DiscreteField.from_function(RadialGrid(0.0, 1.0, 4096), np.sqrt)
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
