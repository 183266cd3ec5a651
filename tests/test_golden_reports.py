"""Golden digests of every report the CLI writes at (N, a, b) = (3, 0.3, 0.5).

`golden_reports.json` holds, for each experiment and seed run with
`--dump-trials`, the sha256 of each report body (the lines after the
manifest line, which echoes the output directory), the exit code, stdout,
the last line printed to stderr and the number of RuntimeWarnings
(recorded, not printed).  It also holds the determinism class it was recorded in: reruns
are byte-identical only on the same numpy build and SIMD dispatch, BLAS
core type and C library.

A change that moves report bytes rewrites the manifest in the same diff:

    PYTHONPATH=src python tests/test_golden_reports.py
"""
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cknlab import cli

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

MANIFEST = Path(__file__).resolve().parent / "golden_reports.json"
SEEDS = (1, 103, 202, 21)


def blas_core() -> str:
    """The kernel set OpenBLAS chose for this CPU, read from the library
    that numpy loaded; "unknown" where that library is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        for name in ("scipy_openblas_get_corename64_",
                     "scipy_openblas_get_corename"):
            fn = getattr(ctypes.CDLL(str(lib)), name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def determinism_class() -> dict:
    return {"numpy": np.__version__,
            "simd": [f for f in _umath.__cpu_dispatch__
                     if _umath.__cpu_features__.get(f)],
            "blas_core": blas_core(),
            "libc": list(platform.libc_ver())}


def run_all(out_dir: Path) -> dict:
    """Each experiment at each seed, in-process, as `ckn-lab run
    --dump-trials` runs it."""
    runs = {}
    for seed in SEEDS:
        for name in cli.EXPERIMENTS:
            out = out_dir / f"{name}-{seed}"
            cfg = out_dir / f"{name}-{seed}.cfg"
            cfg.write_text(f"experiment={name}\noutput_dir={out}\nparams.N=3\n"
                           f"params.a=0.3\nparams.b=0.5\nseed={seed}\n")
            out_text, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out_text), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli.run(str(cfg), dump_trials=True)
            bodies = {path.name: hashlib.sha256(
                path.read_bytes().split(b"\n", 1)[1]).hexdigest()
                for path in sorted(out.glob("*"))}
            runs[f"{name}/{seed}"] = {
                "exit": code,
                "stdout": out_text.getvalue(),
                "stderr": (err.getvalue().splitlines() or [""])[-1],
                "runtime_warnings": sum(issubclass(w.category, RuntimeWarning)
                                        for w in caught),
                "reports": bodies}
    return runs


def test_reports_match_the_golden_digests(tmp_path):
    golden = json.loads(MANIFEST.read_text())
    here = determinism_class()
    differs = [key for key, value in golden["class"].items()
               if value != here[key]]
    if differs:
        pytest.skip("recorded in another determinism class: "
                    + ", ".join(f"{k} {golden['class'][k]!r} here {here[k]!r}"
                                for k in differs))
    runs = run_all(tmp_path)
    assert sorted(runs) == sorted(golden["runs"])
    assert [key for key in runs if runs[key] != golden["runs"][key]] == []


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        MANIFEST.write_text(json.dumps(
            {"class": determinism_class(), "runs": run_all(Path(tmp))},
            indent=1, sort_keys=True) + "\n")
    sys.exit(0)
