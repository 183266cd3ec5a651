"""Tests of the benchmark's own code: statistics, self times, the output
checkers, and one traced round in a real worker.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import spread
import worker
from spans import Tracer, patch_everywhere, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# ---------------------------------------------------------------------------
# statistics and self times

def test_summary_quartiles_and_spread():
    s = spread.summary([float(v) for v in range(10, 0, -1)])
    assert (s["q1"], s["median"], s["q3"]) == (2.75, 5.5, 8.25)
    assert s["spread"] == pytest.approx(1.0)


def test_parse_seeds():
    assert spread.parse_seeds("3-6") == [3, 4, 5, 6]
    assert spread.parse_seeds("1,7") == [1, 7]


def test_self_time_subtracts_children_only():
    spans = [[("root",), -1, 0.0, 10.0],
             [("a", "a.n512"), 0, 1.0, 4.0],
             [("leaf",), 1, 2.0, 3.0],
             [("a",), 0, 5.0, 6.0]]
    assert self_times(spans) == {"root": 6.0, "a": 3.0, "a.n512": 2.0,
                                 "leaf": 1.0}


def test_tracer_nests_spans_and_counts():
    ticks = iter([0.0, 1.0, 3.0, 7.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner(x):
        return x + 1

    traced = tracer.wrap(inner, lambda x: ("inner_s",),
                         after=lambda t, out, x: t.counts.update(calls=1))
    with tracer.span("outer_s"):
        assert traced(1) == 2
    assert tracer.totals() == {"outer_s": 5.0, "inner_s": 2.0, "calls": 1}


def test_patch_everywhere_rebinds_every_import_site():
    def fn():
        return "original"

    a, b = types.ModuleType("a"), types.ModuleType("b")
    a.fn, b.alias, b.other = fn, fn, len
    assert patch_everywhere([a, b], fn, lambda: "wrapped") == 2
    assert a.fn() == b.alias() == "wrapped" and b.other is len


def _round(round_s, setup_s=1.0, digest="d", traced=False, layers=None):
    """A round of one operation, timed at the reference probe speed."""
    return {"op_s": {"only": round_s}, "probe_s": [run.PROBE_REF_S] * 2,
            "setup_s": setup_s, "peak_rss_mib": 100.0,
            "mms_max_error": 2e-3, "attempted": 10,
            "failed": [["mms_convergence", 2, "experiment FAILED"]],
            "problems": [], "digest": digest, "traced": traced,
            "layers": layers or {}}


def test_scaled_round_divides_each_operation_by_its_probes():
    ref = run.PROBE_REF_S
    rnd = {"op_s": {"a": 1.0, "b": 3.0}, "probe_s": [ref, 3 * ref, 2 * ref]}
    # a: 1 s at twice the reference probe time; b: 3 s at 2.5 times
    assert run.scaled_round_s(rnd) == pytest.approx(0.5 + 1.2)
    rnd["setup_s"] = 0.9
    assert run.scaled_setup_s(rnd) == pytest.approx(0.9)
    rnd["probe_s"][0] = 3 * ref
    assert run.scaled_setup_s(rnd) == pytest.approx(0.3)


def test_summarize_takes_medians_and_counts_failures():
    spec = run.load_spec()
    out = run.summarize(spec, [_round(3.0), _round(1.0, 0.5), _round(2.0, 2.0)],
                        trace=False)
    assert out["correct"] and (out["attempted"], out["failed"]) == (30, 3)
    assert out["metrics"]["round_s"] == {"value": 2.0, "unit": "s"}
    assert out["metrics"]["setup_s"]["value"] == 1.0
    assert set(out["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_summarize_rejects_rounds_that_disagree():
    out = run.summarize(run.load_spec(), [_round(1.0), _round(1.0, digest="x")],
                        trace=False)
    assert not out["correct"]


def test_summarize_trace_medians_and_overhead():
    spec = run.load_spec()
    rounds = [_round(2.2, traced=True, layers={"solver.solve_s": 1.0}),
              _round(2.0),
              _round(2.2, traced=True, layers={"solver.solve_s": 3.0}),
              _round(2.0)]
    metrics = run.summarize(spec, rounds, trace=True)["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["solver.solve_s"]["value"] == 2.0
    assert metrics["solver.assemble_s"]["value"] == 0
    assert metrics["trace.overhead_pct"]["value"] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# checkers reject corrupted outputs

def _report(exp, header, rows):
    return "\n".join([f"# experiment={exp} experiment={exp} seed=1", header]
                     + rows) + "\n"


def test_schema_table_matches_the_schema_doc():
    doc = (ROOT / "docs" / "schemas" / "README.md").read_text()
    found = {}
    for section in doc.split("\n### ")[1:]:
        head = re.match(r"(\w+) → `([\w.]+)`", section)
        cols = re.search(r"Columns: `([^`]+)`", section)
        if head and cols:
            found[head[2]] = (head[1], cols[1])
    assert len(found) == 9
    for fname, entry in found.items():
        assert worker.REPORTS[fname] == entry
    assert "`radius,value`" in doc
    assert all(key in doc for key in worker.REGULARITY_KEYS)


def test_schema_problems():
    header = "level,h,max_error,observed_order"
    good = _report("mms_convergence", header, ["0,0.1,0.2,nan"])
    assert worker.schema_problems("mms_report.csv", good) == []
    assert worker.schema_problems("mms_report.csv", good.replace("h,", "dx,"))
    assert worker.schema_problems("mms_report.csv", good + "1,2\n")
    assert worker.schema_problems("mms_report.csv", good.rstrip("\n"))
    assert worker.schema_problems("ladder_report.csv", good)


def test_mms_report_rejects_a_raised_error():
    rows = ["0,0.1,0.004,nan", "1,0.05,0.003,0.4", "2,0.025,0.002,0.6"]
    text = _report("mms_convergence", "level,h,max_error,observed_order", rows)
    errs, problems = worker.mms_report_errors(text)
    assert errs == [0.004, 0.003, 0.002] and problems == []
    _, problems = worker.mms_report_errors(text.replace("0.002,", "0.0031,"))
    assert len(problems) == 1


def test_measure_report_rejects_a_perturbed_closed_form():
    N, a, r = 4, 0.25, 1.3
    closed = 2 * math.pi ** 2 * r ** (N - 2 * a) / (N - 2 * a)
    header = "N,a,r,closed_form,quadrature,rel_error,doubling,doubling_exact"
    row = f"{N},{a!r},{r!r},{closed!r},0,0,0,0"
    assert worker.measure_report_problems(
        _report("measure_identities", header, [row])) == []
    bad = row.replace(repr(closed), repr(closed * (1 + 1e-9)))
    assert worker.measure_report_problems(
        _report("measure_identities", header, [bad]))


def test_replacement_report_rejects_a_raised_energy():
    header = "case,energy_u,energy_w,energy_diff_split,idempotence_gap"
    text = _report("harmonic_replacement", header, ["0,2.0,1.5,0,0"])
    assert worker.replacement_report_problems(text) == []
    assert worker.replacement_report_problems(text.replace("1.5", "2.1"))


def _radial_rows(scale_last=1.0):
    ball = [(0.0, n, 0.0055 * (512 / n) ** worker.BETA) for n in worker.RADIAL_N]
    annulus = [(0.1, n, 1.3e-5 * (512 / n) ** 2) for n in worker.RADIAL_N]
    ball[-1] = (0.0, ball[-1][1], ball[-1][2] * scale_last)
    return ball + annulus


def test_radial_checker_rejects_a_raised_error():
    assert worker.radial_problems(_radial_rows()) == []
    assert worker.radial_problems(_radial_rows(scale_last=1.1))
    rows = _radial_rows()
    rows[-1] = (0.1, rows[-1][1], rows[-1][2] * 2.0)
    assert worker.radial_problems(rows)


def test_ball_sum_rejects_a_perturbed_weight():
    r, w = 0.5, -0.6
    exact = 4 * math.pi * r ** (3 + w) / (3 + w)
    weights = np.full(100, exact / 100)
    assert worker.ball_sum_problem(weights, r, w) is None
    weights[7] += 0.02 * exact
    assert worker.ball_sum_problem(weights, r, w)


def test_energy_checker():
    assert worker.energy_problems(3.0, 2.0, 1.0) == []
    assert worker.energy_problems(2.0, 2.5, -0.5)
    assert worker.energy_problems(3.0, 2.0, 1.001)


def test_solve_failures_recompute_the_residual():
    A = np.array([[2.0, -1.0], [-1.0, 2.0]])
    b = np.array([1.0, 1.0])

    def result(x, converged=True):
        return {"system": SimpleNamespace(matrix=A, rhs=b),
                "uh": SimpleNamespace(values=np.asarray(x)),
                "rep": SimpleNamespace(converged=converged)}

    assert worker.solve_failures({"ok": result([1.0, 1.0])}) == []
    bad = worker.solve_failures({"off": result([1.0, 1.0 + 1e-6]),
                                 "flag": result([1.0, 1.0], converged=False)})
    assert [f[0] for f in bad] == ["off", "flag"]
    failed = []
    problems = worker.gate_box_solves({"m16": result([1.0, 1.0]),
                                       "m32": result([1.0, 1.0 + 1e-6])}, failed)
    assert [f[0] for f in failed] == ["m32"] and len(problems) == 1


# ---------------------------------------------------------------------------
# end to end

def test_traced_radial_round(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                           "radial_refine", "1", "1", str(tmp_path)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["problems"] == [] and res["attempted"] == 8
    layers = res["layers"]
    for n in worker.RADIAL_N:
        assert layers[f"solver.cg_iters.n{n}"] == 2 * n + 1  # ball n, annulus n+1
        assert layers[f"solver.assemble_s.n{n}"] > 0
    assert layers["solver.assemble.calls"] == 8
    assert res["mms_max_error"] == pytest.approx(2.13e-3, rel=0.01)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "radial_refine", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
