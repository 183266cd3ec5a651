"""One benchmark round, run in a fresh single-threaded process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORK_DIR

The worker makes the round's inputs from SEED, runs the workload's fixed
list of operations, checks their outputs and prints one JSON line:

    ready         time.monotonic() once cknlab is imported and the inputs
                  are made; the parent subtracts its launch time
    op_s          wall time of each operation, by name
    probe_s       wall time of the speed probe before the first operation
                  and after each one
    peak_rss_mib  peak resident memory of this process after them
    mms_max_error max nodal error on the workload's finest full-ball grid
    attempted     operations run
    failed        [name, exit code or error code, stderr line] per failure
    problems      outputs that failed a check
    digest        the outputs that must repeat exactly from round to round
    layers        with TRACE=1: self time and counts per layer span

It runs with WORK_DIR as its working directory and writes nothing outside
it. The parent, perfbench/run.py, starts one worker per round.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one core per round; set before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cknlab import (cli, fields, inequalities, measure, moser,  # noqa: E402
                    regularity, solver)
from cknlab.fields import BoxGrid, DiscreteField, RadialGrid  # noqa: E402
from cknlab.measure import BallSpec  # noqa: E402
from cknlab.params import validate  # noqa: E402

from spans import Tracer, patch_everywhere  # noqa: E402

PARAMS = validate(3, 0.3, 0.5)
W_GRAD = -2.0 * PARAMS.a  # gradient weight exponent |x|^{-2a}
W_LOAD = -PARAMS.bp  # load weight exponent |x|^{-bp}
BETA = 2.0 + 2.0 * PARAMS.a - PARAMS.bp  # order of the r^beta singularity
MODULES = (cli, fields, inequalities, measure, moser, regularity, solver)


class OpFailed(Exception):
    """An experiment that exited non-zero: its exit code and stderr line."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code


def exact_mms(r, r_outer: float):
    """(R^beta - r^beta) / ((N - bp) beta): the gamma = 0 manufactured
    solution, recomputed here rather than taken from the solver."""
    r = np.asarray(r, float)
    return (r_outer ** BETA - r ** BETA) / ((PARAMS.N - PARAMS.bp) * BETA)


def _sphere_area(N: int) -> float:
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def relative_residual(system, uh) -> float:
    """||A x - b|| / ||b|| from the matrix, with x = the returned solution
    completed by the prescribed boundary values."""
    x = system.rhs.copy()
    x[:uh.values.size] = uh.values
    return float(np.linalg.norm(system.matrix @ x - system.rhs)
                 / np.linalg.norm(system.rhs))


SOLVE_GATE = 1e-9


def solve_failures(results) -> list[list]:
    """A solve counts as failed unless CG reports convergence and the
    residual recomputed from the matrix is within SOLVE_GATE."""
    out = []
    for name, res in results.items():
        rel = relative_residual(res["system"], res["uh"])
        if not (res["rep"].converged and rel <= SOLVE_GATE):
            out.append([name, "residual",
                        f"converged={res['rep'].converged}, |Ax-b|/|b| = "
                        f"{rel:.3g} > {SOLVE_GATE:g} recomputed from the matrix"])
    return out


PROBE_ARRAY = np.random.default_rng(0).random(20_000)


def speed_probe() -> float:
    """Wall time of a fixed ~5 ms piece of pure-Python and numpy work. The
    parent divides each operation's time by the probes around it, so that
    the host's changes of core speed cancel out."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(40_000):
        acc += (i * 0.5) ** 0.5
    for _ in range(5):
        np.sort(PROBE_ARRAY)
    return time.perf_counter() - start


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _no_span(*names):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# cli_defaults: the ten `ckn-lab run` experiments at their defaults

# Report files and their header rows, as docs/schemas/README.md lists them.
REPORTS = {
    "measure_report.csv": ("measure_identities",
                           "N,a,r,closed_form,quadrature,rel_error,doubling,"
                           "doubling_exact"),
    "mms_report.csv": ("mms_convergence", "level,h,max_error,observed_order"),
    "replacement_report.csv": ("harmonic_replacement",
                               "case,energy_u,energy_w,energy_diff_split,"
                               "idempotence_gap"),
    "inequality_report.csv": ("inequality_suite",
                              "descriptor,lhs,rhs_core,ratio"),
    "alpha_h_report.csv": ("alpha_h_estimation",
                           "alpha_h,fit_residual,n_samples"),
    "regularity_report.txt": ("regularity_report", None),
    "regularity_profile.csv": ("regularity_report", "radius,value"),
    "dilation_report.csv": ("dilation_symmetry",
                            "n,dual_residual,observed_order"),
    "ladder_report.csv": ("moser_ladder", "k,q_k,norm_q,subdomain_margin"),
    "lemma_a1_report.csv": ("lemma_a1_envelope",
                            "center_norm,radius,ratio,envelope"),
    "lemma_a2_report.csv": ("lemma_a2_property",
                            "envelope,alpha,beta,gamma,center_norm,"
                            "violations,worst_margin"),
}
REGULARITY_KEYS = ("alpha_measured", "alpha_predicted_sup", "limiting_branch",
                   "holder_seminorm", "sup_norm", "pass")
CLI_REPORT_DIR = "reports"


def _clear_caches() -> None:
    """Empty cknlab's lru_cache tables, so that each experiment starts as
    cold as a fresh `ckn-lab run` process."""
    for mod in MODULES:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _run_cli(name: str, config: Path, span):
    _clear_caches()
    err = io.StringIO()
    with span(f"cli.{name}_s"), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.run(str(config))
    if code != 0:
        lines = err.getvalue().strip().splitlines()
        raise OpFailed(code, lines[-1] if lines else "")


def schema_problems(fname: str, text: str) -> list[str]:
    """Manifest line, header and row widths of one report."""
    exp, header = REPORTS[fname]
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) < 3:
        return [f"{fname}: truncated or missing final newline"]
    lines = lines[:-1]
    out = []
    if not lines[0].startswith(f"# experiment={exp} "):
        out.append(f"{fname}: bad manifest line {lines[0][:60]!r}")
    if header is None:
        keys = tuple(ln.partition("=")[0] for ln in lines[1:])
        if keys != REGULARITY_KEYS:
            out.append(f"{fname}: keys {keys} != {REGULARITY_KEYS}")
        return out
    if lines[1] != header:
        out.append(f"{fname}: header {lines[1]!r} != {header!r}")
    width = header.count(",") + 1
    bad = [i for i, ln in enumerate(lines[2:], 3) if ln.count(",") + 1 != width]
    if bad:
        out.append(f"{fname}: lines {bad[:5]} do not have {width} fields")
    return out


def _rows(text: str) -> list[list[str]]:
    return [ln.split(",") for ln in text.strip("\n").split("\n")[2:]]


def measure_report_problems(text: str) -> list[str]:
    """closed_form = sigma_N r^{N-2a} / (N-2a), recomputed here."""
    out = []
    for row in _rows(text):
        N, a, r, closed = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        want = _sphere_area(N) * r ** (N - 2 * a) / (N - 2 * a)
        if not abs(closed - want) <= 1e-12 * want:
            out.append(f"measure_report.csv: closed_form {closed!r} != "
                       f"{want!r} at N={N} a={a!r} r={r!r}")
    return out


def mms_report_errors(text: str) -> tuple[list[float], list[str]]:
    """The max_error column, which must fall level by level."""
    errs = [float(row[2]) for row in _rows(text)]
    out = [f"mms_report.csv: max_error rises at level {i}: {e0!r} -> {e1!r}"
           for i, (e0, e1) in enumerate(zip(errs, errs[1:]), 1)
           if not e1 < e0]
    return errs, out


def replacement_report_problems(text: str) -> list[str]:
    """energy_w <= energy_u in every row, up to rounding (1e-12 relative)."""
    return [f"replacement_report.csv: case {row[0]}: energy_w {row[2]} > "
            f"energy_u {row[1]}"
            for row in _rows(text)
            if not float(row[2]) <= float(row[1]) * (1 + 1e-12)]


def check_cli_reports(report_dir: Path, failed: set[str]):
    problems, hashes, texts = [], {}, {}
    for fname, (exp, _) in REPORTS.items():
        path = report_dir / fname
        if not path.is_file():
            if exp not in failed:
                problems.append(f"{fname}: missing after {exp} passed")
            continue
        data = path.read_bytes()
        hashes[fname] = hashlib.sha256(data).hexdigest()
        texts[fname] = data.decode()
        problems += schema_problems(fname, texts[fname])
    if "measure_report.csv" in texts:
        problems += measure_report_problems(texts["measure_report.csv"])
    if "replacement_report.csv" in texts:
        problems += replacement_report_problems(texts["replacement_report.csv"])
    mms_err = None
    if "mms_report.csv" in texts:
        errs, more = mms_report_errors(texts["mms_report.csv"])
        problems += more
        mms_err = errs[-1] if errs else None
    return mms_err, problems, _digest(sorted(hashes.items()))


def cli_defaults(seed: int, span):
    """Configs for the ten experiments at (N, a, b) = (3, 0.3, 0.5)."""
    Path("cfg").mkdir()
    ops = []
    for name in cli.EXPERIMENTS:
        config = Path("cfg") / f"{name}.cfg"
        config.write_text(f"experiment={name}\noutput_dir={CLI_REPORT_DIR}\n"
                          f"params.N={PARAMS.N}\nparams.a={PARAMS.a}\n"
                          f"params.b={PARAMS.b}\nseed={seed}\n")
        ops.append((name, functools.partial(_run_cli, name, config, span)))

    def finish(results, failed):
        return check_cli_reports(Path(CLI_REPORT_DIR), {f[0] for f in failed})
    return ops, finish


# ---------------------------------------------------------------------------
# radial_refine: manufactured-solution refinement on the ball and annulus

RADIAL_N = (512, 1024, 2048, 4096)
ANNULUS_R_MIN = 0.1


def _radial_op(grid, f, inner):
    system = solver.assemble(PARAMS, grid, f, dirichlet=0.0, inner=inner)
    uh, rep = solver.solve(system)
    err = float(np.max(np.abs(uh.values - exact_mms(grid.centers, 1.0))))
    return dict(system=system, uh=uh, rep=rep, err=err)


def radial_problems(rows) -> list[str]:
    """rows: (r_min, n, max error), n rising within each r_min."""
    out = []
    for r_min in sorted({row[0] for row in rows}):
        series = [(n, err) for r, n, err in rows if r == r_min]
        for (n0, e0), (n1, e1) in zip(series, series[1:]):
            order = math.log2(e0 / e1) if e0 > 0 and e1 > 0 else math.nan
            if r_min > 0 and not 1.8 <= order <= 2.5:
                out.append(f"annulus n={n1}: order {order:.4g} not in [1.8, 2.5]")
            if r_min == 0 and not (e1 < e0 and order >= BETA - 0.05):
                out.append(f"ball n={n1}: error {e0:.4g} -> {e1:.4g}, order "
                           f"{order:.4g} < beta - 0.05 = {BETA - 0.05:.4g}")
    return out


def radial_refine(seed: int, span):
    """Inputs are closed-form and do not depend on the seed."""
    _, f_fn = solver.exact_radial_mms(PARAMS, 0.0, 1.0)
    ops, where = [], {}
    for r_min in (0.0, ANNULUS_R_MIN):
        inner = float(exact_mms(r_min, 1.0)) if r_min > 0 else None
        for n in RADIAL_N:
            grid = RadialGrid(r_min, 1.0, n)
            f = DiscreteField.from_function(grid, f_fn)
            name = f"{'annulus' if r_min > 0 else 'ball'}_n{n}"
            where[name] = (r_min, n)
            ops.append((name, functools.partial(_radial_op, grid, f, inner)))

    def finish(results, failed):
        if len(results) < len(ops):
            return None, ["an operation raised; the refinement checks need "
                          "every level"], ""
        failed += solve_failures(results)
        rows = [where[name] + (res["err"],) for name, res in results.items()]
        return (results[f"ball_n{RADIAL_N[-1]}"]["err"], radial_problems(rows),
                _digest(rows))
    return ops, finish


# ---------------------------------------------------------------------------
# box_singular: [-1,1]^3 with the radial solution as Dirichlet trace

BOX_M = (16, 32)
BOX_R_OUTER = 2.0
REPLACEMENT_BALL = BallSpec((0.2, 0.1, 0.0), 0.5)
ORIGIN = (0.0, 0.0, 0.0)
PROFILE_RADII = tuple(0.8 * 0.6 ** k for k in range(4))
CHECK_BALL = BallSpec(ORIGIN, 0.5)


def _box_weights(grid, profiles: bool) -> None:
    """Every weight table the study reads, so that the singular-cell
    quadrature runs here and not inside assemble. The |x|^{-2a} cell
    weights are read only by the profiles."""
    fields.cell_weights(grid, PARAMS.N, W_LOAD)
    if profiles:
        fields.cell_weights(grid, PARAMS.N, W_GRAD)
    for axis in range(3):
        fields.box_face_dual_weights(grid, W_GRAD, axis)
        fields.box_face_area_weights(grid, W_GRAD, axis)


def _box_op(grid, f, trace, span, profiles: bool):
    m = grid.shape[0]
    with span(f"fields.box_weights_s.m{m}"):
        _box_weights(grid, profiles)
    system = solver.assemble(PARAMS, grid, f, dirichlet=trace)
    uh, rep = solver.solve(system)
    exact = exact_mms(np.linalg.norm(grid.node_coords(), axis=1), BOX_R_OUTER)
    err = float(np.max(np.abs(uh.values - exact)))
    energy = fields.dirichlet_energy(PARAMS, uh)
    w = solver.harmonic_replacement(PARAMS, uh, REPLACEMENT_BALL)
    fits = None
    if profiles:
        camp = regularity.campanato_profile(PARAMS, uh, ORIGIN, PROFILE_RADII)
        grad = regularity.gradient_profile(PARAMS, uh, ORIGIN, PROFILE_RADII)
        fits = tuple(regularity.fit_growth(p, PARAMS, "measure_normalized").exponent
                     for p in (camp, grad))
    return dict(system=system, uh=uh, rep=rep, err=err, energy=energy, w=w,
                fits=fits)


def ball_sum_problem(ball_weights, radius: float, w_exp: float):
    """The weights inside B_r(0) must sum to 4 pi r^{3+w} / (3+w) within 1%."""
    total = float(np.sum(ball_weights))
    want = 4.0 * math.pi * radius ** (3.0 + w_exp) / (3.0 + w_exp)
    rel = abs(total - want) / want
    return None if rel <= 0.01 else (
        f"ball weights over B_{radius}(0) sum to {total:.6g}, closed form "
        f"{want:.6g} (off by {rel:.2%} > 1%)")


def energy_problems(qu: float, qw: float, qv: float) -> list[str]:
    """Minimality energy(w) <= energy(u) and the Pythagoras split
    energy(u) = energy(w) + energy(u - w) of the harmonic replacement."""
    out = []
    if not qw <= qu * (1 + 1e-12):
        out.append(f"replacement raised the energy: {qw!r} > {qu!r}")
    split = abs(qu - qw - qv) / qu
    if not split < 1e-8:
        out.append(f"Pythagoras split {split:.3g} >= 1e-8")
    return out


def box_problems(name: str, res) -> list[str]:
    out = []
    w = fields.ball_cell_weights(res["uh"].grid, PARAMS.N, W_GRAD, CHECK_BALL)
    msg = ball_sum_problem(w, CHECK_BALL.radius, W_GRAD)
    if msg:
        out.append(f"{name}: {msg}")
    A = solver.raw_stiffness(PARAMS, res["uh"].grid)
    u, w = res["uh"].values, res["w"].values
    out += [f"{name}: {msg}" for msg in
            energy_problems(u @ (A @ u), w @ (A @ w), (u - w) @ (A @ (u - w)))]
    return out


def gate_box_solves(results, failed: list) -> list[str]:
    """Count box solves that miss the gate as failed, and as problems too:
    no box solve is known to miss it, so a miss makes the run incorrect."""
    misses = solve_failures(results)
    failed += misses
    return [f"{name}: solve {line}" for name, _, line in misses]


def box_singular(seed: int, span):
    """Inputs are closed-form and do not depend on the seed."""
    u_fn, f_fn = solver.exact_radial_mms(PARAMS, 0.0, BOX_R_OUTER)

    def trace(pts):
        return u_fn(np.linalg.norm(pts, axis=1))

    ops = []
    for m in BOX_M:
        grid = BoxGrid((-1.0,) * 3, (1.0,) * 3, (m,) * 3)
        f = DiscreteField.from_function(
            grid, lambda x: f_fn(np.linalg.norm(x, axis=1)))
        ops.append((f"m{m}", functools.partial(_box_op, grid, f, trace, span,
                                         m == BOX_M[-1])))

    def finish(results, failed):
        if len(results) < len(ops):
            return None, ["an operation raised; the grid study needs every "
                          "grid"], ""
        problems = gate_box_solves(results, failed)
        for name, res in results.items():
            problems += box_problems(name, res)
        e0, e1 = results[f"m{BOX_M[0]}"]["err"], results[f"m{BOX_M[-1]}"]["err"]
        if not e1 < e0:
            problems.append(f"error does not fall from m={BOX_M[0]} to "
                            f"m={BOX_M[-1]}: {e0!r} -> {e1!r}")
        kept = [(r["err"], r["energy"], r["fits"]) for r in results.values()]
        return e1, problems, _digest(kept)
    return ops, finish


WORKLOADS = {"cli_defaults": cli_defaults, "radial_refine": radial_refine,
             "box_singular": box_singular}


# ---------------------------------------------------------------------------
# layer spans

def _grid_tag(grid) -> str:
    return f"m{grid.shape[0]}" if isinstance(grid, BoxGrid) else f"n{grid.n_cells}"


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public functions of each layer wherever a module binds them.

    Every wrapped call counts under `<module>.<function>.calls`. Assembly,
    solves and CG iterations are also split by grid size.
    """
    def named(fn, tagged_by=None):
        base = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def names(*args, **kwargs):
            if tagged_by is None:
                return (f"{base}_s",)
            return (f"{base}_s", f"{base}_s.{_grid_tag(tagged_by(*args))}")

        is_solve = fn is solver.solve

        def after(t, out, *args, **kwargs):
            t.counts[f"{base}.calls"] += 1
            if is_solve:
                tag = _grid_tag(args[0].grid)
                t.counts["solver.cg_iters"] += out[1].iterations
                t.counts[f"solver.cg_iters.{tag}"] += out[1].iterations
        return tracer.wrap(fn, names, after)

    layers = [(solver.assemble, lambda params, grid, *rest: grid),
              (solver.solve, lambda system, *rest: system.grid),
              (solver.residual, None), (solver.harmonic_replacement, None),
              (fields.dirichlet_energy, None),
              (measure.ball_weight_integral, None),
              (regularity.campanato_profile, None),
              (regularity.gradient_profile, None), (regularity.fit_growth, None),
              (moser.lemma_a2_property_check, None), (moser.run_ladder, None)]
    for fn, tagged_by in layers:
        patch_everywhere(MODULES, fn, named(fn, tagged_by))


# ---------------------------------------------------------------------------

def run_round(workload: str, seed: int, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    if tracer:
        install_layer_spans(tracer)
    ops, finish = WORKLOADS[workload](seed, tracer.span if tracer else _no_span)
    ready = time.monotonic()
    results, failed, op_s, probe_s = {}, [], {}, [speed_probe()]
    for name, op in ops:
        began = time.perf_counter()
        try:
            results[name] = op()
        except Exception as exc:  # a failure ends that operation, not the round
            failed.append([name, getattr(exc, "code", type(exc).__name__),
                           str(exc)])
        op_s[name] = time.perf_counter() - began
        probe_s.append(speed_probe())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = tracer.totals() if tracer else {}
    mms_err, problems, digest = finish(results, failed)
    return dict(ready=ready, op_s=op_s, probe_s=probe_s,
                peak_rss_mib=peak_rss_mib,
                mms_max_error=mms_err, attempted=len(ops), failed=failed,
                problems=problems, digest=digest, layers=layers)


def main(argv: list[str]) -> int:
    workload, seed, trace, work_dir = argv
    os.chdir(work_dir)
    print(json.dumps(run_round(workload, int(seed), trace == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
