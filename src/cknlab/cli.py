"""Command-line orchestration: `ckn-lab run <config>` executes a named
experiment from a flat key=value config and writes CSV / structured-text
reports with fixed schemas; `ckn-lab list` shows the registry.

Exit codes: 0 pass, 1 usage or config error, 2 scientific failure.
"""
from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import LabError
from .fields import DiscreteField, RadialGrid
from .inequalities import (build_test_suite, ckn_ratio, estimate_alpha_h,
                           poincare_ratio)
from .measure import (BallSpec, centered_weight_integral,
                      centered_weight_quadrature, doubling_ratio,
                      lemma_a1_ratios)
from .moser import lemma_a2_property_check, run_ladder
from .params import INF, epsilon_choice, k0_threshold, validate
from .regularity import campanato_profile, default_radii, regularity_report
from .solver import (assemble, ckn_bubble, dilate_radial, exact_radial_mms,
                     harmonic_replacement, residual, solve,
                     stiffness_quadratic_form)


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def parse_config(path: str) -> dict:
    cfg = {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"invalid_config: line {lineno} has no '=': {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in cfg:  # a second value would silently replace the first
            raise UsageError(f"invalid_config: line {lineno} gives key "
                             f"`{key}` a second time")
        cfg[key] = val.strip()
    return cfg


# ---------------------------------------------------------------------------
# experiments; each takes the typed config (`_typed_config`) and returns
# (passed, {report file: rows}), a row being a list of raw values that `run`
# formats and writes

def exp_measure_identities(cfg):
    rng = np.random.default_rng(cfg["seed"])
    tol = cfg["tol"]
    combos = []
    for _ in range(cfg["n_combos"]):
        N = int(rng.integers(3, 7))
        a = float(rng.uniform(-1.5, (N - 2) / 2 - 1e-3))
        combos.append((N, a, float(rng.uniform(0.1, 2.0))))
    Ns, As, Rs = np.array(combos).reshape(-1, 3).T
    quadr = centered_weight_quadrature(Ns, -2 * As, Rs).tolist()
    rows = []
    ok = True
    for (N, a, r), q in zip(combos, quadr):
        closed = centered_weight_integral(N, -2 * a, r)
        rel = abs(closed - q) / closed
        params = validate(N, a, a + 0.5, INF)
        doub = doubling_ratio(params, (0.0,) * N, r, 0.5)
        dexact = 2.0 ** (N - 2 * a)
        ok &= rel <= tol and abs(doub - dexact) <= 1e-10 * dexact
        rows.append([N, a, r, closed, q, rel, doub, dexact])
    return ok, {"measure_report.csv": rows}


def exp_mms_convergence(cfg):
    params, coarse = cfg["params"], cfg["grid"]
    r_min, r_max = coarse.r_min, coarse.r_max
    u_exact, f_exact = exact_radial_mms(params, cfg["mms.gamma"], r_max)
    rows = []
    errs = []
    ok = True
    for lev in range(cfg["levels"] + 1):
        n = coarse.n_cells * 2 ** lev
        grid = replace(coarse, n_cells=n)
        f = DiscreteField.from_function(grid, f_exact)
        inner = float(u_exact(r_min)) if r_min > 0 else None
        uh, _ = solve(assemble(params, grid, f, dirichlet=0.0, inner=inner))
        err = float(np.max(np.abs(uh.values - u_exact(grid.centers))))
        order = math.log2(errs[-1] / err) if errs else float("nan")
        errs.append(err)
        rows.append([lev, coarse.width / n, err, order])
        if lev > 0:
            ok &= 1.8 <= order <= 2.5
    return ok, {"mms_report.csv": rows}


def exp_harmonic_replacement(cfg):
    params, grid = cfg["params"], cfg["grid"]
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    ok = True
    for i in range(cfg["n_cases"]):
        vals = np.cumsum(rng.standard_normal(grid.n_cells)) * 0.02
        u = DiscreteField(grid=grid, values=vals)
        rho = float(rng.uniform(0.3, 0.8)) * grid.width
        ball = BallSpec((0.0,), max(rho, 20 * grid.width / grid.n_cells))
        w = harmonic_replacement(params, u, ball)
        qu, qw, qv = (stiffness_quadratic_form(params, grid, v)
                      for v in (u.values, w.values, u.values - w.values))
        w2 = harmonic_replacement(params, w, ball)
        gap = float(np.max(np.abs(w2.values - w.values)))
        split = abs(qu - qw - qv) / max(qu, 1e-300)
        ok &= (qw <= qu * (1 + 1e-12)) and split < 1e-8 and gap < 1e-8
        rows.append([i, qu, qw, split, gap])
    return ok, {"replacement_report.csv": rows}


def exp_inequality_suite(cfg):
    params, grid = cfg["params"], cfg["grid"]
    suite = build_test_suite(grid, cfg["seed"])
    rows = []
    ckn_max = 0.0
    poin_max = 0.0
    ball = BallSpec((0.0,), 0.9 * grid.width)
    ok = True
    for desc, f in suite:
        c = ckn_ratio(params, f)
        p = poincare_ratio(params, f, ball)
        ckn_max = max(ckn_max, c.ratio)
        poin_max = max(poin_max, p.ratio)
        ok &= math.isfinite(c.ratio) and math.isfinite(p.ratio)
        rows.append([f"ckn_{desc}", c.lhs, c.rhs_core, c.ratio])
        rows.append([f"poincare_{desc}", p.lhs, p.rhs_core, p.ratio])
    rows.append(["max_ckn_constant", ckn_max, "", ""])
    rows.append(["max_poincare_constant", poin_max, "", ""])
    ok &= ckn_max <= cfg["frozen.ckn_constant"] * 1.02
    ok &= poin_max <= cfg["frozen.poincare_constant"] * 1.02
    return ok, {"inequality_report.csv": rows}


def exp_alpha_h_estimation(cfg):
    params, grid = cfg["params"], cfg["grid"]
    expo = 2 + 2 * params.a - params.N
    u = DiscreteField.from_function(grid, lambda r: r ** expo)
    radii = [0.2 * 0.7 ** k for k in range(5)]
    est = estimate_alpha_h(params, u, (cfg["center"],), radii)
    ok = 0 < est.alpha_h <= 1 and est.fit_residual <= 0.05
    if params.a == 0.0:
        ok &= est.alpha_h >= 0.9
    return ok, {"alpha_h_report.csv":
                [[est.alpha_h, est.fit_residual, est.n_samples]]}


def exp_regularity_report(cfg):
    params, grid = cfg["params"], cfg["grid"]
    f = DiscreteField.from_function(grid, lambda r: np.ones_like(r))
    uh, _ = solve(assemble(params, grid, f, dirichlet=0.0))
    radii = default_radii(grid, (0.0,))
    report = regularity_report(params, uh, (0.0,), radii,
                               alpha_h_est=cfg["alpha_h"], seed=cfg["seed"])
    prof = campanato_profile(params, uh, (0.0,), radii)
    return report.passed, {
        "regularity_report.txt": [
            ["alpha_measured", report.alpha_measured],
            ["alpha_predicted_sup", report.alpha_predicted_sup],
            ["limiting_branch", report.limiting_branch],
            ["holder_seminorm", report.holder_seminorm],
            ["sup_norm", report.sup_norm],
            ["pass", report.passed]],
        "regularity_profile.csv": list(zip(prof.radii, prof.values))}


def exp_dilation_symmetry(cfg):
    params, coarse = cfg["params"], cfg["grid"]
    u_fn, K, _, _ = ckn_bubble(params)
    ul = dilate_radial(params, u_fn, cfg["lambda"])
    rows = []
    prev = None
    ok = True
    for n in [coarse.n_cells * 2 ** k for k in range(3)]:
        uf = DiscreteField.from_function(replace(coarse, n_cells=n), ul)
        ff = uf.with_values(K * np.abs(uf.values) ** (params.p - 2) * uf.values)
        rep = residual(params, uf, ff)
        order = math.log2(prev / rep.dual_norm) if prev else float("nan")
        if prev:
            ok &= order >= 1.8
        prev = rep.dual_norm
        rows.append([n, rep.dual_norm, order])
    return ok, {"dilation_report.csv": rows}


def exp_moser_ladder(cfg):
    params = cfg["params"]
    u_fn, K, _, _ = ckn_bubble(params)
    u = DiscreteField.from_function(cfg["grid"], u_fn)
    k_stop = k0_threshold(params) + 2
    states = run_ladder(params, u, K, k_stop, margin0=cfg["margin0"])
    return all(math.isfinite(s.norm_q) for s in states), {
        "ladder_report.csv": [[s.k, s.q_k, s.norm_q, s.subdomain_margin]
                              for s in states]}


def exp_lemma_a1_envelope(cfg):
    params = cfg["params"]
    rng = np.random.default_rng(cfg["seed"])
    eps = epsilon_choice(replace(params, s=cfg["eps_s"]))
    balls = []
    for _ in range(cfg["n_balls"]):
        center = rng.uniform(-1.5, 1.5, size=params.N)
        balls.append(BallSpec(tuple(center), float(rng.uniform(0.05, 1.0))))
    rows = []
    ok = True
    for ball, out in zip(balls, lemma_a1_ratios(params, balls, eps)):
        ok &= out["ratio"] <= out["envelope"] * (1 + 1e-6)
        rows.append([ball.center_norm, ball.radius,
                     out["ratio"], out["envelope"]])
    return ok, {"lemma_a1_report.csv": rows}


def exp_lemma_a2_property(cfg):
    params, seed = cfg["params"], cfg["seed"]
    rng = np.random.default_rng(seed)
    rows = []
    trial_rows = []
    total_viol = 0
    for i in range(cfg["n_envelopes"]):
        alpha = float(rng.uniform(0.1, 1.5))
        beta = float(rng.uniform(alpha + 0.5, 4.0))
        gamma = float(rng.uniform(alpha + 0.1 * (beta - alpha),
                                  beta - 0.1 * (beta - alpha)))
        center = ((0.0,) * params.N if i % 2 == 0
                  else tuple(rng.uniform(-1.0, 1.0, size=params.N)))
        out = lemma_a2_property_check(params, alpha, beta, gamma, center,
                                      0.02, 1.0, cfg["n_trials"], seed + i)
        total_viol += out["violations"]
        rows.append([i, alpha, beta, gamma, BallSpec(center, 1.0).center_norm,
                     out["violations"], out["worst_relative_margin"]])
        trial_rows += [[i, t["trial"], t["A1"], t["A2"], t["tau"],
                        t["constant"], t["violations"],
                        t["worst_relative_margin"]] for t in out["trials"]]
    return total_viol == 0, {"lemma_a2_report.csv": rows,
                             "lemma_a2_trials.csv": trial_rows}


# ---------------------------------------------------------------------------
# the experiment table: each key an experiment accepts, declared once

def _real(text: str, inf_ok: bool = False) -> float:
    """A finite float, or also `inf` where `inf_ok`."""
    value = float(text)
    if not (math.isfinite(value) or inf_ok and value == INF):
        raise ValueError(text)  # fails the cast like any bad text
    return value


class Key(NamedTuple):
    """One config key: the cast of its text, its default (`...`: required;
    None: accepted and echoed, not read) and the condition its value must
    meet in the typed config, with its wording for the error message."""
    cast: Callable = _real
    default: object = ...
    must: str = ""
    ok: Callable[[object, dict], bool] = lambda value, cfg: True


def _count(default: int) -> Key:
    """Levels, cases or trials: 0 would leave a gate nothing to check."""
    return Key(int, default, ">= 1", lambda n, cfg: n >= 1)


def _extent(r_min: float, r_max: float, n: int) -> dict[str, Key]:
    return {"grid.r_min": Key(_real, r_min), "grid.r_max": Key(_real, r_max),
            "grid.n": Key(int, n)}


_NO_BOUND = Key(lambda text: _real(text, inf_ok=True), INF)  # inf: no bound
_COMMON = {"output_dir": Key(str, "."), "seed": Key(int, None)}
_SEEDED = {**_COMMON, "seed": Key(int)}
# params.* are required exactly where the run reads them
_PARAMS = {"params.N": Key(int), "params.a": Key(_real),
           "params.b": Key(_real), "params.s": _NO_BOUND}
_SPACING = {"grid.spacing": Key(str, "uniform")}


class Experiment(NamedTuple):
    run: Callable  # typed config -> (passed, {report file: rows})
    description: str
    reports: dict[str, str | None]  # file -> CSV header; None: key=value text
    keys: dict[str, Key]  # every config key it accepts besides `experiment`
    trials: str | None = None  # the report only `--dump-trials` writes
    for_regularity: bool = False  # params must satisfy s > p/(p-2)


EXPERIMENTS = {
    "measure_identities": Experiment(
        exp_measure_identities,
        "closed-form vs quadrature ball measures, doubling",
        {"measure_report.csv":
         "N,a,r,closed_form,quadrature,rel_error,doubling,doubling_exact"},
        {**_SEEDED, **{k: Key(key.cast, None) for k, key in _PARAMS.items()},
         "n_combos": _count(100),
         "tol": Key(_real, 1e-8, "> 0", lambda x, cfg: x > 0.0)}),
    "mms_convergence": Experiment(
        exp_mms_convergence, "manufactured-solution convergence order study",
        {"mms_report.csv": "level,h,max_error,observed_order"},
        {**_COMMON, **_PARAMS, "mms.gamma": Key(_real, 0.0),
         "levels": _count(4), **_extent(0.0, 1.0, 256)}),
    "harmonic_replacement": Experiment(
        exp_harmonic_replacement, "energy minimality / idempotence suite",
        {"replacement_report.csv":
         "case,energy_u,energy_w,energy_diff_split,idempotence_gap"},
        {**_SEEDED, **_PARAMS, "n_cases": _count(50),
         **_extent(0.0, 1.0, 512), **_SPACING}),
    "inequality_suite": Experiment(
        exp_inequality_suite, "CKN and Poincare ratios over the 50-field suite",
        {"inequality_report.csv": "descriptor,lhs,rhs_core,ratio"},
        {**_SEEDED, **_PARAMS, "frozen.ckn_constant": _NO_BOUND,
         "frozen.poincare_constant": _NO_BOUND,
         **_extent(0.0, 1.0, 512), **_SPACING}),
    "alpha_h_estimation": Experiment(
        exp_alpha_h_estimation, "oscillation-decay exponent of harmonic fields",
        {"alpha_h_report.csv": "alpha_h,fit_residual,n_samples"},
        {**_COMMON, **_PARAMS,
         "center": Key(_real, 1.2, "in [grid.r_min, grid.r_max]",
                       lambda c, cfg: cfg["grid.r_min"] <= c <= cfg["grid.r_max"]),
         **_extent(0.25, 2.0, 4000)}),
    "regularity_report": Experiment(
        exp_regularity_report, "measured vs predicted Holder exponent",
        {"regularity_report.txt": None,
         "regularity_profile.csv": "radius,value"},
        {**_SEEDED, **_PARAMS,
         "alpha_h": Key(_real, 1.0, "in (0, 1]", lambda x, cfg: 0.0 < x <= 1.0),
         **_extent(0.0, 1.0, 512), **_SPACING,
         "grid.r_min": Key(_real, 0.0, "0: the report's balls are centred "
                           "at the origin", lambda r, cfg: r == 0.0)},
        for_regularity=True),
    "dilation_symmetry": Experiment(
        exp_dilation_symmetry, "invariant dilation residual refinement study",
        {"dilation_report.csv": "n,dual_residual,observed_order"},
        {**_COMMON, **_PARAMS,
         "lambda": Key(_real, 2.0, "> 0", lambda x, cfg: x > 0.0),
         **_extent(0.05, 3.0, 250)}),
    "moser_ladder": Experiment(
        exp_moser_ladder, "weighted L^q integrability ladder on a solution",
        {"ladder_report.csv": "k,q_k,norm_q,subdomain_margin"},
        {**_COMMON, **_PARAMS,
         "margin0": Key(_real, 0.3, "in [0, grid.r_max / 2)",
                        lambda m, cfg: 0.0 <= m < cfg["grid.r_max"] / 2),
         "grid.r_max": Key(_real, 3.0), "grid.n": Key(int, 2000)}),
    "lemma_a1_envelope": Experiment(
        exp_lemma_a1_envelope, "measure-ratio bound over random balls",
        {"lemma_a1_report.csv": "center_norm,radius,ratio,envelope"},
        {**_SEEDED, **_PARAMS, "n_balls": _count(200),
         "eps_s": Key(_real, 12.0)}),
    "lemma_a2_property": Experiment(
        exp_lemma_a2_property, "iteration-lemma conclusion on random profiles",
        {"lemma_a2_report.csv":
         "envelope,alpha,beta,gamma,center_norm,violations,worst_margin",
         "lemma_a2_trials.csv":
         "envelope,trial,A1,A2,tau,constant,violations,worst_margin"},
        {**_SEEDED, **_PARAMS, "n_envelopes": _count(20),
         "n_trials": _count(50)},
        trials="lemma_a2_trials.csv"),
}


def _typed_config(exp: Experiment, raw: dict) -> dict:
    """Every key `exp` accepts, cast, checked and defaulted, with the
    `params` and the `grid` built from them.  A value that the weight
    parameters or the grid reject came from the config, so it is a config
    error (exit 1), not a scientific failure."""
    unknown = sorted(set(raw) - {"experiment"} - set(exp.keys))
    if unknown:
        raise UsageError("invalid_config: unknown key "
                         + ", ".join(f"`{k}`" for k in unknown))
    cfg = {}
    for name, key in exp.keys.items():
        if name not in raw:
            if key.default is ...:
                raise UsageError(f"invalid_config: missing key `{name}`")
            cfg[name] = key.default
            continue
        try:
            cfg[name] = key.cast(raw[name])
        except ValueError:
            raise UsageError(f"invalid_config: bad value for `{name}`: "
                             f"{raw[name]!r}") from None
    for name, key in exp.keys.items():
        if not key.ok(cfg[name], cfg):
            raise UsageError(f"invalid_config: `{name}` must be {key.must}, "
                             f"got {raw.get(name, cfg[name])!r}")
    try:
        if exp.keys["params.N"].default is ...:  # the run reads params
            cfg["params"] = validate(cfg["params.N"], cfg["params.a"],
                                     cfg["params.b"], cfg["params.s"],
                                     exp.for_regularity)
        if "eps_s" in cfg:  # the s of Lemma A1's comparison exponent
            epsilon_choice(replace(cfg["params"], s=cfg["eps_s"]))
        if "grid.n" in cfg:
            cfg["grid"] = RadialGrid(cfg.get("grid.r_min", 0.0),
                                     cfg["grid.r_max"], cfg["grid.n"],
                                     cfg.get("grid.spacing", "uniform"))
    except LabError as exc:
        raise UsageError(f"invalid_config: {exc.code}: {exc}") from exc
    return cfg


def _write_reports(exp: Experiment, raw: dict, out_dir: str, rows: dict,
                   dump_trials: bool):
    """Write each report `exp` declares: the manifest line (the config as
    given), the CSV header (none for the key=value text report), then one
    line per row."""
    echo = " ".join(f"{k}={raw[k]}" for k in sorted(raw) if k != "experiment")
    manifest = f"# experiment={raw['experiment']} {echo}"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, header in exp.reports.items():
        if fname == exp.trials and not dump_trials:
            continue
        sep = "=" if header is None else ","
        lines = [manifest] + ([] if header is None else [header])
        lines += [sep.join(_fmt(v) for v in row) for row in rows[fname]]
        (out / fname).write_text("\n".join(lines) + "\n")


def list_experiments() -> str:
    return "\n".join(f"{name}: {exp.description}"
                     for name, exp in sorted(EXPERIMENTS.items()))


def run(config_path: str, dump_trials: bool = False) -> int:
    try:
        raw = parse_config(config_path)
        if "experiment" not in raw:
            raise UsageError("invalid_config: missing key `experiment`")
        name = raw["experiment"]
        if name not in EXPERIMENTS:
            raise UsageError(f"unknown_experiment: {name}")
        exp = EXPERIMENTS[name]
        cfg = _typed_config(exp, raw)
        passed, rows = exp.run(cfg)
        _write_reports(exp, raw, cfg["output_dir"], rows, dump_trials)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LabError as exc:
        print(f"failure[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    if not passed:
        print(f"experiment {name} FAILED", file=sys.stderr)
        return 2
    print(f"experiment {name} passed")
    return 0


def main(argv=None) -> int:
    import argparse  # only the command line parses arguments, not `run`
    parser = argparse.ArgumentParser(prog="ckn-lab")
    sub = parser.add_subparsers(dest="cmd")
    runp = sub.add_parser("run", help="run an experiment from a config file")
    runp.add_argument("config")
    runp.add_argument("--dump-trials", action="store_true")
    sub.add_parser("list", help="list available experiments")
    args = parser.parse_args(argv)
    if args.cmd == "list":
        print(list_experiments())
        return 0
    if args.cmd == "run":
        return run(args.config, args.dump_trials)
    parser.print_usage(sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
