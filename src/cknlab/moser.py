"""Integrability bootstrap machinery: the potential smallness condition,
the L^q ladder with tracked weighted norms, and the abstract iteration
lemma with its proof constants as a property-checked engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SolverError
from .fields import DiscreteField, cell_weights
from .measure import BallSpec, ball_weight_integrals, centered_weight_integral
from .params import WeightParams, moser_ladder
from .solver import residual as solver_residual

_RESIDUAL_TOL = 1e-3  # dual-residual gate of `run_ladder`, times max(1, sup|u|)


@dataclass
class PotentialSplit:
    ell: float
    tail_mass: float
    bound_required: float
    satisfied: bool


@dataclass
class LadderState:
    k: int
    q_k: float
    norm_q: float
    subdomain_margin: float


@dataclass
class IterationEnvelope:
    A1: float
    A2: float
    alpha: float
    beta: float
    gamma: float
    tau: float
    constant: float


# ---------------------------------------------------------------------------
# smallness condition for the potential

def smallness_check(params: WeightParams, V: DiscreteField, ell: float,
                    ckn_constant: float, q: float | None = None) -> PotentialSplit:
    """Tail mass of |V|^{p/(p-2)} against the smallness threshold.

    tail_mass integrates |x|^{-bp}|V|^{p/(p-2)} over {|V| >= ell} and over
    the domain outside B_ell(0); the required bound uses the empirical
    CKN constant in place of the two unknown constants of the estimate.
    """
    if ell <= 0:
        raise ParameterError("nonpositive_ell", f"ell={ell}")
    if q is None:
        q = params.p
    p = params.p
    expo = p / (p - 2.0)
    w = np.asarray(cell_weights(V.grid, params.N, -params.bp))
    dens = np.abs(V.values) ** expo
    mask_big = np.abs(V.values) >= ell
    mask_far = V.grid.distance_to((0.0, 0.0, 0.0)) > ell
    tail = float(w[mask_big] @ dens[mask_big] + w[mask_far] @ dens[mask_far])
    bound = min(1.0 / (8.0 * ckn_constant),
                2.0 / ((q + 4.0) * ckn_constant)) ** expo
    return PotentialSplit(ell=ell, tail_mass=tail, bound_required=bound,
                          satisfied=tail <= bound)


def find_ell(params: WeightParams, V: DiscreteField, ckn_constant: float,
             q: float | None = None, start: float = 1e-3,
             n_steps: int = 40) -> float | None:
    """Smallest ell on the geometric search grid making the check pass."""
    ell = start
    for _ in range(n_steps):
        if smallness_check(params, V, ell, ckn_constant, q).satisfied:
            return ell
        ell *= 2.0
    return None


# ---------------------------------------------------------------------------
# the L^q ladder

def subdomain_lq_norm(params: WeightParams, field: DiscreteField, q: float,
                      margin: float) -> float:
    """Weighted L^q norm (weight |x|^{-bp}) over the margin-shrunk domain."""
    keep = field.grid.interior_mask(margin)
    w = np.asarray(cell_weights(field.grid, params.N, -params.bp))
    return float((w[keep] @ np.abs(field.values[keep]) ** q) ** (1.0 / q))


def run_ladder(params: WeightParams, u: DiscreteField, K: float, k_stop: int,
               margin0: float = 0.1) -> list[LadderState]:
    """Track the weighted L^{q_k} norms of u over shrinking subdomains.

    First verifies that u solves the discrete equation with right side
    K|u|^{p-2}u, with u's own trace as Dirichlet data (`solver.residual`),
    up to `_RESIDUAL_TOL * max(1, sup|u|)` in the energy-dual norm, then
    walks q_k = p^{k+1}/2^k with the linearly growing margin schedule.
    """
    rhs_vals = float(K) * np.abs(u.values) ** (params.p - 2.0) * u.values
    rhs = u.with_values(rhs_vals, name="ladder_rhs")
    rep = solver_residual(params, u, rhs)
    scale = max(1.0, float(np.abs(u.values).max()))
    if rep.dual_norm > _RESIDUAL_TOL * scale:
        raise SolverError("residual_too_large",
                          f"dual residual {rep.dual_norm} > {_RESIDUAL_TOL * scale}")
    qs = moser_ladder(params, k_stop)
    states = []
    for k, q in enumerate(qs):
        margin = margin0 * (1.0 + k) / (k_stop + 1.0)
        norm = subdomain_lq_norm(params, u, q, margin)
        if not math.isfinite(norm) or norm > 1e12:
            raise SolverError("norm_overflow",
                              f"ladder norm {norm} at step k={k}, q={q}")
        states.append(LadderState(k=k, q_k=q, norm_q=norm,
                                  subdomain_margin=margin))
    return states


def interpolation_gap(params: WeightParams, field: DiscreteField, q1: float,
                      q2: float, theta: float, margin: float) -> float:
    """Relative slack in the log-convexity bound for L^q norms.

    With 1/q = theta/q1 + (1-theta)/q2, Hölder gives
    ||u||_q <= ||u||_{q1}^theta * ||u||_{q2}^{1-theta} on the same
    subdomain; returns (rhs - lhs)/rhs, which must be >= -tolerance.
    """
    q = 1.0 / (theta / q1 + (1.0 - theta) / q2)
    lhs = subdomain_lq_norm(params, field, q, margin)
    rhs = (subdomain_lq_norm(params, field, q1, margin) ** theta *
           subdomain_lq_norm(params, field, q2, margin) ** (1.0 - theta))
    return (rhs - lhs) / rhs if rhs > 0 else 0.0


# ---------------------------------------------------------------------------
# abstract iteration lemma

def lemma_a2_constant(A1: float, A2: float, alpha: float, beta: float,
                      gamma: float, doubling_constant: float) -> IterationEnvelope:
    """tau and the proof-chain constant for the iteration lemma.

    tau = min(A1^{-1/(gamma-alpha)}, 1/2); the constant is the worse of
    the two branches C_d and C_d^3 / (tau (1 - tau^{beta-gamma})), with
    C_d the doubling constant of the measure family at scale tau.
    """
    if not (0.0 < alpha < gamma < beta):
        raise ParameterError("exponent_order_violation",
                             f"need 0 < alpha < gamma < beta, got "
                             f"({alpha}, {gamma}, {beta})")
    if A1 <= 0 or A2 <= 0:
        raise ParameterError("exponent_order_violation", "A1, A2 must be > 0")
    tau = min(A1 ** (-1.0 / (gamma - alpha)), 0.5)
    cd = doubling_constant
    try:
        constant = max(cd, cd ** 3 / (tau * (1.0 - tau ** (beta - gamma))))
    except OverflowError as exc:
        raise ParameterError("constant_overflow",
                             f"C_d^3 overflows for doubling constant "
                             f"{cd!r}") from exc
    return IterationEnvelope(A1=A1, A2=A2, alpha=alpha, beta=beta, gamma=gamma,
                             tau=tau, constant=constant)


class MeasureTable:
    """mu_a(B_r(x0)) sampled on a geometric radius grid with log-log
    interpolation in between; closed form when centered, else one batched
    shell quadrature over all the radii.  The interpolant at the table
    radii, the numerator of every doubling ratio, is evaluated once."""

    def __init__(self, params: WeightParams, center, r_lo: float, r_hi: float,
                 n: int = 120, tol: float = 1e-8):
        self.params = params
        self.center = tuple(center)
        self.radii = np.geomspace(r_lo, r_hi, n)
        d = BallSpec(self.center, r_hi).center_norm
        if d == 0.0:
            self.values = np.array([centered_weight_integral(
                params.N, -2.0 * params.a, r) for r in self.radii])
        else:
            self.values, _ = ball_weight_integrals(
                params.N, -2.0 * params.a, np.full(n, d), self.radii, tol=tol)
        self._lx = np.log(self.radii)
        self._ly = np.log(self.values)
        self._at_radii = self(self.radii)

    def __call__(self, r):
        # linear in log-log with end-slope extrapolation: the measure is an
        # exact power law below the table (and asymptotically above it), so
        # extending the boundary segments keeps small-radius doubling honest
        lx = np.log(np.asarray(r, float))
        ly = np.interp(lx, self._lx, self._ly)
        s_lo = (self._ly[1] - self._ly[0]) / (self._lx[1] - self._lx[0])
        s_hi = (self._ly[-1] - self._ly[-2]) / (self._lx[-1] - self._lx[-2])
        ly = np.where(lx < self._lx[0],
                      self._ly[0] + s_lo * (lx - self._lx[0]), ly)
        ly = np.where(lx > self._lx[-1],
                      self._ly[-1] + s_hi * (lx - self._lx[-1]), ly)
        return np.exp(ly)

    def doubling_constant(self, tau):
        """max over the table radii r of mu(r) / mu(tau r); for an array of
        tau, one constant per entry."""
        tau = np.asarray(tau, float)
        cd = np.max(self._at_radii / self(tau[..., None] * self.radii), axis=-1)
        return float(cd) if cd.ndim == 0 else cd


def _random_phi(rng: np.random.Generator, radii: np.ndarray) -> np.ndarray:
    """Nonnegative nondecreasing profile on the radius grid."""
    style = rng.integers(0, 3)
    if style == 0:  # power law with noise
        expo = rng.uniform(0.2, 3.5)
        base = radii ** expo
        jitter = np.exp(np.cumsum(rng.normal(0.0, 0.05, size=len(radii))))
        phi = base * np.maximum.accumulate(jitter * rng.uniform(0.5, 2.0))
    elif style == 1:  # random increments with plateaus
        inc = rng.exponential(1.0, size=len(radii))
        inc[rng.random(len(radii)) < 0.4] = 0.0
        phi = np.cumsum(inc)
    else:  # staircase
        steps = np.maximum.accumulate(
            rng.uniform(0.0, 1.0, size=len(radii)) *
            (rng.random(len(radii)) < 0.15))
        phi = steps * radii ** rng.uniform(0.5, 2.0)
        phi = np.maximum.accumulate(phi)
    return phi * rng.uniform(0.1, 10.0)


def _hypothesis_needs(phi: np.ndarray, w: np.ndarray, g: np.ndarray,
                      t2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest A1 and A2 making each profile (a row of phi) meet the
    two-term hypothesis on every grid pair rho_i <= r_j, before inflation.

    The first term t1 = (g_i / g_j) phi_j with g = mu r^{-alpha} gets the
    share w of phi_i, the second t2_j = mu_j r_j^{-beta} the share 1 - w.
    For fixed j the worst i <= j is a running maximum, so
    A1 = w max_{phi_j > 0} cummax(phi / g)_j g_j / phi_j and
    A2 = (1 - w) max_j cummax(phi)_j / t2_j, in O(n) per profile.
    """
    lead = np.maximum.accumulate(phi / g, axis=1) * g
    a1 = np.divide(lead, phi, out=np.zeros_like(phi), where=phi > 0)
    a2 = np.maximum.accumulate(phi, axis=1) / t2
    return w * np.max(a1, axis=1), (1.0 - w) * np.max(a2, axis=1)


def lemma_a2_property_check(params: WeightParams, alpha: float, beta: float,
                            gamma: float, center, r_lo: float, r_hi: float,
                            n_trials: int, seed: int,
                            n_pairs: int = 64) -> dict:
    """Random nondecreasing profiles calibrated to the two-term hypothesis;
    the decay conclusion is then verified with the proof constant.

    For each trial, A1 and A2 are chosen as the smallest constants (split
    by a random weight, inflated 2%) making the hypothesis hold on all
    grid pairs, so the hypothesis holds by construction; the conclusion
    is checked at `n_pairs` random (rho, r) pairs.  Returns counts of
    violations (must be zero) and the worst conclusion margin.

    Every trial's random numbers are drawn first, in trial order (profile,
    split weight, r, rho; nothing after an all-zero profile, which is
    skipped).  The trials are then done together: A1 and A2 from running
    maxima (`_hypothesis_needs`), every doubling constant from one table
    evaluation, the proof constants in trial order (the first overflow
    raises), and the conclusion on (trials x n_pairs) arrays.
    """
    if not (0.0 < alpha < gamma < beta):
        raise ParameterError("exponent_order_violation",
                             f"({alpha}, {gamma}, {beta})")
    rng = np.random.default_rng(seed)
    table = MeasureTable(params, center, r_lo * 0.25, r_hi)
    radii = np.geomspace(r_lo, r_hi, 80)
    kept, phi, w, r_chk, rho_chk = [], [], [], [], []
    for trial in range(n_trials):
        p = _random_phi(rng, radii)
        if not (p > 0).any():
            continue
        kept.append(trial)
        phi.append(p)
        w.append(rng.uniform(0.2, 0.8))
        r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), n_pairs))
        r_chk.append(r)
        rho_chk.append(np.exp(rng.uniform(math.log(r_lo), np.log(r))))
    phi = np.reshape(phi, (-1, len(radii)))
    r_chk = np.reshape(r_chk, (-1, n_pairs))
    rho_chk = np.reshape(rho_chk, (-1, n_pairs))

    mu = table(radii)
    a1_need, a2_need = _hypothesis_needs(phi, np.array(w), mu * radii ** -alpha,
                                         mu * radii ** -beta)
    A1 = (1.02 * a1_need + 1e-12).tolist()
    A2 = (1.02 * a2_need + 1e-12).tolist()
    taus = [lemma_a2_constant(a1, a2, alpha, beta, gamma, 1.0).tau
            for a1, a2 in zip(A1, A2)]
    cds = table.doubling_constant(np.array(taus)).tolist()
    envs = [lemma_a2_constant(a1, a2, alpha, beta, gamma, cd)
            for a1, a2, cd in zip(A1, A2, cds)]

    # conclusion at the random pairs rho <= r
    pairs = np.stack([rho_chk, r_chk], axis=1)
    lhs, phi_r = np.reshape([np.interp(x, radii, p) for x, p in zip(pairs, phi)],
                            pairs.shape).transpose(1, 0, 2)
    mu_rho = table(rho_chk)
    constant = np.array([env.constant for env in envs])[:, None]
    rhs = constant * (mu_rho / table(r_chk) * (rho_chk / r_chk) ** -gamma * phi_r
                      + np.array(A2)[:, None] * mu_rho * rho_chk ** -beta)
    margin = rhs - lhs
    bad = np.sum(margin < -1e-9 * np.maximum(rhs, 1.0), axis=1).tolist()
    rel = np.min(margin / np.maximum(rhs, 1e-300), axis=1).tolist()
    violations = 0
    worst_margin = math.inf
    trials = []
    for k, trial in enumerate(kept):
        violations += bad[k]
        worst_margin = min(worst_margin, rel[k])
        trials.append({"trial": trial, "A1": A1[k], "A2": A2[k],
                       "tau": envs[k].tau, "constant": envs[k].constant,
                       "violations": bad[k], "worst_relative_margin": rel[k]})
    return {"n_trials": n_trials, "violations": violations,
            "worst_relative_margin": worst_margin, "trials": trials}
