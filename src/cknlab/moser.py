"""Integrability bootstrap machinery: the L^q ladder with tracked weighted
norms, and the abstract iteration lemma with its proof constants as a
property-checked engine.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, SolverError
from .fields import DiscreteField, _memoised_in, lq_norm
from .measure import BallSpec, ball_weight_integrals
from .params import WeightParams, moser_ladder
from .solver import residual as solver_residual

_RESIDUAL_TOL = 1e-3  # dual-residual gate of `run_ladder`, times max(1, sup|u|)
_TABLE_SIZE = 120  # geometric radii of a `MeasureTable`
_N_PAIRS = 64  # (rho, r) pairs per trial of `lemma_a2_property_check`


class LadderState(NamedTuple):
    k: int
    q_k: float
    norm_q: float
    subdomain_margin: float


# ---------------------------------------------------------------------------
# the L^q ladder

def run_ladder(params: WeightParams, u: DiscreteField, K: float, k_stop: int,
               margin0: float = 0.1) -> list[LadderState]:
    """Track the weighted L^{q_k} norms of u over shrinking subdomains.

    First verifies that u solves the discrete equation with right side
    K|u|^{p-2}u, with u's own trace as Dirichlet data (`solver.residual`),
    up to `_RESIDUAL_TOL * max(1, sup|u|)` in the energy-dual norm, then
    walks q_k = p^{k+1}/2^k with the linearly growing margin schedule.
    """
    rhs_vals = float(K) * np.abs(u.values) ** (params.p - 2.0) * u.values
    rhs = u.with_values(rhs_vals)
    rep = solver_residual(params, u, rhs)
    scale = max(1.0, float(np.abs(u.values).max()))
    if rep.dual_norm > _RESIDUAL_TOL * scale:
        raise SolverError("residual_too_large",
                          f"dual residual {rep.dual_norm} > {_RESIDUAL_TOL * scale}")
    qs = moser_ladder(params, k_stop)
    states = []
    for k, q in enumerate(qs):
        margin = margin0 * (1.0 + k) / (k_stop + 1.0)
        norm = lq_norm(params, u, q, margin)
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
    lhs = lq_norm(params, field, q, margin)
    rhs = (lq_norm(params, field, q1, margin) ** theta *
           lq_norm(params, field, q2, margin) ** (1.0 - theta))
    return (rhs - lhs) / rhs if rhs > 0 else 0.0


# ---------------------------------------------------------------------------
# abstract iteration lemma

def _tau(A1: float, alpha: float, gamma: float) -> float:
    return min(A1 ** (-1.0 / (gamma - alpha)), 0.5)


def _chain_constant(cd: float, tau: float, beta: float, gamma: float) -> float:
    """max(C_d, C_d^3 / (tau (1 - tau^{beta-gamma}))) on Python floats; an
    overflowing C_d^3 is a `constant_overflow` error."""
    try:
        return max(cd, cd ** 3 / (tau * (1.0 - tau ** (beta - gamma))))
    except OverflowError as exc:
        raise ParameterError("constant_overflow",
                             f"C_d^3 overflows for doubling constant "
                             f"{cd!r}") from exc


def _rank(x, xp, guess):
    """`np.searchsorted(xp, x, "right")` for x finite or -inf, from a float
    `guess` off by less than one (affine in log x for geometric xp), whose
    floor one comparison with each neighbour then corrects."""
    k = guess.clip(0, len(xp)).astype(np.intp)  # the floor, as guess >= 0
    xq = np.concatenate(([-np.inf], xp, [np.inf]))  # xq[k] = xp[k - 1]
    k -= x < xq.take(k)
    k += x >= xq[1:].take(k)
    return k


# a constant that every envelope of a `lemma_a2_property` run rebuilds alike,
# memoised on the run's `WeightParams`
_per_run = _memoised_in("_run_constants")


@_per_run
def _geometric_radii(params: WeightParams, lo: float, hi: float, n: int):
    return np.geomspace(lo, hi, n)


class MeasureTable:
    """mu_a(B_r(x0)) sampled on `_TABLE_SIZE` geometric radii with log-log
    interpolation in between, from one batched `ball_weight_integrals`
    call over all the radii (the closed form when centred).  The
    interpolant at the table radii, the numerator of every doubling ratio,
    is evaluated once.  A lookup ranks log r by `_rank`, then sums as
    `np.interp` does."""

    def __init__(self, params: WeightParams, center, r_lo: float, r_hi: float):
        self.radii = _geometric_radii(params, r_lo, r_hi, _TABLE_SIZE)
        d = BallSpec(tuple(center), r_hi).center_norm
        self.values = ball_weight_integrals(
            params.N, -2.0 * params.a, np.full(_TABLE_SIZE, d), self.radii)
        self._lx = np.log(self.radii)
        self._ly = np.log(self.values)
        s = np.diff(self._ly) / np.diff(self._lx)
        seg = np.array([np.append(s, s[-1]), self._lx, self._ly])
        # by rank: slope, log radius and log value of the segment below each
        # table radius, the end segments carried on past the table's ends
        self._seg = np.hstack((seg[:, :1], seg))
        self._at_radii = self(self.radii)

    def __call__(self, r):
        # linear in log-log with end-slope extrapolation: the measure is an
        # exact power law below the table (and asymptotically above it), so
        # extending the boundary segments keeps small-radius doubling honest
        lx = np.log(np.asarray(r, float))
        per_bin = (_TABLE_SIZE - 1) / (self._lx[-1] - self._lx[0])
        k = _rank(lx, self._lx, (lx - self._lx[0]) * per_bin + 1.0)
        s, lx_j, ly_j = self._seg.take(k, axis=-1)
        return np.exp(s * (lx - lx_j) + ly_j)

    def doubling_constant(self, tau):
        """max over the table radii r of mu(r) / mu(tau r); for an array of
        tau, one constant per entry."""
        tau = np.asarray(tau, float)
        cd = np.max(self._at_radii / self(tau[..., None] * self.radii), axis=-1)
        return float(cd) if cd.ndim == 0 else cd


@_per_run
def _measure_table(params: WeightParams, center: tuple, r_lo: float,
                   r_hi: float) -> MeasureTable:
    return MeasureTable(params, center, r_lo, r_hi)


def _draw_trials(rng: np.random.Generator, radii: np.ndarray, r_lo: float,
                 r_hi: float, n_trials: int, n_pairs: int):
    """Every trial's random numbers, drawn in trial order; returns the kept
    trials and, one row per kept trial, the profile phi (nonnegative and
    nondecreasing on `radii`), the split weight w and the check pairs
    r (log-uniform on [r_lo, r_hi]) and rho (log-uniform on [r_lo, r]).

    A trial draws its style with `integers(0, 3)`, then its profile's
    numbers and scale; a profile whose shape is all zero (style 1 with no
    increment left, style 2 with no step; for r_hi > 1e-90 exactly the
    all-zero profiles) is skipped there, else w, r and rho follow.  The
    draws, one value or one per radius, with uniforms that follow one
    another merged into one `random(k)` call:
    - style 0, power law with noise: exponent, normals (log-jitter, sd
      0.05), then jitter multiplier, scale, w, r, rho;
    - style 1, increments with plateaus: exponentials, the uniforms that
      zero those below 0.4, then scale, w, r, rho;
    - style 2, staircase: step heights and the uniforms that keep those
      below 0.15, then exponent, scale, w, r, rho.
    Uniforms on [lo, hi) are lo + (hi - lo) u.  The profiles are built
    afterwards, one array pass per style.
    """
    n = len(radii)
    styles = np.empty(n_trials, int)
    expo0 = np.empty(n_trials)  # style 0's exponent
    prof = np.empty((n_trials, 2 * n))  # the profile's two arrays
    # style 0's multiplier or style 2's exponent, scale, w, r, rho
    u = np.empty((n_trials, 3 + 2 * n_pairs))
    kept = []
    for trial in range(n_trials):
        k = len(kept)
        inc, keep = prof[k, :n], prof[k, n:]
        style = styles[k] = rng.integers(0, 3)
        if style == 0:
            expo0[k] = rng.random()
            rng.standard_normal(out=inc)
            rng.random(out=u[k])
        elif style == 1:
            rng.standard_exponential(out=inc)
            rng.random(out=keep)
            if not (keep >= 0.4) @ inc > 0:  # no increment (all >= 0) left
                rng.random()  # the scale
                continue
            rng.random(out=u[k, 1:])
        else:
            rng.random(out=prof[k])
            if not (keep < 0.15) @ inc > 0:  # no step (all >= 0)
                rng.random(2)  # exponent and scale
                continue
            rng.random(out=u[k])
        kept.append(trial)
    m = len(kept)
    styles, expo0, prof, u = styles[:m], expo0[:m], prof[:m], u[:m]
    phi = np.empty((m, n))
    s = styles == 0
    jitter = np.exp(np.cumsum(0.05 * prof[s, :n], axis=1))
    phi[s] = (radii ** (0.2 + (3.5 - 0.2) * expo0[s, None]) *
              np.maximum.accumulate(jitter * (0.5 + (2.0 - 0.5) * u[s, :1]),
                                    axis=1))
    s = styles == 1
    phi[s] = np.cumsum(np.where(prof[s, n:] < 0.4, 0.0, prof[s, :n]), axis=1)
    s = styles == 2
    steps = np.maximum.accumulate(prof[s, :n] * (prof[s, n:] < 0.15), axis=1)
    phi[s] = np.maximum.accumulate(
        steps * radii ** (0.5 + (2.0 - 0.5) * u[s, :1]), axis=1)
    phi *= 0.1 + (10.0 - 0.1) * u[:, 1:2]
    w = 0.2 + (0.8 - 0.2) * u[:, 2]
    lo = math.log(r_lo)
    r = np.exp(lo + (math.log(r_hi) - lo) * u[:, 3:3 + n_pairs])
    rho = np.exp(lo + (np.log(r) - lo) * u[:, 3 + n_pairs:])
    return kept, phi, w, r, rho


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


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """`np.interp(x[i], xp, fp[i])` for every row i, bit for bit, on
    geometric xp: x ranked by `_rank` among xp itself, then the segment
    below it summed as `np.interp` does; slope 0 past either end."""
    m, n = fp.shape
    lx = np.log(xp)
    k = _rank(x, xp, (np.log(x) - lx[0]) * ((n - 1) / (lx[-1] - lx[0])) + 1.0)
    dx = x - np.concatenate((xp[:1], xp)).take(k)
    k += (n + 1) * np.arange(m).reshape((m,) + (1,) * (x.ndim - 1))
    zero = np.zeros((m, 1))  # rank-indexed rows, as in `MeasureTable`
    s = np.hstack((zero, np.diff(fp) / np.diff(xp), zero))
    return s.take(k) * dx + np.hstack((fp[:, :1], fp)).take(k)


def lemma_a2_property_check(params: WeightParams, alpha: float, beta: float,
                            gamma: float, center, r_lo: float, r_hi: float,
                            n_trials: int, seed: int) -> dict:
    """Random nondecreasing profiles calibrated to the two-term hypothesis;
    the decay conclusion is then verified with the proof constant.

    For each trial, A1 and A2 are chosen as the smallest constants (split
    by a random weight, inflated 2%) making the hypothesis hold on all
    grid pairs, so the hypothesis holds by construction; the conclusion
    is checked at `_N_PAIRS` random (rho, r) pairs.  Returns counts of
    violations (must be zero) and the worst conclusion margin.

    The trials' random numbers are drawn first (`_draw_trials`).  The
    trials are then done together: A1 and A2 from running maxima
    (`_hypothesis_needs`), every doubling constant from one table
    evaluation, the proof constants in trial order (the first overflow
    raises), and the conclusion on (trials x _N_PAIRS) arrays, every
    profile interpolated at its pairs in one `_interp_rows` call.  The
    profile and table radii and each centre's table are memoised on
    `params` (`_per_run`), so the envelopes of one run build them once.
    """
    if not (0.0 < alpha < gamma < beta):
        raise ParameterError("exponent_order_violation",
                             f"({alpha}, {gamma}, {beta})")
    rng = np.random.default_rng(seed)
    table = _measure_table(params, tuple(center), r_lo * 0.25, r_hi)
    radii = _geometric_radii(params, r_lo, r_hi, 80)
    kept, phi, w, r_chk, rho_chk = _draw_trials(rng, radii, r_lo, r_hi,
                                                n_trials, _N_PAIRS)

    mu = table(radii)
    a1_need, a2_need = _hypothesis_needs(phi, w, mu * radii ** -alpha,
                                         mu * radii ** -beta)
    A1 = (1.02 * a1_need + 1e-12).tolist()
    A2 = (1.02 * a2_need + 1e-12).tolist()
    taus = [_tau(a1, alpha, gamma) for a1 in A1]
    cds = table.doubling_constant(np.array(taus)).tolist()
    constants = [_chain_constant(cd, tau, beta, gamma)
                 for cd, tau in zip(cds, taus)]

    # conclusion at the random pairs rho <= r
    pairs = np.stack([rho_chk, r_chk], axis=1)
    lhs, phi_r = _interp_rows(pairs, radii, phi).transpose(1, 0, 2)
    mu_rho = table(rho_chk)
    constant = np.array(constants)[:, None]
    rhs = constant * (mu_rho / table(r_chk) * (rho_chk / r_chk) ** -gamma * phi_r
                      + np.array(A2)[:, None] * mu_rho * rho_chk ** -beta)
    margin = rhs - lhs
    bad = np.sum(margin < -1e-9 * np.maximum(rhs, 1.0), axis=1).tolist()
    rel = np.min(margin / np.maximum(rhs, 1e-300), axis=1).tolist()
    trials = [{"trial": trial, "A1": A1[k], "A2": A2[k], "tau": taus[k],
               "constant": constants[k], "violations": bad[k],
               "worst_relative_margin": rel[k]}
              for k, trial in enumerate(kept)]
    # min from inf, in trial order: a nan margin is passed over
    return {"n_trials": n_trials, "violations": sum(bad),
            "worst_relative_margin": min([math.inf, *rel]),
            "trials": trials}
