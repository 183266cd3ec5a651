"""Empirical checks of the weighted functional inequalities.

Everything here evaluates ratios lhs / rhs_core on concrete discrete
fields; the unknown constants of the inequalities are reported as
suite maxima, never assumed.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import GridError, ParameterError
from .fields import (DiscreteField, RadialGrid, campanato_integral,
                     dirichlet_energy, lq_norm, oscillation)
from .measure import BallSpec, _line_fit
from .params import WeightParams

_SUPPORT = 0.8  # the test-field suite vanishes for r >= this


class RatioSample(NamedTuple):
    lhs: float
    rhs_core: float
    ratio: float


class AlphaHEstimate(NamedTuple):
    alpha_h: float
    fit_residual: float
    n_samples: int


# ---------------------------------------------------------------------------
# CKN ratio

def ckn_ratio(params: WeightParams, field: DiscreteField) -> RatioSample:
    """||u||_{L^p, |x|^{-bp}} / energy^{1/2} for a compactly supported field."""
    if not np.any(field.values):
        raise ParameterError("zero_field", "CKN ratio needs a nonzero field")
    lhs = lq_norm(params, field, params.p)
    rhs = math.sqrt(dirichlet_energy(params, field))
    return RatioSample(lhs=lhs, rhs_core=rhs,
                       ratio=lhs / rhs if rhs > 0 else math.inf)


# ---------------------------------------------------------------------------
# Poincare ratio on balls

def poincare_ratio(params: WeightParams, field: DiscreteField,
                   ball: BallSpec) -> RatioSample:
    """int_B |u - mean|^2 dmu_a over r^2 * int_B |grad u|^2 dmu_a."""
    lhs = campanato_integral(params, field, ball)
    rhs = ball.radius ** 2 * dirichlet_energy(params, field, ball)
    return RatioSample(lhs=lhs, rhs_core=rhs,
                       ratio=(lhs / rhs if rhs > 0 else 0.0))


# ---------------------------------------------------------------------------
# oscillation decay / alpha_h

def estimate_alpha_h(params: WeightParams, field: DiscreteField, center,
                     radii) -> AlphaHEstimate:
    """Least-squares slope of log osc(u, B_rho) vs log rho, clamped to (0,1]."""
    radii = list(radii)
    if len(radii) < 3:
        raise ParameterError("insufficient_points", "need at least 3 radii")
    oscs = []
    for rho in radii:
        o = oscillation(field, BallSpec(tuple(center), rho))
        if o < 1e-14:
            raise GridError("degenerate_oscillation",
                            f"oscillation {o} at rho={rho}; field locally constant")
        oscs.append(o)
    x = np.log(np.asarray(radii, float))
    y = np.log(np.asarray(oscs))
    slope, _, resid = _line_fit(x, y)
    alpha = min(max(slope, 1e-12), 1.0)
    return AlphaHEstimate(alpha_h=alpha, fit_residual=resid,
                          n_samples=len(radii))


# ---------------------------------------------------------------------------
# deterministic test-field suite

def _radial_cutoff(r, r0: float, r1: float):
    """Smooth (C^1) transition 1 -> 0 on [r0, r1]."""
    t = np.clip((np.asarray(r, float) - r0) / (r1 - r0), 0.0, 1.0)
    return (1.0 - t) ** 2 * (1.0 + 2.0 * t)


def build_test_suite(grid: RadialGrid, seed: int, n_fields: int = 50):
    """Deterministic list of (descriptor, field) compactly supported in
    r < `_SUPPORT`.

    Mix of polynomial bumps, radial power profiles and seeded Fourier
    combinations; spans smooth and mildly singular behavior.
    """
    rng = np.random.default_rng(seed)
    r = grid.centers
    out = []
    cut = _radial_cutoff(r, 0.6 * _SUPPORT, _SUPPORT)
    kinds = ["bump", "poly", "power", "fourier"]
    for i in range(n_fields):
        kind = kinds[i % 4]
        if kind == "bump":
            m = 1 + (i // 4) % 4
            vals = np.clip(1.0 - (r / _SUPPORT) ** 2, 0.0, None) ** m
            desc = f"bump_m{m}"
        elif kind == "poly":
            coeffs = rng.uniform(-1.0, 1.0, size=4)
            vals = np.polyval(coeffs, r) * cut
            desc = f"poly_{i}"
        elif kind == "power":
            beta = rng.uniform(0.3, 1.8)
            vals = np.maximum(r, 1e-12) ** beta * cut
            desc = f"power_{beta:.3f}"
        else:
            ks = rng.integers(1, 6, size=3)
            amps = rng.uniform(-1.0, 1.0, size=3)
            vals = sum(a * np.sin(k * math.pi * r / _SUPPORT)
                       for a, k in zip(amps, ks)) * cut
            desc = f"fourier_{i}"
        if not np.any(vals):
            vals = np.clip(1.0 - (r / _SUPPORT) ** 2, 0.0, None)
            desc += "_fallback"
        out.append((desc, DiscreteField(grid=grid, values=vals)))
    return out
