"""Campanato-growth analysis: growth profiles, exponent fits, Hölder
quotients, and the end-to-end regularity report comparing the measured
growth exponent against the a-priori Hölder bound.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ParameterError
from .fields import (DiscreteField, RadialGrid, ball_cell_weights,
                     dirichlet_energy)
from .measure import BallSpec, ball_measure, weighted_mean
from .params import HolderBound, WeightParams, holder_bound, validate


class ProfileKind(enum.Enum):
    campanato = "campanato"
    gradient_energy = "gradient_energy"


@dataclass(frozen=True)
class GrowthProfile:
    center: tuple
    radii: tuple  # strictly decreasing positive reals
    values: tuple  # one nonnegative value per radius
    kind: ProfileKind

    def __post_init__(self):
        r = self.radii
        if any(b >= a for a, b in zip(r, r[1:])):
            raise ParameterError("radii_not_decreasing",
                                 "radii must be strictly decreasing")
        if not all(math.isfinite(v) for v in self.values):
            raise ParameterError("nonfinite_profile", "profile values must be finite")


@dataclass
class FitResult:
    exponent: float
    log_constant: float
    rms_residual: float
    clamped: bool = False


@dataclass
class RegularityReport:
    alpha_measured: float
    alpha_predicted_sup: float
    limiting_branch: str
    holder_seminorm: float
    sup_norm: float
    passed: bool


# ---------------------------------------------------------------------------
# profiles

def _ball_family(center, radii):
    return [BallSpec(tuple(center), float(r)) for r in radii]


def campanato_profile(params: WeightParams, field: DiscreteField, center,
                      radii) -> GrowthProfile:
    """values[i] = int_{B_ri} |u - mean_{B_ri} u|^2 dmu_a."""
    vals = []
    for ball in _ball_family(center, radii):
        w = ball_cell_weights(field.grid, params.N, -2.0 * params.a, ball)
        m = weighted_mean(field.values, w)
        vals.append(float((field.values - m) ** 2 @ w))
    return GrowthProfile(center=tuple(center),
                         radii=tuple(float(r) for r in radii),
                         values=tuple(vals), kind=ProfileKind.campanato)


def gradient_profile(params: WeightParams, field: DiscreteField, center,
                     radii) -> GrowthProfile:
    """values[i] = int_{B_ri} |grad u|^2 dmu_a."""
    vals = [dirichlet_energy(params, field, ball)
            for ball in _ball_family(center, radii)]
    return GrowthProfile(center=tuple(center),
                         radii=tuple(float(r) for r in radii),
                         values=tuple(vals), kind=ProfileKind.gradient_energy)


# ---------------------------------------------------------------------------
# fitting

def fit_growth(profile: GrowthProfile, params: WeightParams | None = None,
               normalization: str = "measure_normalized") -> FitResult:
    """Log-log slope of the profile; Hölder-exponent readout per kind.

    Under `measure_normalized` the values are divided by mu_a(B_r) first
    and the exponent returned is the Hölder alpha: slope/2 for campanato
    profiles, (slope + 2)/2 for gradient-energy profiles.  Under `raw`
    the exponent is the bare log-log slope.  Fits with alpha > 1 are
    clamped to 1 and flagged.
    """
    if normalization not in ("raw", "measure_normalized"):
        raise ParameterError("invalid_normalization", normalization)
    radii = np.asarray(profile.radii, float)
    vals = np.asarray(profile.values, float)
    if normalization == "measure_normalized":
        if params is None:
            raise ParameterError("missing_params",
                                 "measure_normalized needs weight parameters")
        mus = np.array([ball_measure(params, b)
                        for b in _ball_family(profile.center, radii)])
        vals = vals / mus
    keep = vals > 0.0
    radii, vals = radii[keep], vals[keep]
    if len(radii) < 3:
        raise ParameterError("insufficient_points",
                             f"{len(radii)} positive profile points; need 3")
    x, y = np.log(radii), np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    if normalization == "raw":
        expo = float(slope)
        clamped = False
    elif profile.kind is ProfileKind.campanato:
        expo = float(slope) / 2.0
        clamped = expo > 1.0
        expo = min(expo, 1.0) if clamped else expo
    else:
        expo = (float(slope) + 2.0) / 2.0
        clamped = expo > 1.0
        expo = min(expo, 1.0) if clamped else expo
    return FitResult(exponent=expo, log_constant=float(intercept),
                     rms_residual=rms, clamped=clamped)


# ---------------------------------------------------------------------------
# Hölder quotient

def holder_quotient(field: DiscreteField, subdomain_margin: float,
                    alpha: float, seed: int = 0, max_exact: int = 2000,
                    n_pairs: int = 2_000_000):
    """Max of |u(x)-u(y)| / |x-y|^alpha over node pairs in the margin-shrunk
    subdomain, plus the sup norm there.

    All pairs are used up to `max_exact` nodes; beyond that a seeded
    random sample of `n_pairs` pairs.
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError("invalid_alpha", f"alpha={alpha} not in (0,1]")
    keep = field.grid.interior_mask(subdomain_margin)
    if keep.sum() < 2:
        raise GridError("empty_subdomain",
                        f"margin {subdomain_margin} leaves {int(keep.sum())} nodes")
    pts = field.grid.node_coords()[keep]
    vals = field.values[keep]
    n = len(pts)
    if n <= max_exact:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=n_pairs)
        j = rng.integers(0, n, size=n_pairs)
        ok = i != j
        i, j = i[ok], j[ok]
    dist = np.linalg.norm(pts[i] - pts[j], axis=1)
    quot = np.abs(vals[i] - vals[j]) / dist ** alpha
    return {"seminorm": float(quot.max()),
            "sup_norm": float(np.abs(vals).max())}


# ---------------------------------------------------------------------------
# report

def default_radii(grid, center, min_cells: float = 8.0, ratio: float = 0.5):
    """Geometric radii ladder from dist(center, boundary)/2 down to 8h."""
    if isinstance(grid, RadialGrid):
        d = float(np.abs(center[0]))
        top = min(grid.r_max - d, d - grid.r_min if grid.r_min > 0 else grid.r_max - d)
        h = (grid.r_max - grid.r_min) / grid.n_cells
    else:
        c = np.array(center)
        top = float(min(np.min(c - np.array(grid.lower)),
                        np.min(np.array(grid.upper) - c)))
        h = max(grid.h)
    r = top / 2.0
    out = []
    while r >= min_cells * h:
        out.append(r)
        r *= ratio
    if len(out) < 3:
        raise GridError("ball_too_small",
                        f"radii ladder has {len(out)} rungs; refine the grid")
    return out


def regularity_report(params: WeightParams, u: DiscreteField,
                      f: DiscreteField | None, s_used: float, center, radii,
                      alpha_h_est: float, slack: float = 0.1,
                      seed: int = 0) -> RegularityReport:
    """Measured Campanato growth of u vs the predicted Hölder exponent sup."""
    prof = gradient_profile(params, u, center, radii)
    fit = fit_growth(prof, params, "measure_normalized")
    alpha_measured = fit.exponent
    p_reg = validate(params.N, params.a, params.b, s_used, for_regularity=True)
    hb: HolderBound = holder_bound(p_reg, alpha_h_est)
    alpha_q = max(min(alpha_measured, hb.alpha_sup) * 0.95, 1e-6)
    grid = u.grid
    if isinstance(grid, RadialGrid):
        margin = 0.1 * (grid.r_max - grid.r_min)
    else:
        margin = 0.1 * float(min(np.array(grid.upper) - np.array(grid.lower)))
    hq = holder_quotient(u, margin, alpha_q, seed=seed)
    passed = alpha_measured >= hb.alpha_sup - slack
    return RegularityReport(alpha_measured=alpha_measured,
                            alpha_predicted_sup=hb.alpha_sup,
                            limiting_branch=hb.limiting_branch.name,
                            holder_seminorm=hq["seminorm"],
                            sup_norm=hq["sup_norm"], passed=passed)

