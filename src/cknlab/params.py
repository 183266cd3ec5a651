"""Parameter algebra for the weighted operator -div(|x|^{-2a} grad u).

All derived exponents used elsewhere in the package come from here:
the critical exponent p, the epsilon used in the energy-decay estimate,
the upper bound on the attainable Hoelder exponent, and the exponent
ladder of the integrability bootstrap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import ParameterError

INF = math.inf


class LimitingBranch(Enum):
    harmonic_exponent = "harmonic_exponent"
    unit = "unit"
    integrability_b_nonneg = "integrability_b_nonneg"
    integrability_b_neg = "integrability_b_neg"


@dataclass(frozen=True)
class WeightParams:
    """Validated tuple (N, a, b, s) with the derived critical exponent p.

    s = math.inf is allowed and makes p/s evaluate to exactly 0.
    """

    N: int
    a: float
    b: float
    s: float
    p: float

    @property
    def bp(self) -> float:
        return self.b * self.p

    @property
    def p_over_s(self) -> float:
        return 0.0 if math.isinf(self.s) else self.p / self.s

    @property
    def p_above_two(self) -> bool:
        """True when b < a+1 strictly, equivalently p > 2; the Hoelder bound
        and the critical nonlinear profile both need this gap."""
        return self.b < self.a + 1.0

    @property
    def s_critical(self) -> float:
        """Integrability threshold p/(p-2); +inf when p == 2."""
        return INF if self.p <= 2.0 else self.p / (self.p - 2.0)


class HolderBound(NamedTuple):
    alpha_sup: float
    limiting_branch: LimitingBranch


def validate(N: int, a: float, b: float, s: float = INF,
             for_regularity: bool = False) -> WeightParams:
    """Check the admissible region and compute p = 2N/(N - 2(1+a-b)).

    Structural inequalities are exact comparisons, no tolerance.
    """
    if N < 3:
        raise ParameterError("dimension_too_small", f"need N >= 3, got N={N}")
    if not a < (N - 2) / 2:
        raise ParameterError("a_out_of_range",
                             f"need a < (N-2)/2 = {(N - 2) / 2}, got a={a}")
    if not (a <= b <= a + 1):
        raise ParameterError("b_out_of_range",
                             f"need a <= b <= a+1, got a={a}, b={b}")
    p = 2.0 * N / (N - 2.0 * (1.0 + a - b))
    params = WeightParams(N=N, a=float(a), b=float(b), s=float(s), p=p)
    if for_regularity and not s > params.s_critical:
        raise ParameterError(
            "s_too_small",
            f"regularity analysis needs s > p/(p-2) = {params.s_critical}, got s={s}")
    return params


def epsilon_choice(params: WeightParams) -> float:
    """The exponent gap 2(p - 2 - p/s)/p; positive iff s > p/(p-2)."""
    p = params.p
    if not params.s > params.s_critical:
        raise ParameterError(
            "s_too_small",
            f"need s > p/(p-2) = {params.s_critical}, got s={params.s}")
    return 2.0 * (p - 2.0 - params.p_over_s) / p


def holder_bound(params: WeightParams, alpha_h_estimate: float) -> HolderBound:
    """Open upper bound on the Hoelder exponent of solutions.

    alpha_sup = min(alpha_h_estimate, 1, B) with
    B = ((N-2)/2 - a)(p - 2 - p/s) for b >= 0 and B = (N/p)(p - 2 - p/s)
    for b < 0.  The harmonic-regularity branch is reported as limiting only
    when the supplied estimate is strictly below 1 (an estimate of exactly 1
    is indistinguishable from the unit cap).
    """
    if not (0.0 < alpha_h_estimate <= 1.0):
        raise ParameterError("invalid_alpha_h",
                             f"alpha_h estimate must lie in (0,1], got {alpha_h_estimate}")
    if not params.p_above_two:
        raise ParameterError("b_out_of_range",
                             "Hoelder bound needs b < a+1 strictly")
    if not params.s > params.s_critical:
        raise ParameterError(
            "s_too_small",
            f"need s > p/(p-2) = {params.s_critical}, got s={params.s}")
    gap = params.p - 2.0 - params.p_over_s
    if params.b >= 0:
        integ_branch = LimitingBranch.integrability_b_nonneg
        B = ((params.N - 2.0) / 2.0 - params.a) * gap
    else:
        integ_branch = LimitingBranch.integrability_b_neg
        B = (params.N / params.p) * gap
    candidates = []
    if alpha_h_estimate < 1.0:
        candidates.append((LimitingBranch.harmonic_exponent, alpha_h_estimate))
    candidates.append((LimitingBranch.unit, 1.0))
    candidates.append((integ_branch, B))
    alpha_sup = min(v for _, v in candidates)
    branch = next(br for br, v in candidates if v == alpha_sup)
    return HolderBound(alpha_sup=alpha_sup, limiting_branch=branch)


def moser_ladder(params: WeightParams, k_max: int) -> list[float]:
    """Exponents q_k = p^{k+1}/2^k for k = 0..k_max, correctly rounded:
    with p = n/d exactly, q_k is one int true division, which rounds once."""
    if k_max < 0:
        raise ParameterError("invalid_k_max", f"k_max must be >= 0, got {k_max}")
    n, d = params.p.as_integer_ratio()
    return [n ** (k + 1) / (d ** (k + 1) << k) for k in range(k_max + 1)]


def k0_threshold(params: WeightParams) -> int:
    """Smallest k with (p/2)^k >= 2(p-1)/(p-2), by direct search in exact
    integers: with p = n/d, n^k (n - 2d) >= 2(n - d)(2d)^k."""
    n, d = params.p.as_integer_ratio()
    if n <= 2 * d:
        raise ParameterError("invalid_p", f"need p > 2, got p={params.p}")
    lhs, rhs, k = n - 2 * d, 2 * (n - d), 0
    while lhs < rhs:
        lhs, rhs, k = lhs * n, rhs * 2 * d, k + 1
    return k
