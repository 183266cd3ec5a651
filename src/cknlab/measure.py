"""Weighted measure mu_a = |x|^{-2a} dx over balls.

Centered balls use the closed form; off-center balls reduce to a 1D
integral over spherical shells (the weight is radial, so the only
geometric input is the area fraction of each shell inside the ball).

`ball_weight_integrals` integrates many balls at once: every shell
segment takes the same fixed 64-node Gauss-Legendre rule after an
endpoint substitution that smooths its square-root edges, so a ball's
value does not depend on the batch it is in; `ball_weight_integral` is
the one-ball call into it.

The module also holds the closed-form least-squares line (`_line_fit`)
behind the growth and oscillation-decay exponents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ParameterError, QuadratureError
from .params import WeightParams


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass(frozen=True)
class BallSpec:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise GridError("nonpositive_radius",
                            f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def center_norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.center))


def cap_fraction(N: int, vers: np.ndarray) -> np.ndarray:
    """Fraction of the unit sphere S^{N-1} within polar angle theta of a
    pole, from the versine vers = 1 - cos theta.

    With k = N - 2, s = sin theta, c = cos theta and W_k the integral of
    sin^k over [0, pi], the fraction G_k = (int_0^theta sin^k) / W_k obeys
    G_k = G_{k-2} - s^{k-1} c / (k W_k), from G_1 = (1 - c)/2 or
    G_0 = arccos(c)/pi (S. Li, Asian J. Math. Stat. 4, 2011).  Every term
    is >= 0 for c <= 0, so the sum runs there and c > 0 is reflected,
    F(c) = 1 - F(-c), exact to round-off in absolute terms.  A small cap
    (theta <= pi/4, where 1 - F(-c) would cancel) takes the positive series
    int_0^theta sin^k = x^a / 2 sum_j (1/2)_j / j! x^j / (a + j), with
    x = s^2 = vers (2 - vers) <= 1/2 and a = (k + 1)/2, the binomial series
    of (1 - y)^{-1/2} integrated in y = sin^2: relative accuracy, a term
    per bit, down to caps whose c rounds to 1.
    """
    vers = np.clip(vers, 0.0, 2.0)
    c = 1.0 - vers
    m = -np.abs(c)
    s2 = (1.0 - m) * (1.0 + m)
    k = N - 2
    if k % 2:
        g, w, pw = 0.5 * (1.0 - m), 2.0, s2
    else:
        g, w, pw = np.arccos(m) / math.pi, math.pi, np.sqrt(s2)
    for j in range(k % 2 + 2, k + 1, 2):  # pw = s^{j-1}; w: W_{j-2} -> W_j
        w *= (j - 1) / j
        g = g - pw * m / (j * w)
        pw = pw * s2
    small = c >= math.sqrt(0.5)
    x, a = np.where(small, vers * (2.0 - vers), 0.5), 0.5 * (k + 1)
    series, term = 0.0, 1.0
    for j in range(54):  # term = (1/2)_j / j! x^j <= 2^-j
        series = series + term / (a + j)
        term = term * x * ((j + 0.5) / (j + 1))
    return np.where(small, 0.5 * x ** a * series / w,
                    np.where(c > 0.0, 1.0 - g, g))


def centered_weight_integral(N: int, w_exp: float, radius: float) -> float:
    """Closed form of the integral of |x|^{w_exp} over B_radius(0)."""
    return centered_weight_integrals(N, w_exp, [radius])[0]


def centered_weight_integrals(N: int, w_exp: float, radii) -> list[float]:
    """`centered_weight_integral` at each of the Python floats `radii`,
    sigma_N computed once; each entry is the one-radius value, bit for bit."""
    expo = N + w_exp
    if expo <= 0:
        raise QuadratureError("nonintegrable_weight",
                              f"|x|^{w_exp} is not integrable near 0 in R^{N}")
    area = sphere_area(N)
    return [area * r ** expo / expo for r in radii]


# The positive half of the 64-point Gauss-Legendre rule on [-1, 1] as
# (node, weight), ascending: `numpy.polynomial.legendre.leggauss(64)`
# (numpy 2.4.6) bit for bit, frozen so that the rule neither loads LAPACK
# nor depends on the CPU that solves for it.
_GAUSS_LEGENDRE_64 = (
    (0.02435029266342443, 0.048690957009139814),
    (0.07299312178779904, 0.04857546744150351),
    (0.12146281929612054, 0.048344762234802996),
    (0.16964442042399283, 0.04799938859645842),
    (0.21742364374000708, 0.04754016571483042),
    (0.2646871622087674, 0.046968182816210076),
    (0.31132287199021097, 0.04628479658131447),
    (0.3572201583376681, 0.045491627927418184),
    (0.4022701579639916, 0.044590558163756566),
    (0.4463660172534641, 0.04358372452932355),
    (0.48940314570705296, 0.04247351512365361),
    (0.5312794640198946, 0.041262563242623576),
    (0.571895646202634, 0.039953741132720544),
    (0.6111553551723933, 0.03855015317861564),
    (0.6489654712546573, 0.03705512854024009),
    (0.6852363130542333, 0.0354722132568823),
    (0.7198818501716109, 0.033805161837141794),
    (0.7528199072605319, 0.032057928354851495),
    (0.7839723589433414, 0.030234657072402554),
    (0.8132653151227975, 0.028339672614259535),
    (0.8406292962525803, 0.02637746971505491),
    (0.8659993981540928, 0.0243527025687112),
    (0.8893154459951141, 0.02227017380838297),
    (0.9105221370785028, 0.020134823153530088),
    (0.9295691721319396, 0.017951715775697284),
    (0.9464113748584028, 0.01572603047602503),
    (0.9610087996520538, 0.01346304789671786),
    (0.973326827789911, 0.011168139460131028),
    (0.983336253884626, 0.008846759826363397),
    (0.9910133714767443, 0.006504457968978502),
    (0.9963401167719552, 0.004147033260564499),
    (0.9993050417357722, 0.00178328072169414),
)


def _gauss_legendre_64() -> tuple[np.ndarray, np.ndarray]:
    """The frozen 64-point rule, nodes ascending on [-1, 1], mirrored from
    its positive half as `leggauss` symmetrises them."""
    half = np.array(_GAUSS_LEGENDRE_64)
    return (np.concatenate([-half[::-1, 0], half[:, 0]]),
            np.concatenate([half[::-1, 1], half[:, 1]]))


def centered_weight_quadrature(N, w_exp, radius) -> np.ndarray:
    """Integrals of |x|^{w_exp} over B_radius(0), one per entry of the
    equal-length arrays, by a Gauss-Legendre rule in u = sqrt(t / radius):
    an independent check of `centered_weight_integral`'s closed form.

    After t = radius u^2 the shell integrand sigma_N t^e (e = N - 1 + w_exp)
    becomes sigma_N radius^{e+1} 2 u^{2e+1} on [0, 1], smooth enough for
    e >= 1 that 64 nodes reach round-off (Golub & Welsch, Math. Comp. 23,
    1969, for the rule; its nodes and weights are frozen literals).
    """
    x, wts = _gauss_legendre_64()
    u = 0.5 * (x + 1.0)
    N = np.asarray(N, int).reshape(-1)
    e = N - 1 + np.asarray(w_exp, float).reshape(-1)
    area = np.array([sphere_area(n) for n in N.tolist()])
    return (area * np.asarray(radius, float).reshape(-1) ** (e + 1.0)
            * (u ** (2.0 * e[:, None] + 1.0) * wts).sum(axis=1))


def _phi_rows():
    """The frozen rule on phi in [0, pi/2] as read-only rows of the two
    segment substitutions: sin^2 phi and its weights dt / (t log(hi/lo)),
    sin^4 phi and its weights dt / hi."""
    x, wts = _gauss_legendre_64()
    phi = [0.25 * math.pi * (xi + 1.0) for xi in x.tolist()]
    s = np.array([math.sin(f) for f in phi])
    c = np.array([math.cos(f) for f in phi])
    wts = 0.25 * math.pi * wts
    rows = (s * s, wts * 2.0 * s * c, s ** 4, wts * 4.0 * s ** 3 * c)
    for row in rows:
        row.setflags(write=False)
    return rows


_SIN2, _LOG_JAC, _SIN4, _ORIGIN_JAC = _phi_rows()


def _shell_integrand(N: int, w_exp: float, d, rho, t: np.ndarray) -> np.ndarray:
    """sigma_{N-1} t^{N-1+w} times the shell fraction inside B_rho(|x0|=d).

    `t` holds one row of nodes per ball, all > 0; `d` and `rho` broadcast
    against it (a column per ball).  The versine 1 - cos theta is formed
    as (rho - t + d)(rho + t - d)/(2td), without cancellation; at N = 3
    the fraction is exactly half of it, and `cap_fraction` takes it whole.
    """
    vers = (rho - t + d) * (rho + t - d) / (2.0 * t * d)
    frac = 0.5 * vers if N == 3 else cap_fraction(N, vers)
    return sphere_area(N) * t ** (N - 1 + w_exp) * frac


def _segment_integrals(N: int, w_exp: float, d: np.ndarray, rho: np.ndarray,
                       lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The shell integrand over each segment [lo, hi] of the ball (d, rho).

    t = lo (hi/lo)^{sin^2 phi} puts the nodes quadratically at both
    square-root edges and log-uniformly when lo << hi; a segment from
    lo = 0 (the ball passes through the origin) takes t = hi sin^4 phi,
    where t^{N-1+w} becomes phi^{4(N+w)-1} (Davis & Rabinowitz, Methods of
    Numerical Integration, on endpoint substitutions).  Each row is summed
    in a fixed order, so a segment's value does not depend on the batch.
    """
    d, rho, lo, hi = d[:, None], rho[:, None], lo[:, None], hi[:, None]
    origin = lo == 0.0
    span = np.log1p((hi - lo) / np.where(origin, 1.0, lo))  # log(hi / lo)
    t = np.where(origin, hi * _SIN4, lo * np.exp(span * _SIN2))
    jac = np.where(origin, hi * _ORIGIN_JAC, t * span * _LOG_JAC)
    return (_shell_integrand(N, w_exp, d, rho, t) * jac).sum(axis=1)


def ball_weight_integrals(N: int, w_exp: float, d, rho) -> np.ndarray:
    """Integrals of |x|^{w_exp} over the balls B_rho(x0), |x0| = d, one per
    entry of the arrays `d` and `rho`.

    Shells wholly inside a ball (t < rho - d) have a closed form; the rest
    of [|d - rho|, d + rho] is integrated by `_segment_integrals`, all
    balls' segments in one pass.  A ball with d = 0 has no segment and
    gets the closed form.
    """
    d = np.asarray(d, float).reshape(-1)
    rho = np.asarray(rho, float).reshape(-1)
    values = np.zeros(len(d))
    # Inner part of a ball with d < rho covers whole shells: closed form, exact.
    inner = centered_weight_integrals(N, w_exp, np.maximum(rho - d, 0.0).tolist())
    segs = []  # (ball, lo, hi)
    for i, (di, ri) in enumerate(zip(d.tolist(), rho.tolist())):
        if di < ri:
            values[i] = inner[i]
            lo = ri - di
        else:
            lo = di - ri
        hi = di + ri
        # The cap fraction loses smoothness where the shell meets the ball
        # boundary at a right angle; split there to keep the rule at full order.
        breaks = [lo]
        if di < ri:
            t_orth = math.sqrt(ri * ri - di * di)
            if lo < t_orth < hi:
                breaks.append(t_orth)
        breaks.append(hi)
        segs += [(i, left, right)
                 for left, right in zip(breaks[:-1], breaks[1:]) if right > left]
    if segs:
        ball, lo, hi = (np.array(c) for c in zip(*segs))
        # unbuffered and in segment order: the inner shell, then each segment
        np.add.at(values, ball, _segment_integrals(N, w_exp, d[ball], rho[ball],
                                                   lo, hi))
    return values


def ball_weight_integral(N: int, w_exp: float, ball: BallSpec) -> float:
    """Integral of |x|^{w_exp} over the ball, closed form when centered."""
    d = ball.center_norm
    if d == 0.0:
        return centered_weight_integral(N, w_exp, ball.radius)
    return float(ball_weight_integrals(N, w_exp, [d], [ball.radius])[0])


def ball_measure(params: WeightParams, ball: BallSpec) -> float:
    """mu_a(B) = integral of |x|^{-2a} over the ball."""
    return ball_weight_integral(params.N, -2.0 * params.a, ball)


def doubling_ratio(params: WeightParams, center, r: float, tau: float) -> float:
    """mu_a(B(x, r)) / mu_a(B(x, tau r)); one sample of the doubling constant."""
    if not 0.0 < tau < 1.0:
        raise GridError("invalid_tau", f"tau must lie in (0,1), got {tau}")
    return (ball_measure(params, BallSpec(tuple(center), r))
            / ball_measure(params, BallSpec(tuple(center), tau * r)))


def weighted_mean(values: np.ndarray, w: np.ndarray) -> float:
    """Mean of nodal values over a ball against its cell weights `w`.

    `w` is the ball's `fields.ball_cell_weights` (with w_exp = -2a for
    mu_a); numerator and denominator share that quadrature, so constants
    average to themselves exactly.
    """
    num = float(values @ w)
    den = float(np.ones(len(w)) @ w)
    if den == 0.0:
        raise GridError("ball_outside_domain",
                        "ball does not intersect the field's grid")
    return num / den


def _line_fit(x, y) -> tuple[float, float]:
    """Least-squares line y ~ slope x + intercept, in closed form about the
    means: slope = sum (x - xm)(y - ym) / sum (x - xm)^2 and intercept =
    ym - slope xm (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 20).  Every sum is exactly rounded (`math.fsum`), so the fit needs
    no LAPACK and does not depend on the CPU's BLAS kernels.  It serves
    `regularity.fit_growth` and `inequalities.estimate_alpha_h`, which
    both import this module already."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    xm, ym = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = x - xm
    sxx = math.fsum(dx * dx)
    if not sxx > 0.0:
        raise ParameterError("degenerate_fit",
                             "a line fit needs at least two distinct abscissae")
    slope = math.fsum(dx * (y - ym)) / sxx
    return slope, ym - slope * xm


def lemma_a1_ratio(params: WeightParams, ball: BallSpec, eps: float) -> dict:
    """Two-sided comparison of the weight integrals over one ball.

    lhs  = (int_B |x|^{-bp})^{2/p + eps}
    rhs0 = rho^{-2 + eps N} max(rho, |x0|)^{-eps b p} int_B |x|^{-2a}
    The ratio lhs/rhs0 sampled over ball families estimates the comparison
    constant; `envelope` is an explicit analytic upper bound for it.
    """
    return lemma_a1_ratios(params, [ball], eps)[0]


def lemma_a1_ratios(params: WeightParams, balls, eps: float) -> list[dict]:
    """`lemma_a1_ratio` for each ball, from one batched quadrature per weight."""
    if not eps > 0:
        raise QuadratureError("invalid_epsilon", f"eps must be > 0, got {eps}")
    N, bp = params.N, params.bp
    d = [ball.center_norm for ball in balls]
    rho = [ball.radius for ball in balls]
    i_bp = ball_weight_integrals(N, -bp, d, rho)
    i_2a = ball_weight_integrals(N, -2.0 * params.a, d, rho)
    out = []
    for di, ri, v_bp, mu in zip(d, rho, i_bp.tolist(), i_2a.tolist()):
        lhs = v_bp ** (2.0 / params.p + eps)
        rhs0 = ri ** (-2.0 + eps * N) * max(ri, di) ** (-eps * bp) * mu
        out.append({"lhs": lhs, "rhs_without_constant": rhs0,
                    "ratio": lhs / rhs0,
                    "envelope": lemma_a1_envelope(params, eps, di / ri)})
    return out


def lemma_a1_envelope(params: WeightParams, eps: float, t: float) -> float:
    """Explicit upper bound for the lemma ratio at |x0|/rho = t.

    Scale invariance makes the ratio a function of t alone; the bound below
    follows from enclosing/inscribed balls (near case, t <= 2) or from
    freezing the weight between its extremes on [t-1, t+1] (far case).
    """
    N, a, bp, p = params.N, params.a, params.bp, params.p
    sigma = sphere_area(N)
    omega = sigma / N  # unit-ball volume
    q = 2.0 / p + eps
    if t <= 2.0:
        # B subset B_{3 rho}(0); mu_a(B) bounded below on the sub-ball
        # B_{rho/4} centered 3/4 of the way out along the center ray,
        # where |x| stays in [rho/2, 3 rho].
        c_lhs = (sigma * 3.0 ** (N - bp) / (N - bp)) ** q
        w_min = min(0.5 ** (-2.0 * a), 3.0 ** (-2.0 * a))
        c_rhs = omega * 4.0 ** (-N) * w_min
        return c_lhs / c_rhs * max(1.0, 2.0 ** (eps * bp))
    lo, hi = t - 1.0, t + 1.0
    w_bp_max = max(lo ** -bp, hi ** -bp)
    w_2a_min = min(lo ** (-2.0 * a), hi ** (-2.0 * a))
    return omega ** (q - 1.0) * w_bp_max ** q * t ** (eps * bp) / w_2a_min
