"""Reference CKN ratio of a radial profile by adaptive quadrature (scipy),
for the tests that check the discrete ratios' dilation invariance."""
import math

from scipy.integrate import quad

from cknlab.measure import sphere_area
from cknlab.params import WeightParams

_QUAD_TOL = 1e-11  # epsabs and epsrel of `ckn_ratio_radial_quad`


def ckn_ratio_radial_quad(params: WeightParams, u, du, r_max: float) -> float:
    """Exact-quadrature CKN ratio for a radial profile with derivative du."""
    sigma = sphere_area(params.N)
    p, N, a, bp = params.p, params.N, params.a, params.bp
    num = quad(lambda t: sigma * t ** (N - 1 - bp) * abs(u(t)) ** p,
               0.0, r_max, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=400)[0]
    den = quad(lambda t: sigma * t ** (N - 1 - 2 * a) * du(t) ** 2,
               0.0, r_max, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=400)[0]
    return num ** (1.0 / p) / math.sqrt(den)
