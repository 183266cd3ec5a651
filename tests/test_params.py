import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.errors import ParameterError
from cknlab.params import (INF, LimitingBranch, epsilon_choice, holder_bound,
                           k0_threshold, moser_ladder, validate)


def test_classical_sobolev_exponent():
    params = validate(3, 0.0, 0.0, INF)
    assert params.p == 6.0


def test_boundary_case_b_equals_a_plus_one():
    params = validate(3, 0.0, 1.0, INF)
    assert params.p == 2.0
    assert not params.p_above_two


def test_derived_p_value():
    params = validate(4, 0.5, 0.75, 4.0)
    assert params.p == pytest.approx(3.2, abs=1e-14)


@pytest.mark.parametrize("N,a,b,code", [
    (2, 0.0, 0.0, "dimension_too_small"),
    (3, 0.5, 0.5, "a_out_of_range"),
    (3, 0.0, -0.5, "b_out_of_range"),
    (3, 0.0, 1.5, "b_out_of_range"),
])
def test_validate_rejections(N, a, b, code):
    with pytest.raises(ParameterError) as exc:
        validate(N, a, b)
    assert exc.value.code == code


def test_validate_s_too_small_when_regularity_requested():
    with pytest.raises(ParameterError) as exc:
        validate(3, 0.0, 0.0, 1.5, for_regularity=True)  # p/(p-2) = 1.5
    assert exc.value.code == "s_too_small"


def test_epsilon_choice_infinite_s():
    params = validate(3, 0.0, 0.0, INF)
    assert epsilon_choice(params) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_epsilon_choice_finite_s():
    params = validate(3, 0.0, 0.0, 3.0)
    assert epsilon_choice(params) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_epsilon_choice_rejects_critical_s():
    params = validate(3, 0.0, 0.0, 1.5)
    with pytest.raises(ParameterError) as exc:
        epsilon_choice(params)
    assert exc.value.code == "s_too_small"


def test_holder_bound_unit_tie():
    params = validate(3, 0.0, 0.0, 3.0)
    hb = holder_bound(params, 1.0)
    assert hb.alpha_sup == 1.0
    assert hb.limiting_branch is LimitingBranch.unit


def test_holder_bound_integrability_limited():
    params = validate(3, 0.0, 0.0, 1.6)
    hb = holder_bound(params, 1.0)
    assert hb.alpha_sup == pytest.approx(0.125, abs=1e-14)
    assert hb.limiting_branch is LimitingBranch.integrability_b_nonneg


def test_holder_bound_negative_b_harmonic_limited():
    params = validate(3, -0.5, -0.2, INF)
    assert params.p == pytest.approx(3.75, abs=1e-14)
    hb = holder_bound(params, 0.5)
    assert hb.alpha_sup == 0.5
    assert hb.limiting_branch is LimitingBranch.harmonic_exponent


def test_holder_bound_invalid_alpha_h():
    params = validate(3, 0.0, 0.0, 3.0)
    with pytest.raises(ParameterError) as exc:
        holder_bound(params, 1.5)
    assert exc.value.code == "invalid_alpha_h"


def test_moser_ladder_values():
    assert moser_ladder(validate(3, 0.0, 0.0), 2) == [6.0, 18.0, 54.0]
    assert moser_ladder(validate(3, 0.0, 0.25), 1) == [4.0, 8.0]  # p = 4
    assert moser_ladder(validate(3, 0.0, 0.0), 0) == [6.0]


def test_k0_threshold_examples():
    assert k0_threshold(validate(3, 0.0, 0.0)) == 1   # p = 6
    assert k0_threshold(validate(3, 0.0, 0.25)) == 2  # p = 4


def test_k0_threshold_slow_ladder():
    # p = 2.5 via N=3: 2N/(N-2(1+a-b)) = 2.5 needs 1+a-b = 0.3
    params = validate(3, 0.0, 0.7)
    assert params.p == pytest.approx(2.5, abs=1e-12)
    # brute-force oracle on Fractions
    thr = Fraction(2) * (Fraction(5, 2) - 1) / (Fraction(5, 2) - 2)
    k, power = 0, Fraction(1)
    while power < thr:
        power *= Fraction(5, 4)
        k += 1
    assert k0_threshold(params) == k == 9


def fraction_ladder(params, k_max):
    """The ladder and k0 in `Fraction` arithmetic: the reference for
    params.py's exact integer arithmetic."""
    p = Fraction(params.p)
    ladder = [float(p ** (k + 1) / 2 ** k) for k in range(k_max + 1)]
    threshold = 2 * (p - 1) / (p - 2)
    k, power = 0, Fraction(1)
    while power < threshold:
        power *= p / 2
        k += 1
    return ladder, k


# p rounds 30/7, 50/19, 8/3, 3 and 12/5: p = n/d with n of 53, 50, 53, 2
# and 53 bits, so q_k's numerator has up to 53 (k+1) bits
@pytest.mark.parametrize("N,a,b", [(3, 0.3, 0.5), (5, 0.5, 0.9),
                                   (4, -0.5, 0.0), (3, -1.0, -0.5),
                                   (6, 0.7, 1.2)])
def test_ladder_and_k0_match_fraction_reference(N, a, b):
    params = validate(N, a, b)
    ladder, k0 = fraction_ladder(params, 60)
    assert [q.hex() for q in moser_ladder(params, 60)] == [q.hex() for q in ladder]
    assert k0_threshold(params) == k0


valid_tuples = st.tuples(
    st.integers(min_value=3, max_value=8),
    st.floats(min_value=-3.0, max_value=2.9, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
).filter(lambda t: t[1] < (t[0] - 2) / 2)


@settings(max_examples=200, deadline=None)
@given(valid_tuples)
def test_weight_identity(tup):
    N, a, db = tup
    params = validate(N, a, a + db)
    # (N - bp) * 2/p == N - 2 - 2a
    assert (N - params.bp) * 2.0 / params.p == pytest.approx(
        N - 2.0 - 2.0 * a, abs=1e-12, rel=1e-12)
    assert params.p >= 2.0
    if db < 0.999:  # away from the boundary where p rounds to 2
        assert params.p > 2.0


@settings(max_examples=100, deadline=None)
@given(valid_tuples, st.floats(min_value=0.01, max_value=5.0))
def test_holder_bound_monotone_in_s(tup, ds):
    N, a, db = tup
    if db >= 0.999:  # away from the boundary where p rounds to 2
        return
    params_lo = validate(N, a, a + db)
    s_lo = params_lo.s_critical * 1.01
    p1 = validate(N, a, a + db, s_lo)
    p2 = validate(N, a, a + db, s_lo + ds)
    assert holder_bound(p2, 0.7).alpha_sup >= holder_bound(p1, 0.7).alpha_sup


def test_moser_ladder_strictly_increasing():
    params = validate(3, 0.1, 0.3)
    ladder = moser_ladder(params, 12)
    assert all(b > a for a, b in zip(ladder, ladder[1:]))
