"""Truncated series ring: arithmetic, exp/log, rational powers, composition.

Oracle notes.
[DERIVED] tanh coefficients checked two independent ways: sinh/cosh division
versus the exp-log route.
[TRIVIAL] geometric series, e^x coefficients.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdowling.series import (
    SeriesError,
    TruncatedSeries,
    coeff_den,
    compose,
    cosh_series,
    exp,
    log,
    pow_rational,
    sech_pow_series,
    series_from_table,
    sinh_series,
)

T = 8


def small_series(order=6, nonzero_const=None):
    def build(coeffs):
        c = [Fraction(v, 1 + abs(v) % 3) for v in coeffs]
        if nonzero_const is True:
            c[0] = Fraction(1)
        elif nonzero_const is False:
            c[0] = Fraction(0)
        return TruncatedSeries(c)

    return st.lists(
        st.integers(min_value=-9, max_value=9),
        min_size=order + 1,
        max_size=order + 1,
    ).map(build)


def test_exponential_coefficients():
    e = series_from_table(lambda n: Fraction(1), T)
    for n in range(T + 1):
        assert e[n] == Fraction(1, math.factorial(n))
        assert coeff_den(e, n) == 1


def test_hyperbolic_coefficients():
    for n in range(T + 1):
        assert sinh_series(T)[n] == (Fraction(1, math.factorial(n)) if n % 2 else 0)
        assert cosh_series(T)[n] == (0 if n % 2 else Fraction(1, math.factorial(n)))


def test_geometric_inverse():
    one_minus_x = TruncatedSeries.one(T) - TruncatedSeries.x(T)
    geo = pow_rational(one_minus_x, -1)
    assert all(geo[n] == 1 for n in range(T + 1))


def test_log_exp_explicit():
    f = series_from_table(lambda n: Fraction(1), T)
    assert log(f) == TruncatedSeries.x(T)
    assert exp(TruncatedSeries.x(T)) == f


def test_tanh_two_ways():
    # [DERIVED] tanh = sinh/cosh; independently via exp: (e^{2x}-1)/(e^{2x}+1)
    s, c = sinh_series(T), cosh_series(T)
    tanh1 = s * pow_rational(c, -1)
    e2 = exp(TruncatedSeries.x(T) * 2)
    half = Fraction(1, 2)
    tanh2 = (e2 - TruncatedSeries.one(T)) * half * pow_rational(
        (e2 + TruncatedSeries.one(T)) * half, -1
    )
    assert tanh1 == tanh2
    # tangent numbers 1, 2, 16 at odd indices
    assert coeff_den(tanh1, 1) == 1
    assert coeff_den(tanh1, 3) == -2
    assert coeff_den(tanh1, 5) == 16


def test_sech_pow_consistency():
    # s = 1 reduces to 1/cosh
    assert sech_pow_series(1, T) == pow_rational(cosh_series(T), -1)
    # squaring the s = 2 branch recovers sech(2x)
    sq = sech_pow_series(2, T)
    assert sq * sq == pow_rational(cosh_series(T).scale_argument(2), -1)


def test_scale_argument():
    f = series_from_table(lambda n: Fraction(1), T)
    g = f.scale_argument(3)
    for n in range(T + 1):
        assert g[n] == Fraction(3**n, math.factorial(n))


def test_float_rejected():
    with pytest.raises(SeriesError):
        TruncatedSeries([0.5, 1])


def test_compose_requires_no_constant():
    f = TruncatedSeries.one(4)
    with pytest.raises(SeriesError):
        compose(TruncatedSeries.x(4), f)


def test_log_requires_unit_constant():
    with pytest.raises(SeriesError):
        log(TruncatedSeries.x(4))


def test_exp_requires_zero_constant():
    with pytest.raises(SeriesError):
        exp(TruncatedSeries.one(4))


@given(small_series(), small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == TruncatedSeries.zero(f.order)


@given(small_series(nonzero_const=False))
@settings(max_examples=40, deadline=None)
def test_exp_log_round_trip(f):
    assert log(exp(f)) == f


@given(
    small_series(nonzero_const=True),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
@settings(max_examples=40, deadline=None)
def test_pow_additivity(f, p, q):
    assert pow_rational(f, p) * pow_rational(f, q) == pow_rational(f, p + q)


@given(small_series(nonzero_const=False), small_series(nonzero_const=False))
@settings(max_examples=30, deadline=None)
def test_compose_distributes_over_product(f, g):
    # (u*v) o f == (u o f) * (v o f) for u, v = exp-free polynomials: use g twice
    u = g + TruncatedSeries.one(g.order)
    assert compose(u * u, f) == compose(u, f) * compose(u, f)


@given(small_series(nonzero_const=False))
@settings(max_examples=30, deadline=None)
def test_compose_identity(f):
    x = TruncatedSeries.x(f.order)
    assert compose(f, x) == f
    assert compose(x, f) == f
