"""Cross checks of the generating-function identities against brute Mobius
computation.

Oracle notes.
[DERIVED] all closed forms recomputed from the exact series engine; brute
values come from poset sweeps, an independent code path.
Global signs: the (r,k) family closed form and the descent formula carry a
constant sign epsilon = -1 relative to the brute values, recorded in the
reports, never silently corrected.
"""

import math
from fractions import Fraction

import pytest

from expdowling import identities
from expdowling.identities import (
    IdentityReport,
    Run,
    binomial_mu_check,
    census_check,
    check_mu_series,
    compositional_check_dowling,
    compositional_check_partition,
    d_rk_rhs_series,
    d_rk_series_check,
    dowling_form,
    exponential_form,
    hyperbolic_series_check,
    minimal_count_check,
    mu_descent_check,
    rank_polynomial_check,
    restricted_mu_check,
    semigroup_check,
    theorem_j1_check,
)
from expdowling.series import TruncatedSeries, log, pow_rational


def assert_exact(report):
    assert report.verdict == "exact", report.to_json_dict()


def test_report_verdicts():
    r = IdentityReport("demo", {})
    r.add(1, 2, 2)
    assert r.verdict == "exact" and r.epsilon == 1
    r = IdentityReport("demo", {})
    r.add(1, 2, -2)
    r.add(2, -3, 3)
    assert r.verdict == "exact-up-to-global-sign" and r.epsilon == -1
    r = IdentityReport("demo", {})
    r.add(1, 2, -2)
    r.add(2, 3, 3)
    assert r.verdict == "mismatch" and not r.passed


@pytest.mark.parametrize("n,s", [(1, 1), (2, 2), (3, 3), (4, 1)])
def test_census(n, s):
    assert_exact(census_check(n, s, Run()))


def test_minimal_counts():
    assert_exact(minimal_count_check(2, None, 1, 3))
    assert_exact(minimal_count_check(2, 1, 1, 2))
    assert_exact(minimal_count_check(1, 2, 2, 2))


def test_mu_series_partition():
    assert_exact(check_mu_series(1, None, 1, 6))


def test_mu_series_partition_r():
    assert_exact(check_mu_series(2, None, 1, 3))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_mu_series_dowling(s):
    assert_exact(check_mu_series(1, 0, s, 3))


@pytest.mark.parametrize("r,k,s", [(2, 1, 1), (2, 0, 2), (1, 1, 2)])
def test_mu_series_dowling_rk(r, k, s):
    assert_exact(check_mu_series(r, k, s, 2))


def test_census_builds_each_lattice_once(monkeypatch):
    # the census, compositional and rank-polynomial checks of one run read
    # one build of each Pi_n and L_n(s)
    run, built = Run(), []
    for name in ("build_partition_lattice", "build_dowling_lattice"):
        build = getattr(identities, name)
        monkeypatch.setattr(
            identities, name, lambda n, *args, build=build: built.append((n, *args)) or build(n, *args)
        )
    f = {n: n * n - 2 for n in range(5)}
    g = {n: 3 - n for n in range(5)}
    k = {n: 2 - n for n in range(5)}
    t_values = [Fraction(v) for v in range(-1, 5)]
    for _ in range(3):
        for n in (1, 2, 3):
            assert_exact(census_check(n, 2, run))
        assert_exact(compositional_check_partition(f.__getitem__, g.__getitem__, 4, run))
        assert_exact(
            compositional_check_dowling(f.__getitem__, g.__getitem__, k.__getitem__, 2, 3, run)
        )
        assert_exact(rank_polynomial_check("partition", 1, t_values, 4, run))
        assert_exact(rank_polynomial_check("dowling", 2, t_values, 3, run))
    assert sorted(built) == [(0, 2), (1,), (1, 2), (2,), (2, 2), (3,), (3, 2), (4,)]


def test_compositional_partition():
    f = {n: n * n - 2 for n in range(7)}
    g = {n: 3 - n for n in range(7)}
    assert_exact(compositional_check_partition(f.__getitem__, g.__getitem__, 5, Run()))


def test_compositional_dowling():
    f = {n: (-1) ** n * n for n in range(5)}
    g = {n: n + 1 for n in range(5)}
    k = {n: 2 - n for n in range(5)}
    assert_exact(
        compositional_check_dowling(f.__getitem__, g.__getitem__, k.__getitem__, 2, 3, Run())
    )


def test_rank_polynomials():
    t_values = [Fraction(v) for v in range(-1, 6)]
    assert_exact(rank_polynomial_check("partition", 1, t_values, 5, Run()))
    assert_exact(rank_polynomial_check("dowling", 2, t_values, 3, Run()))


@pytest.mark.parametrize("family,builder", [("partition", "build_partition_lattice"),
                                            ("dowling", "build_dowling_lattice")])
def test_rank_polynomial_builds_each_lattice_once(monkeypatch, family, builder):
    built = []
    build = getattr(identities, builder)
    monkeypatch.setattr(identities, builder, lambda n, *args: built.append(n) or build(n, *args))
    assert_exact(rank_polynomial_check(family, 2, [Fraction(v) for v in range(-1, 7)], 4, Run()))
    assert built == ([1, 2, 3, 4] if family == "partition" else [0, 1, 2, 3, 4])


def test_rank_polynomial_needs_enough_samples():
    with pytest.raises(ValueError):
        rank_polynomial_check("partition", 1, [Fraction(1)], 3, Run())


def test_restricted_partition_identity():
    assert_exact(restricted_mu_check(frozenset({2}), None, 1, 8, Run()))
    assert_exact(restricted_mu_check(frozenset({1, 3}), None, 1, 6, Run()))


def test_restricted_dowling_identity():
    assert_exact(restricted_mu_check(frozenset({2}), frozenset({1}), 1, 7, Run()))


def test_semigroup_identity():
    assert_exact(
        semigroup_check(frozenset({2, 4, 6}), frozenset({1, 3, 5}), 1, 6, Run())
    )


def test_semigroup_violation_raises():
    with pytest.raises(ValueError):
        semigroup_check(frozenset({2, 3}), frozenset({1}), 1, 5, Run())


@pytest.mark.parametrize("r,k,s", [(1, 1, 1), (1, 2, 2), (2, 0, 1), (2, 1, 2), (2, 2, 1)])
def test_d_rk_series_sign(r, k, s):
    report = d_rk_series_check(r, k, s, 5, Run())
    assert report.passed
    # the printed form differs from brute by a constant global sign
    assert report.epsilon in (1, -1)


def test_d_rk_sign_is_minus_where_nonzero():
    report = d_rk_series_check(2, 1, 1, 5, Run())
    assert any(b != 0 for _, b, _ in report.rows)
    assert report.epsilon == -1


def test_binomial_and_s_independence():
    for k in (1, 2):
        assert_exact(binomial_mu_check(k, [1, 2, 3], 3, Run()))


def test_hyperbolic_forms():
    for k in (0, 1, 2, 3):
        for s in (1, 2):
            assert_exact(hyperbolic_series_check(k, s, 8))


def test_mu_descent_values():
    report = mu_descent_check(2, 1, 1, Run())
    assert report.passed and report.epsilon == -1
    _, brute, closed = report.rows[0]
    assert brute == 2 and closed == -2
    report = mu_descent_check(2, 1, 2, Run())
    _, brute, _ = report.rows[0]
    assert brute == -16
    report = mu_descent_check(1, 1, 4, Run())
    assert report.passed


@pytest.mark.parametrize("r", [1, 2, 3])
def test_mu_descent_without_zero_block(r):
    # k = 0 is Pi_{rn+1}^{r,1}: mu vanishes for n >= 1 (Thm 5.5), and no
    # permutation of S_{rn} ending in rn + 1 exists
    for n in range(4):
        report = mu_descent_check(r, 0, n, Run())
        assert report.passed, report.to_json_dict()
        _, brute, closed = report.rows[0]
        assert (brute, closed) == ((-1, 1) if n == 0 else (0, 0))


def test_j1_vanishing():
    for r, n in [(2, 1), (2, 2), (3, 1)]:
        report = theorem_j1_check(r, n, Run())
        assert report.passed
        _, brute, closed = report.rows[0]
        assert brute == 0 and closed == 0


def test_report_passes_only_with_expected_sign():
    flipped = IdentityReport("mu-series-exponential", {})
    flipped.add(1, 2, -2)
    assert flipped.epsilon == -1 and not flipped.passed
    exact = IdentityReport("mu-descent", {})
    exact.add("m=4", 2, 2)
    assert exact.epsilon == 1 and not exact.passed
    zero = IdentityReport("d-rk-series", {})
    zero.add(0, 0, 0)
    assert zero.passed


def test_exponential_form_of_exp_x():
    assert exponential_form(lambda n: 1, 5).coeffs == (0, -1, 0, 0, 0, 0)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_dowling_form_gives_the_printed_prop_4_5(r):
    T = 10
    for k in range(4):
        for s in range(1, 4):
            left = TruncatedSeries(
                Fraction(1, math.factorial(n)) if n >= k and (n - k) % r == 0 else 0
                for n in range(T + 1)
            )
            right = TruncatedSeries(
                Fraction(s**n, math.factorial(n)) if n % r == 0 else 0 for n in range(T + 1)
            )
            printed = left * pow_rational(right, Fraction(-1, s))
            assert d_rk_rhs_series(r, k, s, T).coeffs == printed.coeffs


@pytest.mark.parametrize("r", [1, 2, 3])
def test_two_forms_give_the_cor_3_4_series(r):
    # N^(r,k)(n) = (rn + k)! s^((r-1)n) / (k! r!^n n!) and M^(r) = N^(r,0) at
    # s = 1, written out from factorials; E_N = sum x^n / (N(n) n!)
    T = 8
    f = math.factorial

    def N_of(k, s):
        return lambda n: Fraction(f(r * n + k) * s ** ((r - 1) * n), f(k) * f(r) ** n * f(n))

    def E(N):
        return TruncatedSeries(1 / (N(n) * f(n)) for n in range(T + 1))

    M = N_of(0, 1)
    assert exponential_form(lambda n: 1 / M(n), T).coeffs == (-log(E(M))).coeffs
    for k in range(3):
        for s in (1, 2, 3):
            N = N_of(k, s)
            closed = -(E(N) * pow_rational(E(M).scale_argument(s), Fraction(-1, s)))
            forms = dowling_form(lambda n: 1 / N(n), lambda n: 1 / M(n), s, T)
            assert forms.coeffs == closed.coeffs
