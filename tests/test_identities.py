"""Cross checks of the generating-function identities against brute Mobius
computation.

Oracle notes.
[DERIVED] all closed forms recomputed from the exact series engine; brute
values come from poset sweeps, an independent code path.
Global signs: the (r,k) family closed form and the descent formula carry a
constant sign epsilon = -1 relative to the brute values, recorded in the
reports, never silently corrected.
"""

from fractions import Fraction

import pytest

from expdowling import identities
from expdowling.identities import (
    IdentityReport,
    binomial_mu_check,
    brute_mu,
    census_check,
    check_mu_series_dowling,
    check_mu_series_dowling_rk,
    check_mu_series_partition,
    check_mu_series_partition_r,
    compositional_check_dowling,
    compositional_check_partition,
    d_rk_series_check,
    hyperbolic_series_check,
    minimal_count_check,
    mu_descent_check,
    rank_polynomial_check,
    restricted_mu_check,
    semigroup_check,
    theorem_j1_check,
)


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
    assert_exact(census_check(n, s))


def test_minimal_counts():
    assert_exact(minimal_count_check(2, None, 1, 3))
    assert_exact(minimal_count_check(2, 1, 1, 2))
    assert_exact(minimal_count_check(1, 2, 2, 2))


def test_mu_series_partition():
    assert_exact(check_mu_series_partition(6))


def test_mu_series_partition_r():
    assert_exact(check_mu_series_partition_r(2, 3))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_mu_series_dowling(s):
    assert_exact(check_mu_series_dowling(s, 3))


@pytest.mark.parametrize("r,k,s", [(2, 1, 1), (2, 0, 2), (1, 1, 2)])
def test_mu_series_dowling_rk(r, k, s):
    assert_exact(check_mu_series_dowling_rk(r, k, s, 2))


def test_compositional_partition():
    f = {n: n * n - 2 for n in range(7)}
    g = {n: 3 - n for n in range(7)}
    assert_exact(compositional_check_partition(f.__getitem__, g.__getitem__, 5))


def test_compositional_dowling():
    f = {n: (-1) ** n * n for n in range(5)}
    g = {n: n + 1 for n in range(5)}
    k = {n: 2 - n for n in range(5)}
    assert_exact(
        compositional_check_dowling(f.__getitem__, g.__getitem__, k.__getitem__, 2, 3)
    )


def test_rank_polynomials():
    t_values = [Fraction(v) for v in range(-1, 6)]
    assert_exact(rank_polynomial_check("partition", 1, t_values, 5))
    assert_exact(rank_polynomial_check("dowling", 2, t_values, 3))


@pytest.mark.parametrize("family,builder", [("partition", "build_partition_lattice"),
                                            ("dowling", "build_dowling_lattice")])
def test_rank_polynomial_builds_each_lattice_once(monkeypatch, family, builder):
    built = []
    build = getattr(identities, builder)
    monkeypatch.setattr(identities, builder, lambda n, *args: built.append(n) or build(n, *args))
    assert_exact(rank_polynomial_check(family, 2, [Fraction(v) for v in range(-1, 7)], 4))
    assert built == ([1, 2, 3, 4] if family == "partition" else [0, 1, 2, 3, 4])


def test_rank_polynomial_needs_enough_samples():
    with pytest.raises(ValueError):
        rank_polynomial_check("partition", 1, [Fraction(1)], 3)


def test_restricted_partition_identity():
    assert_exact(restricted_mu_check(frozenset({2}), None, 1, 8))
    assert_exact(restricted_mu_check(frozenset({1, 3}), None, 1, 6))


def test_restricted_dowling_identity():
    assert_exact(restricted_mu_check(frozenset({2}), frozenset({1}), 1, 7))


def test_semigroup_identity():
    assert_exact(
        semigroup_check(frozenset({2, 4, 6}), frozenset({1, 3, 5}), 1, 6, 6)
    )


def test_semigroup_violation_raises():
    with pytest.raises(ValueError):
        semigroup_check(frozenset({2, 3}), frozenset({1}), 1, 5, 5)


@pytest.mark.parametrize("r,k,s", [(1, 1, 1), (1, 2, 2), (2, 0, 1), (2, 1, 2), (2, 2, 1)])
def test_d_rk_series_sign(r, k, s):
    report = d_rk_series_check(r, k, s, 5)
    assert report.passed
    # the printed form differs from brute by a constant global sign
    assert report.epsilon in (1, -1)


def test_d_rk_sign_is_minus_where_nonzero():
    report = d_rk_series_check(2, 1, 1, 5)
    assert any(b != 0 for _, b, _ in report.rows)
    assert report.epsilon == -1


def test_binomial_and_s_independence():
    for k in (1, 2):
        assert_exact(binomial_mu_check(k, [1, 2, 3], 3))


def test_hyperbolic_forms():
    for k in (0, 1, 2, 3):
        for s in (1, 2):
            assert_exact(hyperbolic_series_check(k, s, 8))


def test_mu_descent_values():
    report = mu_descent_check(2, 1, 1)
    assert report.passed and report.epsilon == -1
    _, brute, closed = report.rows[0]
    assert brute == 2 and closed == -2
    report = mu_descent_check(2, 1, 2)
    _, brute, _ = report.rows[0]
    assert brute == -16
    report = mu_descent_check(1, 1, 4)
    assert report.passed


def test_j1_vanishing():
    for r, n in [(2, 1), (2, 2), (3, 1)]:
        report = theorem_j1_check(r, n)
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
