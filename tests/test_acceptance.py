"""Acceptance gate: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a single pass line on success; a failed assert is the fail
line.  Runtime bounds from the criteria are asserted where stated.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from oracles import verify_mobius_identity

from expdowling import descents, identities, shelling
from expdowling.series import TruncatedSeries, exp, log
from expdowling.structures import (
    build_dowling_lattice,
    build_extended,
    build_partition_lattice,
    set_partitions,
)


def report(n, text):
    print(f"criterion {n}: PASS ({text})", flush=True)


def assert_exact(r):
    assert r.verdict == "exact", r.to_json_dict()


def test_criterion_1_census():
    start = time.monotonic()
    for n in range(1, 5):
        for s in (1, 2, 3):
            assert_exact(identities.census_check(n, s, identities.Run()))
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"census took {elapsed:.1f}s"
    report(1, f"type census n<=4, s in 1..3, {elapsed:.1f}s")


def test_criterion_2_mu_series():
    start = time.monotonic()
    r = identities.check_mu_series(1, None, 1, 7)
    assert_exact(r)
    assert r.epsilon == 1
    r = identities.check_mu_series(2, None, 1, 4)
    assert_exact(r)
    for s in (1, 2, 3):
        r = identities.check_mu_series(1, 0, s, 4)
        assert_exact(r)
        assert r.epsilon == 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"mu series took {elapsed:.1f}s"
    report(2, f"mu generating functions, epsilon=+1, {elapsed:.1f}s")


def test_criterion_3_compositional():
    start = time.monotonic()
    rng, run = random.Random(20090311), identities.Run()
    for trial in range(5):
        f = {i: rng.randint(-3, 3) for i in range(0, 7)}
        g = {i: rng.randint(-3, 3) for i in range(0, 7)}
        k = {i: rng.randint(-3, 3) for i in range(0, 7)}
        assert_exact(
            identities.compositional_check_partition(f.__getitem__, g.__getitem__, 6, run)
        )
        for s in (1, 2):
            assert_exact(
                identities.compositional_check_dowling(
                    f.__getitem__, g.__getitem__, k.__getitem__, s, 4, run
                )
            )
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"compositional took {elapsed:.1f}s"
    report(3, f"compositional formulas, 5 random triples, {elapsed:.1f}s")


def test_criterion_4_restricted():
    start, run = time.monotonic(), identities.Run()
    assert_exact(identities.restricted_mu_check(frozenset({2}), None, 1, 8, run))
    assert_exact(identities.restricted_mu_check(frozenset({2}), frozenset({1}), 1, 8, run))
    assert_exact(
        identities.semigroup_check(
            frozenset({2, 4, 6, 8}), frozenset({1, 3, 5, 7}), 1, 8, run
        )
    )
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"restricted took {elapsed:.1f}s"
    report(4, f"restricted structures through x^8, {elapsed:.1f}s")


def test_criterion_5_rk_family():
    run = identities.Run()
    for r, k in [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]:
        for s in (1, 2):
            rep = identities.d_rk_series_check(r, k, s, 6, run)
            assert rep.passed, rep.to_json_dict()
            assert rep.epsilon in (1, -1)
    for k in (1, 2):
        assert_exact(identities.binomial_mu_check(k, [1, 2, 3], 4, run))
    for k in (0, 1, 2, 3):
        for s in (1, 2):
            assert_exact(identities.hyperbolic_series_check(k, s, 8))
    report(5, "(r,k) family: constant epsilon, binomial values, hyperbolic forms")


def test_criterion_6_q_identities():
    start = time.monotonic()
    for total in range(2, 7):
        for n in range(1, total):
            for u in itertools.product("ab", repeat=n - 1):
                for v in itertools.product("ab", repeat=total - n - 1):
                    assert descents.multiplication_check("".join(u), "".join(v))
    for r, w in [(2, "a"), (2, "aa"), (3, "aa")]:
        for q in (1, 2):
            assert descents.eulerian_identity_check(r, w, q, 9)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"q identities took {elapsed:.1f}s"
    report(6, f"q-multiplication exhaustive, alternating identity, {elapsed:.1f}s")


def test_criterion_7_descent_mu():
    run = identities.Run()
    rep = identities.mu_descent_check(2, 1, 1, run)
    _, brute, _ = rep.rows[0]
    assert brute == 2 and descents.des_count("ab") == 2
    rep = identities.mu_descent_check(2, 1, 2, run)
    _, brute, _ = rep.rows[0]
    assert brute == -16
    assert len(descents.alternating_permutations(5)) == 16
    rep = identities.mu_descent_check(1, 1, 4, run)
    assert rep.passed and rep.epsilon in (1, -1)
    for r, n in [(2, 1), (2, 2), (3, 1)]:
        rep = identities.theorem_j1_check(r, n, run)
        assert rep.passed
        assert rep.rows[0][1] == 0
    report(7, "descent-statistic mu values, signs constant per identity")


def test_criterion_8_el_suite():
    start = time.monotonic()
    for m, r, j in [(3, 2, 1), (4, 2, 2), (5, 2, 3), (6, 2, 2), (7, 3, 4)]:
        result = shelling.el_verify(m, r, j)
        assert result["rising_violations"] == 0, result
        assert result["f_sigma_match"], result
        assert result["falling_count"] == result["des_expected"], result
        assert abs(result["mu"]) == result["falling_count"], result
    # the worked falling chain
    built = build_extended(9, 2, 3)
    chain = shelling.f_sigma((5, 6, 2, 4, 1, 8, 3, 7, 9), 2, 3, built)
    assert [built.elements[i] for i in chain[1:]] == [
        ((1, 8), (2, 4), (3, 7, 9), (5, 6)),
        ((1, 2, 4, 8), (3, 7, 9), (5, 6)),
        ((1, 2, 4, 5, 6, 8), (3, 7, 9)),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9),),
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"EL suite took {elapsed:.1f}s"
    report(8, f"EL labeling on 5 lattices plus worked chain, {elapsed:.1f}s")


def test_criterion_9_property_suites():
    # series ring sanity and exp/log round trip on a fixed sample
    f = TruncatedSeries([0, 1, Fraction(1, 2), -2, 0, 3])
    g = TruncatedSeries([0, -1, 2, Fraction(1, 3), 1, 0])
    assert f * g == g * f
    assert log(exp(f)) == f
    assert log(exp(g)) == g
    # Mobius defining identity on constructed posets
    for built in [
        build_partition_lattice(5),
        build_dowling_lattice(3, 2),
        build_extended(5, 2, 3),
    ]:
        P = built.poset
        for x in range(P.n):
            assert verify_mobius_identity(P, x)
    # descent counts at q = 1
    for n in range(1, 6):
        for w in itertools.product("ab", repeat=n - 1):
            word = "".join(w)
            assert descents.des_q(word)(1) == descents.des_count(word)
    # Bell census
    bell = [1, 1, 2, 5, 15, 52, 203]
    for m in range(1, 7):
        assert len(set_partitions(m)) == bell[m]
    report(9, "property suites: series, Mobius identity, descents, Bell")
