"""Lattice constructions: partitions, enriched partitions, derived families.

Oracle notes.
[DERIVED] Bell numbers from the binomial recurrence; Mobius numbers of the
full lattices from the characteristic-polynomial product, recomputed here.
[DERIVED] Stirling-by-rank histogram from the triangle recurrence.
[TRIVIAL] tiny lattices checked by hand.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    canonical_partition,
    dowling_leq,
    dowling_to_extended,
    extended_to_dowling,
    is_lattice,
    partition_leq,
)

from expdowling.poset import mobius_table
from expdowling.structures import (
    GuardError,
    all_types,
    build_D_rk,
    build_dowling_lattice,
    build_extended,
    build_partition_lattice,
    build_Q_r,
    build_r_divisible,
    build_restricted_dowling,
    build_restricted_partition,
    count_of_type,
    denominator_N_rk,
    enumerate_dowling,
    set_partitions,
    type_of,
)


@lru_cache(maxsize=None)
def bell(n):
    # [DERIVED] B_{n+1} = sum C(n, k) B_k
    if n == 0:
        return 1
    return sum(math.comb(n - 1, k) * bell(k) for k in range(n))


@lru_cache(maxsize=None)
def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


def dowling_mu_closed(n, s):
    # [DERIVED] mu of the full lattice from the characteristic polynomial at 0
    value = 1
    for i in range(n):
        value *= -(s * i + 1)
    return value


def test_set_partition_counts_are_bell():
    for m in range(1, 8):
        assert len(set_partitions(m)) == bell(m)


def test_partition_lattice_shape():
    built = build_partition_lattice(4)
    P = built.poset
    assert P.n == bell(4)
    assert P.rank[P.top] == 3
    ok, reason = is_lattice(P)
    assert ok, reason
    hist = {}
    for i in range(P.n):
        hist[P.rank[i]] = hist.get(P.rank[i], 0) + 1
    assert hist == {r: stirling2(4, 4 - r) for r in range(4)}


def test_partition_lattice_mobius():
    for m in range(1, 6):
        built = build_partition_lattice(m)
        P = built.poset
        mu = mobius_table(P, P.bottom)[P.top]
        assert mu == (-1) ** (m - 1) * math.factorial(m - 1)


@pytest.mark.parametrize("n,s", [(1, 1), (2, 2), (3, 1), (3, 2), (2, 3), (3, 3)])
def test_dowling_lattice_mobius_and_shape(n, s):
    built = build_dowling_lattice(n, s)
    P = built.poset
    assert P.rank[P.top] == n
    ok, reason = is_lattice(P)
    assert ok, reason
    assert mobius_table(P, P.bottom)[P.top] == dowling_mu_closed(n, s)


def test_dowling_enumeration_matches_growth():
    for n, s in [(2, 2), (3, 2), (3, 3)]:
        built = build_dowling_lattice(n, s)
        assert len(enumerate_dowling(n, s)) == len(built.elements)


def test_dowling_closure_agrees_with_leq():
    built = build_dowling_lattice(3, 2)
    P = built.poset
    E = built.elements
    for i in range(P.n):
        for j in range(P.n):
            assert P.leq(i, j) == dowling_leq(E[i], E[j], 2)


def test_type_census():
    for n, s in [(3, 1), (3, 2), (2, 3)]:
        elements = enumerate_dowling(n, s)
        hist = {}
        for x in elements:
            t = type_of(x, n)
            hist[t] = hist.get(t, 0) + 1
        for t in all_types(n):
            assert hist.get(t, 0) == count_of_type(n, s, t)
        assert sum(hist.values()) == len(elements)


def test_guards():
    with pytest.raises(GuardError):
        set_partitions(13)
    with pytest.raises(GuardError):
        build_partition_lattice(10)
    # Pi_10^2 has 6,556 elements below its adjoined 0-hat: the guard counts them
    with pytest.raises(GuardError):
        build_r_divisible(10, 2, guard=6555)
    assert build_r_divisible(10, 2, guard=6556).poset.n == 6557


def test_r_divisible_small():
    built = build_r_divisible(4, 2)
    # three perfect matchings, the one-block partition, and the adjoined bottom
    assert built.poset.n == 5
    table = mobius_table(built.poset, built.bottom)
    assert table[built.poset.top] == 2


def test_extended_j1_small():
    built = build_extended(3, 2, 1)
    # 12|3 under 123, plus the adjoined bottom: a chain, mu = 0
    assert built.poset.n == 3
    assert mobius_table(built.poset, built.bottom)[built.poset.top] == 0


def test_restricted_partition_literal():
    # I = {2}: perfect matchings only
    built = build_restricted_partition(4, frozenset({2}))
    assert len(built.elements) == 3
    built = build_restricted_partition(3, frozenset({2}))
    assert len(built.elements) == 0


def test_restricted_dowling_shape():
    built = build_restricted_dowling(3, 2, frozenset({1, 2, 3}), frozenset({0, 1, 2, 3}))
    full = build_dowling_lattice(3, 2)
    assert len(built.elements) == len(full.elements)


def test_minimal_element_counts():
    for n, r in [(1, 2), (2, 2), (1, 3), (4, 1)]:
        built = build_Q_r(n, r)
        mins = built.poset.minimals
        assert len(mins) == denominator_N_rk(n, r, 0, 1)
    for n, r, k, s in [(1, 2, 1, 1), (1, 2, 1, 2), (2, 2, 0, 1), (1, 1, 2, 2)]:
        built = build_D_rk(n, r, k, s)
        assert len(built.poset.covers_up[built.bottom]) == denominator_N_rk(n, r, k, s)


def test_minimal_counts_are_the_written_out_formula():
    # N^(r,k)(n) = (rn + k)! s^((r-1)n) / (k! r!^n n!), M^(r)(n) = N^(r,0)(n) at s = 1
    f = math.factorial
    for r in range(1, 6):
        for n in range(7):
            for k in range(5):
                for s in range(1, 5):
                    expected, rest = divmod(
                        f(r * n + k) * s ** ((r - 1) * n), f(k) * f(r) ** n * f(n)
                    )
                    assert rest == 0
                    assert denominator_N_rk(n, r, k, s) == expected, (n, r, k, s)


def test_d_rk_is_upward_closed():
    from expdowling.structures import ambient_dowling

    n, r, k, s = 1, 2, 1, 2
    ambient = ambient_dowling(r * n + k, s)
    sub = build_D_rk(n, r, k, s)
    kept = set(sub.elements)
    P = ambient.poset
    for i, x in enumerate(ambient.elements):
        if x in kept:
            for j in range(P.n):
                if P.leq(i, j):
                    assert ambient.elements[j] in kept


def test_bijection_is_order_isomorphism():
    from expdowling.structures import bijection_extended_to_dowling

    m, r, k = 5, 2, 2
    pairs = bijection_extended_to_dowling(m, r, k)
    assert len(pairs) == len({x for _, x in pairs})
    for p, x in pairs:
        assert dowling_to_extended(x, m) == p
        # partition with c blocks maps to rank (m-1) - (c-1) in the ambient
        assert (m - 1) - len(x.blocks) == m - len(p)
    for p, x in pairs:
        for q, y in pairs:
            assert partition_leq(p, q) == dowling_leq(x, y, 1)


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=40, deadline=None)
def test_partition_order_axioms(m, data):
    parts = set_partitions(m)
    p = data.draw(st.sampled_from(parts))
    q = data.draw(st.sampled_from(parts))
    r = data.draw(st.sampled_from(parts))
    assert partition_leq(p, p)
    if partition_leq(p, q) and partition_leq(q, p):
        assert p == q
    if partition_leq(p, q) and partition_leq(q, r):
        assert partition_leq(p, r)


def test_canonical_partition_sorting():
    assert canonical_partition([(3, 1), (2,)]) == ((1, 3), (2,))


def test_extended_to_dowling_rejects_partition_without_m():
    with pytest.raises(ValueError):
        extended_to_dowling(((1, 2), (3,)), 4)
