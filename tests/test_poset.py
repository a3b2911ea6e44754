"""Poset core: closure, grading, Mobius tables, chains; the lattice check
and the Mobius identity of `oracles`.

Oracle notes.
[DERIVED] Mobius numbers of the boolean lattice B_3 recomputed here by
inclusion-exclusion (mu(S,T) = (-1)^{|T|-|S|}) independently of the sweep.
[TRIVIAL] chain posets, diamond.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import is_lattice, verify_mobius_identity

from expdowling.poset import (
    _bits,
    from_covers,
    PosetError,
    maximal_chains,
    mobius,
    mobius_table,
    mobius_table_to_top,
)


def boolean_lattice(k):
    subsets = [frozenset(s) for r in range(k + 1) for s in itertools.combinations(range(k), r)]
    idx = {s: i for i, s in enumerate(subsets)}
    covers = []
    for s in subsets:
        for e in range(k):
            if e not in s:
                covers.append((idx[s], idx[s | {e}]))
    return from_covers(len(subsets), covers), subsets, idx


def chain_poset(k):
    return from_covers(k, [(i, i + 1) for i in range(k - 1)])


def test_chain_basics():
    P = chain_poset(5)
    assert P.bottom == 0 and P.top == 4
    assert P.rank == (0, 1, 2, 3, 4)
    assert mobius(P, 0, 0) == 1
    assert mobius(P, 0, 1) == -1
    assert mobius(P, 0, 3) == 0
    ok, _ = is_lattice(P)
    assert ok


def test_boolean_mobius_vs_inclusion_exclusion():
    P, subsets, idx = boolean_lattice(3)
    table = mobius_table(P, idx[frozenset()])
    for s in subsets:
        # [DERIVED] inclusion-exclusion closed form
        assert table[idx[s]] == (-1) ** len(s)
    # and from an interior element upward
    base = frozenset({0})
    table = mobius_table(P, idx[base])
    for s in subsets:
        if base <= s:
            assert table[idx[s]] == (-1) ** (len(s) - 1)


def test_mobius_reads_one_table_and_no_closure():
    P, _, idx = boolean_lattice(3)
    assert mobius(P, idx[frozenset()], idx[frozenset(range(3))]) == -1
    assert "down_rows" not in vars(P) and "up_rows" not in vars(P)
    # {0} and {1} are incomparable, and y below x is not above it
    with pytest.raises(PosetError, match="is not <="):
        mobius(P, idx[frozenset({0})], idx[frozenset({1})])
    with pytest.raises(PosetError, match="is not <="):
        mobius(P, idx[frozenset({0, 1})], idx[frozenset({0})])


def test_boolean_to_top_table():
    P, subsets, idx = boolean_lattice(3)
    table = mobius_table_to_top(P, idx[frozenset(range(3))])
    for s in subsets:
        assert table[idx[s]] == (-1) ** (3 - len(s))


def test_boolean_chain_count():
    P, subsets, idx = boolean_lattice(4)
    chains = maximal_chains(P, idx[frozenset()], idx[frozenset(range(4))])
    assert len(chains) == 24
    assert len({tuple(c) for c in chains}) == 24


def test_boolean_is_lattice_and_graded():
    P, _, _ = boolean_lattice(3)
    ok, reason = is_lattice(P)
    assert ok, reason
    assert P.rank[P.top] == 3
    assert len(P.maximals) == 1


def test_non_lattice_detected():
    # two minimal and two maximal elements joined crosswise: no join of the minimals
    P = from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    ok, reason = is_lattice(P)
    assert not ok
    assert reason


def test_cycle_rejected():
    with pytest.raises(PosetError):
        from_covers(3, [(0, 1), (1, 2), (2, 0)])


def test_json_round_trip():
    P, _, _ = boolean_lattice(3)
    data = P.to_json_dict()
    Q = from_covers(data["n"], [tuple(c) for c in data["covers"]])
    assert Q == P


def test_interval():
    P, subsets, idx = boolean_lattice(3)
    mask = P.interval(idx[frozenset({0})], idx[frozenset({0, 1, 2})])
    assert sorted(_bits(mask)) == sorted(
        idx[s] for s in subsets if frozenset({0}) <= s
    )


@st.composite
def random_dag_poset(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.add((i, j))
    return from_covers(n, sorted(edges))


@given(random_dag_poset())
@settings(max_examples=60, deadline=None)
def test_mobius_defining_identity_random(P):
    for x in range(P.n):
        assert verify_mobius_identity(P, x)


@given(random_dag_poset())
@settings(max_examples=40, deadline=None)
def test_leq_is_reflexive_transitive(P):
    for x in range(P.n):
        assert P.leq(x, x)
    for x in range(P.n):
        for y in range(P.n):
            for z in range(P.n):
                if P.leq(x, y) and P.leq(y, z):
                    assert P.leq(x, z)
