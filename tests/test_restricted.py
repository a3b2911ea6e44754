"""Q_n^I and R_n^{I,J}(s) against the pairwise order they replaced.

Every family is grown from its minimal elements by one local cover rule: a
cover merges one group of blocks, or absorbs one into the zero block, when
no smaller part of the group can be merged or absorbed on its own.  When the
semigroup condition holds on [0, n] the family is an upper set and the rule
gives the moves of L_n(s), one block absorbed or two merged; otherwise a
cover may change several blocks at once.  Either way the build must give
the lattice that the pairwise order gives: the same elements, covers and
ranks (None when not graded), and the same guard outcome.

[ORACLE] `structures.induced_subposet` compares every pair of the listed
elements with `oracles.partition_leq` / `oracles.dowling_leq` and recovers the covers by
transitive reduction.  No build path calls it; the elements it orders are
all set partitions, or all of L_n(s), filtered by block size.
"""

from functools import lru_cache
from itertools import combinations

import pytest
from oracles import dowling_leq, dowling_to_extended, partition_leq

from expdowling import cli, structures
from expdowling.structures import (
    DowlingElement,
    GuardError,
    adjoin_zero,
    build_restricted_dowling,
    build_restricted_partition,
    enumerate_dowling,
    induced_subposet,
    lacks_unique_top,
    semigroup_violation,
    set_partitions,
)


def oracle_q(n, I):
    elements = [p for p in set_partitions(n) if all(len(b) in I for b in p)]
    return adjoin_zero(induced_subposet(elements, partition_leq, lambda p: n - len(p)))


def oracle_r(n, s, I, J):
    elements = [x for x in enumerate_dowling(n, s)
                if len(x.zero) in J and all(len(b) in I for b, _ in x.blocks)]
    return adjoin_zero(
        induced_subposet(elements, lambda x, y: dowling_leq(x, y, s), lambda x: n - len(x.blocks))
    )


def shape(built):
    """The element set, the cover pairs and the rank of each element, with
    the adjoined 0-hat named by a string."""
    names = list(built.elements) + ["0-hat"]
    assert built.bottom == len(names) - 1
    P = built.poset
    covers = {(names[x], names[y]) for x in range(P.n) for y in P.covers_up[x]}
    rank = None if P.rank is None else {names[i]: r for i, r in enumerate(P.rank)}
    return set(names), covers, rank


def assert_matches(build, oracle):
    built = build()
    assert shape(built) == shape(oracle)
    V = len(built.elements)
    assert len(build(guard=V).elements) == V
    if V:
        with pytest.raises(GuardError):
            build(guard=V - 1)


def subsets(items):
    return [frozenset(c) for k in range(1, len(items) + 1) for c in combinations(items, k)]


Q_SMALL = [(n, I) for n in range(1, 7) for I in subsets(range(1, n + 1))]


@pytest.mark.parametrize("n,I", Q_SMALL, ids=[f"{n},{sorted(I)}" for n, I in Q_SMALL])
def test_q_every_I_small(n, I):
    assert_matches(lambda **kw: build_restricted_partition(n, I, **kw), oracle_q(n, I))


# Q_7^{2,4,6} is empty: a semigroup on [0, 7] with no seed
Q_LARGE = [(n, frozenset(I)) for n in (7, 8) for I in
           [range(2, n + 1), range(3, n + 1), (2, 4, 5, 6, 7, 8), (3, 5, 6, 8), (1, 2, 3)]]
Q_LARGE.append((7, frozenset({2, 4, 6})))


@pytest.mark.parametrize("n,I", Q_LARGE, ids=[f"{n},{sorted(I)}" for n, I in Q_LARGE])
def test_q_large(n, I):
    assert_matches(lambda **kw: build_restricted_partition(n, I, **kw), oracle_q(n, I))


def test_q_semigroup_seeds_at_two_levels():
    # the minimal elements of Q_8^{2..8} have blocks of sizes 2 and 3, so 3 or
    # 4 blocks; growth must place every level before the next, or a move lands
    # on an earlier element
    I = frozenset(range(2, 9))
    assert semigroup_violation(I, frozenset(), 8) is None
    built = build_restricted_partition(8, I)
    assert len(built.elements) == 715
    minimal_blocks = {len(built.elements[i]) for i in built.poset.covers_up[built.bottom]}
    assert minimal_blocks == {3, 4}


@pytest.mark.parametrize("builder,args", [
    ("build_restricted_partition", (8, frozenset(range(2, 9)))),
    ("build_restricted_partition", (9, frozenset({3, 5, 6, 8, 9}))),
    ("build_restricted_dowling", (5, 2, frozenset({2, 3, 4, 5}), frozenset({1, 2, 3, 4, 5}))),
    ("build_restricted_dowling", (6, 3, frozenset({3, 6}), frozenset({0, 3, 6}))),
    # the semigroup condition fails: seeds whose blocks are no sum of two or
    # more sizes in I, and whose zero block has no size j - t in J
    ("build_restricted_partition", (8, frozenset({2, 3}))),
    ("build_restricted_partition", (9, frozenset({2, 5, 7}))),
    ("build_restricted_dowling", (4, 2, frozenset({2, 3}), frozenset({1, 3}))),
    ("build_restricted_dowling", (5, 3, frozenset({2, 3}), frozenset({0, 1, 4}))),
    ("build_restricted_dowling", (6, 2, frozenset({2, 3, 4}), frozenset({1, 2, 5}))),
], ids=["q8", "q9", "r5", "r6", "q8-{2,3}", "q9-{2,5,7}", "r4-s2", "r5-s3", "r6-s2"])
def test_semigroup_seeds_are_the_minimal_elements(monkeypatch, builder, args):
    # growth skips a seed that a move already reached, so only this shows
    # that no element above a minimal one is listed as a seed
    seen = []
    grow = structures._grow

    def capture(seeds, *rest, **kwargs):
        seen.append(list(seeds))
        return grow(seen[-1], *rest, **kwargs)

    monkeypatch.setattr(structures, "_grow", capture)
    built = getattr(structures, builder)(*args)
    minimal = built.poset.covers_up[built.bottom]
    assert sorted(seen[0]) == sorted(built.codes[i] for i in minimal)


def assert_linear(built):
    """Every cover of a real element points to a higher index."""
    covers_up = built.poset.covers_up
    assert all(x < y for x in range(len(built.codes)) for y in covers_up[x])


def test_merging_three_blocks_is_a_cover():
    # Q_4^{1,3}: 2 is not in I, so the singletons are covered by the four
    # partitions with a block of three, each merging three blocks at once
    built = build_restricted_partition(4, frozenset({1, 3}))
    assert_linear(built)
    bottom = built.index[((1,), (2,), (3,), (4,))]
    covers = {built.elements[y] for y in built.poset.covers_up[bottom]}
    assert covers == {p for p in built.elements if len(p) == 2}
    assert len(covers) == 4


@pytest.mark.parametrize("s", [1, 2])
def test_absorbing_two_blocks_is_a_cover(s):
    # R_2^{{1},{0,2}}(s): 1 is not in J, so the zero block takes both
    # singletons at once
    built = build_restricted_dowling(2, s, frozenset({1}), frozenset({0, 2}))
    assert_linear(built)
    assert built.elements == (DowlingElement((), (((1,), (0,)), ((2,), (0,)))),
                              DowlingElement((1, 2), ()))
    assert built.poset.covers_up[:2] == ((1,), ())


@lru_cache(maxsize=None)
def pairwise(n, s=None):
    """Every element of Pi_n (s None) or L_n(s), and a leq that serves each
    comparison of `partition_leq` / `dowling_leq` from one table, each pair
    compared once for every family filtered from them."""
    if s is None:
        elements, leq = set_partitions(n), partition_leq
    else:
        elements, leq = enumerate_dowling(n, s), lambda x, y: dowling_leq(x, y, s)
    below = {(x, y) for x in elements for y in elements if leq(x, y)}
    return elements, lambda x, y: (x, y) in below


def test_q7_every_I_is_the_pairwise_order():
    # the 127 nonempty I of [1..7], with or without the semigroup condition
    elements, leq = pairwise(7)
    for I in subsets(range(1, 8)):
        kept = [p for p in elements if all(len(b) in I for b in p)]
        oracle = adjoin_zero(induced_subposet(kept, leq, lambda p: 7 - len(p)))
        built = build_restricted_partition(7, I)
        assert shape(built) == shape(oracle), sorted(I)
        assert_linear(built)


# (n, s) of the sweep over every nonempty I and J: 1,290 families
SWEEP = [(n, 1) for n in range(1, 5)] + [(n, 2) for n in range(2, 5)] + [(3, 3)]


@pytest.mark.parametrize("n,s", SWEEP)
def test_r_every_I_J_is_the_pairwise_order(n, s):
    elements, leq = pairwise(n, s)
    for I in subsets(range(1, n + 1)):
        for J in subsets(range(n + 1)):
            kept = [x for x in elements
                    if len(x.zero) in J and all(len(b) in I for b, _ in x.blocks)]
            oracle = adjoin_zero(induced_subposet(kept, leq, lambda x: n - len(x.blocks)))
            built = build_restricted_dowling(n, s, I, J)
            assert shape(built) == shape(oracle), (sorted(I), sorted(J))
            assert_linear(built)


R_I = [frozenset(I) for I in [(1,), (2,), (1, 2), (2, 3), (2, 4), (1, 2, 3), (3, 4, 5),
                              (2, 3, 4, 5), (1, 2, 3, 4, 5)]]
R_J = [frozenset(J) for J in [(0,), (1,), (0, 1), (0, 2), (1, 3, 5), (0, 2, 4), (2, 3, 4, 5),
                              (3, 4, 5), (0, 1, 2, 3, 4, 5)]]
R_GRID = [(n, s) for n in range(0, 6) for s in (1, 2)]


@pytest.mark.parametrize("n,s", R_GRID)
def test_r_grid(n, s):
    for I in R_I:
        for J in R_J:
            assert_matches(lambda **kw: build_restricted_dowling(n, s, I, J, **kw),
                           oracle_r(n, s, I, J))


def test_r_grid_takes_both_paths():
    # the grid holds families with and without the semigroup condition
    paths = {semigroup_violation(I, J, n) is None for n, _ in R_GRID for I in R_I for J in R_J}
    assert paths == {True, False}
    with_zero = {0 in J for I in R_I for J in R_J if semigroup_violation(I, J, 5) is None}
    assert with_zero == {True, False}


def test_r_at_s_3():
    I, J = frozenset({3, 6}), frozenset({0, 3, 6})
    assert semigroup_violation(I, J, 6) is None
    assert_matches(lambda **kw: build_restricted_dowling(6, 3, I, J, **kw), oracle_r(6, 3, I, J))


def test_no_build_compares_pairs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("induced_subposet called by a build")

    monkeypatch.setattr(structures, "induced_subposet", refuse)
    for family, (builder, _, keys) in cli.FAMILIES.items():
        values = {"m": 6, "n": 2, "r": 2, "j": 2, "k": 1, "s": 2,
                  "I": frozenset({1, 2}), "J": frozenset({0, 2})}
        if family in ("q-I", "r-IJ"):
            values["n"] = 4
        getattr(structures, builder)(*(values[key] for key in keys))
    for I in (frozenset({2, 3}), frozenset({2, 4, 6})):
        build_restricted_partition(6, I)
        build_restricted_dowling(5, 2, I, frozenset({1, 3, 5}))


@pytest.mark.parametrize("n", range(1, 8))
def test_unique_top_decided_before_building(n):
    # every nonempty I of [1..n]: 247 cases for n <= 7
    for size in range(1, n + 1):
        for I in map(frozenset, combinations(range(1, n + 1), size)):
            unique = len(build_restricted_partition(n, I).poset.maximals) == 1
            assert lacks_unique_top(n, I) is not unique, sorted(I)


def subsets(items):
    return [frozenset(c) for size in range(len(items) + 1) for c in combinations(items, size)]


def code_covers(built):
    """The cover pairs, each element named by its code."""
    names = built.codes + ("0-hat",)
    P = built.poset
    return {(names[x], names[y]) for x in range(P.n) for y in P.covers_up[x]}


@pytest.mark.parametrize("n", range(1, 11))
def test_q_is_r_read_through_the_bijection(n):
    # Q_n^I is R_{n-1}^{I,I-1}(1), n joining the zero block: built for every
    # I of [1..n+1] up to n = 7, and the unique-top rule up to n = 10
    for I in subsets(range(1, n + 2)):
        J = frozenset(i - 1 for i in I)
        assert lacks_unique_top(n, I) == lacks_unique_top(n - 1, I, J, 1), sorted(I)
        if n > 7:
            continue
        q, r = build_restricted_partition(n, I), build_restricted_dowling(n - 1, 1, I, J)
        assert set(q.codes) == set(r.codes), sorted(I)
        assert code_covers(q) == code_covers(r), sorted(I)
        read = {c: dowling_to_extended(x, n) for c, x in zip(r.codes, r.elements)}
        assert dict(zip(q.codes, q.elements)) == read, sorted(I)


@pytest.mark.parametrize("n", range(0, 5))
def test_unique_top_of_r_decided_before_building(n):
    # every I of [1..n] and J of [0..n] at s = 1, 2, 3: 1,536 cases at n = 4;
    # an empty family has its adjoined 0-hat as the top
    for s in (1, 2, 3):
        for I in subsets(range(1, n + 1)):
            for J in subsets(range(n + 1)):
                unique = len(build_restricted_dowling(n, s, I, J).poset.maximals) == 1
                assert lacks_unique_top(n, I, J, s) is not unique, (s, sorted(I), sorted(J))
