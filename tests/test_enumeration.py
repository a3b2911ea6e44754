"""Block-size enumeration against the enumerators it replaced.

The listings and the minimal elements of every family come from one
generator over block sizes.  The oracles here are the former listing paths,
kept only in this file: all set partitions, re-sorted at every step and
filtered by block size, and every element of L_n(s) filtered by two
predicates.  The restricted families must list the same elements, in an
order in which every cover points to a higher index.
"""

from functools import lru_cache
from itertools import combinations, product

import pytest

from expdowling.cli import EXIT_OK, EXIT_USAGE, main
from expdowling.structures import (
    DowlingElement,
    GuardError,
    build_restricted_dowling,
    build_restricted_partition,
    enumerate_dowling,
    set_partitions,
)


def old_partitions_of(elements):
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for p in old_partitions_of(rest):
        yield ((first,),) + p
        for i, block in enumerate(p):
            yield tuple(sorted(p[:i] + (tuple(sorted((first,) + block)),) + p[i + 1 :]))


@lru_cache(maxsize=None)
def old_set_partitions(m):
    return sorted(old_partitions_of(tuple(range(1, m + 1))))


def old_enumerate_dowling(n, s, zero_ok=None, block_ok=None):
    ground = tuple(range(1, n + 1))
    out = []
    for b in range(n + 1):
        if zero_ok is not None and not zero_ok(b):
            continue
        for zero in combinations(ground, b):
            rest = tuple(e for e in ground if e not in zero)
            for part in set(old_partitions_of(rest)):
                if block_ok is not None and not all(block_ok(len(bl)) for bl in part):
                    continue
                label_spaces = [product(range(s), repeat=len(bl) - 1) for bl in part]
                for choice in product(*label_spaces):
                    blocks = tuple((bl, (0,) + labels) for bl, labels in zip(part, choice))
                    out.append(DowlingElement(zero=zero, blocks=blocks))
    return sorted(out, key=lambda x: (len(x.blocks), x.zero, x.blocks))


def listed(build, *args):
    """The elements of `build(*args)` in the order of the former listing:
    sorted partitions, or Dowling elements by (block count, zero block,
    blocks).  Every family is grown, with or without the semigroup
    condition, so its index order must be a linear extension: every cover
    points to a higher index."""
    built = build(*args)
    covers_up = built.poset.covers_up
    assert all(x < y for x in range(len(built.codes)) for y in covers_up[x])
    if build is build_restricted_partition:
        return sorted(built.elements)
    return sorted(built.elements, key=lambda x: (len(x.blocks), x.zero, x.blocks))


def subsets(items):
    """Every nonempty subset of items."""
    return [frozenset(c) for k in range(1, len(items) + 1) for c in combinations(items, k)]


@pytest.mark.parametrize("m", range(1, 9))
def test_set_partitions_match_old(m):
    assert set_partitions(m) == old_set_partitions(m)


@pytest.mark.parametrize("n,s", [(n, s) for n in range(0, 5) for s in (1, 2, 3)])
def test_enumerate_dowling_matches_old(n, s):
    assert enumerate_dowling(n, s) == old_enumerate_dowling(n, s)


@pytest.mark.parametrize("n", range(1, 9))
def test_restricted_partition_lists_old_elements(n):
    for I in subsets(range(1, 5)):
        old = [p for p in old_set_partitions(n) if all(len(b) in I for b in p)]
        assert listed(build_restricted_partition, n, I) == old, sorted(I)


I_SETS = [frozenset(I) for I in
          [(1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3), (2, 4), (1, 2, 3, 4, 5)]]
J_SETS = [frozenset(J) for J in
          [(0,), (1,), (0, 1), (0, 2), (1, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]]


@pytest.mark.parametrize("n,s", [(n, s) for n in range(0, 6) for s in (1, 2)])
def test_restricted_dowling_lists_old_elements(n, s):
    for I in I_SETS:
        for J in J_SETS:
            old = old_enumerate_dowling(n, s, zero_ok=lambda b: b in J, block_ok=lambda l: l in I)
            got = listed(build_restricted_dowling, n, s, I, J)
            assert got == old, (sorted(I), sorted(J))


def test_restricted_guards_count_elements():
    # Q_9^{3}: the 9!/(3!^3 3!) = 280 partitions into triples
    assert len(build_restricted_partition(9, frozenset({3}), guard=280).elements) == 280
    with pytest.raises(GuardError):
        build_restricted_partition(9, frozenset({3}), guard=279)
    # R_4^{{2},{0}} at s = 2: 3 perfect matchings, 2 labellings of each pair
    I, J = frozenset({2}), frozenset({0})
    assert len(build_restricted_dowling(4, 2, I, J, guard=12).elements) == 12
    with pytest.raises(GuardError):
        build_restricted_dowling(4, 2, I, J, guard=11)


def test_q_I_guard_ignores_rejected_partitions(capsys):
    # Pi_10 has 115,975 partitions, but only 127 have block sizes in {5, 10}
    code = main(["mobius", "--family", "q-I", "--n", "10", "--I", "5,10"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "125\n"


@pytest.mark.parametrize("argv", [
    ["--family", "q-r", "--n", "0", "--r", "2"],
    ["--family", "q-I", "--n", "0", "--I", "2"],
])
def test_n_below_one_names_n(capsys, argv):
    code = main(["mobius", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "need n >= 1, got 0" in captured.err
