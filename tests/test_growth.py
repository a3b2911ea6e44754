"""Cover growth from minimal elements against the constructions it replaced.

Pi_m^{r,j}, Q^(r)_n and D_n^(r,k) are grown by cover moves from their minimal
elements.  The oracles here are the former build paths, kept only in this
file: a filter of all set partitions ordered pairwise (`induced_subposet`),
and the restriction of the whole ambient Dowling lattice
(`induce_from_ambient`).  Element sets and cover sets must be equal; indices
may differ, because growth order is not the old order.  The cover moves
themselves are checked against moves that canonicalize the whole element.
"""

from functools import lru_cache

import pytest

from expdowling.structures import (
    GuardError,
    adjoin_zero,
    ambient_dowling,
    build_D_rk,
    build_extended,
    build_partition_lattice,
    build_Q_r,
    canonical_partition,
    dowling_covers,
    induce_from_ambient,
    induced_subposet,
    make_dowling,
    partition_covers,
    partition_leq,
    set_partitions,
)


def shape(built):
    """Element set, cover set (as element pairs) and the elements covering the
    adjoined 0-hat (None without one)."""
    E, P = built.elements, built.poset
    assert len(set(E)) == len(E)
    covers = {(E[x], E[y]) for x in range(len(E)) for y in P.covers_up[x]}
    atoms = None if built.bottom is None else {E[y] for y in P.covers_up[built.bottom]}
    return set(E), covers, atoms


@lru_cache(maxsize=None)
def all_partitions(m):
    return set_partitions(m)


@lru_cache(maxsize=None)
def pairwise(elements, m):
    """The pairwise-ordered subposet of Pi_m; cached because Pi_m^{1,0},
    Pi_m^{1,1} and Q^(1)_m keep the same elements."""
    return induced_subposet(list(elements), partition_leq, lambda p: m - len(p))


def filtered_extended(m, r, j):
    def ok(p):
        for block in p:
            if m in block:
                if len(block) < j:
                    return False
            elif len(block) % r != 0:
                return False
        return True

    return adjoin_zero(pairwise(tuple(p for p in all_partitions(m) if ok(p)), m))


def filtered_Q_r(n, r):
    m = r * n
    return pairwise(tuple(p for p in all_partitions(m) if all(len(b) % r == 0 for b in p)), m)


def restricted_D_rk(n, r, k, s):
    def keep(x):
        b = len(x.zero)
        if b < k or (b - k) % r != 0:
            return False
        return all(len(elems) % r == 0 for elems, _ in x.blocks)

    return adjoin_zero(induce_from_ambient(ambient_dowling(r * n + k, s), keep))


# every (m, r, j) with m = r*n + j, m <= 8, including j = 0 and n = 0; r = 1
# (the biggest lattices) only up to m = 7, to keep the pairwise oracle cheap
EXTENDED = [
    (m, r, j)
    for m in range(1, 9)
    for r in range(1 if m <= 7 else 2, m + 1)
    for j in range(m % r, m + 1, r)
] + [(9, 2, 1), (9, 2, 3)]

# every (n, r) with r*n <= 8; Q^(1)_n is all of Pi_n, so again n <= 7 for r = 1
Q_R = [(n, r) for r in range(1, 9) for n in range(1, 8 // r + 1) if r > 1 or n <= 7]

# every (n, r, k, s) with r*n + k <= 6 and s <= 2, including n = 0 and k = 0,
# grouped by ambient (r*n + k, s) so that the oracle's cached ambient lattice
# is reused
D_RK = [
    ((total - k) // r, r, k, s)
    for s in (1, 2)
    for total in range(0, 7)
    for r in range(1, max(total, 1) + 1)
    for k in range(total % r, total + 1, r)
]


@pytest.mark.parametrize("m,r,j", EXTENDED)
def test_extended_matches_filter(m, r, j):
    assert shape(build_extended(m, r, j)) == shape(filtered_extended(m, r, j))


@pytest.mark.parametrize("n,r", Q_R)
def test_Q_r_matches_filter(n, r):
    assert shape(build_Q_r(n, r)) == shape(filtered_Q_r(n, r))


@pytest.mark.parametrize("n,r,k,s", D_RK)
def test_D_rk_matches_ambient_restriction(n, r, k, s):
    assert shape(build_D_rk(n, r, k, s)) == shape(restricted_D_rk(n, r, k, s))


def test_guard_counts_grown_elements_and_seeds():
    assert build_partition_lattice(4, guard=15).poset.n == 15
    with pytest.raises(GuardError):
        build_partition_lattice(4, guard=14)
    # Q^(2)_2 has three minimal elements (the perfect matchings of [4])
    with pytest.raises(GuardError):
        build_Q_r(2, 2, guard=2)
    assert build_Q_r(2, 2, guard=4).poset.n == 4


def canonicalized_partition_covers(p):
    out = set()
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            merged = p[:i] + p[i + 1 : j] + p[j + 1 :] + (tuple(sorted(p[i] + p[j])),)
            out.add(canonical_partition(merged))
    return out


def canonicalized_dowling_covers(x, s):
    out = set()
    blocks = x.blocks
    for i in range(len(blocks)):
        out.add(make_dowling(x.zero + blocks[i][0], blocks[:i] + blocks[i + 1 :], s))
    for i in range(len(blocks)):
        bi, fi = blocks[i]
        for j in range(i + 1, len(blocks)):
            bj, fj = blocks[j]
            rest = tuple(b for t, b in enumerate(blocks) if t not in (i, j))
            for alpha in range(s):
                merged = (bi + bj, fi + tuple((l + alpha) % s for l in fj))
                out.add(make_dowling(x.zero, rest + (merged,), s))
    return out


def test_partition_covers_are_canonical():
    for p in all_partitions(7):
        assert partition_covers(p) == canonicalized_partition_covers(p)


@pytest.mark.parametrize("n,s", [(4, 1), (4, 2), (3, 3)])
def test_dowling_covers_are_canonical(n, s):
    for x in ambient_dowling(n, s).elements:
        assert dowling_covers(x, s) == canonicalized_dowling_covers(x, s)
