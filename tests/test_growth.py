"""Cover growth from minimal elements against the constructions it replaced.

Pi_m^{r,j}, Q^(r)_n and D_n^(r,k) are grown by cover moves from their minimal
elements.  The oracles here are the former build paths, kept only in this
file: a filter of all set partitions ordered pairwise (`induced_subposet`),
and the restriction of the whole ambient Dowling lattice
(`induce_from_ambient`).  Element sets and cover sets must be equal; indices
may differ, because growth order is not the old order.

Growth moves integer codes (`BlockCode`).  The former moves on tuples,
`partition_covers` and `dowling_covers`, are kept here as the oracle of the
integer moves: every grown family on a grid is grown again with them and
must give the same elements, covers and ranks.  The tuple moves themselves
are checked against moves that canonicalize the whole element.
"""

from functools import lru_cache

import pytest
from oracles import (
    canonical_partition,
    dowling_to_extended,
    extended_to_dowling,
    make_dowling,
    partition_leq,
)

from expdowling import cli, structures
from expdowling.structures import (
    BlockCode,
    DowlingElement,
    GuardError,
    PartitionCode,
    _blocks,
    _dowling_elements,
    adjoin_zero,
    ambient_dowling,
    build_D_rk,
    build_dowling_lattice,
    build_extended,
    build_partition_lattice,
    build_Q_r,
    build_r_divisible,
    induce_from_ambient,
    induced_subposet,
    set_partitions,
)


def partition_covers(p: tuple) -> set:
    """Partitions covering p: two blocks merged.  The merged block keeps the
    smaller minimum, so it takes the place of the first block and every cover
    is already canonical."""
    out = set()
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            out.add(p[:i] + (tuple(sorted(p[i] + p[j])),) + p[i + 1 : j] + p[j + 1 :])
    return out


def dowling_covers(x: DowlingElement, s: int) -> set:
    """Elements covering x: a block absorbed by the zero block, or two blocks
    merged in each of the s inequivalent ways.  A merged block keeps the
    smaller minimum, with label 0, so it takes the place of the first block
    and every cover is already canonical."""
    out = set()
    zero, blocks = x.zero, x.blocks
    for i in range(len(blocks)):
        rest = blocks[:i] + blocks[i + 1 :]
        out.add(DowlingElement(zero=tuple(sorted(zero + blocks[i][0])), blocks=rest))
    for i in range(len(blocks)):
        bi, fi = blocks[i]
        for j in range(i + 1, len(blocks)):
            bj, fj = blocks[j]
            after = blocks[i + 1 : j] + blocks[j + 1 :]
            for alpha in range(s):
                labels = fi + tuple((l + alpha) % s for l in fj)
                merged = tuple(zip(*sorted(zip(bi + bj, labels))))
                out.add(DowlingElement(zero=zero, blocks=blocks[:i] + (merged,) + after))
    return out


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


# ---------------------------------------------------------------------------
# integer moves against the tuple moves


def tuple_growth(seeds, moves):
    """{element: rank} and the set of cover pairs of the upper set that the
    tuple moves grow from `seeds`, by breadth-first search."""
    rank = {x: 0 for x in seeds}
    covers = set()
    queue = list(seeds)
    for x in queue:
        for y in moves(x):
            covers.add((x, y))
            if y not in rank:
                rank[y] = rank[x] + 1
                queue.append(y)
    return rank, covers


def grown_shape(built):
    """{element: rank} and cover pairs of a grown family, its 0-hat left out."""
    E, P = built.elements, built.poset
    shift = built.bottom is not None
    real = range(len(built.codes))
    rank = {E[i]: P.rank[i] - shift for i in real}
    covers = {(E[x], E[y]) for x in real for y in P.covers_up[x]}
    assert len(rank) == len(E) == len(built.codes)
    return rank, covers


def extended_seeds(m, r, j):
    """The partitions that the seeds of D^(r,(j or r)-1) at s = 1 stand for:
    the minimal elements of Pi_m^{r,j}."""
    return [dowling_to_extended(x, m) for x in _dowling_elements(m - 1, 1, ((j or r) - 1,), (r,))]


def r_blocks(m, r):
    return list(_blocks(tuple(range(1, m + 1)), (r,)))


def singletons(n):
    return tuple((e,) for e in range(1, n + 1))


# (name, build, the code the build grows and decodes with, seeds, tuple
# moves) of every grown family on the grid: pi for m <= 7, dowling for n <= 4
# and s <= 3, and pi-r, pi-rj, q-r and d-rk for r*n + k <= 6 (m <= 6) and
# s <= 2; then three families whose code fields are wider than a byte.
# Every partition family is grown in the code of L_{m-1}(1) and read through
# the bijection (`PartitionCode`): pi as L_{m-1}(1), pi-r and q-r as
# R_{m-1}^{I,I-1}(1) with I = {r, 2r, ...}, and pi-rj as D^(r,(j or r)-1) at
# s = 1.  Their oracles grow the partitions from the seeds' images.
GROWN = (
    [(f"pi{m}", lambda m=m: build_partition_lattice(m), lambda m=m: PartitionCode(m),
      [singletons(m)], partition_covers) for m in range(1, 8)]
    + [(f"dowling{n},{s}", lambda n=n, s=s: build_dowling_lattice(n, s),
        lambda n=n, s=s: BlockCode(n, s),
        [DowlingElement((), tuple((b, (0,)) for b in singletons(n)))],
        lambda x, s=s: dowling_covers(x, s))
       for n in range(0, 5) for s in (1, 2, 3)]
    + [(f"pi-r{m},{r}", lambda m=m, r=r: build_r_divisible(m, r), lambda m=m: PartitionCode(m),
        r_blocks(m, r), partition_covers)
       for m in range(1, 7) for r in range(1, m + 1) if m % r == 0]
    + [(f"pi-rj{m},{r},{j}", lambda m=m, r=r, j=j: build_extended(m, r, j), lambda m=m: PartitionCode(m),
        extended_seeds(m, r, j), partition_covers)
       for m in range(1, 7) for r in range(1, m + 1) for j in range(m % r, m + 1, r)]
    + [(f"q-r{n},{r}", lambda n=n, r=r: build_Q_r(n, r), lambda n=n, r=r: PartitionCode(r * n),
        r_blocks(r * n, r), partition_covers)
       for r in range(1, 7) for n in range(1, 6 // r + 1)]
    + [(f"d-rk{n},{r},{k},{s}", lambda n=n, r=r, k=k, s=s: build_D_rk(n, r, k, s),
        lambda n=n, r=r, k=k, s=s: BlockCode(r * n + k, s),
        list(_dowling_elements(r * n + k, s, (k,), (r,))),
        lambda x, s=s: dowling_covers(x, s))
       for n, r, k, s in D_RK]
    + [("dowling2,300", lambda: build_dowling_lattice(2, 300), lambda: BlockCode(2, 300),
        [DowlingElement((), (((1,), (0,)), ((2,), (0,))))], lambda x: dowling_covers(x, 300)),
       ("d-rk1,2,1,100", lambda: build_D_rk(1, 2, 1, 100), lambda: BlockCode(3, 100),
        list(_dowling_elements(3, 100, (1,), (2,))), lambda x: dowling_covers(x, 100)),
       ("q-r1,300", lambda: build_Q_r(1, 300), lambda: PartitionCode(300),
        r_blocks(300, 300), partition_covers)]
)


@lru_cache(maxsize=None)
def tuple_grown(name):
    _, _, _, seeds, moves = next(g for g in GROWN if g[0] == name)
    return tuple_growth(seeds, moves)


@pytest.mark.parametrize("name,build", [g[:2] for g in GROWN], ids=[g[0] for g in GROWN])
def test_integer_moves_match_tuple_moves(name, build):
    assert grown_shape(build()) == tuple_grown(name)


@pytest.mark.parametrize("name,make_code", [(g[0], g[2]) for g in GROWN], ids=[g[0] for g in GROWN])
def test_decode_inverts_encode(name, make_code):
    code = make_code()
    for x in tuple_grown(name)[0]:
        # PartitionCode encodes the Dowling element that partition x stands for
        coded = extended_to_dowling(x, code.n + 1) if isinstance(code, PartitionCode) else x
        assert code.decode(code.encode(coded)) == x


@pytest.mark.parametrize("m,r,j", EXTENDED)
def test_extended_is_D_rk_read_through_the_bijection(m, r, j):
    k = (j or r) - 1
    extended, dowling = build_extended(m, r, j), build_D_rk((m - 1 - k) // r, r, k, 1)
    assert extended.codes == dowling.codes
    assert extended.poset.covers_up == dowling.poset.covers_up
    assert extended.elements == tuple(dowling_to_extended(x, m) for x in dowling.elements)


def test_wide_fields_are_exercised():
    assert BlockCode(2, 300).width == 11
    assert BlockCode(3, 100).width == 9
    assert PartitionCode(300).width == 9
    assert BlockCode(7, 2).width == PartitionCode(9).width == 8


def test_decoded_blocks_are_shared():
    seen = {}
    for p in build_partition_lattice(5).elements:
        for block in p:
            assert seen.setdefault(block, block) is block


def test_extended_blocks_are_shared():
    """The block holding m is memoized by its zero block, and the others are
    the decoded element tuples of D^(r,k)."""
    seen = {}
    for p in build_extended(9, 2, 3).elements:
        for block in p:
            assert seen.setdefault(block, block) is block


@pytest.mark.parametrize("argv,mu", [
    (["--family", "pi", "--m", "5"], "24"),
    (["--family", "dowling", "--n", "3", "--s", "2"], "-15"),
])
def test_mobius_reads_no_element(monkeypatch, capsys, argv, mu):
    # `mobius` streams the growth into the Mobius walk: it builds no lattice
    # and decodes no code
    def refuse(*args):
        raise AssertionError("mobius built a lattice or decoded an element")

    for owner, name in [(structures, "_grow"), (structures, "adjoin_zero"),
                        (structures.BlockCode, "decode"), (structures.BlockCode, "decode_all"),
                        (structures.PartitionCode, "decode")]:
        monkeypatch.setattr(owner, name, refuse)
    assert cli.main(["mobius", *argv]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == mu
