"""The eager closure and the popcount-ordered Mobius sweep that the streamed
poset replaced, kept as oracles for the differential tests in
`test_mobius_kernel.py` and `test_closure.py`.

Oracle notes.
[ORACLE] `eager_poset` is the former `from_covers` followed by the former
`close_order`, kept verbatim but for its return value: it rebuilds both
cover directions from the cover pairs through sets, finds its own linear
extension by Kahn's sort, stores the down row of every element, the
longest-path rank from the minimal elements and the graded test of every
cover, and derives the up rows by transposing the down rows.
[ORACLE] `eager_sweep` is the former `_mobius_sweep`, kept verbatim with
the former `poset._masked_sum`, its sum over the value classes: it visits
the elements of a segment by increasing popcount of their closure rows, and
`eager_mobius_table` / `eager_mobius_table_to_top` are the former callers,
reading the eager rows.
[ORACLE] `canonical_partition`, `make_dowling` and `extended_to_dowling` are
the former whole-element canonicalizations and the former partition-to-
Dowling map of the bijection Pi_m^{r,k+1} <-> D^(r,k), kept verbatim: they
sort every block and every element again, independently of the cover moves
and of `structures.PartitionCode`.
[ORACLE] `partition_leq` and `dowling_leq` are the refinement order of set
partitions and the order of L_n(s), checked directly on two elements, moved
verbatim from `structures`; `structures.induced_subposet` orders listed
elements by them.
[ORACLE] `dowling_to_extended` is the partition of [m] that an element of
L_{m-1}(1) stands for, m joining its zero block.  It sorts the blocks again
by `canonical_partition`, so it shares nothing with `PartitionCode`'s reading
(`structures._with_marked`).
[ORACLE] `verify_mobius_identity`, `is_lattice` and `_heights` are moved
verbatim from `poset`: the defining identity of the Mobius function, and the
one-candidate join test of the lattice property, which no command runs.
"""

from types import SimpleNamespace

from expdowling.poset import (
    Poset,
    PosetError,
    _bits,
    mobius_table,
    mobius_table_to_top,
)
from expdowling.structures import DowlingElement


def eager_poset(n, covers):
    up_adj = [set() for _ in range(n)]
    down_adj = [set() for _ in range(n)]
    for x, y in covers:
        if not (0 <= x < n and 0 <= y < n) or x == y:
            raise PosetError(f"invalid cover pair ({x}, {y}) for n={n}")
        up_adj[x].add(y)
        down_adj[y].add(x)
    covers_up = tuple(tuple(sorted(ups)) for ups in up_adj)
    covers_down = tuple(tuple(sorted(downs)) for downs in down_adj)

    indeg = [len(downs) for downs in covers_down]
    queue = [x for x in range(n) if indeg[x] == 0]
    topo = []
    while queue:
        x = queue.pop()
        topo.append(x)
        for y in covers_up[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    if len(topo) != n:
        raise PosetError("cover relation contains a cycle")

    down_rows = [0] * n
    rank = [0] * n
    for y in topo:
        row = 1 << y
        for x in covers_down[y]:
            row |= down_rows[x]
        down_rows[y] = row
        if covers_down[y]:
            rank[y] = max(rank[x] + 1 for x in covers_down[y])
    graded = all(rank[y] == rank[x] + 1 for x in range(n) for y in covers_up[x])

    up_rows = [0] * n
    for y, row in enumerate(down_rows):
        for x in _bits(row):
            up_rows[x] |= 1 << y
    return SimpleNamespace(
        n=n,
        covers_up=covers_up,
        covers_down=covers_down,
        down_rows=tuple(down_rows),
        up_rows=tuple(up_rows),
        rank=tuple(rank) if graded else None,
        minimals=tuple(x for x in range(n) if not covers_down[x]),
        maximals=tuple(x for x in range(n) if not covers_up[x]),
    )


def _masked_sum(masks, segment):
    """Sum of the values over the elements of `segment`, where `masks` maps
    each value to the bitmask of the elements holding it."""
    return sum(v * (segment & mask).bit_count() for v, mask in masks.items())


def eager_sweep(start, members, segment_rows):
    table = {}
    masks = {}
    for z in sorted(members, key=lambda w: segment_rows[w].bit_count()):
        value = 1 if z == start else -_masked_sum(masks, segment_rows[z])
        table[z] = value
        if value:
            masks[value] = masks.get(value, 0) | 1 << z
    return table


def eager_mobius_table(E, x):
    members = range(E.n) if E.minimals == (x,) else _bits(E.up_rows[x])
    return eager_sweep(x, members, E.down_rows)


def eager_mobius_table_to_top(E, y):
    return eager_sweep(y, _bits(E.down_rows[y]), E.up_rows)


DERIVED = ("covers_down", "down_rows", "up_rows", "rank", "minimals", "maximals")


def assert_matches_eager(P):
    """Every structure P derives on first read, and its Mobius tables from
    every x up and from every y down, equal those of the eager oracle built
    from P's cover pairs."""
    E = eager_poset(P.n, [(x, y) for x in range(P.n) for y in P.covers_up[x]])
    assert P.covers_up == E.covers_up
    for name in DERIVED:
        assert getattr(P, name) == getattr(E, name), name
    for x in range(P.n):
        assert mobius_table(P, x) == eager_mobius_table(E, x)
        assert mobius_table_to_top(P, x) == eager_mobius_table_to_top(E, x)


def canonical_partition(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def make_dowling(zero, blocks, s):
    """Canonicalize: sort everything and shift each block's labels so the
    minimum element carries label 0."""
    canon = []
    for elems, labels in blocks:
        pairs = sorted(zip(elems, labels))
        base = pairs[0][1]
        canon.append(
            (
                tuple(e for e, _ in pairs),
                tuple((l - base) % s for _, l in pairs),
            )
        )
    canon.sort()
    return DowlingElement(zero=tuple(sorted(zero)), blocks=tuple(canon))


def extended_to_dowling(p, m, s=1):
    """Remove m from its block and rename that block as the zero block."""
    zero = None
    blocks = []
    for block in p:
        if m in block:
            zero = tuple(e for e in block if e != m)
        else:
            blocks.append((block, (0,) * len(block)))
    if zero is None:
        raise ValueError(f"{m} lies in no block of {p}")
    return make_dowling(zero, blocks, s)


def dowling_to_extended(x, m):
    """The partition of [m] that x in L_{m-1}(1) stands for: m joins the zero
    block.  It takes D^(r,k) at s = 1 onto Pi_m^{r,k+1}, m = rn + k + 1."""
    return canonical_partition([elems for elems, _ in x.blocks] + [x.zero + (m,)])


def partition_leq(p: tuple, q: tuple) -> bool:
    """Refinement order: every block of p lies inside a block of q."""
    where = {}
    for i, block in enumerate(q):
        for e in block:
            where[e] = i
    for block in p:
        i = where[block[0]]
        if any(where[e] != i for e in block[1:]):
            return False
    return True


def dowling_leq(x: DowlingElement, y: DowlingElement, s: int) -> bool:
    """Order relation of the Dowling lattice, checked directly."""
    where = {}
    label = {}
    for e in y.zero:
        where[e] = -1
    for i, (elems, labels) in enumerate(y.blocks):
        for e, l in zip(elems, labels):
            where[e] = i
            label[e] = l
    for e in x.zero:
        if where[e] != -1:
            return False
    for elems, labels in x.blocks:
        target = where[elems[0]]
        if target == -1:
            if any(where[e] != -1 for e in elems[1:]):
                return False
            continue
        base = label[elems[0]]
        for e, l in zip(elems, labels):
            if where[e] != target or (label[e] - base) % s != l:
                return False
    return True


def verify_mobius_identity(P: Poset, x: int) -> bool:
    """Defining identity: sum of mu(x, z) over x <= z <= y vanishes for y > x."""
    table = mobius_table(P, x)
    return all(sum(table.get(z, 0) for z in _bits(P.down_rows[y])) == 0 for y in table if y != x)


def _heights(P: Poset) -> list:
    """Longest-chain height of every element above a minimal one; it equals
    the rank when P is graded and is strictly monotone in any poset."""
    height = [0] * P.n
    for x in P.topo:
        for y in P.covers_up[x]:
            height[y] = max(height[y], height[x] + 1)
    return height


def is_lattice(P: Poset) -> tuple[bool, str]:
    """Whether every pair of elements has a join and a meet.

    A finite poset with a bottom in which every pair has a join is a lattice
    (Stanley, EC1 3.3.1), so only joins are tested.  The join of x and y, if
    any, is the unique element of least height in their common upper set, so
    each pair tests that one candidate, found by walking the height levels.
    """
    if len(P.minimals) != 1 or len(P.maximals) != 1:
        return False, "missing unique bottom or top"
    height = P.rank if P.rank is not None else _heights(P)
    levels = [0] * (max(height) + 1)
    for z, h in enumerate(height):
        levels[h] |= 1 << z
    up = P.up_rows
    for x in range(P.n):
        for y in range(x + 1, P.n):
            uppers = up[x] & up[y]  # never empty: the top lies above everything
            h = max(height[x], height[y])
            while not uppers & levels[h]:
                h += 1
            least = uppers & levels[h]
            candidate = (least & -least).bit_length() - 1
            if uppers & ~up[candidate]:
                return False, f"no join for {x}, {y}"
    return True, "ok"
