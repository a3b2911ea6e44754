"""Finite graded posets from cover relations.

Elements are dense integer indices 0..n-1; the semantic objects (partitions,
enriched partitions) live in `structures` and map to indices there.  The order
closure is stored as one bitmask row per element, which keeps Mobius-function
sweeps and interval extraction cheap even for posets with thousands of
elements.  The down rows (x <= y) are built with the poset; the up rows
(y >= x) only when a caller first reads them, since the Mobius numbers
mu(0-hat, y) need only the down rows and the up rows of a large lattice built
by growth are its widest bitmasks.

`close_order` is the one routine that closes an order: it takes the sorted
cover tuples and a linear extension.  Growth in `structures` hands it both
directly; `from_covers` checks and sorts arbitrary cover pairs first.
`adjoin_bottom` derives a poset with a new 0-hat from the closure it already
has, without closing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence


class PosetError(ValueError):
    pass


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Poset:
    n: int
    covers_up: tuple            # covers_up[x] = sorted tuple of y with x <| y
    covers_down: tuple
    down_rows: tuple            # down_rows[y] bitmask of x <= y (reflexive)
    rank: Optional[tuple]       # present iff the poset is graded
    minimals: tuple
    maximals: tuple
    topo: tuple = field(compare=False, repr=False)  # a linear extension

    @cached_property
    def up_rows(self) -> tuple:
        """up_rows[x] bitmask of y >= x (reflexive), built on first read."""
        rows = [0] * self.n
        for x in reversed(self.topo):
            row = 1 << x
            for y in self.covers_up[x]:
                row |= rows[y]
            rows[x] = row
        return tuple(rows)

    def leq(self, x: int, y: int) -> bool:
        return bool(self.down_rows[y] >> x & 1)

    def interval(self, x: int, y: int) -> int:
        """Bitmask of elements z with x <= z <= y."""
        if not self.leq(x, y):
            raise PosetError(f"{x} is not <= {y}")
        return self.up_rows[x] & self.down_rows[y]

    @property
    def bottom(self) -> int:
        if len(self.minimals) != 1:
            raise PosetError("poset has no unique minimal element")
        return self.minimals[0]

    @property
    def top(self) -> int:
        if len(self.maximals) != 1:
            raise PosetError("poset has no unique maximal element")
        return self.maximals[0]

    def to_json_dict(self) -> dict:
        covers = sorted((x, y) for x in range(self.n) for y in self.covers_up[x])
        return {
            "n": self.n,
            "covers": [list(c) for c in covers],
            "ranks": list(self.rank) if self.rank is not None else None,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Poset":
        return from_covers(data["n"], [tuple(c) for c in data["covers"]])


def from_covers(n: int, covers: Iterable[tuple]) -> Poset:
    """Build a poset from arbitrary cover pairs: check them, drop duplicates,
    find a linear extension by Kahn's sort and close the order.

    Raises on cycles and on cover pairs referencing invalid indices.
    """
    up_adj = [set() for _ in range(n)]
    down_adj = [set() for _ in range(n)]
    for x, y in covers:
        if not (0 <= x < n and 0 <= y < n) or x == y:
            raise PosetError(f"invalid cover pair ({x}, {y}) for n={n}")
        up_adj[x].add(y)
        down_adj[y].add(x)
    covers_up = tuple(tuple(sorted(ups)) for ups in up_adj)
    covers_down = tuple(tuple(sorted(downs)) for downs in down_adj)

    # Kahn topological sort; leftover in-degree means a cycle.
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
    return close_order(covers_up, covers_down, topo)


def close_order(covers_up: tuple, covers_down: tuple, topo: Sequence[int]) -> Poset:
    """The poset with these covers: covers_up[x] and covers_down[y] sorted
    tuples of the same relation, and `topo` a linear extension of it.  The
    caller vouches for all three; nothing is checked here.

    Builds the down rows of the closure, and the longest-path rank from the
    minimal elements; the poset is graded iff every cover steps the rank by
    exactly one.
    """
    n = len(covers_up)
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

    return Poset(
        n=n,
        covers_up=covers_up,
        covers_down=covers_down,
        down_rows=tuple(down_rows),
        rank=tuple(rank) if graded else None,
        minimals=tuple(x for x in range(n) if not covers_down[x]),
        maximals=tuple(x for x in range(n) if not covers_up[x]),
        topo=tuple(topo),
    )


def adjoin_bottom(P: Poset) -> Poset:
    """P with a new least element, index P.n, that the minimal elements of P
    cover.  Derived from the closure of P: every row gains the new bit and
    every rank grows by one, so nothing is closed again."""
    V = P.n
    bit = 1 << V
    return Poset(
        n=V + 1,
        covers_up=P.covers_up + (P.minimals,),
        covers_down=tuple(downs or (V,) for downs in P.covers_down) + ((),),
        down_rows=tuple(row | bit for row in P.down_rows) + (bit,),
        rank=None if P.rank is None else tuple(r + 1 for r in P.rank) + (0,),
        minimals=(V,),
        maximals=P.maximals or (V,),
        topo=(V,) + P.topo,
    )


def _masked_sum(masks: dict, segment: int) -> int:
    """Sum of the values over the elements of `segment`, where `masks` maps
    each value to the bitmask of the elements holding it."""
    return sum(v * (segment & mask).bit_count() for v, mask in masks.items())


def _mobius_sweep(start: int, members: Iterable[int], segment_rows: tuple) -> dict:
    """The Mobius recursion mu(start, z) = -sum of mu(start, w) over the
    half-open interval segment_rows[z] - {z}, for every z in `members` (the
    elements of the closed segment that starts at `start`).

    Elements are visited by increasing popcount of `segment_rows`: w in
    segment_rows[z] - {z} makes segment_rows[w] a proper subset of
    segment_rows[z], so in either direction every element of a half-open
    interval is filled before its end.  Instead of a lookup per interval
    element, the sweep keeps one bitmask per distinct nonzero value filled so
    far; each sum is then a popcount per value class (Stanley, EC1 3.6-3.7).
    Only filled elements sit in a mask, so segment_rows[z] needs no
    intersection with `members`.
    """
    table = {}
    masks = {}
    for z in sorted(members, key=lambda w: segment_rows[w].bit_count()):
        value = 1 if z == start else -_masked_sum(masks, segment_rows[z])
        table[z] = value
        if value:
            masks[value] = masks.get(value, 0) | 1 << z
    return table


def mobius_table(P: Poset, x: int) -> dict:
    """mu(x, y) for every y >= x, by the bottom-up recursion.  Every element
    lies above a unique minimal element, so that case reads no up row."""
    members = range(P.n) if P.minimals == (x,) else _bits(P.up_rows[x])
    return _mobius_sweep(x, members, P.down_rows)


def mobius_table_to_top(P: Poset, y: int) -> dict:
    """mu(x, y) for every x <= y, by the top-down recursion."""
    return _mobius_sweep(y, _bits(P.down_rows[y]), P.up_rows)


def mobius(P: Poset, x: int, y: int) -> int:
    if not P.leq(x, y):
        raise PosetError(f"{x} is not <= {y}")
    return mobius_table(P, x)[y]


def verify_mobius_identity(P: Poset, x: int) -> bool:
    """Defining identity: sum of mu(x, z) over x <= z <= y vanishes for y > x."""
    masks = {}
    for z, value in mobius_table(P, x).items():
        if value:
            masks[value] = masks.get(value, 0) | 1 << z
    return all(
        _masked_sum(masks, P.down_rows[y]) == 0
        for y in _bits(P.up_rows[x] & ~(1 << x))
    )


def maximal_chains(P: Poset, x: int, y: int) -> list:
    """All saturated chains x = z_0 <| ... <| z_k = y, in deterministic order."""
    if not P.leq(x, y):
        raise PosetError(f"{x} is not <= {y}")
    down_y = P.down_rows[y]
    out = []
    stack = [x]

    def walk(z):
        if z == y:
            out.append(tuple(stack))
            return
        for w in P.covers_up[z]:
            if down_y >> w & 1:
                stack.append(w)
                walk(w)
                stack.pop()

    walk(x)
    return out


@dataclass
class ChainAxiomReport:
    expected_length: int
    chain_lengths_ok: bool
    has_unique_maximal: bool
    minimal_count: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.chain_lengths_ok and self.has_unique_maximal


def check_chain_axioms(P: Poset, expected_length: int) -> ChainAxiomReport:
    """Check that all bottom-to-top maximal chains have the expected element
    count and that a unique maximal element exists; also reports the number of
    minimal elements."""
    failures = []
    unique_max = len(P.maximals) == 1
    if not unique_max:
        failures.append(f"{len(P.maximals)} maximal elements")
    lengths_ok = True
    if unique_max and len(P.minimals) == 1:
        chains = maximal_chains(P, P.bottom, P.top)
        bad = {len(c) for c in chains if len(c) != expected_length}
        if bad:
            lengths_ok = False
            failures.append(f"chain element counts {sorted(bad)} != {expected_length}")
    elif unique_max:
        top = P.top
        for m in P.minimals:
            bad = {len(c) for c in maximal_chains(P, m, top) if len(c) != expected_length}
            if bad:
                lengths_ok = False
                failures.append(
                    f"chains from minimal {m} have element counts {sorted(bad)}"
                )
    return ChainAxiomReport(
        expected_length=expected_length,
        chain_lengths_ok=lengths_ok,
        has_unique_maximal=unique_max,
        minimal_count=len(P.minimals),
        failures=failures,
    )


def _heights(P: Poset) -> list:
    """Longest-chain height of every element above a minimal one; it equals
    the rank when P is graded and is strictly monotone in any poset."""
    height = [0] * P.n
    for z in sorted(range(P.n), key=lambda w: P.down_rows[w].bit_count()):
        height[z] = max((height[c] + 1 for c in P.covers_down[z]), default=0)
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
