"""Finite posets from cover relations, and the one Mobius kernel.

Elements are dense integer indices 0..n-1; the semantic objects (partitions,
enriched partitions) live in `structures` and map to indices there.  A poset
stores only its up covers and a linear extension, `topo`.  The down covers,
the closure as one bitmask row per element (down rows x <= y, up rows
y >= x), the rank and the minimal and maximal elements are each built by
one pass along `topo` when first read.  Growth in `structures` hands
`close_order` its covers and a linear extension; `from_covers` checks and
sorts arbitrary cover pairs first.

The Mobius numbers read none of that closure.  One kernel, `mobius_walk`,
runs the recursion over a stream of steps (z, the up covers of z) in a
linear extension: the indices and covers of a built poset (`mobius_table`,
and `mobius_table_to_top` over the down covers), or the growth stream
itself (`structures.grown_mobius`), in which a key names an element before
it is placed.  The start may be virtual: an adjoined 0-hat is a start
whose up covers are the minimal elements.  The walk labels each element it
visits by its visit number.  Keys are non-negative ints, and the frontier
is a list indexed by key: for each element waiting there it holds the
labels of the lower covers visited so far and a row one cover level behind
them, the labels strictly between the start and those covers.  A value
lives in a list indexed by label, each the one int object of its value
class, so a walk holds one int per distinct value.  It yields each
element's value at once, with whether the element has no up cover, so
`top_mu` reads mu(start, 1-hat) without a table.  No command tests the
lattice property or the Mobius identity: those checks are test oracles
(`tests/oracles.py`).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence


class PosetError(ValueError):
    pass


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Stores n, the up covers and a linear extension; every other structure
    is a cached property, built by one pass along `topo` on first read.  Two
    posets are equal when their n and up covers are: `topo` is one of many
    linear extensions."""

    def __init__(self, n: int, covers_up: tuple, topo: tuple):
        self.n = n
        self.covers_up = covers_up  # covers_up[x] = sorted tuple of y with x <| y
        self.topo = topo            # a linear extension

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.covers_up) == (other.n, other.covers_up)

    def __hash__(self):
        return hash((self.n, self.covers_up))

    @cached_property
    def covers_down(self) -> tuple:
        """covers_down[y] = sorted tuple of x with x <| y."""
        downs = [[] for _ in range(self.n)]
        for x, ups in enumerate(self.covers_up):
            for y in ups:
                downs[y].append(x)
        return tuple(map(tuple, downs))

    @cached_property
    def down_rows(self) -> tuple:
        """down_rows[y] bitmask of x <= y (reflexive)."""
        rows = [0] * self.n
        for x in self.topo:
            row = rows[x] = rows[x] | 1 << x
            for y in self.covers_up[x]:
                rows[y] |= row
        return tuple(rows)

    @cached_property
    def up_rows(self) -> tuple:
        """up_rows[x] bitmask of y >= x (reflexive)."""
        rows = [0] * self.n
        for x in reversed(self.topo):
            row = 1 << x
            for y in self.covers_up[x]:
                row |= rows[y]
            rows[x] = row
        return tuple(rows)

    @cached_property
    def rank(self) -> Optional[tuple]:
        """rank[x] = the length of every maximal chain of the elements <= x,
        or None when the poset is not graded: a cover steps it by more than one."""
        rank = dict.fromkeys(self.minimals, 0)
        for x in self.topo:
            for y in self.covers_up[x]:
                if rank.setdefault(y, rank[x] + 1) != rank[x] + 1:
                    return None
        return tuple(rank[x] for x in range(self.n))

    @cached_property
    def minimals(self) -> tuple:
        covered = {y for ups in self.covers_up for y in ups}
        return tuple(x for x in range(self.n) if x not in covered)

    @cached_property
    def maximals(self) -> tuple:
        return tuple(x for x in range(self.n) if not self.covers_up[x])

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


def from_covers(n: int, covers: Iterable[tuple]) -> Poset:
    """Build a poset from arbitrary cover pairs: check them, drop duplicates
    and find a linear extension by Kahn's sort.

    Raises on cycles and on cover pairs referencing invalid indices.
    """
    up_adj = [set() for _ in range(n)]
    for x, y in covers:
        if not (0 <= x < n and 0 <= y < n) or x == y:
            raise PosetError(f"invalid cover pair ({x}, {y}) for n={n}")
        up_adj[x].add(y)
    covers_up = tuple(tuple(sorted(ups)) for ups in up_adj)

    # Kahn topological sort; leftover in-degree means a cycle.
    indeg = Counter(y for ups in covers_up for y in ups)
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
    return close_order(covers_up, topo)


def close_order(covers_up: tuple, topo: Sequence[int]) -> Poset:
    """The poset whose up covers are the sorted tuples `covers_up`, with the
    linear extension `topo`; the caller vouches for both."""
    return Poset(n=len(covers_up), covers_up=covers_up, topo=tuple(topo))


def adjoin_bottom(P: Poset) -> Poset:
    """P with a new least element, index P.n, below its minimal elements."""
    return close_order(P.covers_up + (P.minimals,), (P.n,) + P.topo)


# `mobius_walk` grows its frontier list this many slots past a key beyond its
# end, so growth keys, which count up, extend it once per 1,024 new keys.
_SPARE = 1024


def mobius_walk(start, start_ups: Sequence[int], steps: Iterable[tuple]) -> Iterator[tuple]:
    """The Mobius recursion mu(start, z) = -sum of mu(start, w) over the
    half-open segment [start, z), for every z that up covers reach from
    `start`, over a stream of steps (z, the up covers of z) in a linear
    extension.  A key is a non-negative int: a poset index 0..n-1, or the
    number that growth gives an element when it first finds it, counting up
    from 0.  `start` need not be in the stream: an adjoined 0-hat is a
    virtual start (any key, even None) whose up covers `start_ups` are the
    minimal elements.
    Yields (z, mu(start, z), whether z has no up cover), the start first
    (with mu 1), then each reached z at its step; a step that the start does
    not reach is skipped.

    Each z reached but not yet visited holds the labels of the lower covers
    visited so far and a row one cover level behind them: the union of the
    open segments (start, c) over those covers, as a bitmask of labels.  The
    frontier is a list indexed by key; a key past its end grows it by
    `_SPARE` slots, on IndexError, so no push checks bounds, and z's slot is
    cleared when z is visited.  A label is a visit number, and a value is
    kept in a list indexed by label as the one int object of its value
    class, so the walk keeps no value table keyed by element and no int
    object per element.  All lower covers of z come before z in the stream,
    so both are complete at its step, and [start, z) is start, the lower
    covers and the row.  A lower cover already in the row (a cover pair that
    other covers imply) is counted once.  z takes its value, passes row |
    its lower covers on to its up covers and drops both.  The start has no
    label and is in no row.  The row sum is a popcount per value class: one
    bitmask per distinct nonzero value, with its least label, so a class
    wholly above the row's top bit is skipped (Stanley, EC1 3.6-3.7).
    """
    yield start, 1, not start_ups
    # held[z] = [row, labels of the visited lower covers of z] while z waits
    held = [None] * (max(start_ups, default=0) + _SPARE)
    for w in start_ups:
        held[w] = [0]
    values = []  # values[label] = mu(start, the element visited label-th)
    classes = {}  # value -> [least label, bitmask of the labels, the value]
    for z, ups in steps:
        try:
            entry = held[z]
        except IndexError:  # a key past the list was never pushed
            continue
        if entry is None:
            continue
        held[z] = None
        row = entry[0]
        lower = 0
        total = 1  # mu(start, start)
        for c in entry[1:]:
            lower |= 1 << c
            total += values[c]
        twice = row & lower
        if twice:
            total -= sum(values[c] for c in _bits(twice))
        top = row.bit_length()
        for v, cls in classes.items():
            if cls[0] < top:
                total += v * (row & cls[1]).bit_count()
        label, value = len(values), -total
        if value:
            cls = classes.get(value)
            if cls is None:
                classes[value] = [label, 1 << label, value]
            else:
                cls[1] |= 1 << label
                value = cls[2]  # the one int object of the class
        values.append(value)
        row |= lower
        for w in ups:
            try:
                entry = held[w]
            except IndexError:
                held += [None] * (w + _SPARE - len(held))
                entry = None
            if entry is None:
                held[w] = [row, label]
            else:
                entry[0] |= row
                entry.append(label)
        yield z, value, not ups


def top_mu(walk: Iterable[tuple]) -> int:
    """mu(start, 1-hat) from the (z, mu, has no up cover) triples of a
    `mobius_walk` that reaches every element, or of its maximal elements
    alone.  Raises the PosetError of `Poset.top` unless exactly one element
    has no up cover."""
    tops = [value for _, value, maximal in walk if maximal]
    if len(tops) != 1:
        raise PosetError("poset has no unique maximal element")
    return tops[0]


def _table(start: int, order: Sequence[int], covers: tuple) -> dict:
    """mu(start, z) for every z that `covers` (up or down covers) reach from
    start, walking `order`, a linear extension in the same direction."""
    steps = zip(order, map(covers.__getitem__, order))
    return {z: value for z, value, _ in mobius_walk(start, covers[start], steps)}


def mobius_table(P: Poset, x: int) -> dict:
    """mu(x, y) for every y >= x, by the bottom-up recursion."""
    return _table(x, P.topo, P.covers_up)


def mobius_table_to_top(P: Poset, y: int) -> dict:
    """mu(x, y) for every x <= y, by the top-down recursion."""
    return _table(y, P.topo[::-1], P.covers_down)


def mobius(P: Poset, x: int, y: int) -> int:
    """mu(x, y), read from `mobius_table(P, x)`, which holds every y >= x."""
    table = mobius_table(P, x)
    if y not in table:
        raise PosetError(f"{x} is not <= {y}")
    return table[y]


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

