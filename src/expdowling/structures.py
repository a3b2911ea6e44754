"""Concrete posets: partition lattices, Dowling lattices and their derived
and restricted families.

Elements are kept in canonical form:

* a set partition is a tuple of blocks, each block a sorted tuple, blocks
  sorted by minimum;
* a Dowling element is a zero block plus enriched blocks; the group of order s
  enters only through residues mod s, and the representative of the scalar
  equivalence class is fixed by giving the minimum of each block the label 0.

Every family is R_n^{I,J}(s), the elements of L_n(s) with block sizes in I
and a zero block of a size in J: L_n(s) = R_n^{[1,n],[0,n]}(s) and
D_n^(r,k) = R_{rn+k}^{I,J}(s) with I = {r, 2r, ...}, J = {k, k + r, ...}.
A partition family is one at s = 1 read through the bijection
Pi_m^{r,k+1} <-> D^(r,k), in which m joins the zero block (`PartitionCode`):
the partitions of [m] whose block holding m has a size in K and whose other
blocks have sizes in I are R_{m-1}^{I,K-1}(1).  So Pi_m is L_{m-1}(1),
Q_m^I (block sizes in I) is R_{m-1}^{I,I-1}(1), Q^(r)_n is Q_{rn}^I with
I = {r, 2r, ...}, and Pi_m^{r,j} is D^(r,k) at s = 1 with k = (j or r) - 1.
Each family has one function (`partition_family`, ..., `D_rk_family`) that
checks its parameters and returns its `Family`: the code of the
R_n^{I,J}(s) it is, and whether a 0-hat is adjoined.  Its `build_*` and
`grown_mobius` both start from there, and grow the family one way, by cover
moves from its minimal elements.  One generator lists those (`_seeds`):
`_blocks` gives the partitions of a set into blocks with sizes in a given
set, `_zero_and_blocks` adds a zero block with a size in another set, and
`_dowling_elements` every labelling.  The minimal
elements of D^(r,k)(s) are the elements of one type (k; n blocks of size
r), so their number N^(r,k)(n), and with it M^(r)(n) and the atom count of
Pi_m^{r,j}, is a type count (`count_of_type`, `denominator_N_rk`).

Growth moves ints, not tuples (`BlockCode`): each ground element has a
fixed-width field of the code that holds the least element of its block (its
leader; 0 for the zero block) and its label relative to the leader, and a
cover move adds one delta per block it moves.  A cover merges a group of
blocks, or absorbs one into the zero block, when no smaller part of the
group can move on its own (`_cover_moves`).  Under the semigroup
condition of Thm 4.1/4.2 on [0, n] (`semigroup_violation`) the family is an
upper set of L_n(s), and a cover absorbs one block or merges two.  Growth
runs one block count at a time and places elements in move order (the
absorbs by block, then the merges i < j by shift; a move that drops several
block counts when its count comes up), which depends on no hash.

Growth is a stream of steps (`_growth`): a virtual 0-hat whose up covers
are the seeds, then each element in placement order with the keys of its
up covers, near and far.  A key numbers an element when it is first found,
so a far cover is named before its element is placed.  `_grow` collects the
steps into the up covers of a built lattice, whose placement order is the
linear extension kept beside them; no part of the closure is built until it
is read (see `poset`).  A built lattice keeps its codes, and decodes them
into partitions or DowlingElements only when `elements` or `index` is first
read.  `grown_mobius` feeds the same steps straight into the Mobius walk
instead, so a caller that needs only Mobius numbers holds no lattice and no
table, and of the codes only those of the next level, those waiting for
theirs and those of the current level not yet stepped, each released at
its step.  Every construction stops with GuardError as soon as it has found
more than `guard` elements.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, lru_cache
from itertools import chain, combinations, islice, product, starmap
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .poset import Poset, PosetError, _bits, adjoin_bottom, close_order, from_covers, mobius_walk


GUARD = 50_000  # default limit on the elements of one construction


class GuardError(ValueError):
    """A requested construction exceeds its size guard."""


class ParameterError(ValueError):
    """The arguments of a command, a construction or a suite are invalid:
    bad usage, as opposed to a fault of the program."""


def _check_params(**values: int) -> None:
    """Reject n, j, k < 0 and m, r, s < 1 as bad usage."""
    for name, value in values.items():
        least = 0 if name in ("n", "j", "k") else 1
        if value < least:
            raise ParameterError(f"need {name} >= {least}, got {value}")


def _check_n_positive(n: int) -> None:
    """Q^(r)_n and Q^I_n are built for n >= 1 only."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")


# ---------------------------------------------------------------------------
# set partitions


def _subsets(items: tuple, sizes: Iterable[int], base: int) -> Iterator[tuple]:
    """The subsets of the sorted tuple items, as sorted tuples, whose length
    plus `base` lies in `sizes`."""
    return (c for size in sizes if size >= base for c in combinations(items, size - base))


def _blocks(elems: tuple, sizes: Iterable[int]) -> Iterator[tuple]:
    """Every partition of the sorted tuple elems into blocks whose sizes
    (all >= 1) lie in `sizes`, each block sorted, blocks sorted by minimum."""
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for mates in _subsets(rest, sizes, 1):
        left = tuple(e for e in rest if e not in mates)
        for blocks in _blocks(left, sizes):
            yield ((first,) + mates,) + blocks


def _listed(items: Iterable, guard: int) -> list:
    """The items as a list; GuardError if there are more than `guard`."""
    out = list(islice(items, guard + 1))
    if len(out) > guard:
        raise GuardError(f"construction exceeds guard {guard} elements")
    return out


def set_partitions(m: int, guard: int = GUARD) -> list:
    _check_params(m=m)
    return sorted(_listed(_blocks(tuple(range(1, m + 1)), range(1, m + 1)), guard))


# ---------------------------------------------------------------------------
# Dowling elements


class DowlingElement(NamedTuple):
    """An enriched partial partition (pi~, Z): zero block Z plus enriched
    blocks, each block a (elements, labels) pair with label(min) = 0.

    A tuple, so hashing, equality and construction run in C."""

    zero: tuple
    blocks: tuple  # tuple of (elems tuple, labels tuple)

    def to_json_dict(self) -> dict:
        return {
            "zero_block": list(self.zero),
            "blocks": [{"elems": list(b), "labels": list(l)} for b, l in self.blocks],
        }


def _zero_and_blocks(
    ground: tuple, zero_sizes: Iterable[int], block_sizes: Iterable[int]
) -> Iterator[tuple]:
    """Every (zero block, partition of the rest) of the sorted tuple ground
    whose zero block has a size in zero_sizes and whose blocks all have sizes
    in block_sizes."""
    for zero in _subsets(ground, zero_sizes, 0):
        rest = tuple(e for e in ground if e not in zero)
        for part in _blocks(rest, block_sizes):
            yield zero, part


def _dowling_elements(
    n: int, s: int, zero_sizes: Iterable[int], block_sizes: Iterable[int]
) -> Iterator[DowlingElement]:
    """Every canonical element of L_n(s) whose zero block has a size in
    zero_sizes and whose blocks all have sizes in block_sizes, in every
    labelling."""
    for zero, part in _zero_and_blocks(tuple(range(1, n + 1)), zero_sizes, block_sizes):
        for labels in product(*(product(range(s), repeat=len(bl) - 1) for bl in part)):
            yield DowlingElement(
                zero=zero, blocks=tuple((bl, (0,) + l) for bl, l in zip(part, labels))
            )


def _dowling_order(x: DowlingElement) -> tuple:
    """Sort key of enumerated Dowling elements: number of blocks, then the
    zero block, then the blocks."""
    return (len(x.blocks), x.zero, x.blocks)


def enumerate_dowling(n: int, s: int, guard: int = GUARD) -> list:
    """All canonical Dowling elements of L_n(s)."""
    _check_params(n=n, s=s)
    elements = _dowling_elements(n, s, range(n + 1), range(1, n + 1))
    return sorted(_listed(elements, guard), key=_dowling_order)


# ---------------------------------------------------------------------------
# integer codes of grown elements and their cover moves


@cache
def _byte_tables(lead_bits: int) -> tuple:
    """For fields one byte wide with `lead_bits` leader bits: the
    `bytes.translate` table that takes a field to its leader, and for each
    leader a the table that keeps the fields with leader a and clears the
    others."""
    step = 1 << lead_bits
    keep = []
    for a in range(step):
        table = bytearray(256)
        table[a::step] = range(a, 256, step)
        keep.append(bytes(table))
    return bytes(range(step)) * (256 // step), tuple(keep)


def _cover_moves(I: frozenset, J: frozenset, zero: int, sizes: tuple) -> tuple:
    """(absorbs, rows, deep): the groups of blocks that the covers of an
    element of R_n^{I,J}(s) change, given the sizes of its blocks by
    increasing leader and the size `zero` of its zero block Z.  absorbs
    lists each block whose absorption is a cover, rows each (i, (j, ...))
    where merging blocks i < j is one, and deep the (level, group, merged)
    of each cover of more blocks, level being the block count it leaves.  A
    group of >= 2 blocks with its size in I merges into a cover, and a group
    G with |Z u G| in J is absorbed by one, unless a smaller part of G could
    move on its own, giving an element between: a part of >= 2 blocks with
    its size in I, or for an absorb a nonempty part G' with |Z u G'| in J,
    or G itself of >= 2 blocks with its size in I.  Groups grow by one block
    in index order, and one with a part that merges is dropped."""
    absorbs, rows, deep = [], {}, []
    free = {(): (0, False)}  # group with no part that merges -> (size, a part is absorbable)
    for k in range(1, len(sizes) + 1):
        larger = {}
        for group, (base, _) in free.items():
            for b in range(group[-1] + 1 if group else 0, len(sizes)):
                g = group + (b,)
                parts = [free.get(g[:i] + g[i + 1 :]) for i in range(k)]
                if None in parts:
                    continue
                size = base + sizes[b]
                if k >= 2 and size in I:
                    if k == 2:
                        rows.setdefault(g[0], []).append(b)
                    else:
                        deep.append((len(sizes) - k + 1, g, True))
                    continue
                below = any([absorbable for _, absorbable in parts])
                if zero + size in J and not below:
                    if k == 1:
                        absorbs.append(b)
                    else:
                        deep.append((len(sizes) - k, g, False))
                larger[g] = size, below or zero + size in J
        free = larger
    return tuple(absorbs), tuple((i, tuple(row)) for i, row in rows.items()), tuple(deep)


class BlockCode:
    """The elements of R_n^{I,J}(s) as ints, and their cover moves as integer
    additions; I and J default to [1, n] and [0, n], which give L_n(s).

    Ground element e owns the field of `width` bits at bit offset
    width * (e - 1).  The field holds the leader of e's block (the block's
    least element; 0 for the zero block) in its low `lead_bits` bits and the
    label of e mod s, relative to the leader, above them.  A code decodes to
    a DowlingElement (`PartitionCode` reads the codes at s = 1 as
    partitions).  A field that fits in a byte is one byte wide, so that `int.to_bytes` and
    `bytes.translate` split a code into its blocks in C.

    A cover move adds a delta to the code.  Absorbing block j into the zero
    block subtracts its bits, part_j: the fields of block j.  Merging blocks
    i < j with shift alpha adds a_i * M_j + D_j[alpha]: a_i is the leader of
    block i, M_j has a 1 at the low end of each field of block j, and
    D_j[alpha], memoized by part_j (which fixes the leader, the elements and
    the labels of block j), takes away part_j and puts back the labels of
    block j shifted by alpha mod s.  A move of a group of blocks
    (`_cover_moves`, memoized by the block sizes) adds the delta of each
    block that moves.  The merged block keeps the smallest leader, whose
    label is 0, so every move lands on a canonical code, and the moves of
    one element are all distinct.  Decoding splits a code into the same
    parts; decoded blocks are memoized by part, so equal blocks are one
    shared tuple.
    """

    def __init__(self, n: int, s: int, I: Optional[frozenset] = None, J: Optional[frozenset] = None):
        self.n, self.s = n, s
        self.I = frozenset(range(1, n + 1)) if I is None else I
        self.J = frozenset(range(n + 1)) if J is None else J
        self.lead_bits = n.bit_length()
        bits = self.lead_bits + (s - 1).bit_length()
        self.width = 8 if bits <= 8 else bits
        self._shifts = range(0, self.width * n, self.width)
        if self.width == 8:
            self._leaders, self._keep = _byte_tables(self.lead_bits)
        self._block = cache(self._block_of)
        self._encoded = cache(self._encoded_of)
        self._zero_block = cache(self._zero_block_of)
        self._moves = cache(lambda sizes: _cover_moves(self.I, self.J, n - sum(sizes), sizes))

    def _fields(self, code: int):
        """The field values of `code`, for the ground elements 1..n in turn."""
        if self.width == 8:
            return code.to_bytes(self.n, "little")
        return [code >> shift & (1 << self.width) - 1 for shift in self._shifts]

    def _blocks(self, code: int) -> list:
        """`_block` of each block of `code` but the zero block, by increasing
        leader.  A block is keyed by its bits as little-endian bytes.  A
        leader first occurs in its own field, so the leaders come in
        increasing order of first occurrence."""
        block = self._block
        if self.width == 8:
            fields = code.to_bytes(self.n, "little")
            leaders = fields if self.s == 1 else fields.translate(self._leaders)
            keep = self._keep
            return [block(fields.translate(keep[a])) for a in dict.fromkeys(leaders) if a]
        parts, low = {}, (1 << self.lead_bits) - 1
        for f, shift in zip(self._fields(code), self._shifts):
            if f:
                parts[f & low] = parts.get(f & low, 0) | f << shift
        size = -(-self.width * self.n // 8)
        return [block(part.to_bytes(size, "little")) for part in parts.values()]

    def _block_of(self, key: bytes) -> tuple:
        """(part, leader, M, D, the decoded block, size) of the block whose
        bits `key` holds.  The decoded block is its (elements, labels) pair."""
        s, lead_bits = self.s, self.lead_bits
        part = int.from_bytes(key, "little")
        spread, shifted, elems, labels = 0, [0] * s, [], []
        for e, (f, shift) in enumerate(zip(self._fields(part), self._shifts), start=1):
            if f:
                label = f >> lead_bits
                elems.append(e)
                labels.append(label)
                spread |= 1 << shift
                for alpha in range(s):
                    shifted[alpha] += (label + alpha) % s << shift + lead_bits
        piece = (tuple(elems), tuple(labels))
        return part, elems[0], spread, tuple(bits - part for bits in shifted), piece, len(elems)

    def covers(self, code: int) -> tuple:
        """The level of `code` (`count_blocks`) and the codes covering it:
        (level, near, far).  near lists those with one block fewer, in move
        order: the absorbs by block, then the merges of blocks i < j with
        shifts 0, ..., s - 1.  far lists (level, code) for each cover that
        changes more blocks, in the order of `_cover_moves`, the shift of
        the last block of a merge varying fastest."""
        blocks = self._blocks(code)
        absorbs, rows, deep = self._moves(tuple([block[5] for block in blocks]))
        near = [code - blocks[j][0] for j in absorbs]
        add = near.append
        for i, row in rows:
            leader = blocks[i][1]
            for j in row:
                _, _, spread, deltas, _, _ = blocks[j]
                base = code + leader * spread
                for delta in deltas:
                    add(base + delta)
        if not deep:
            return len(blocks), near, ()
        far = []
        for level, group, merged in deep:
            moved, leader = [code], blocks[group[0]][1]
            for j in group[1:] if merged else group:
                part, _, spread, deltas, _, _ = blocks[j]
                steps = [leader * spread + delta for delta in deltas] if merged else [-part]
                moved = [y + step for y in moved for step in steps]
            far += [(level, y) for y in moved]
        return len(blocks), near, far

    def count_blocks(self, code: int) -> int:
        """The level of `code`: its number of blocks, the zero block not counted."""
        return len(self._blocks(code))

    def encode(self, x: DowlingElement) -> int:
        """The code of a canonical DowlingElement; the blocks may come in any
        order."""
        return sum(starmap(self._encoded, x.blocks))

    def _encoded_of(self, elems: tuple, labels: tuple) -> int:
        """The bits of one block, its elements sorted, with their labels."""
        leader, shifts = elems[0], self._shifts
        return sum((leader | label << self.lead_bits) << shifts[e - 1] for e, label in zip(elems, labels))

    def decode(self, code: int):
        """The element whose code is `code`."""
        blocks = self._blocks(code)
        pieces = tuple([block[4] for block in blocks])
        covered = 0
        for block in blocks:
            covered |= block[2]
        return DowlingElement(self._zero_block(covered), pieces)

    def decode_all(self, codes: Iterable[int]) -> tuple:
        """The elements of `codes`.  The block memo serves only growth and
        decoding, so it is dropped afterwards; the decoded blocks stay shared
        through the elements."""
        elements = tuple(map(self.decode, codes))
        self._block.cache_clear()
        return elements

    def _zero_block_of(self, covered: int) -> tuple:
        """The ground elements whose fields the spread mask `covered` misses."""
        return tuple(e for e, shift in enumerate(self._shifts, start=1) if not covered >> shift & 1)


# ---------------------------------------------------------------------------
# built lattices


class BuiltLattice:
    """A poset and its elements.  The elements are stored as `codes`: the ints
    of a built family, which `decode` turns into the tuple of elements when
    `elements` or `index` is first read, or (without `decode`) the elements
    themselves."""

    def __init__(self, poset: Poset, codes: tuple, decode: Optional[Callable] = None,
                 bottom: Optional[int] = None):
        self.poset = poset
        self.codes = codes
        self.decode = decode
        self.bottom = bottom  # index of the synthetic adjoined 0-hat, if any

    @cached_property
    def elements(self) -> tuple:
        return self.codes if self.decode is None else self.decode(self.codes)

    @cached_property
    def index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}


# `_growth` hands its steps over in lists of this many, so that the growth
# and the Mobius walk fed by it each run a few hundred elements at a time:
# handing over one step at a time made a fresh `mobius` process of L_7(2)
# about 12% slower (median of 40 alternating runs, Python 3.11, 2 cores).
_BATCH = 256


def _growth(
    seeds: Iterable[int], code: BlockCode, guard: int, codes: Optional[list] = None
) -> Iterator[tuple]:
    """The upper set generated by the minimal elements `seeds` (codes) under
    the cover moves `code.covers`, as a stream of steps (key, the keys of
    the up covers), yielded in lists of up to `_BATCH` steps (flatten them
    with `chain.from_iterable`).  It opens with the step of a virtual 0-hat,
    key None, whose up covers are the seeds; then comes one step per
    element, in placement order, which is a linear extension.  With `codes`,
    the code of each element is appended to it at its step.  A key numbers
    an element in the order it is first found, the seeds first, so the keys
    of L_n(s), Pi_m and every family under the semigroup condition are their
    placement indices.

    Growth runs one level `code.count_blocks` at a time: the near moves of a
    level (one block fewer) place the next one, each element when first
    found, and the seeds of a level and the far moves that drop several
    levels to it join it just before it is processed, after the elements
    that near moves placed there.  Only the codes and keys of the next
    level, of the elements waiting for their level and of the part of the
    current level not yet stepped are kept, no record of the elements
    already stepped: each code is released at its step, and each element's
    level is checked when it is processed (`covers` returns it).  So a move
    back to an element of its own level or an earlier one, which places it
    again one level down, raises PosetError there.  More than `guard`
    elements raise GuardError as soon as they are found."""
    found = 0  # the elements found so far
    stepped = 0  # the placement index of the next element stepped

    def key() -> int:
        """The key of the next element found for the first time."""
        nonlocal found
        if found >= guard:
            raise GuardError(f"construction exceeds guard {guard} elements")
        found += 1
        return found - 1

    waiting = {}  # code -> key of the seeds and far targets found, not yet placed
    pending = {}  # level -> the codes that seeds and far moves place there
    for x in _listed(seeds, guard):
        if x not in waiting:
            waiting[x] = key()
            pending.setdefault(code.count_blocks(x), []).append(x)
    batch = [(None, list(waiting.values()))]
    below = {}  # the next level, as near moves place it: code -> key
    at = max(pending, default=0)
    while below or pending:
        if not below:  # no element at this level: go to the next pending
            at = max(pending)
        level, below = below, {}
        for x in pending.pop(at, ()):
            if x not in level:
                level[x] = waiting.pop(x)
        # the level reversed, so that popping takes it in placement order and
        # releases each code and key at its step
        xs, ks, level = list(reversed(level)), list(reversed(level.values())), None
        while xs:
            x, k = xs.pop(), ks.pop()
            count, near, far = code.covers(x)
            if count != at:
                raise PosetError(f"a cover move goes back: element {stepped}, "
                                 f"placed on level {at}, is on level {count}")
            ups = []
            for y in near:
                up = below.get(y)
                if up is None:
                    up = waiting.pop(y, None)
                    below[y] = up = key() if up is None else up
                ups.append(up)
            for depth, y in far:
                up = waiting.get(y)
                if up is None:
                    waiting[y] = up = key()
                    pending.setdefault(depth, []).append(y)
                ups.append(up)
            if codes is not None:
                codes.append(x)
            batch.append((k, ups))
            stepped += 1
            if len(batch) == _BATCH:
                yield batch
                batch = []
        at -= 1
    yield batch


def _grow(seeds: Iterable[int], code: BlockCode, guard: int) -> BuiltLattice:
    """The lattice of the steps of `_growth`: an element's index is its place
    in the stream, and its up covers are the indices of the keys its step
    lists, sorted.  The keys are the indices unless a far move or a seed of
    a lower level named an element before its place.  The codes decode
    through `code.decode_all` (see BuiltLattice)."""
    codes, keys, covers_up = [], [], []
    steps = chain.from_iterable(_growth(seeds, code, guard, codes))
    next(steps)  # the virtual 0-hat
    for key, ups in steps:
        keys.append(key)
        ups.sort()
        covers_up.append(tuple(ups))
    if keys != list(range(len(keys))):
        index = [0] * len(keys)
        for i, key in enumerate(keys):
            index[key] = i
        covers_up = [tuple(sorted([index[k] for k in ups])) for ups in covers_up]
    poset = close_order(tuple(covers_up), range(len(codes)))
    return BuiltLattice(poset=poset, codes=tuple(codes), decode=code.decode_all)


class Family:
    """What the build of a family and its growth stream both start from: the
    code of its elements, R_n^{I,J}(s) (`BlockCode`), whose minimal elements
    `_seeds` lists, and whether a 0-hat is adjoined below them.  Each family
    function checks its parameters and returns one; each `build_*` builds
    its family, and `grown_mobius` streams it.  A plain class: a NamedTuple
    costs every process its class creation at start-up."""

    __slots__ = ("code", "zero")

    def __init__(self, code: BlockCode, zero: bool):
        self.code, self.zero = code, zero


def _seeds(code: BlockCode) -> Iterator[int]:
    """The codes of the minimal elements of R_n^{I,J}(s), the family of
    `code`: every labelling of blocks whose size is not a sum of two or more
    sizes in I, and of a zero block whose size j has no j - t in J for t a
    sum of sizes in I."""
    n, I = code.n, code.I
    seeds = _dowling_elements(n, code.s, _indecomposable(code.J, I, n), _indecomposable(I, I, n))
    return map(code.encode, seeds)


def _build(family: Family, guard: int) -> BuiltLattice:
    """The lattice of `family`, grown, with its 0-hat if it has one."""
    built = _grow(_seeds(family.code), family.code, guard)
    return adjoin_zero(built) if family.zero else built


def grown_mobius(family: Family, guard: int = GUARD) -> Iterator[tuple]:
    """`mobius_walk` from the 0-hat of `family` over its growth stream, so
    no poset, no linear extension, no code and no table is held: (key,
    mu(0-hat, z), whether z has no up cover) for the 0-hat and then every
    element z in placement order (keys as in `_growth`).  An adjoined 0-hat
    is the virtual start, key None, whose up covers are the seeds, even when
    there is one seed.  A family with no 0-hat adjoined must have one seed,
    its bottom, or it raises the PosetError of `Poset.bottom`.  The guard
    counts the elements as the build does."""
    steps = chain.from_iterable(_growth(_seeds(family.code), family.code, guard))
    start, ups = next(steps)
    if not family.zero:
        if len(ups) != 1:
            raise PosetError("poset has no unique minimal element")
        start, ups = next(steps)
    return mobius_walk(start, ups, steps)


def partition_family(m: int) -> Family:
    """The partition lattice Pi_m = L_{m-1}(1) read through the bijection,
    bottom = all singletons."""
    _check_params(m=m)
    sizes = frozenset(range(1, m + 1))
    return Family(PartitionCode(m, sizes, sizes), zero=False)


def build_partition_lattice(m: int, guard: int = GUARD) -> BuiltLattice:
    """Pi_m (`partition_family`), built."""
    return _build(partition_family(m), guard)


def dowling_family(n: int, s: int) -> Family:
    """The Dowling lattice L_n(s) = R_n^{[1,n],[0,n]}(s) of rank n."""
    _check_params(n=n, s=s)
    return Family(BlockCode(n, s), zero=False)


def build_dowling_lattice(n: int, s: int, guard: int = GUARD) -> BuiltLattice:
    """L_n(s) (`dowling_family`), built."""
    return _build(dowling_family(n, s), guard)


# No build path calls ambient_dowling, induce_from_ambient or
# induced_subposet: they are the tests' oracles for build_D_rk and for the
# restricted families, which order elements by the relations in
# tests/oracles.py.
@lru_cache(maxsize=8)
def ambient_dowling(n: int, s: int, guard: int = GUARD) -> BuiltLattice:
    return build_dowling_lattice(n, s, guard=guard)


def induced_subposet(
    elements: list,
    leq_fn: Callable,
    rank_fn: Callable,
) -> BuiltLattice:
    """Induced order on an explicit element list via pairwise comparison,
    covers recovered by transitive reduction."""
    V = len(elements)
    order = sorted(range(V), key=lambda i: rank_fn(elements[i]))
    elements = [elements[i] for i in order]
    ranks = [rank_fn(e) for e in elements]
    up = [0] * V
    down = [0] * V
    for i in range(V):
        for j in range(i + 1, V):
            if ranks[i] < ranks[j] and leq_fn(elements[i], elements[j]):
                up[i] |= 1 << j
                down[j] |= 1 << i
    edges = []
    for i in range(V):
        for j in _bits(up[i]):
            if up[i] & down[j] == 0:
                edges.append((i, j))
    return BuiltLattice(poset=from_covers(V, edges), codes=tuple(elements))


def induce_from_ambient(ambient: BuiltLattice, keep: Callable) -> BuiltLattice:
    """Induced subposet of an already-built lattice, reusing its closure rows."""
    kept = [i for i in range(len(ambient.elements)) if keep(ambient.elements[i])]
    old2new = {old: new for new, old in enumerate(kept)}
    mask = 0
    for old in kept:
        mask |= 1 << old
    V = len(kept)
    up = [0] * V
    down = [0] * V
    P = ambient.poset
    for new, old in enumerate(kept):
        row = P.up_rows[old] & mask & ~(1 << old)
        for z in _bits(row):
            zn = old2new[z]
            up[new] |= 1 << zn
            down[zn] |= 1 << new
    edges = []
    for i in range(V):
        for j in _bits(up[i]):
            if up[i] & down[j] == 0:
                edges.append((i, j))
    elements = tuple(ambient.elements[old] for old in kept)
    return BuiltLattice(poset=from_covers(V, edges), codes=elements)


def adjoin_zero(built: BuiltLattice) -> BuiltLattice:
    """Adjoin a synthetic bottom element below all minimal elements.

    The synthetic element is a new index (it never collides with the natural
    bottom of a lattice that already has one)."""
    return BuiltLattice(adjoin_bottom(built.poset), built.codes, built.decode, bottom=built.poset.n)


# ---------------------------------------------------------------------------
# types and counting


class StructureType(NamedTuple):
    b: int
    a: tuple  # a[i-1] = number of blocks of size i

    def weight(self) -> int:
        return self.b + sum(i * ai for i, ai in enumerate(self.a, start=1))


def type_of(x, n: int) -> StructureType:
    """Type (b; a_1, ..., a_n) of a Dowling element or a plain partition."""
    a = [0] * n
    if isinstance(x, DowlingElement):
        b = len(x.zero)
        for elems, _ in x.blocks:
            a[len(elems) - 1] += 1
    else:
        b = 0
        for block in x:
            a[len(block) - 1] += 1
    return StructureType(b=b, a=tuple(a))


def count_of_type(n: int, s: int, t: StructureType) -> int:
    """Number of elements of L_n(s) of the given type (b; a), Lemma 2.1 at
    s = 1 and Prop 3.2: s^n n! / (s^b b! prod_i (s i!)^{a_i} a_i!).  Every
    minimal-element and atom count of a derived family is one of these."""
    if t.weight() != n:
        raise ValueError(f"inconsistent type {t} for n={n}")
    den = s**t.b * math.factorial(t.b)
    for i, ai in enumerate(t.a, start=1):
        den *= (s * math.factorial(i)) ** ai * math.factorial(ai)
    num = s**n * math.factorial(n)
    value, rest = divmod(num, den)
    if rest:
        raise ValueError(f"type count for {t} is not an integer: {num}/{den}")
    return value


def all_types(n: int) -> Iterator[StructureType]:
    """All consistent types (b; a_1..a_n) with b + sum i*a_i = n."""

    def rec(i, remaining, acc):
        if i > n:
            yield StructureType(b=remaining, a=tuple(acc))
            return
        for ai in range(remaining // i + 1):
            yield from rec(i + 1, remaining - i * ai, acc + [ai])

    yield from rec(1, n, [])


# ---------------------------------------------------------------------------
# derived partition families


def r_divisible_family(m: int, r: int) -> Family:
    """Pi_m^r: partitions with all block sizes divisible by r, 0-hat
    adjoined: Q^(r)_{m/r} with a 0-hat."""
    _check_params(m=m, r=r)
    if m % r != 0:
        raise ParameterError(f"r={r} must divide m={m}")
    return Family(Q_r_family(m // r, r).code, zero=True)


def build_r_divisible(m: int, r: int, guard: int = GUARD) -> BuiltLattice:
    """Pi_m^r (`r_divisible_family`), built."""
    return _build(r_divisible_family(m, r), guard)


def extended_family(m: int, r: int, j: int) -> Family:
    """Pi_m^{r,j}: the block containing m has size >= j, all other blocks have
    size divisible by r; 0-hat adjoined.  It is D^(r,k) at s = 1 with
    k = (j or r) - 1, read through the bijection (`PartitionCode`)."""
    _check_params(m=m, r=r, j=j)
    if (m - j) % r != 0 or m < j:
        raise ParameterError(f"need m = r*n + j: got m={m}, r={r}, j={j}")
    I, K = frozenset(range(r, m + 1, r)), frozenset(range(j or r, m + 1, r))
    return Family(PartitionCode(m, I, K), zero=True)


def build_extended(m: int, r: int, j: int, guard: int = GUARD) -> BuiltLattice:
    """Pi_m^{r,j} (`extended_family`), built."""
    return _build(extended_family(m, r, j), guard)


def Q_r_family(n: int, r: int) -> Family:
    """Q^(r)_n = Q_{rn}^I with I = {r, 2r, ..., rn}: the subposet of Pi_{rn} of
    r-divisible partitions (no adjoined bottom)."""
    _check_params(r=r)
    _check_n_positive(n)
    I = frozenset(range(r, r * n + 1, r))
    return Family(PartitionCode(r * n, I, I), zero=False)


def build_Q_r(n: int, r: int, guard: int = GUARD) -> BuiltLattice:
    """Q^(r)_n (`Q_r_family`), built."""
    return _build(Q_r_family(n, r), guard)


def semigroup_violation(I: frozenset, J: frozenset, window: int) -> Optional[str]:
    """Why I is not a semigroup, or I + J escapes J, on the window; None if
    both closure hypotheses hold (those of Thm 4.1/4.2 and Cor 4.3).  On the
    window [0, n] they make Q_n^I and R_n^{I,J} upper sets of Pi_n and L_n."""
    for i in I:
        for i2 in I:
            if i + i2 <= window and i + i2 not in I:
                return f"I is not a semigroup on the window: {i}+{i2} missing"
        for j in J:
            if i + j <= window and i + j not in J:
                return f"I+J escapes J on the window: {i}+{j} missing"
    return None


def _sums(I: frozenset, n: int) -> set:
    """The sums of one or more sizes in I, up to n."""
    sums = set()
    for t in range(1, n + 1):
        if any(i == t or t - i in sums for i in I if 0 < i <= t):
            sums.add(t)
    return sums


def lacks_unique_top(n: int, I: frozenset, J: Optional[frozenset] = None, s: int = 1) -> bool:
    """Whether Q_n^I = R_n^{I,{0}}(1) (J None) or R_n^{I,J}(s) has several
    maximal elements, without building it.  A unique one is fixed by every
    permutation and relabelling, so it is the zero block [n] (the top of
    L_n(s)), the one block [n] (fixed only at s = 1, and above only the
    elements with no zero block) or all singletons (the bottom of L_n(s))."""
    sums = _sums(I, n) | {0}  # the sums of zero or more sizes in I
    zero_sizes = {j for j in (J if J is not None else (0,)) if j <= n and n - j in sums}
    if not zero_sizes or n in zero_sizes:  # empty (the 0-hat is the top), or [n] on top
        return False
    return zero_sizes != {0} or not (n in I and s == 1 or not any(2 <= i <= n for i in I))


def _indecomposable(sizes: Iterable[int], I: frozenset, n: int) -> tuple:
    """The sizes up to n in `sizes` that are not t + b with t a sum of one
    or more sizes in I and b in `sizes`, sorted."""
    sizes = frozenset(b for b in sizes if b <= n)
    sums = _sums(I, n)
    return tuple(sorted(b for b in sizes if not any(b - t in sizes for t in sums if t <= b)))


def restricted_partition_family(n: int, I: frozenset) -> Family:
    """Q_n^I for Q = Pi: partitions whose block sizes all lie in I, with a
    0-hat adjoined.  The block holding n is one of them (see
    `PartitionCode`)."""
    _check_n_positive(n)
    return Family(PartitionCode(n, I, I), zero=True)


def build_restricted_partition(n: int, I: frozenset, guard: int = GUARD) -> BuiltLattice:
    """Q_n^I (`restricted_partition_family`), built."""
    return _build(restricted_partition_family(n, I), guard)


def restricted_dowling_family(n: int, s: int, I: frozenset, J: frozenset) -> Family:
    """R_n^{I,J} for R = Dowling(s): zero-block size in J, block sizes in I,
    with a 0-hat adjoined."""
    _check_params(n=n, s=s)
    return Family(BlockCode(n, s, I, J), zero=True)


def build_restricted_dowling(
    n: int, s: int, I: frozenset, J: frozenset, guard: int = GUARD
) -> BuiltLattice:
    """R_n^{I,J}(s) (`restricted_dowling_family`), built."""
    return _build(restricted_dowling_family(n, s, I, J), guard)


def D_rk_family(n: int, r: int, k: int, s: int) -> Family:
    """D_n^{(r,k)} = R_{rn+k}^{I,J}(s), I = {r, 2r, ...}, J = {k, k + r, ...}:
    grown from a zero block of size k and n blocks of size r, in every
    labelling; 0-hat adjoined."""
    _check_params(n=n, r=r, k=k, s=s)
    size = r * n + k
    I, J = frozenset(range(r, size + 1, r)), frozenset(range(k, size + 1, r))
    return Family(BlockCode(size, s, I, J), zero=True)


def build_D_rk(n: int, r: int, k: int, s: int, guard: int = GUARD) -> BuiltLattice:
    """D_n^(r,k)(s) (`D_rk_family`), built."""
    return _build(D_rk_family(n, r, k, s), guard)


# ---------------------------------------------------------------------------
# minimal-element counts of the derived families


def denominator_N_rk(n: int, r: int, k: int, s: int) -> int:
    """N^(r,k)(n), the minimal elements of D^(r,k)(s): the elements of
    L_{rn+k}(s) of type (k; n blocks of size r).  At s = 1 and k = 0 it is
    M^(r)(n), the minimal elements of Q^(r)_n; at s = 1 it is also the atom
    count of Pi_{rn+k+1}^{r,k+1}."""
    return count_of_type(r * n + k, s, StructureType(k, (0,) * (r - 1) + (n,)))


# ---------------------------------------------------------------------------
# the marked-block bijection: partitions of [m] <-> L_{m-1}(1) at s = 1


def _with_marked(x: DowlingElement, marked: tuple) -> tuple:
    """The element tuples of the blocks of x, reused, and the block `marked`
    that holds m (the zero block of x plus m), sorted by minimum: a
    partition of [m]."""
    blocks = [elems for elems, _ in x.blocks]
    blocks.insert(sum(elems[0] < marked[0] for elems in blocks), marked)
    return tuple(blocks)


class PartitionCode(BlockCode):
    """The codes of L_{m-1}(1) read as the partitions of [m] that they stand
    for, m joining the zero block (`_with_marked`); every partition family is built in it, as
    R_{m-1}^{I,K-1}(1) (I and K default to [1, m], Pi_m).  The
    block holding m is memoized by its zero block, and the other blocks are
    the decoded element tuples, so the partitions share every block and no
    DowlingElement is kept.  Its `encode` takes a DowlingElement of
    L_{m-1}(1)."""

    def __init__(self, m: int, I: Optional[frozenset] = None, K: Optional[frozenset] = None):
        super().__init__(m - 1, 1, I, None if K is None else frozenset(k - 1 for k in K))
        self._marked = cache(lambda zero: zero + (m,))

    def decode(self, code: int) -> tuple:
        x = super().decode(code)
        return _with_marked(x, self._marked(x.zero))


def bijection_extended_to_dowling(m: int, r: int, k: int, guard: int = GUARD) -> list:
    """Element-level bijection Pi_m^{r,k+1} <-> D_n^{(r,k)} at s=1, as a list
    of (partition, dowling element) pairs; m = r*n + k + 1.  The pairs are the
    two decodings of each code of `build_extended`."""
    if (m - k - 1) % r != 0:
        raise ParameterError(f"need m = r*n + k + 1: got m={m}, r={r}, k={k}")
    built = build_extended(m, r, k + 1, guard=guard)
    return list(zip(built.elements, BlockCode(m - 1, 1).decode_all(built.codes)))
