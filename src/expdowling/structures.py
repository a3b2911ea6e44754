"""Concrete posets: partition lattices, Dowling lattices and their derived
and restricted families.

Elements are kept in canonical form:

* a set partition is a tuple of blocks, each block a sorted tuple, blocks
  sorted by minimum;
* a Dowling element is a zero block plus enriched blocks; the group of order s
  enters only through residues mod s, and the representative of the scalar
  equivalence class is fixed by giving the minimum of each block the label 0.

Pi_m, L_n(s) and their upper sets Pi_m^r, Q^(r)_n, Pi_m^{r,j} and D_n^(r,k)
all grow by cover moves from their minimal elements (the objects counted by
M^(r) and N^(r,k)).  Only Q^I and R^{I,J}, which are not upper sets, are
filtered from an enumeration and ordered pairwise.  Every construction stops
with GuardError as soon as it holds more than `guard` elements (default GUARD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .poset import Poset, from_covers, _bits


GUARD = 50_000  # default limit on the elements of one construction


class GuardError(ValueError):
    """A requested construction exceeds its size guard."""


class ParameterError(ValueError):
    """The arguments of a construction or a suite are invalid: bad usage,
    as opposed to a fault of the program."""


def _check_params(**values: int) -> None:
    """Reject n, j, k < 0 and m, r, s < 1 as bad usage."""
    for name, value in values.items():
        least = 0 if name in ("n", "j", "k") else 1
        if value < least:
            raise ParameterError(f"need {name} >= {least}, got {value}")


# ---------------------------------------------------------------------------
# set partitions


def partitions_of(elements: tuple) -> Iterator[tuple]:
    """All set partitions of the given sorted tuple, in canonical form."""
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for p in partitions_of(rest):
        yield ((first,),) + p
        for i, block in enumerate(p):
            yield tuple(sorted(p[:i] + (tuple(sorted((first,) + block)),) + p[i + 1 :]))


def canonical_partition(blocks: Iterable[Iterable[int]]) -> tuple:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def set_partitions(m: int, guard: int = GUARD) -> list:
    _check_params(m=m)
    out = []
    for p in partitions_of(tuple(range(1, m + 1))):
        out.append(p)
        if len(out) > guard:
            raise GuardError(f"set partitions of {m} exceed guard {guard}")
    return sorted(out)


def partition_covers(p: tuple) -> set:
    """Partitions covering p: two blocks merged.  The merged block keeps the
    smaller minimum, so it takes the place of the first block and every cover
    is already canonical."""
    out = set()
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            out.add(p[:i] + (tuple(sorted(p[i] + p[j])),) + p[i + 1 : j] + p[j + 1 :])
    return out


def _r_blocks(elems: tuple, r: int) -> Iterator[tuple]:
    """Every partition of the sorted tuple elems into blocks of size r, blocks
    sorted by minimum (none when r does not divide len(elems))."""
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for mates in combinations(rest, r - 1):
        left = tuple(e for e in rest if e not in mates)
        for blocks in _r_blocks(left, r):
            yield ((first,) + mates,) + blocks


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


# ---------------------------------------------------------------------------
# Dowling elements


class DowlingElement(NamedTuple):
    """An enriched partial partition (pi~, Z): zero block Z plus enriched
    blocks, each block a (elements, labels) pair with label(min) = 0.

    A tuple, so hashing, equality and construction run in C; its hash is
    hash((zero, blocks)), which fixes the growth order of every Dowling
    family."""

    zero: tuple
    blocks: tuple  # tuple of (elems tuple, labels tuple)

    def to_json_dict(self) -> dict:
        return {
            "zero_block": list(self.zero),
            "blocks": [{"elems": list(b), "labels": list(l)} for b, l in self.blocks],
        }


def make_dowling(zero: Iterable[int], blocks: Iterable, s: int) -> DowlingElement:
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


def dowling_bottom(n: int) -> DowlingElement:
    return DowlingElement(
        zero=(), blocks=tuple(((e,), (0,)) for e in range(1, n + 1))
    )


def dowling_rank(x: DowlingElement, n: int) -> int:
    return n - len(x.blocks)


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


def enumerate_dowling(
    n: int,
    s: int,
    zero_ok: Optional[Callable[[int], bool]] = None,
    block_ok: Optional[Callable[[int], bool]] = None,
    guard: int = GUARD,
) -> list:
    """All canonical Dowling elements of L_n(s) whose zero-block size passes
    zero_ok and whose block sizes all pass block_ok."""
    _check_params(n=n, s=s)
    ground = tuple(range(1, n + 1))
    out = []
    for b in range(n + 1):
        if zero_ok is not None and not zero_ok(b):
            continue
        for zero in combinations(ground, b):
            rest = tuple(e for e in ground if e not in zero)
            for part in set(partitions_of(rest)):
                if block_ok is not None and not all(block_ok(len(bl)) for bl in part):
                    continue
                label_spaces = [product(range(s), repeat=len(bl) - 1) for bl in part]
                for choice in product(*label_spaces):
                    blocks = tuple(
                        (bl, (0,) + labels) for bl, labels in zip(part, choice)
                    )
                    out.append(DowlingElement(zero=zero, blocks=blocks))
                    if len(out) > guard:
                        raise GuardError(
                            f"Dowling enumeration for n={n}, s={s} exceeds guard {guard}"
                        )
    return sorted(out, key=lambda x: (len(x.blocks), x.zero, x.blocks))


# ---------------------------------------------------------------------------
# built lattices


@dataclass(frozen=True)
class BuiltLattice:
    poset: Poset
    elements: tuple
    index: dict
    bottom: Optional[int] = None  # index of the synthetic adjoined 0-hat, if any

    @property
    def top(self) -> int:
        return self.poset.top

    def natural_indices(self) -> range:
        """Indices of real (non-synthetic) elements."""
        return range(len(self.elements))


def _grow(seeds: Iterable, covers_fn: Callable, guard: int) -> BuiltLattice:
    """The upper set generated by the minimal elements `seeds` under cover
    moves, grown in one FIFO pass over the element list as it grows.  Raises
    GuardError as soon as more than `guard` elements exist."""
    elements, index = [], {}

    def place(x) -> int:
        i = index.get(x)
        if i is None:
            if len(elements) >= guard:
                raise GuardError(f"construction exceeds guard {guard} elements")
            i = index[x] = len(elements)
            elements.append(x)
        return i

    for x in seeds:
        place(x)
    # the loop also visits the elements that place() appends while it runs
    edges = [(xi, place(y)) for xi, x in enumerate(elements) for y in covers_fn(x)]
    poset = from_covers(len(elements), edges)
    return BuiltLattice(poset=poset, elements=tuple(elements), index=index)


def build_partition_lattice(m: int, guard: int = GUARD) -> BuiltLattice:
    """The partition lattice Pi_m under refinement, bottom = all singletons."""
    _check_params(m=m)
    return _grow([tuple((e,) for e in range(1, m + 1))], partition_covers, guard)


def build_dowling_lattice(n: int, s: int, guard: int = GUARD) -> BuiltLattice:
    """The Dowling lattice L_n of rank n for a group of order s."""
    _check_params(n=n, s=s)
    return _grow([dowling_bottom(n)], lambda x: dowling_covers(x, s), guard)


# No build path calls ambient_dowling or induce_from_ambient: they are the
# tests' oracle for build_D_rk.
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
    poset = from_covers(V, edges)
    return BuiltLattice(
        poset=poset, elements=tuple(elements), index={e: i for i, e in enumerate(elements)}
    )


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
    poset = from_covers(V, edges)
    elements = tuple(ambient.elements[old] for old in kept)
    return BuiltLattice(poset=poset, elements=elements, index={e: i for i, e in enumerate(elements)})


def adjoin_zero(built: BuiltLattice) -> BuiltLattice:
    """Adjoin a synthetic bottom element below all minimal elements.

    The synthetic element is a new index (it never collides with the natural
    bottom of a lattice that already has one)."""
    P = built.poset
    V = P.n
    edges = [(x, y) for x in range(V) for y in P.covers_up[x]]
    edges.extend((V, m) for m in P.minimals)
    poset = from_covers(V + 1, edges)
    return BuiltLattice(poset=poset, elements=built.elements, index=built.index, bottom=V)


# ---------------------------------------------------------------------------
# types and counting


@dataclass(frozen=True)
class StructureType:
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


def count_of_type(
    n: int,
    s: int,
    t: StructureType,
    M: Callable[[int], int] = lambda i: 1,
    N: Callable[[int], int] = lambda i: 1,
) -> int:
    """Number of elements of the given type.

    With M = N = 1 this is the plain Dowling count; general M, N give the
    count for a structure with those denominator sequences."""
    if t.weight() != n:
        raise ValueError(f"inconsistent type {t} for n={n}")
    num = Fraction(N(n) * s**n * math.factorial(n))
    den = Fraction(N(t.b) * s**t.b * math.factorial(t.b))
    for i, ai in enumerate(t.a, start=1):
        if ai:
            den *= Fraction((M(i) * s * math.factorial(i)) ** ai * math.factorial(ai))
    value = num / den
    if value.denominator != 1:
        raise ValueError(f"type count for {t} is not an integer: {value}")
    return int(value)


def all_types(n: int, zero_ok=None, block_ok=None) -> Iterator[StructureType]:
    """All consistent types (b; a_1..a_n) with b + sum i*a_i = n."""

    def rec(i, remaining, acc):
        if i > n:
            if zero_ok is None or zero_ok(remaining):
                yield StructureType(b=remaining, a=tuple(acc))
            return
        max_ai = remaining // i
        for ai in range(max_ai + 1):
            if ai > 0 and block_ok is not None and not block_ok(i):
                continue
            yield from rec(i + 1, remaining - i * ai, acc + [ai])

    yield from rec(1, n, [])


# ---------------------------------------------------------------------------
# derived partition families


def _extended_upper_set(m: int, r: int, j: int, guard: int) -> BuiltLattice:
    """The partitions of [m] whose block containing m has size >= j and whose
    other blocks have sizes divisible by r, grown from the minimal ones: m in
    a block of size j (size r when j = 0), every other block of size r."""
    _check_params(m=m, r=r, j=j)
    if (m - j) % r != 0 or m < j:
        raise ParameterError(f"need m = r*n + j: got m={m}, r={r}, j={j}")

    def seeds():
        for mates in combinations(range(1, m), (j or r) - 1):
            rest = tuple(e for e in range(1, m) if e not in mates)
            for blocks in _r_blocks(rest, r):
                yield canonical_partition(blocks + (mates + (m,),))

    return _grow(seeds(), partition_covers, guard)


def build_r_divisible(m: int, r: int, guard: int = GUARD) -> BuiltLattice:
    """Pi_m^r: partitions with all block sizes divisible by r, 0-hat adjoined."""
    _check_params(m=m, r=r)
    if m % r != 0:
        raise ParameterError(f"r={r} must divide m={m}")
    return adjoin_zero(build_Q_r(m // r, r, guard=guard))


def build_extended(m: int, r: int, j: int, guard: int = GUARD) -> BuiltLattice:
    """Pi_m^{r,j}: the block containing m has size >= j, all other blocks have
    size divisible by r; 0-hat adjoined."""
    return adjoin_zero(_extended_upper_set(m, r, j, guard))


def build_Q_r(n: int, r: int, guard: int = GUARD) -> BuiltLattice:
    """Q^(r)_n: the subposet of Pi_{rn} of r-divisible partitions (no adjoined
    bottom); it is Pi_{rn}^{r,r} without its 0-hat."""
    _check_params(n=n, r=r)
    return _extended_upper_set(r * n, r, r, guard)


def build_restricted_partition(n: int, I: frozenset, guard: int = GUARD) -> BuiltLattice:
    """Q_n^I for Q = Pi: partitions whose block sizes all lie in I, with a
    0-hat adjoined."""
    elements = [p for p in set_partitions(n, guard) if all(len(b) in I for b in p)]
    built = induced_subposet(elements, partition_leq, lambda p: n - len(p))
    return adjoin_zero(built)


def build_restricted_dowling(
    n: int, s: int, I: frozenset, J: frozenset, guard: int = GUARD
) -> BuiltLattice:
    """R_n^{I,J} for R = Dowling(s): zero-block size in J, block sizes in I,
    with a 0-hat adjoined."""
    elements = enumerate_dowling(
        n, s, zero_ok=lambda b: b in J, block_ok=lambda l: l in I, guard=guard
    )
    built = induced_subposet(elements, lambda x, y: dowling_leq(x, y, s), lambda x: dowling_rank(x, n))
    return adjoin_zero(built)


def build_D_rk(
    n: int, r: int, k: int, s: int, guard: int = GUARD, adjoin: bool = False
) -> BuiltLattice:
    """D_n^{(r,k)}: the upper set of L_{rn+k} of elements with b >= k,
    b = k mod r and all block sizes divisible by r, grown from the minimal
    ones: a zero block of size k and n blocks of size r, in every labelling."""
    _check_params(n=n, r=r, k=k, s=s)
    ground = range(1, r * n + k + 1)
    labellings = [(0,) + rest for rest in product(range(s), repeat=r - 1)]

    def seeds():
        for zero in combinations(ground, k):
            rest = tuple(e for e in ground if e not in zero)
            for blocks in _r_blocks(rest, r):
                for labels in product(labellings, repeat=n):
                    yield DowlingElement(zero=zero, blocks=tuple(zip(blocks, labels)))

    built = _grow(seeds(), lambda x: dowling_covers(x, s), guard)
    return adjoin_zero(built) if adjoin else built


# ---------------------------------------------------------------------------
# denominator sequences of the derived families


def denominator_M_r(n: int, r: int) -> int:
    """Minimal-element count M^(r)(n) of the r-divisible family over Pi."""
    if n == 0:
        return 1
    value = Fraction(
        math.factorial(r * n), math.factorial(n) * math.factorial(r) ** n
    )
    if value.denominator != 1:
        raise RuntimeError(f"M^({r})({n}) is not an integer: {value}")
    return int(value)


def denominator_N_rk(n: int, r: int, k: int, s: int) -> int:
    """Minimal-element count N^(r,k)(n) of the (r,k) family over Dowling(s)."""
    value = Fraction(
        math.factorial(r * n + k) * s ** ((r - 1) * n),
        math.factorial(k) * math.factorial(r) ** n * math.factorial(n),
    )
    if value.denominator != 1:
        raise RuntimeError(f"N^({r},{k})({n}) at s={s} is not an integer: {value}")
    return int(value)


# ---------------------------------------------------------------------------
# the extended-lattice / Dowling bijection


def extended_to_dowling(p: tuple, m: int, s: int = 1) -> DowlingElement:
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


def dowling_to_extended(x: DowlingElement, m: int) -> tuple:
    blocks = [b for b, _ in x.blocks]
    blocks.append(tuple(sorted(x.zero + (m,))))
    return canonical_partition(blocks)


def bijection_extended_to_dowling(m: int, r: int, k: int, guard: int = GUARD) -> list:
    """Element-level bijection Pi_m^{r,k+1} <-> D_n^{(r,k)} at s=1, as a list
    of (partition, dowling element) pairs; m = r*n + k + 1."""
    if (m - k - 1) % r != 0:
        raise ParameterError(f"need m = r*n + k + 1: got m={m}, r={r}, k={k}")
    built = build_extended(m, r, k + 1, guard=guard)
    return [(p, extended_to_dowling(p, m)) for p in built.elements]
