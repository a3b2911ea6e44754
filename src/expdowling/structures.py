"""Concrete posets: partition lattices, Dowling lattices and their derived
and restricted families.

Elements are kept in canonical form:

* a set partition is a tuple of blocks, each block a sorted tuple, blocks
  sorted by minimum;
* a Dowling element is a zero block plus enriched blocks; the group of order s
  enters only through residues mod s, and the representative of the scalar
  equivalence class is fixed by giving the minimum of each block the label 0.

Factorial growth is everywhere, so every builder takes an explicit guard and
fails fast instead of exhausting memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from .poset import Poset, PosetError, from_covers, _bits


class GuardError(ValueError):
    """A requested construction exceeds its size guard."""


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


def set_partitions(m: int, guard: int = 12) -> list:
    if not 1 <= m <= guard:
        raise GuardError(f"set partition enumeration limited to 1 <= m <= {guard}, got {m}")
    return sorted(set(partitions_of(tuple(range(1, m + 1)))))


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


@dataclass(frozen=True)
class DowlingElement:
    """An enriched partial partition (pi~, Z): zero block Z plus enriched
    blocks, each block a (elements, labels) pair with label(min) = 0."""

    zero: tuple
    blocks: tuple  # tuple of (elems tuple, labels tuple)

    def n_blocks(self) -> int:
        return len(self.blocks)

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
    merged in each of the s inequivalent ways."""
    out = set()
    blocks = x.blocks
    for i in range(len(blocks)):
        rest = blocks[:i] + blocks[i + 1 :]
        out.add(make_dowling(x.zero + blocks[i][0], rest, s))
    for i in range(len(blocks)):
        bi, fi = blocks[i]
        for j in range(i + 1, len(blocks)):
            bj, fj = blocks[j]
            rest = tuple(b for t, b in enumerate(blocks) if t not in (i, j))
            for alpha in range(s):
                merged = (bi + bj, fi + tuple((l + alpha) % s for l in fj))
                out.add(make_dowling(x.zero, rest + (merged,), s))
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
    guard: int = 50000,
) -> list:
    """All canonical Dowling elements of L_n(s) whose zero-block size passes
    zero_ok and whose block sizes all pass block_ok."""
    from itertools import combinations, product

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


def _grow_from_bottom(bottom, covers_fn) -> tuple:
    """BFS over cover moves; returns (elements, cover index pairs)."""
    index = {bottom: 0}
    elements = [bottom]
    edges = []
    frontier = [bottom]
    while frontier:
        nxt = []
        for x in frontier:
            xi = index[x]
            for y in covers_fn(x):
                yi = index.get(y)
                if yi is None:
                    yi = index[y] = len(elements)
                    elements.append(y)
                    nxt.append(y)
                edges.append((xi, yi))
        frontier = nxt
    return tuple(elements), edges


def build_partition_lattice(m: int, guard: int = 9) -> BuiltLattice:
    """The partition lattice Pi_m under refinement, bottom = all singletons."""
    if not 1 <= m <= guard:
        raise GuardError(f"partition lattice limited to m <= {guard}, got {m}")
    bottom = canonical_partition([(e,) for e in range(1, m + 1)])

    def covers(p):
        out = set()
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                merged = p[:i] + p[i + 1 : j] + p[j + 1 :] + (tuple(sorted(p[i] + p[j])),)
                out.add(canonical_partition(merged))
        return out

    elements, edges = _grow_from_bottom(bottom, covers)
    poset = from_covers(len(elements), edges)
    return BuiltLattice(poset=poset, elements=elements, index={e: i for i, e in enumerate(elements)})


def build_dowling_lattice(n: int, s: int, guard: int = 50000) -> BuiltLattice:
    """The Dowling lattice L_n of rank n for a group of order s."""
    if n < 0 or s < 1:
        raise ValueError("need n >= 0 and s >= 1")
    bottom = dowling_bottom(n)
    elements, edges = _grow_from_bottom(bottom, lambda x: dowling_covers(x, s))
    if len(elements) > guard:
        raise GuardError(f"Dowling lattice n={n}, s={s} has {len(elements)} elements > guard {guard}")
    poset = from_covers(len(elements), edges)
    return BuiltLattice(poset=poset, elements=elements, index={e: i for i, e in enumerate(elements)})


@lru_cache(maxsize=8)
def ambient_dowling(n: int, s: int, guard: int = 50000) -> BuiltLattice:
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


def build_r_divisible(m: int, r: int, guard: int = 9) -> BuiltLattice:
    """Pi_m^r: partitions with all block sizes divisible by r, 0-hat adjoined."""
    if m % r != 0:
        raise ValueError(f"r={r} must divide m={m}")
    if m > guard:
        raise GuardError(f"r-divisible lattice limited to m <= {guard}, got {m}")
    elements = [p for p in set_partitions(m) if all(len(b) % r == 0 for b in p)]
    built = induced_subposet(elements, partition_leq, lambda p: m - len(p))
    return adjoin_zero(built)


def build_extended(m: int, r: int, j: int, guard: int = 9) -> BuiltLattice:
    """Pi_m^{r,j}: the block containing m has size >= j, all other blocks have
    size divisible by r; 0-hat adjoined."""
    if (m - j) % r != 0 or m < j:
        raise ValueError(f"need m = r*n + j: got m={m}, r={r}, j={j}")
    if m > guard:
        raise GuardError(f"extended lattice limited to m <= {guard}, got {m}")

    def ok(p):
        for block in p:
            if m in block:
                if len(block) < j:
                    return False
            elif len(block) % r != 0:
                return False
        return True

    elements = [p for p in set_partitions(m) if ok(p)]
    built = induced_subposet(elements, partition_leq, lambda p: m - len(p))
    return adjoin_zero(built)


def build_Q_r(n: int, r: int, guard: int = 9) -> BuiltLattice:
    """Q^(r)_n: the subposet of Pi_{rn} of r-divisible partitions (no adjoined
    bottom)."""
    m = r * n
    if m > guard:
        raise GuardError(f"Q^(r) limited to rn <= {guard}, got {m}")
    elements = [p for p in set_partitions(m) if all(len(b) % r == 0 for b in p)]
    return induced_subposet(elements, partition_leq, lambda p: m - len(p))


def build_restricted_partition(n: int, I: frozenset, guard: int = 9) -> BuiltLattice:
    """Q_n^I for Q = Pi: partitions whose block sizes all lie in I, with a
    0-hat adjoined."""
    if n > guard:
        raise GuardError(f"restricted partition poset limited to n <= {guard}, got {n}")
    elements = [p for p in set_partitions(n) if all(len(b) in I for b in p)]
    built = induced_subposet(elements, partition_leq, lambda p: n - len(p))
    return adjoin_zero(built)


def build_restricted_dowling(
    n: int, s: int, I: frozenset, J: frozenset, guard: int = 5000
) -> BuiltLattice:
    """R_n^{I,J} for R = Dowling(s): zero-block size in J, block sizes in I,
    with a 0-hat adjoined."""
    elements = enumerate_dowling(
        n, s, zero_ok=lambda b: b in J, block_ok=lambda l: l in I, guard=guard
    )
    built = induced_subposet(elements, lambda x, y: dowling_leq(x, y, s), lambda x: dowling_rank(x, n))
    return adjoin_zero(built)


def build_D_rk(
    n: int, r: int, k: int, s: int, guard: int = 50000, adjoin: bool = False
) -> BuiltLattice:
    """D_n^{(r,k)}: the subposet of L_{rn+k} of elements with b >= k,
    b = k mod r and all block sizes divisible by r."""
    nn = r * n + k
    ambient = ambient_dowling(nn, s, guard=guard)

    def keep(x: DowlingElement) -> bool:
        b = len(x.zero)
        if b < k or (b - k) % r != 0:
            return False
        return all(len(elems) % r == 0 for elems, _ in x.blocks)

    built = induce_from_ambient(ambient, keep)
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


def bijection_extended_to_dowling(m: int, r: int, k: int, guard: int = 9) -> list:
    """Element-level bijection Pi_m^{r,k+1} <-> D_n^{(r,k)} at s=1, as a list
    of (partition, dowling element) pairs; m = r*n + k + 1."""
    if (m - k - 1) % r != 0:
        raise ValueError(f"need m = r*n + k + 1: got m={m}, r={r}, k={k}")
    built = build_extended(m, r, k + 1, guard=guard)
    return [(p, extended_to_dowling(p, m)) for p in built.elements]
