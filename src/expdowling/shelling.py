"""Edge labeling of the extended r-divisible partition lattice, EL-property
verification, and falling-chain machinery.

Labels come in three kinds, ordered
    -m < ... < -1 < 0_1 < ... < 0_M < 1 < ... < m,
encoded as (category, value) tuples so tuple comparison realizes the order.
Edges are compared by the pair (label, -rank of the lower endpoint); along a
saturated chain ranks strictly increase, so ties in the label alone always
break downward.

`el_verify` labels every cover edge once (`LabeledLattice.pairs`, parallel to
`covers_up`) and then makes one forward pass per element x, a rank level at
a time over the covers above x (`rising_census_from`).  For every z it
reaches, the pass carries the number of rising chains of [x, z], keyed by
their last pair, and the lex-least pair sequence of [x, z] with a flag
saying whether it rises, by

    seq(x, y) = min over z <| y of seq(x, z) + (p(z, y),).

The lattice is graded, so all chains of [x, z] have one length and the least
extension through z is the extension of the least sequence of [x, z].

An interval passes iff it has exactly one rising chain and its lex-least
sequence rises.  This is the test made by listing every chain (exactly one
rising chain, whose pair sequence is the least of all): if the least
sequence rises, a rising chain carries it, and with a count of one that is
the rising chain; conversely, when the unique rising chain carries the
least sequence, the least sequence rises.  The falling chains come from a
walk up from 0-hat that stops at the first pair that fails to fall, and
the permutations with descent set {r, ..., nr} are generated run by run.
`rising_chain_census`, `falling_chains` and `permutations_with_descents`
list chains and permutations outright; they stay as the oracles of the
tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import descents
from .poset import maximal_chains, mobius_table
from .structures import (
    GUARD,
    BuiltLattice,
    ParameterError,
    build_extended,
    denominator_N_rk,
)


def a_tilde(p: tuple) -> tuple:
    """Permutation read off an atom: blocks by increasing minimum, elements of
    each block increasing."""
    out = []
    for block in sorted(p, key=min):
        out.extend(sorted(block))
    return tuple(out)


def neg_label(i: int):
    return (0, -i)


def zero_label(i: int):
    return (1, i)


def pos_label(i: int):
    return (2, i)


@dataclass
class LabeledLattice:
    """An extended lattice together with its edge labeling."""

    m: int
    r: int
    j: int
    built: BuiltLattice
    atom_rank_of: dict = field(default_factory=dict)  # atom poset index -> 1-based i
    # pairs[x][i] = (label, -rank x) of the cover x <| covers_up[x][i]
    pairs: tuple = ()

    @classmethod
    def build(cls, m: int, r: int, j: int, guard: int = GUARD) -> "LabeledLattice":
        if j < 1:
            raise ParameterError(f"the edge labeling needs j >= 1, got {j}")
        built = build_extended(m, r, j, guard=guard)
        atoms = built.poset.covers_up[built.bottom]
        ordered = sorted(atoms, key=lambda a: a_tilde(built.elements[a]))
        expected = denominator_N_rk((m - j) // r, r, j - 1, 1)
        if len(ordered) != expected:
            raise RuntimeError(
                f"atom count {len(ordered)} differs from the type count {expected}"
            )
        L = cls(
            m=m,
            r=r,
            j=j,
            built=built,
            atom_rank_of={a: i for i, a in enumerate(ordered, start=1)},
        )
        L.pairs = L._label_covers()
        return L

    def _label_covers(self) -> tuple:
        """The (label, -rank) pair of every cover, parallel to `covers_up`;
        equal pairs are one shared tuple."""
        P = self.built.poset
        shared = {}
        return tuple(
            tuple(
                shared.setdefault(pair, pair)
                for pair in ((self._edge_label(x, y), -P.rank[x]) for y in ups)
            )
            for x, ups in enumerate(P.covers_up)
        )

    def pair(self, x: int, y: int) -> tuple:
        """(label, -rank x) of a cover edge x <| y."""
        ups = self.built.poset.covers_up[x]
        if y not in ups:
            raise ValueError(f"{x} is not covered by {y}")
        return self.pairs[x][ups.index(y)]

    def label(self, x: int, y: int):
        """Label of a cover edge x <| y."""
        return self.pair(x, y)[0]

    def _edge_label(self, x: int, y: int):
        """Label of a cover edge x <| y, from the two partitions."""
        if x == self.built.bottom:
            return zero_label(self.atom_rank_of[y])
        xp = set(self.built.elements[x])
        yp = set(self.built.elements[y])
        merged = sorted(xp - yp, key=max)
        if len(merged) != 2:
            raise RuntimeError(f"cover {x} <| {y} merges {len(merged)} blocks, not 2")
        b1, b2 = merged
        if max(b1) > min(b2):
            return neg_label(max(b1))
        return pos_label(max(b2))

    def chain_pairs(self, chain) -> list:
        """(label, -rank) pairs along a saturated chain."""
        return [self.pair(a, b) for a, b in zip(chain, chain[1:])]


def rising_chain_census(L: LabeledLattice, x: int, y: int):
    """(number of rising maximal chains of [x, y], lex-first flag).

    Rising means strictly increasing (label, -rank) pairs; the flag reports
    whether the unique rising chain (when there is exactly one) is
    lexicographically least among all maximal chains of the interval."""
    chains = maximal_chains(L.built.poset, x, y)
    labelled = [(L.chain_pairs(c), c) for c in chains]
    rising = [
        c for pairs, c in labelled
        if all(p < q for p, q in zip(pairs, pairs[1:]))
    ]
    lex_first = False
    if len(rising) == 1:
        best = min(pairs for pairs, _ in labelled)
        lex_first = L.chain_pairs(rising[0]) == best
    return len(rising), lex_first


def falling_chains(L: LabeledLattice) -> list:
    """Maximal bottom-to-top chains whose pair sequence has no ascent."""
    P = L.built.poset
    out = []
    for c in maximal_chains(P, L.built.bottom, P.top):
        pairs = L.chain_pairs(c)
        if all(p > q for p, q in zip(pairs, pairs[1:])):
            out.append(c)
    return out


def permutations_with_descents(m: int, r: int, j: int) -> list:
    """Permutations of 1..m with descent set exactly {r, 2r, ..., nr} fixing m."""
    n = (m - j) // r
    target = frozenset(r * t for t in range(1, n + 1))
    out = []
    for head in itertools.permutations(range(1, m)):
        sigma = head + (m,)
        if descents.descent_set(sigma) == target:
            out.append(sigma)
    return out


def f_sigma(sigma: tuple, r: int, j: int, L: LabeledLattice) -> tuple:
    """The explicit falling chain attached to a permutation with descent set
    {r, ..., nr} fixing m: split the word at the descent positions in
    decreasing order of their values."""
    m = len(sigma)
    n = (m - j) // r
    target = frozenset(r * t for t in range(1, n + 1))
    if sigma[-1] != m or descents.descent_set(sigma) != target:
        raise ValueError(f"{sigma} does not qualify (r={r}, j={j})")
    # positions r*t sorted so their sigma-values decrease
    split_order = sorted(range(1, n + 1), key=lambda t: -sigma[r * t - 1])
    chain = [L.built.bottom]
    levels = []
    for blocks_wanted in range(n + 1, 0, -1):
        cuts = sorted(r * t for t in split_order[: blocks_wanted - 1])
        bounds = [0] + cuts + [m]
        part = tuple(
            sorted(tuple(sorted(sigma[a:b])) for a, b in zip(bounds, bounds[1:]))
        )
        levels.append(part)
    for part in levels:
        chain.append(L.built.index[part])
    return tuple(chain)


def rising_census_from(L: LabeledLattice, x: int) -> dict:
    """y -> (number of rising maximal chains of [x, y], lex-first flag) for
    every y > x, as `rising_chain_census` reports them, from one forward pass
    over the covers above x, a rank level at a time (see the module
    docstring)."""
    ups, pairs = L.built.poset.covers_up, L.pairs
    counts = {}  # z -> {last pair: rising chains of [x, z] ending with it}
    least = {}   # z -> (lex-least pair sequence of [x, z], whether it rises)
    level = []
    for w, p in zip(ups[x], pairs[x]):
        counts[w] = {p: 1}
        least[w] = ((p,), True)
        level.append(w)
    while level:
        following = []
        for z in level:
            below = counts[z]
            seq, rises = least[z]
            last = seq[-1]
            for w, p in zip(ups[z], pairs[z]):
                extended = seq + (p,)
                if w not in least:
                    following.append(w)
                    counts[w] = {}
                    least[w] = (extended, rises and last < p)
                elif extended < least[w][0]:
                    least[w] = (extended, rises and last < p)
                rising = sum(c for q, c in below.items() if q < p)
                if rising:
                    above = counts[w]
                    above[p] = above.get(p, 0) + rising
        level = following
    out = {}
    for y, (_, rises) in least.items():
        count = sum(counts[y].values())
        out[y] = (count, count == 1 and rises)
    return out


def falling_walk(L: LabeledLattice) -> list:
    """The chains of `falling_chains`, in the same order, by a walk up from
    0-hat that leaves a branch at the first pair that fails to fall."""
    P = L.built.poset
    ups, pairs, top = P.covers_up, L.pairs, P.top
    out = []
    stack = [L.built.bottom]

    def walk(z, last):
        if z == top:
            out.append(tuple(stack))
            return
        for w, p in zip(ups[z], pairs[z]):
            if last is None or p < last:
                stack.append(w)
                walk(w, p)
                stack.pop()

    walk(L.built.bottom, None)
    return out


def qualifying_permutations(m: int, r: int, j: int) -> list:
    """The permutations of `permutations_with_descents`, in the same
    (lexicographic) order, generated directly: n increasing runs of length r
    and then an increasing run of length j - 1 followed by m, the runs taken
    from [m - 1] in lexicographic order, with a descent at every boundary.
    For j = 1 and n >= 1 the last boundary would need a value above m, so
    nothing qualifies."""
    n = (m - j) // r
    out = []

    def extend(prefix, rest, t):
        for run in itertools.combinations(rest, r if t < n else len(rest)):
            if t == n:
                run += (m,)
            if prefix and prefix[-1] < run[0]:
                break  # later runs start no lower: no descent at the boundary
            if t == n:
                out.append(prefix + run)
            else:
                extend(prefix + run, [v for v in rest if v not in run], t + 1)

    extend((), range(1, m), 0)
    return out


def descent_class_size(m: int, r: int, j: int) -> int:
    """Number of permutations of 1..m with descent set {r, ..., nr} that end
    in m.  Deleting m leaves a permutation of 1..m-1 with the same descent
    set, counted by Des of its descent word when j >= 2.  For j = 1 the
    descent at nr = m - 1 would need a value above m, so none qualifies,
    unless n = 0: then m = 1, the set is empty and the identity qualifies."""
    n = (m - j) // r
    if j >= 2:
        return descents.des_count(descents.eulerian_product_word(r, n, "a" * (j - 2)))
    return 1 if n == 0 else 0


def el_verify(m: int, r: int, j: int, guard: int = GUARD) -> dict:
    """Full EL suite for one lattice: every interval has exactly one rising
    chain and it is lex-first; the falling chains are exactly the explicit
    ones; counts line up with descents and with |mu|."""
    L = LabeledLattice.build(m, r, j, guard=guard)
    P = L.built.poset
    intervals = 0
    violations = 0
    for x in range(P.n):
        census = rising_census_from(L, x)
        intervals += len(census)
        violations += sum(1 for _, lex_first in census.values() if not lex_first)
    falling = set(falling_walk(L))
    explicit = {f_sigma(sigma, r, j, L) for sigma in qualifying_permutations(m, r, j)}
    expected = descent_class_size(m, r, j)
    mu = mobius_table(P, L.built.bottom)[P.top]
    return {
        "m": m,
        "r": r,
        "j": j,
        "intervals_checked": intervals,
        "rising_violations": violations,
        "falling_count": len(falling),
        "des_expected": expected,
        "f_sigma_match": falling == explicit,
        "mu": mu,
        "passed": (
            violations == 0
            and falling == explicit
            and len(falling) == expected
            and abs(mu) == len(falling)
        ),
    }
