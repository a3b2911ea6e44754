"""EL-property verification of the extended r-divisible partition lattice,
in three pieces:

- the lattice: Pi_m^{r,j} from `structures.build_extended`;
- Wachs' pair array: `wachs_pairs` labels every cover edge once, into a
  tuple parallel to `covers_up`;
- the checks: `rising_census_from` and `falling_walk` read nothing but the
  covers, a pair array and the bottom and top indices, so they check any
  labeling handed to them.

Wachs' labels come in three kinds, ordered
    -m < ... < -1 < 0_1 < ... < 0_M < 1 < ... < m,
encoded as (category, value) tuples so tuple comparison realizes the order.
Edges are compared by the pair (label, -rank of the lower endpoint); along a
saturated chain ranks strictly increase, so ties in the label alone always
break downward.

`el_verify` builds the lattice, labels it and then makes one forward pass
per element x, a rank level at a time over the covers above x
(`rising_census_from`).  For every z it reaches, the pass carries the
number of rising chains of [x, z], keyed by their last pair, and the
lex-least pair sequence of [x, z] with a flag saying whether it rises, by

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

from . import descents
from .poset import Poset, maximal_chains, mobius_table
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


def wachs_pairs(built: BuiltLattice, m: int, r: int, j: int) -> tuple:
    """Wachs' labeling of the built Pi_m^{r,j}: the (label, -rank x) pair of
    every cover x <| y, in a tuple parallel to `covers_up`; equal pairs are
    one shared tuple.  The atom a gets 0_i, i its place among the atoms
    ordered by `a_tilde`.  Any other cover merges two blocks b1, b2 of x,
    max b1 < max b2, and gets -max b1 when max b1 > min b2, else +max b2."""
    P, elements, bottom = built.poset, built.elements, built.bottom
    ordered = sorted(P.covers_up[bottom], key=lambda a: a_tilde(elements[a]))
    expected = denominator_N_rk((m - j) // r, r, j - 1, 1)
    if len(ordered) != expected:
        raise RuntimeError(
            f"atom count {len(ordered)} differs from the type count {expected}"
        )
    atom_rank = {a: i for i, a in enumerate(ordered, start=1)}

    def label(x, y):
        if x == bottom:
            return zero_label(atom_rank[y])
        merged = sorted(set(elements[x]) - set(elements[y]), key=max)
        if len(merged) != 2:
            raise RuntimeError(f"cover {x} <| {y} merges {len(merged)} blocks, not 2")
        b1, b2 = merged
        if max(b1) > min(b2):
            return neg_label(max(b1))
        return pos_label(max(b2))

    shared = {}
    return tuple(
        tuple(
            shared.setdefault(pair, pair)
            for pair in ((label(x, y), -P.rank[x]) for y in ups)
        )
        for x, ups in enumerate(P.covers_up)
    )


def _along(P: Poset, pairs: tuple, chain) -> list:
    """The pairs along a saturated chain."""
    return [pairs[a][P.covers_up[a].index(b)] for a, b in zip(chain, chain[1:])]


def rising_chain_census(P: Poset, pairs: tuple, x: int, y: int):
    """(number of rising maximal chains of [x, y], lex-first flag).

    Rising means strictly increasing pairs; the flag reports whether the
    unique rising chain (when there is exactly one) is lexicographically
    least among all maximal chains of the interval."""
    labelled = [_along(P, pairs, c) for c in maximal_chains(P, x, y)]
    rising = [seq for seq in labelled if all(p < q for p, q in zip(seq, seq[1:]))]
    lex_first = len(rising) == 1 and rising[0] == min(labelled)
    return len(rising), lex_first


def falling_chains(P: Poset, pairs: tuple, bottom: int) -> list:
    """Maximal bottom-to-top chains whose pair sequence has no ascent."""
    out = []
    for c in maximal_chains(P, bottom, P.top):
        seq = _along(P, pairs, c)
        if all(p > q for p, q in zip(seq, seq[1:])):
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


def f_sigma(sigma: tuple, r: int, j: int, built: BuiltLattice) -> tuple:
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
    chain = [built.bottom]
    levels = []
    for blocks_wanted in range(n + 1, 0, -1):
        cuts = sorted(r * t for t in split_order[: blocks_wanted - 1])
        bounds = [0] + cuts + [m]
        part = tuple(
            sorted(tuple(sorted(sigma[a:b])) for a, b in zip(bounds, bounds[1:]))
        )
        levels.append(part)
    for part in levels:
        chain.append(built.index[part])
    return tuple(chain)


def rising_census_from(P: Poset, pairs: tuple, x: int) -> dict:
    """y -> (number of rising maximal chains of [x, y], lex-first flag) for
    every y > x, as `rising_chain_census` reports them, from one forward pass
    over the covers above x, a rank level at a time (see the module
    docstring)."""
    ups = P.covers_up
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


def falling_walk(P: Poset, pairs: tuple, bottom: int) -> list:
    """The chains of `falling_chains`, in the same order, by a walk up from
    0-hat that leaves a branch at the first pair that fails to fall."""
    ups, top = P.covers_up, P.top
    out = []
    stack = [bottom]

    def walk(z, last):
        if z == top:
            out.append(tuple(stack))
            return
        for w, p in zip(ups[z], pairs[z]):
            if last is None or p < last:
                stack.append(w)
                walk(w, p)
                stack.pop()

    walk(bottom, None)
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


def el_verify(m: int, r: int, j: int, guard: int = GUARD, built: BuiltLattice | None = None) -> dict:
    """Full EL suite for one lattice: every interval has exactly one rising
    chain and it is lex-first; the falling chains are exactly the explicit
    ones; counts line up with descents and with |mu|.  The lattice is
    `built`, Pi_m^{r,j} as a caller built it, or else built here."""
    if j < 1:
        raise ParameterError(f"the edge labeling needs j >= 1, got {j}")
    if built is None:
        built = build_extended(m, r, j, guard=guard)
    pairs = wachs_pairs(built, m, r, j)
    P, bottom = built.poset, built.bottom
    intervals = 0
    violations = 0
    for x in range(P.n):
        census = rising_census_from(P, pairs, x)
        intervals += len(census)
        violations += sum(1 for _, lex_first in census.values() if not lex_first)
    falling = set(falling_walk(P, pairs, bottom))
    explicit = {f_sigma(sigma, r, j, built) for sigma in qualifying_permutations(m, r, j)}
    expected = descent_class_size(m, r, j)
    mu = mobius_table(P, bottom)[P.top]
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
