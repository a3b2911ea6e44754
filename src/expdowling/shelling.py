"""Edge labeling of the extended r-divisible partition lattice, EL-property
verification, and falling-chain machinery.

Labels come in three kinds, ordered
    -m < ... < -1 < 0_1 < ... < 0_M < 1 < ... < m,
encoded as (category, value) tuples so tuple comparison realizes the order.
Edges are compared by the pair (label, -rank of the lower endpoint); along a
saturated chain ranks strictly increase, so ties in the label alone always
break downward.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import descents
from .poset import maximal_chains, mobius_table
from .structures import GUARD, BuiltLattice, build_extended


def atom_count_closed_form(m: int, r: int, j: int) -> int:
    n = (m - j) // r
    return math.factorial(m - 1) // (
        math.factorial(n) * math.factorial(r) ** n * math.factorial(j - 1)
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

    @classmethod
    def build(cls, m: int, r: int, j: int, guard: int = GUARD) -> "LabeledLattice":
        if j < 1:
            raise ValueError(f"the edge labeling needs j >= 1, got {j}")
        built = build_extended(m, r, j, guard=guard)
        atoms = built.poset.covers_up[built.bottom]
        ordered = sorted(atoms, key=lambda a: a_tilde(built.elements[a]))
        expected = atom_count_closed_form(m, r, j)
        if len(ordered) != expected:
            raise RuntimeError(
                f"atom count {len(ordered)} differs from closed form {expected}"
            )
        return cls(
            m=m,
            r=r,
            j=j,
            built=built,
            atom_rank_of={a: i for i, a in enumerate(ordered, start=1)},
        )

    def label(self, x: int, y: int):
        """Label of a cover edge x <| y."""
        P = self.built.poset
        if x not in P.covers_down[y]:
            raise ValueError(f"{x} is not covered by {y}")
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
        rank = self.built.poset.rank
        return [
            (self.label(a, b), -rank[a]) for a, b in zip(chain, chain[1:])
        ]


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


def el_verify(m: int, r: int, j: int, guard: int = GUARD) -> dict:
    """Full EL suite for one lattice: every interval has exactly one rising
    chain and it is lex-first; the falling chains are exactly the explicit
    ones; counts line up with descents and with |mu|."""
    L = LabeledLattice.build(m, r, j, guard=guard)
    P = L.built.poset
    intervals = 0
    violations = 0
    for x in range(P.n):
        row = P.up_rows[x]
        for y in range(P.n):
            if y != x and row >> y & 1:
                intervals += 1
                count, lex_first = rising_chain_census(L, x, y)
                if count != 1 or not lex_first:
                    violations += 1
    falling = {tuple(c) for c in falling_chains(L)}
    qualifying = permutations_with_descents(m, r, j)
    explicit = {f_sigma(sigma, r, j, L) for sigma in qualifying}
    n = (m - j) // r
    if j >= 2:
        expected = descents.des_count(
            descents.eulerian_product_word(r, n, "a" * (j - 2))
        )
    else:
        expected = 0
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
