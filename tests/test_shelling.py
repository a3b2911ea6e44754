"""Edge labeling of the extended lattices: EL property, falling chains,
the explicit chain construction.

Oracle notes.
[PAPER] the worked falling chain for sigma = 562418379 is reproduced
elementwise.
[DERIVED] falling counts tie to descent counts and Euler numbers computed by
independent enumeration.
[ORACLE] the one-pass census, the pruned falling walk and the generated
permutations are compared with the listing enumerators they replace
(`rising_chain_census`, `falling_chains`, `permutations_with_descents`),
also under deliberately broken labelings.
"""

import json
import math

import pytest

from expdowling.descents import des_count, euler_number
from expdowling.shelling import (
    _along,
    a_tilde,
    descent_class_size,
    el_verify,
    f_sigma,
    falling_chains,
    falling_walk,
    neg_label,
    permutations_with_descents,
    pos_label,
    qualifying_permutations,
    rising_census_from,
    rising_chain_census,
    wachs_pairs,
    zero_label,
)
from expdowling.structures import build_extended


def labelled(m, r, j):
    """Pi_m^{r,j} and its Wachs pair array."""
    built = build_extended(m, r, j)
    return built, wachs_pairs(built, m, r, j)


def test_label_order():
    assert neg_label(3) < neg_label(1) < zero_label(1) < zero_label(5) < pos_label(1) < pos_label(4)


def test_a_tilde():
    assert a_tilde(((3, 1), (2, 4))) == (1, 3, 2, 4)


def test_atom_count_closed_form_matches_enumeration():
    # the atoms of Pi_m^{r,j}, m = rn + j: (m - 1)! / (n! r!^n (j - 1)!)
    for m, r, j in [(4, 2, 2), (5, 2, 3), (6, 2, 2), (7, 3, 4)]:
        built, pairs = labelled(m, r, j)
        n = (m - j) // r
        expected = math.factorial(m - 1) // (
            math.factorial(n) * math.factorial(r) ** n * math.factorial(j - 1)
        )
        assert len(pairs[built.bottom]) == expected


def test_rising_unique_and_lex_first_small():
    built, pairs = labelled(4, 2, 2)
    P = built.poset
    for x in range(P.n):
        for y in range(P.n):
            if x != y and P.leq(x, y):
                count, lex_first = rising_chain_census(P, pairs, x, y)
                assert count == 1 and lex_first


def test_falling_counts_are_euler_numbers():
    # j = 2, r = 2: tangent numbers
    for m, expected_index in [(4, 3), (6, 5)]:
        built, pairs = labelled(m, 2, 2)
        assert len(falling_chains(built.poset, pairs, built.bottom)) == euler_number(expected_index)


def test_falling_equals_explicit_chains():
    for m, r, j in [(4, 2, 2), (5, 2, 3), (6, 2, 2)]:
        built, pairs = labelled(m, r, j)
        explicit = {
            f_sigma(sigma, r, j, built)
            for sigma in permutations_with_descents(m, r, j)
        }
        assert {tuple(c) for c in falling_chains(built.poset, pairs, built.bottom)} == explicit


def test_worked_falling_chain():
    # [PAPER] sigma = 562418379 in the m = 9, r = 2, j = 3 lattice
    m, r, j = 9, 2, 3
    built, pairs = labelled(m, r, j)
    sigma = (5, 6, 2, 4, 1, 8, 3, 7, 9)
    chain = f_sigma(sigma, r, j, built)
    expected_parts = [
        ((1, 8), (2, 4), (3, 7, 9), (5, 6)),
        ((1, 2, 4, 8), (3, 7, 9), (5, 6)),
        ((1, 2, 4, 5, 6, 8), (3, 7, 9)),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9),),
    ]
    assert chain[0] == built.bottom
    assert [built.elements[i] for i in chain[1:]] == expected_parts
    # and it really falls
    seq = _along(built.poset, pairs, chain)
    assert all(p > q for p, q in zip(seq, seq[1:]))


def test_f_sigma_rejects_wrong_descents():
    with pytest.raises(ValueError):
        f_sigma((1, 2, 3, 4), 2, 2, build_extended(4, 2, 2))


def test_el_verify_rejects_j_zero():
    with pytest.raises(ValueError, match="j >= 1"):
        el_verify(4, 2, 0)


@pytest.mark.parametrize("m,r,j", [(3, 2, 1), (4, 2, 2), (5, 2, 3)])
def test_el_verify(m, r, j):
    result = el_verify(m, r, j)
    assert result["passed"], result
    n = (m - j) // r
    if j >= 2:
        word = ("a" * (r - 1) + "b") * n + "a" * (j - 2)
        assert result["falling_count"] == des_count(word)
    else:
        assert result["falling_count"] == 0
    assert abs(result["mu"]) == result["falling_count"]


def test_el_verify_n_zero():
    # m = j = 1: the descent set {r, ..., nr} is empty and only (1,) qualifies
    for r in (1, 3):
        result = el_verify(1, r, 1)
        assert result["des_expected"] == result["falling_count"] == 1
        assert result["mu"] == -1 and result["passed"], result


def lattice_params(mmax):
    """Every (m, r, j) with m <= mmax, r <= 3 and j >= 1 that has a lattice."""
    return [
        (m, r, j)
        for m in range(1, mmax + 1)
        for r in (1, 2, 3)
        for j in range(1, m + 1)
        if (m - j) % r == 0
    ]


# The chain-listing oracle relabels every chain of every interval; in these
# r = 1 lattices (Pi_7 and Pi_8 with little restriction) that runs to
# millions of chains, so the differential tests leave them out.
LISTING_TOO_LARGE = {(7, 1, 1), (8, 1, 1), (8, 1, 2), (8, 1, 3)}
CENSUS_CASES = [p for p in lattice_params(8) if p not in LISTING_TOO_LARGE]
FALLING_CASES = CENSUS_CASES + [p for p in lattice_params(9) if p[0] == 9 and p[1] >= 2]


def written_out_label(built, x, y):
    """Wachs' label of the cover x <| y, read from the partitions: the atom
    y gets 0_i for the i-th atom in a_tilde order; otherwise y joins two
    blocks B < B' (by maxima) of x into one, labelled -max B when
    max B > min B', else +max B'."""
    P = built.poset
    if x == built.bottom:
        atoms = sorted(a_tilde(built.elements[a]) for a in P.covers_up[x])
        return zero_label(atoms.index(a_tilde(built.elements[y])) + 1)
    (joined,) = set(built.elements[y]) - set(built.elements[x])
    low, high = sorted((b for b in built.elements[x] if set(b) <= set(joined)), key=max)
    return neg_label(max(low)) if max(low) > min(high) else pos_label(max(high))


@pytest.mark.parametrize("m,r,j", [p for p in CENSUS_CASES if p[0] <= 6])
def test_wachs_pairs_match_written_out_labels(m, r, j):
    built, pairs = labelled(m, r, j)
    P = built.poset
    assert len(pairs) == P.n
    for x, ups in enumerate(P.covers_up):
        assert pairs[x] == tuple((written_out_label(built, x, y), -P.rank[x]) for y in ups)


def test_wachs_pairs_rejects_a_wrong_atom_count():
    with pytest.raises(RuntimeError, match="atom count"):
        wachs_pairs(build_extended(5, 2, 3), 5, 2, 1)


def old_census(P, pairs):
    """y -> rising_chain_census(P, pairs, x, y) for every x < y, by listing
    chains."""
    return {
        x: {y: rising_chain_census(P, pairs, x, y) for y in range(P.n) if y != x and P.leq(x, y)}
        for x in range(P.n)
    }


@pytest.mark.parametrize("m,r,j", CENSUS_CASES)
def test_census_matches_chain_listing(m, r, j):
    built, pairs = labelled(m, r, j)
    P = built.poset
    assert {x: rising_census_from(P, pairs, x) for x in range(P.n)} == old_census(P, pairs)


@pytest.mark.parametrize("m,r,j", FALLING_CASES)
def test_falling_walk_matches_chain_listing(m, r, j):
    built, pairs = labelled(m, r, j)
    P = built.poset
    assert falling_walk(P, pairs, built.bottom) == falling_chains(P, pairs, built.bottom)


@pytest.mark.parametrize("m,r,j", lattice_params(9))
def test_generated_permutations_match_scan(m, r, j):
    scanned = permutations_with_descents(m, r, j)
    assert qualifying_permutations(m, r, j) == scanned
    assert descent_class_size(m, r, j) == len(scanned)


# the kind of label whose values a mutation negates, reversing its order
MUTATIONS = {
    # 0-labels in the reverse order of the atoms
    "zero_label": zero_label(1)[0],
    # negative labels ordered by value instead of against it
    "neg_label": neg_label(1)[0],
}


def mutated(pairs, kind):
    """The pair array with the values of the labels of one kind negated."""
    return tuple(
        tuple(((k, -v) if k == kind else (k, v), rank) for (k, v), rank in row)
        for row in pairs
    )


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_labeling_agrees_with_chain_listing(name):
    broken = 0
    for m, r, j in [(4, 2, 2), (5, 2, 1), (5, 2, 3), (6, 2, 2), (7, 2, 3), (7, 3, 4), (8, 2, 2)]:
        built, pairs = labelled(m, r, j)
        P, pairs = built.poset, mutated(pairs, MUTATIONS[name])
        found = sum(
            1 for x in range(P.n)
            for count, lex_first in rising_census_from(P, pairs, x).values()
            if count != 1 or not lex_first
        )
        violations = sum(
            1 for row in old_census(P, pairs).values()
            for count, lex_first in row.values() if count != 1 or not lex_first
        )
        assert found == violations, (m, r, j)
        assert falling_walk(P, pairs, built.bottom) == falling_chains(P, pairs, built.bottom), (m, r, j)
        broken += violations > 0
    assert broken > 0, "the mutation never showed"


def test_el_check_reach_m10(capsys):
    from expdowling.cli import EXIT_OK, main
    from expdowling.structures import build_extended

    code = main(["el-check", "--m", "10", "--r", "2", "--j", "2"])
    result = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and result["passed"], result
    assert result["falling_count"] == abs(result["mu"]) == euler_number(9) == 7936
    P = build_extended(10, 2, 2).poset
    assert result["intervals_checked"] == sum(row.bit_count() for row in P.up_rows) - P.n
