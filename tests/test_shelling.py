"""Edge labeling of the extended lattices: EL property, falling chains,
the explicit chain construction.

Oracle notes.
[PAPER] the worked falling chain for sigma = 562418379 is reproduced
elementwise.
[DERIVED] falling counts tie to descent counts and Euler numbers computed by
independent enumeration.
"""

import pytest

from expdowling.descents import des_count, euler_number
from expdowling.shelling import (
    LabeledLattice,
    a_tilde,
    atom_count_closed_form,
    el_verify,
    f_sigma,
    falling_chains,
    neg_label,
    permutations_with_descents,
    pos_label,
    rising_chain_census,
    zero_label,
)


def test_label_order():
    assert neg_label(3) < neg_label(1) < zero_label(1) < zero_label(5) < pos_label(1) < pos_label(4)


def test_a_tilde():
    assert a_tilde(((3, 1), (2, 4))) == (1, 3, 2, 4)


def test_atom_count_closed_form_matches_enumeration():
    for m, r, j in [(4, 2, 2), (5, 2, 3), (6, 2, 2), (7, 3, 4)]:
        L = LabeledLattice.build(m, r, j)
        assert len(L.atom_rank_of) == atom_count_closed_form(m, r, j)


def test_rising_unique_and_lex_first_small():
    L = LabeledLattice.build(4, 2, 2)
    P = L.built.poset
    for x in range(P.n):
        for y in range(P.n):
            if x != y and P.leq(x, y):
                count, lex_first = rising_chain_census(L, x, y)
                assert count == 1 and lex_first


def test_falling_counts_are_euler_numbers():
    # j = 2, r = 2: tangent numbers
    for m, expected_index in [(4, 3), (6, 5)]:
        L = LabeledLattice.build(m, 2, 2)
        assert len(falling_chains(L)) == euler_number(expected_index)


def test_falling_equals_explicit_chains():
    for m, r, j in [(4, 2, 2), (5, 2, 3), (6, 2, 2)]:
        L = LabeledLattice.build(m, r, j)
        explicit = {
            f_sigma(sigma, r, j, L)
            for sigma in permutations_with_descents(m, r, j)
        }
        assert {tuple(c) for c in falling_chains(L)} == explicit


def test_worked_falling_chain():
    # [PAPER] sigma = 562418379 in the m = 9, r = 2, j = 3 lattice
    m, r, j = 9, 2, 3
    L = LabeledLattice.build(m, r, j)
    sigma = (5, 6, 2, 4, 1, 8, 3, 7, 9)
    chain = f_sigma(sigma, r, j, L)
    expected_parts = [
        ((1, 8), (2, 4), (3, 7, 9), (5, 6)),
        ((1, 2, 4, 8), (3, 7, 9), (5, 6)),
        ((1, 2, 4, 5, 6, 8), (3, 7, 9)),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9),),
    ]
    assert chain[0] == L.built.bottom
    assert [L.built.elements[i] for i in chain[1:]] == expected_parts
    # and it really falls
    pairs = L.chain_pairs(chain)
    assert all(p > q for p, q in zip(pairs, pairs[1:]))


def test_f_sigma_rejects_wrong_descents():
    L = LabeledLattice.build(4, 2, 2)
    with pytest.raises(ValueError):
        f_sigma((1, 2, 3, 4), 2, 2, L)


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
