"""Descent statistics, Gaussian coefficients, Euler numbers.

Oracle notes.
[DERIVED] des_q cross-checked against direct S_n enumeration; Gaussian
coefficients against the q-factorial quotient at sampled rationals; Euler
numbers against alternating-permutation listing.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdowling.descents import (
    QPoly,
    alternating_permutations,
    des_count,
    des_q,
    des_q_enumerate,
    descent_set,
    descent_word,
    euler_number,
    eulerian_identity_check,
    eulerian_product_word,
    gaussian,
    inversions,
    multiplication_check,
    q_factorial,
    q_int,
)
from expdowling.series import TruncatedSeries, pow_rational

words = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.sampled_from("ab"), min_size=n, max_size=n).map("".join)
)


def test_descent_word_basic():
    assert descent_word((1, 2, 3)) == "aa"
    assert descent_word((3, 2, 1)) == "bb"
    assert descent_word((2, 3, 1)) == "ab"
    assert descent_set((2, 3, 1)) == frozenset({2})
    assert inversions((3, 1, 2)) == 2


def test_descent_word_rejects_non_permutation():
    with pytest.raises(ValueError):
        descent_word((1, 1, 2))


@given(words)
@settings(max_examples=80, deadline=None)
def test_des_q_matches_enumeration(u):
    assert des_q(u) == des_q_enumerate(u)


@given(words)
@settings(max_examples=80, deadline=None)
def test_des_q_at_one_is_count(u):
    assert des_q(u)(1) == des_count(u)


def test_des_totals_are_factorials():
    for n in range(1, 7):
        total = sum(
            des_count("".join(w))
            for w in itertools.product("ab", repeat=n - 1)
        )
        assert total == math.factorial(n)


def test_gaussian_vs_q_factorial_quotient():
    for q in (Fraction(2), Fraction(1, 3)):
        for n in range(8):
            for k in range(n + 1):
                expected = q_factorial(n, q) / (q_factorial(k, q) * q_factorial(n - k, q))
                assert gaussian(n, k)(q) == expected


def test_gaussian_at_one_is_binomial():
    for n in range(9):
        for k in range(n + 1):
            assert gaussian(n, k)(1) == math.comb(n, k)


def test_qpoly_arithmetic():
    p = QPoly([1, 2])
    q = QPoly([0, 1])
    assert (p * q).coeffs == (0, 1, 2)
    assert (p + q).coeffs == (1, 3)
    assert (p - p) == 0
    assert p.shift(2).coeffs == (0, 0, 1, 2)
    assert repr(QPoly([0, 1, 2, 1, 1])) == "q + 2*q^2 + q^3 + q^4"


def test_macmahon_exhaustive_small():
    for total in range(2, 7):
        for n in range(1, total):
            m = total - n
            for u in itertools.product("ab", repeat=n - 1):
                for v in itertools.product("ab", repeat=m - 1):
                    assert multiplication_check("".join(u), "".join(v))


def test_euler_numbers_vs_enumeration():
    for i in range(1, 8):
        assert euler_number(i) == len(alternating_permutations(i))
    assert euler_number(1) == 1
    assert euler_number(3) == 2
    assert euler_number(5) == 16
    assert euler_number(7) == 272


def test_euler_numbers_are_sec_plus_tan_coefficients():
    # [DERIVED] E_i = i! [x^i] (1 + sin x)/cos x, exact to order 40, which is
    # past any size cap
    T = 40
    sin = TruncatedSeries([0 if i % 2 == 0 else Fraction((-1) ** (i // 2), math.factorial(i)) for i in range(T + 1)])
    cos = TruncatedSeries([0 if i % 2 else Fraction((-1) ** (i // 2), math.factorial(i)) for i in range(T + 1)])
    f = (1 + sin) * pow_rational(cos, -1)
    assert [euler_number(i) for i in range(T + 1)] == [f[i] * math.factorial(i) for i in range(T + 1)]
    with pytest.raises(ValueError):
        euler_number(-1)


def test_eulerian_product_word():
    assert eulerian_product_word(2, 3, "a") == "abababa"
    assert eulerian_product_word(1, 2, "") == "bb"


@pytest.mark.parametrize("r,w", [(2, "a"), (2, "aa"), (3, "aa")])
@pytest.mark.parametrize("q", [1, 2, Fraction(1, 2)])
def test_alternating_eulerian_identity(r, w, q):
    assert eulerian_identity_check(r, w, q, 9)


def test_eulerian_identity_rejects_bad_q():
    with pytest.raises(ValueError):
        eulerian_identity_check(2, "a", -1, 6)


def test_des_of_alternating_word_is_euler_number():
    # descent word (ab)^n a^{e} corresponds to alternating permutations
    assert des_count("ab") == euler_number(3)
    assert des_count("abab") == euler_number(5)
    assert des_count("ababab") == euler_number(7)


def test_q_int():
    assert q_int(4, Fraction(2)) == 15
    assert q_int(3, Fraction(1)) == 3
