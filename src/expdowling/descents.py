"""Descent words, Des and its q-analogue, Gaussian coefficients, the MacMahon
multiplication identity, the alternating Eulerian series identity, and Euler
numbers.

A descent word is a plain string over 'a'/'b': letter i (0-based) is 'a' when
position i+1 is an ascent of the permutation.  Descent counts are computed two
independent ways -- direct enumeration and inclusion-exclusion over descent
subsets with Gaussian multinomials -- and the tests cross-check them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .series import TruncatedSeries, pow_rational


class QPoly:
    """Polynomial in q with integer coefficients, dense representation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c) if c else (0,)

    @classmethod
    def const(cls, v):
        return cls([v])

    def __add__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q^k."""
        return QPoly((0,) * k + self.coeffs)

    def __call__(self, q):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                terms.append(q if c == 1 else f"{c}*{q}")
        return " + ".join(terms) if terms else "0"


QONE = QPoly.const(1)


def check_permutation(sigma) -> tuple:
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{len(sigma)}")
    return sigma


def descent_word(sigma) -> str:
    sigma = check_permutation(sigma)
    return "".join(
        "a" if sigma[i] < sigma[i + 1] else "b" for i in range(len(sigma) - 1)
    )


def descent_set(sigma) -> frozenset:
    """Positions i (1-based) with sigma_i > sigma_{i+1}."""
    sigma = check_permutation(sigma)
    return frozenset(i + 1 for i in range(len(sigma) - 1) if sigma[i] > sigma[i + 1])


def inversions(sigma) -> int:
    sigma = check_permutation(sigma)
    return sum(
        1
        for i, j in itertools.combinations(range(len(sigma)), 2)
        if sigma[i] > sigma[j]
    )


@lru_cache(maxsize=None)
def gaussian(n: int, k: int) -> QPoly:
    """Gaussian coefficient [n choose k] via the Pascal recurrence."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return QONE
    return gaussian(n - 1, k - 1) + gaussian(n - 1, k).shift(k)


def q_multinomial(parts) -> QPoly:
    """[n choose p1, p2, ...] as a product of Gaussian coefficients."""
    total = sum(parts)
    out = QONE
    for p in parts:
        out = out * gaussian(total, p)
        total -= p
    return out


def q_int(n: int, q: Fraction) -> Fraction:
    return sum((Fraction(q) ** i for i in range(n)), Fraction(0))


def q_factorial(n: int, q: Fraction) -> Fraction:
    acc = Fraction(1)
    for i in range(1, n + 1):
        acc *= q_int(i, q)
    return acc


def des_q_enumerate(u: str) -> QPoly:
    """q-count of permutations with descent word u, by listing S_n."""
    n = len(u) + 1
    if n > 9:
        raise ValueError(f"enumeration path limited to degree <= 8, got {len(u)}")
    out = [0] * (n * (n - 1) // 2 + 1)
    for sigma in itertools.permutations(range(1, n + 1)):
        if descent_word(sigma) == u:
            out[inversions(sigma)] += 1
    return QPoly(out)


def des_q(u: str) -> QPoly:
    """q-count of permutations with descent word u, by inclusion-exclusion
    over subsets of the descent set with Gaussian multinomials."""
    n = len(u) + 1
    descents = sorted(i + 1 for i, letter in enumerate(u) if letter == "b")
    acc = QPoly.const(0)
    for size in range(len(descents) + 1):
        for subset in itertools.combinations(descents, size):
            cuts = (0,) + subset + (n,)
            parts = [b - a for a, b in zip(cuts, cuts[1:])]
            acc = acc + (-1) ** (len(descents) - size) * q_multinomial(parts)
    return acc


def des_count(u: str) -> int:
    return int(des_q(u)(1))


def multiplication_check(u: str, v: str) -> bool:
    """MacMahon: [n+m choose n] Des_q[u] Des_q[v] = Des_q[uav] + Des_q[ubv]."""
    n, m = len(u) + 1, len(v) + 1
    lhs = gaussian(n + m, n) * des_q(u) * des_q(v)
    rhs = des_q(u + "a" + v) + des_q(u + "b" + v)
    return lhs == rhs


def euler_number(i: int) -> int:
    """Number of alternating permutations of size i (boustrophedon recurrence,
    O(i^2) exact integer additions)."""
    if i < 0:
        raise ValueError(f"Euler number index out of range: {i}")
    row = [1]
    for k in range(1, i + 1):
        prev = row
        row = [0]
        for j in range(k):
            row.append(row[-1] + prev[k - 1 - j])
    return row[-1]


def alternating_permutations(n: int) -> list:
    """Up-down alternating permutations, the enumeration oracle for Euler
    numbers."""
    out = []
    for sigma in itertools.permutations(range(1, n + 1)):
        if all(
            (sigma[i] < sigma[i + 1]) == (i % 2 == 0) for i in range(n - 1)
        ):
            out.append(sigma)
    return out


def eulerian_product_word(r: int, n: int, w: str) -> str:
    return ("a" * (r - 1) + "b") * n + w


def prop_series_lhs(r: int, w: str, q: Fraction, T: int) -> TruncatedSeries:
    """Alternating Eulerian generating function: sum over n of
    (-1)^n Des_q[(a^{r-1}b)^n w] x^{rn+k}/[rn+k]!."""
    k = len(w) + 1
    coeffs = [Fraction(0)] * (T + 1)
    n = 0
    while r * n + k <= T:
        word = eulerian_product_word(r, n, w)
        coeffs[r * n + k] = (
            Fraction((-1) ** n) * des_q(word)(q) / q_factorial(r * n + k, q)
        )
        n += 1
    return TruncatedSeries(coeffs)


def prop_series_rhs(r: int, w: str, q: Fraction, T: int) -> TruncatedSeries:
    k = len(w) + 1
    num = [Fraction(0)] * (T + 1)
    n = 0
    while r * n + k <= T:
        num[r * n + k] = des_q("a" * (r * n) + w)(q) / q_factorial(r * n + k, q)
        n += 1
    den = [Fraction(0)] * (T + 1)
    n = 0
    while r * n <= T:
        den[r * n] = Fraction(1) / q_factorial(r * n, q)
        n += 1
    return TruncatedSeries(num) * pow_rational(TruncatedSeries(den), -1)


def eulerian_identity_check(r: int, w: str, q, T: int) -> bool:
    """Both sides of the alternating Eulerian identity at a sampled rational q."""
    q = Fraction(q)
    for m in range(1, T + 1):
        if q_int(m, q) == 0:
            raise ValueError(f"q={q} makes [{m}] vanish; pick q > 0")
    return prop_series_lhs(r, w, q, T) == prop_series_rhs(r, w, q, T)
