"""Truncated formal power series over exact rationals.

All coefficients are `fractions.Fraction`; no floating point ever enters.
A series of truncation order T stores coefficients of x^0 .. x^T.
Binary operations on series of different orders truncate to the shorter one.
Coefficient tables h enter and leave as exponential generating functions
sum h(n) x^n/n! (`series_from_table`, `coeff_den`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable


class SeriesError(ValueError):
    pass


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise SeriesError("float coefficients are not allowed; use Fraction or int")
    return Fraction(value)


class TruncatedSeries:
    """Immutable power series truncated at order T, exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        object.__setattr__(self, "coeffs", tuple(_frac(c) for c in coeffs))
        if not self.coeffs:
            raise SeriesError("a truncated series needs at least the constant term")

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise SeriesError(f"coefficient index {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1] + [0] * order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        if order < 1:
            raise SeriesError("order must be >= 1 for the series x")
        return cls([0, 1] + [0] * (order - 1))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return None  # scalar
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return TruncatedSeries((self.coeffs[0] + other,) + self.coeffs[1:])
        t = min(self.order, o.order)
        return TruncatedSeries(a + b for a, b in zip(self.coeffs[: t + 1], o.coeffs[: t + 1]))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-c for c in self.coeffs)

    def __sub__(self, other):
        result = self.__add__(-other if isinstance(other, TruncatedSeries) else -Fraction(other))
        return result

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            q = Fraction(other)
            return TruncatedSeries(c * q for c in self.coeffs)
        t = min(self.order, o.order)
        out = [Fraction(0)] * (t + 1)
        for i in range(t + 1):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(t + 1 - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        t = min(self.order, other.order)
        return self.coeffs[: t + 1] == other.coeffs[: t + 1]

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            elif n == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{n}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(x^{self.order + 1})>"

    # -- substitution ----------------------------------------------------

    def scale_argument(self, c) -> "TruncatedSeries":
        """The series f(c*x)."""
        q = Fraction(c)
        return TruncatedSeries(coef * q**n for n, coef in enumerate(self.coeffs))


def multiply(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    return f * g


def compose(g: TruncatedSeries, f: TruncatedSeries) -> TruncatedSeries:
    """g(f(x)), requiring f(0) = 0.  Horner accumulation, truncation min(T_g, T_f)."""
    if f.coeffs[0] != 0:
        raise SeriesError("composition requires f(0)=0")
    t = min(g.order, f.order)
    f = f.truncate(t)
    acc = TruncatedSeries([g.coeffs[t]] + [0] * t)
    for i in range(t - 1, -1, -1):
        acc = acc * f + g.coeffs[i]
    return acc


def log(f: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 1, by the recurrence of f g' = f':
    g_n = f_n - (1/n) sum_{0<k<n} k g_k f_{n-k}."""
    if f.coeffs[0] != 1:
        raise SeriesError("log requires constant term 1")
    c, g = f.coeffs, [Fraction(0)]
    for n in range(1, len(c)):
        g.append(c[n] - sum((k * g[k] * c[n - k] for k in range(1, n)), Fraction(0)) / n)
    return TruncatedSeries(g)


def exp(f: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with constant term 0, by the recurrence of g' = f' g:
    g_n = (1/n) sum_{0<k<=n} k f_k g_{n-k}."""
    if f.coeffs[0] != 0:
        raise SeriesError("exp requires constant term 0")
    c, g = f.coeffs, [Fraction(1)]
    for n in range(1, len(c)):
        g.append(sum((k * c[k] * g[n - k] for k in range(1, n + 1)), Fraction(0)) / n)
    return TruncatedSeries(g)


def pow_rational(f: TruncatedSeries, q) -> TruncatedSeries:
    """f**q for rational q, requiring constant term 1, by the recurrence of
    f g' = q f' g: g_n = (1/n) sum_{0<k<=n} ((q+1)k - n) f_k g_{n-k}."""
    if f.coeffs[0] != 1:
        raise SeriesError("rational power requires constant term 1")
    c, g, q1 = f.coeffs, [Fraction(1)], Fraction(q) + 1
    for n in range(1, len(c)):
        g.append(sum(((q1 * k - n) * c[k] * g[n - k] for k in range(1, n + 1)), Fraction(0)) / n)
    return TruncatedSeries(g)


def series_from_table(h: Callable[[int], Fraction], T: int) -> TruncatedSeries:
    """Build the exponential generating function sum of h(n) * x^n / n! for
    0 <= n <= T."""
    if T < 0:
        raise SeriesError("truncation order must be >= 0")
    return TruncatedSeries(Fraction(h(n)) / math.factorial(n) for n in range(T + 1))


def coeff_den(f: TruncatedSeries, n: int) -> Fraction:
    """Read h(n) = n! [x^n] f back from an exponential generating function."""
    return f[n] * math.factorial(n)


def sinh_series(T: int) -> TruncatedSeries:
    return series_from_table(lambda n: n % 2, T)


def cosh_series(T: int) -> TruncatedSeries:
    return series_from_table(lambda n: 1 - n % 2, T)


def sech_pow_series(s: int, T: int) -> TruncatedSeries:
    """sech(s*x)^(1/s) as a truncated series; s a positive integer."""
    if s < 1:
        raise SeriesError("s must be a positive integer")
    return pow_rational(cosh_series(T).scale_argument(s), Fraction(-1, s))


def hyperbolic_builders(kind: str, s: int, T: int) -> TruncatedSeries:
    if kind == "sinh":
        return sinh_series(T)
    if kind == "cosh":
        return cosh_series(T)
    if kind == "sech_pow":
        return sech_pow_series(s, T)
    raise SeriesError(f"unknown hyperbolic builder {kind!r}")
