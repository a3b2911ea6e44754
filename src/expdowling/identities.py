"""Generating-function identities and their brute-force counterparts.

Every check here computes two sides independently: a "brute" value obtained by
building the poset and running the Mobius recursion, and a "closed" value read
off a truncated series.  The verdict records whether they agree exactly or up
to one global sign (the constant epsilon), since a couple of the printed
closed forms carry the opposite sign convention from the recursion; an
n-dependent sign flip is always a hard mismatch.  A report passes only when
its sign is the one expected for its identity (`EXPECTED_EPSILON`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from . import descents
from .poset import mobius_table
from .series import (
    UNIT,
    DenominatorSequence,
    TruncatedSeries,
    coeff_den,
    cosh_series,
    exp,
    log,
    pow_rational,
    series_from_table,
    sech_pow_series,
    sinh_series,
)
from .structures import (
    BuiltLattice,
    adjoin_zero,
    all_types,
    build_D_rk,
    build_dowling_lattice,
    build_extended,
    build_partition_lattice,
    build_Q_r,
    build_restricted_dowling,
    build_restricted_partition,
    count_of_type,
    denominator_M_r,
    denominator_N_rk,
    semigroup_violation,
    type_of,
)

# ---------------------------------------------------------------------------
# reports

# The printed closed forms of these identities (prop4.5, thm5.4) carry the
# opposite sign to the Mobius recursion; every other identity is exact.
EXPECTED_EPSILON = {"d-rk-series": -1, "mu-descent": -1}


@dataclass
class IdentityReport:
    name: str
    params: dict
    rows: list = field(default_factory=list)  # (label, brute, closed)
    notes: list = field(default_factory=list)

    def add(self, label, brute, closed):
        self.rows.append((label, Fraction(brute), Fraction(closed)))

    @property
    def verdict(self) -> str:
        if all(b == c for _, b, c in self.rows):
            return "exact"
        if all(b == -c for _, b, c in self.rows):
            return "exact-up-to-global-sign"
        return "mismatch"

    @property
    def epsilon(self) -> Optional[int]:
        v = self.verdict
        if v == "exact":
            return 1
        if v == "exact-up-to-global-sign":
            return -1
        return None

    @property
    def expected_epsilon(self) -> int:
        return EXPECTED_EPSILON.get(self.name, 1)

    @property
    def passed(self) -> bool:
        """Every row agrees up to the sign expected for this identity, so a
        flipped sign fails; all-zero rows pass under either sign."""
        sign = self.expected_epsilon
        return all(b == sign * c for _, b, c in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "identity": self.name,
            "params": {k: repr(v) if isinstance(v, frozenset) else v
                       for k, v in self.params.items()},
            "rows": [
                {"n": label, "brute": str(b), "closed_form": str(c)}
                for label, b, c in self.rows
            ],
            "verdict": self.verdict,
            "epsilon": self.epsilon,
            "notes": self.notes,
        }

    def to_csv_rows(self) -> list:
        out = [["n", "brute", "closed_form", "ratio"]]
        for label, b, c in self.rows:
            ratio = str(b / c) if c != 0 else ("0" if b == 0 else "inf")
            out.append([str(label), str(b), str(c), ratio])
        return out


# ---------------------------------------------------------------------------
# brute Mobius helpers


def bottom_of(built: BuiltLattice) -> int:
    return built.bottom if built.bottom is not None else built.poset.bottom


def brute_mu(built: BuiltLattice) -> int:
    """mu(0-hat, 1-hat) of a built lattice."""
    return mobius_table(built.poset, bottom_of(built))[built.poset.top]


# ---------------------------------------------------------------------------
# denominator sequences and closed forms


def M_r_sequence(r: int) -> DenominatorSequence:
    return DenominatorSequence(f"M^({r})", lambda n: denominator_M_r(n, r))


def N_rk_sequence(r: int, k: int, s: int) -> DenominatorSequence:
    return DenominatorSequence(f"N^({r},{k})", lambda n: denominator_N_rk(n, r, k, s))


def egf(D: DenominatorSequence, T: int, scale=1) -> TruncatedSeries:
    """Sum of (scale*x)^n / (D(n) * n!)."""
    f = series_from_table(lambda n: Fraction(1), D, T)
    return f.scale_argument(scale) if scale != 1 else f


def series_mu_exponential(M: DenominatorSequence, T: int) -> TruncatedSeries:
    """Closed form for the Mobius numbers of Q_n with a bottom adjoined."""
    return -log(egf(M, T))


def series_mu_dowling(
    s: int, M: DenominatorSequence, N: DenominatorSequence, T: int
) -> TruncatedSeries:
    """Closed form for the Mobius numbers of R_n with a bottom adjoined."""
    return -(egf(N, T) * pow_rational(egf(M, T, scale=s), Fraction(-1, s)))


# ---------------------------------------------------------------------------
# Mobius generating functions, brute vs closed


def check_mu_series_partition(n_max: int) -> IdentityReport:
    report = IdentityReport("mu-series-exponential", {"family": "partition", "n_max": n_max})
    closed = series_mu_exponential(UNIT, n_max)
    for n in range(1, n_max + 1):
        built = adjoin_zero(build_partition_lattice(n))
        report.add(n, brute_mu(built), coeff_den(closed, n, UNIT))
    return report


def check_mu_series_partition_r(r: int, n_max: int) -> IdentityReport:
    """The r-divisible family: structure index n corresponds to Pi_{rn}."""
    M = M_r_sequence(r)
    report = IdentityReport(
        "mu-series-exponential", {"family": f"partition^({r})", "n_max": n_max}
    )
    closed = series_mu_exponential(M, n_max)
    for n in range(1, n_max + 1):
        built = adjoin_zero(build_Q_r(n, r))
        report.add(n, brute_mu(built), coeff_den(closed, n, M))
    return report


def check_mu_series_dowling(s: int, n_max: int) -> IdentityReport:
    report = IdentityReport("mu-series-dowling", {"family": f"dowling(s={s})", "n_max": n_max})
    closed = series_mu_dowling(s, UNIT, UNIT, n_max)
    for n in range(0, n_max + 1):
        built = adjoin_zero(build_dowling_lattice(n, s))
        report.add(n, brute_mu(built), coeff_den(closed, n, UNIT))
    return report


def check_mu_series_dowling_rk(r: int, k: int, s: int, n_max: int) -> IdentityReport:
    M = M_r_sequence(r)
    N = N_rk_sequence(r, k, s)
    report = IdentityReport(
        "mu-series-dowling", {"family": f"D^({r},{k})(s={s})", "n_max": n_max}
    )
    closed = series_mu_dowling(s, M, N, n_max)
    for n in range(0, n_max + 1):
        built = build_D_rk(n, r, k, s)
        report.add(n, brute_mu(built), coeff_den(closed, n, N))
    return report


# ---------------------------------------------------------------------------
# type census


def census_check(n: int, s: int) -> IdentityReport:
    """Per-type element counts of L_n(s): closed formula versus enumeration."""
    report = IdentityReport("type-census", {"n": n, "s": s})
    built = build_dowling_lattice(n, s)
    hist = {}
    for x in built.elements:
        t = type_of(x, n)
        hist[t] = hist.get(t, 0) + 1
    for t in all_types(n):
        closed = count_of_type(n, s, t)
        report.add(f"(b={t.b}; a={t.a})", hist.get(t, 0), closed)
    if sum(hist.values()) != built.poset.n:
        report.notes.append("histogram does not cover the lattice")
        report.add("total", sum(hist.values()), built.poset.n)
    return report


def minimal_count_check(r: int, k: Optional[int], s: int, n_max: int) -> IdentityReport:
    """Minimal-element counts of the derived families against the denominator
    formulas (k None checks the partition family, else the Dowling family)."""
    if k is None:
        report = IdentityReport("minimal-count", {"family": f"Q^({r})", "n_max": n_max})
        for n in range(1, n_max + 1):
            built = build_Q_r(n, r)
            report.add(n, len(built.poset.minimals), denominator_M_r(n, r))
    else:
        report = IdentityReport(
            "minimal-count", {"family": f"D^({r},{k})(s={s})", "n_max": n_max}
        )
        for n in range(0, n_max + 1):
            built = build_D_rk(n, r, k, s)
            atoms = built.poset.covers_up[built.bottom]
            report.add(n, len(atoms), denominator_N_rk(n, r, k, s))
    return report


# ---------------------------------------------------------------------------
# compositional formulas


def compositional_check_partition(
    f: Callable, g: Callable, n_max: int
) -> IdentityReport:
    """Type-sum h(n) over Pi_n versus the coefficient of G(F(x))."""
    report = IdentityReport("compositional-partition", {"n_max": n_max})
    T = n_max
    F = TruncatedSeries(
        [0] + [Fraction(f(n), math.factorial(n)) for n in range(1, T + 1)]
    )
    G = TruncatedSeries([Fraction(g(n), math.factorial(n)) for n in range(T + 1)])
    from .series import compose

    H = compose(G, F)
    for n in range(0, n_max + 1):
        if n == 0:
            # the empty structure has zero blocks and contributes g(0)
            brute = Fraction(g(0))
        else:
            built = build_partition_lattice(n)
            brute = Fraction(0)
            for x in built.elements:
                t = type_of(x, n)
                term = Fraction(g(sum(t.a)))
                for i, ai in enumerate(t.a, start=1):
                    term *= Fraction(f(i)) ** ai
                brute += term
        report.add(n, brute, coeff_den(H, n, UNIT))
    return report


def compositional_check_dowling(
    f: Callable, g: Callable, k: Callable, s: int, n_max: int
) -> IdentityReport:
    """Type-sum h(n) over L_n(s) versus the coefficient of K(x)*G(1/s*F(s*x))."""
    report = IdentityReport("compositional-dowling", {"s": s, "n_max": n_max})
    T = n_max
    F = TruncatedSeries(
        [0] + [Fraction(f(n), math.factorial(n)) for n in range(1, T + 1)]
    )
    G = TruncatedSeries([Fraction(g(n), math.factorial(n)) for n in range(T + 1)])
    K = TruncatedSeries([Fraction(k(n), math.factorial(n)) for n in range(T + 1)])
    from .series import compose

    H = K * compose(G, F.scale_argument(s) * Fraction(1, s))
    for n in range(0, n_max + 1):
        built = build_dowling_lattice(n, s)
        brute = Fraction(0)
        for x in built.elements:
            t = type_of(x, n)
            term = Fraction(k(t.b)) * Fraction(g(sum(t.a)))
            for i, ai in enumerate(t.a, start=1):
                term *= Fraction(f(i)) ** ai
            brute += term
        report.add(n, brute, coeff_den(H, n, UNIT))
    return report


# ---------------------------------------------------------------------------
# rank polynomials


def corank_census(built: BuiltLattice) -> dict:
    """Histogram of rho(x, 1-hat) over the natural elements."""
    P = built.poset
    top_rank = P.rank[P.top]
    hist = {}
    for x in built.natural_indices():
        c = top_rank - P.rank[x]
        hist[c] = hist.get(c, 0) + 1
    return hist


def rank_polynomial_check(
    family: str, s: int, t_values: list, n_max: int
) -> IdentityReport:
    """V_n(t) / W_n(t) censuses against their exponential closed forms,
    certified by evaluation at more rational points than the degree."""
    if len(t_values) <= n_max:
        raise ValueError("need more sample points than the maximum degree")
    if family not in ("partition", "dowling"):
        raise ValueError(f"unknown family {family!r}")
    report = IdentityReport(
        "rank-polynomial", {"family": family, "s": s, "n_max": n_max}
    )
    # {exponent: count} of each n's census polynomial, built once for all t
    censuses = []
    for n in range(0, n_max + 1):
        if family == "dowling":
            censuses.append(corank_census(build_dowling_lattice(n, s)))
        elif n == 0:
            censuses.append({0: 1})
        else:
            # the closed form counts blocks, which is corank + 1 here
            hist = corank_census(build_partition_lattice(n))
            censuses.append({c + 1: count for c, count in hist.items()})
    T = n_max
    inner = egf(UNIT, T) - 1  # sum_{n>=1} x^n/n!
    for t in t_values:
        t = Fraction(t)
        if family == "partition":
            closed = exp(inner * t)
        else:
            closed = egf(UNIT, T) * exp(inner.scale_argument(s) * (t / s))
        for n, census in enumerate(censuses):
            value = sum(count * t**e for e, count in census.items())
            report.add(f"n={n},t={t}", value, coeff_den(closed, n, UNIT))
    return report


# ---------------------------------------------------------------------------
# restricted structures


@lru_cache(maxsize=None)
def _restricted_mu(n: int, s: int, I: frozenset, J: Optional[frozenset]):
    """(mu(0-hat, 1-hat) if n is in J, or in I with J None, else 0; m_n) of
    Q_n^I (J None) or R_n^{I,J}(s), computed from the built poset."""
    if J is None:
        built = build_restricted_partition(n, I)
    else:
        built = build_restricted_dowling(n, s, I, J)
    table = mobius_table(built.poset, bottom_of(built))
    mu_value = table[built.poset.top] if n in (I if J is None else J) else 0
    return mu_value, sum(table.values())


def restricted_mu_check(
    I: frozenset, J: Optional[frozenset], s: int, n_max: int
) -> IdentityReport:
    """Restricted Mobius generating-function identity, coefficientwise.

    With J None this is the exponential-structure identity over Pi; with J it
    is the Dowling-structure identity over L_n(s)."""
    I = frozenset(I)
    mu_I = {}
    m = {}
    for n in range(1, n_max + 1):
        mu_I[n], m[n] = _restricted_mu(n, 1, I, None)

    inner_M = series_from_table(
        lambda n: Fraction(1) if (n == 0 or n in I) else Fraction(1) - m[n],
        UNIT,
        n_max,
    )
    if J is None:
        report = IdentityReport("restricted-mu", {"I": sorted(I), "n_max": n_max})
        lhs = series_from_table(
            lambda n: Fraction(mu_I[n]) if n in I else Fraction(0), UNIT, n_max
        )
        rhs = -log(inner_M)
        for n in range(0, n_max + 1):
            report.add(n, lhs[n], rhs[n])
        return report

    J = frozenset(J)
    report = IdentityReport(
        "restricted-mu-dowling", {"I": sorted(I), "J": sorted(J), "s": s, "n_max": n_max}
    )
    mu_IJ = {}
    p = {}
    for n in range(0, n_max + 1):
        mu_IJ[n], p[n] = _restricted_mu(n, s, I, J)
    lhs = series_from_table(
        lambda n: Fraction(mu_IJ[n]) if n in J else Fraction(0), UNIT, n_max
    )
    numerator = series_from_table(
        lambda n: Fraction(-1) if n in J else Fraction(p[n]) - 1, UNIT, n_max
    )
    rhs = numerator * pow_rational(
        inner_M.scale_argument(s), Fraction(-1, s)
    )
    for n in range(0, n_max + 1):
        report.add(n, lhs[n], rhs[n])
    return report


def semigroup_check(
    I: frozenset, J: frozenset, s: int, n_max: int, window: int
) -> IdentityReport:
    """The semigroup specialization: closure hypotheses are verified on the
    finite window first, then both closed forms are checked coefficientwise."""
    I, J = frozenset(I), frozenset(J)
    problem = semigroup_violation(I, J, window)
    if problem:
        raise ValueError(problem)

    report = IdentityReport(
        "semigroup-mu", {"I": sorted(I), "J": sorted(J), "s": s, "n_max": n_max}
    )
    # mechanism from the proof: the restricted posets vanish off the index sets
    for n in range(1, n_max + 1):
        if n not in I:
            _, m_n = _restricted_mu(n, 1, frozenset(I), None)
            if m_n != 1:
                report.notes.append(f"Q_{n}^I unexpectedly nonempty (m_n={m_n})")

    lhs_q = series_from_table(
        lambda n: Fraction(_restricted_mu(n, 1, I, None)[0]) if n in I else Fraction(0),
        UNIT,
        n_max,
    )
    rhs_q = -log(
        series_from_table(
            lambda n: Fraction(1) if (n == 0 or n in I) else Fraction(0), UNIT, n_max
        )
    )
    for n in range(0, n_max + 1):
        report.add(f"Q:{n}", lhs_q[n], rhs_q[n])

    lhs_r = series_from_table(
        lambda n: Fraction(_restricted_mu(n, s, I, J)[0]) if n in J else Fraction(0),
        UNIT,
        n_max,
    )
    rhs_r = -(
        series_from_table(
            lambda n: Fraction(1) if n in J else Fraction(0), UNIT, n_max
        )
        * pow_rational(
            series_from_table(
                lambda n: Fraction(1) if (n == 0 or n in I) else Fraction(0),
                UNIT,
                n_max,
            ).scale_argument(s),
            Fraction(-1, s),
        )
    )
    for n in range(0, n_max + 1):
        report.add(f"R:{n}", lhs_r[n], rhs_r[n])
    return report


# ---------------------------------------------------------------------------
# the (r, k) Dowling family


def d_rk_rhs_series(r: int, k: int, s: int, T: int) -> TruncatedSeries:
    """The printed closed form: (sum x^{rn+k}/(rn+k)!)*(sum (sx)^{rn}/(rn)!)^{-1/s}."""
    left = TruncatedSeries(
        Fraction(1, math.factorial(n)) if n >= k and (n - k) % r == 0 else 0
        for n in range(T + 1)
    )
    right = TruncatedSeries(
        Fraction(s**n, math.factorial(n)) if n % r == 0 else 0 for n in range(T + 1)
    )
    return left * pow_rational(right, Fraction(-1, s))


def d_rk_series_check(r: int, k: int, s: int, max_rnk: int) -> IdentityReport:
    """Brute mu(D_n^{(r,k)} + 0-hat) against the printed closed form; the
    expected verdict is a global sign of -1 (see notes)."""
    report = IdentityReport(
        "d-rk-series", {"r": r, "k": k, "s": s, "max_rnk": max_rnk}
    )
    closed = d_rk_rhs_series(r, k, s, max_rnk)
    n = 0
    while r * n + k <= max_rnk:
        built = build_D_rk(n, r, k, s)
        coefficient = closed[r * n + k] * math.factorial(r * n + k)
        report.add(n, brute_mu(built), coefficient)
        n += 1
    if report.epsilon == -1:
        report.notes.append(
            "brute values equal minus the printed closed form (constant epsilon)"
        )
    return report


def binomial_mu_check(k: int, s_values: list, n_max: int) -> IdentityReport:
    """|mu(D_n^{(1,k)} + 0-hat)| = C(n+k-1, k-1), independent of the order s."""
    report = IdentityReport("d-1k-binomial", {"k": k, "s_values": s_values, "n_max": n_max})
    for n in range(0, n_max + 1):
        expected = math.comb(n + k - 1, k - 1)
        values = {s: brute_mu(build_D_rk(n, 1, k, s)) for s in s_values}
        if len(set(values.values())) != 1:
            report.notes.append(f"n={n}: mu depends on s: {values}")
            report.add(f"n={n}", 0, 1)  # force a mismatch row
            continue
        value = next(iter(values.values()))
        report.add(f"n={n}", abs(value), expected)
    return report


def hyperbolic_series_check(k: int, s: int, T: int) -> IdentityReport:
    """r=2 closed form in sinh/cosh/sech versus the generic printed form."""
    report = IdentityReport("d-2k-hyperbolic", {"k": k, "s": s, "T": T})
    parity = k % 2
    # cosh (resp. sinh) minus its first terms below x^k, leaving the tail
    # sum over n >= k, n = k mod 2, of x^n/n!
    base = cosh_series(T) if parity == 0 else sinh_series(T)
    head = base - TruncatedSeries(
        Fraction(1, math.factorial(n)) if n % 2 == parity and n < k else 0
        for n in range(T + 1)
    )
    hyperbolic = head * sech_pow_series(s, T)
    generic = d_rk_rhs_series(2, k, s, T)
    for n in range(T + 1):
        report.add(n, hyperbolic[n], generic[n])
    return report


# ---------------------------------------------------------------------------
# descent-statistic Mobius values


def mu_descent_check(r: int, k: int, n: int) -> IdentityReport:
    """Brute mu of the extended r-divisible lattice against the signed descent
    count (m = r*n + k + 1)."""
    m = r * n + k + 1
    report = IdentityReport("mu-descent", {"r": r, "k": k, "n": n, "m": m})
    built = build_extended(m, r, k + 1)
    word = descents.eulerian_product_word(r, n, "a" * (k - 1))
    closed = (-1) ** n * descents.des_count(word)
    report.add(f"m={m}", brute_mu(built), closed)
    if report.epsilon == -1:
        report.notes.append("brute sign is (-1)^(n+1), opposite to the printed (-1)^n")
    return report


def theorem_j1_check(r: int, n: int) -> IdentityReport:
    """The j=1 case: mu vanishes, and the join of the atoms stays below the
    top."""
    m = r * n + 1
    report = IdentityReport("mu-j1-zero", {"r": r, "n": n, "m": m})
    built = build_extended(m, r, 1)
    P = built.poset
    report.add(f"m={m}", brute_mu(built), 0)
    atoms = P.covers_up[bottom_of(built)]
    common = None
    for a in atoms:
        common = P.up_rows[a] if common is None else common & P.up_rows[a]
    join = None
    if common:
        for z in range(P.n):
            if common >> z & 1 and common & ~P.up_rows[z] == 0:
                join = z
                break
    if join == P.top:
        report.notes.append("join of atoms unexpectedly reaches the top")
        report.add("join-of-atoms", 1, 0)
    return report
