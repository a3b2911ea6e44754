"""Generating-function identities and their brute-force counterparts.

Every check here computes two sides independently: a "brute" value obtained by
growing the poset and running the Mobius recursion, and a "closed" value read
off a truncated series.  A check that reads only Mobius numbers streams the
growth into the walk (`grown_mu`, `_restricted_mu`); one that reads covers,
ranks or elements builds the lattice, and `brute_mu` walks a built one.  A
check shares them through its `verify` run's memo, a `Run`.  The verdict
records whether they agree exactly or up to one global sign (the constant
epsilon), since two printed closed forms carry the opposite sign convention
from the recursion; an n-dependent sign flip is always a hard mismatch.  A
report passes only when it has its identity's sign (`EXPECTED_EPSILON`).

Every Mobius generating function is one of two closed forms over coefficient
tables a, b with a(0) = 1:

- `exponential_form(a, T)` = -log sum a(n) x^n/n!, the Mobius series of an
  exponential structure (Stanley);
- `dowling_form(b, a, s, T)` = -(sum b(n) x^n/n!) (sum a(n) (sx)^n/n!)^(-1/s),
  its Dowling analogue.

Cor 3.4 passes a = 1/M and b = 1/N, one over the minimal-element counts of
the family (`check_mu_series`); M and N count the elements of one type of
L_n(s), by the formula of Lemma 2.1 / Prop 3.2 (`denominator_N_rk`).  Thm 4.1
and 4.2 pass a(n) = 1 on {0} and I and 1 - m_n elsewhere, b(n) = 1 on J and
1 - p_n elsewhere, where m_n and p_n sum the Mobius function of Q_n^I and
R_n^{I,J}(s) (`restricted_mu_check`).
Cor 4.3 passes the indicator tables of {0} and I and of J (`semigroup_check`).
The printed Prop 4.5 is minus `dowling_form` of the indicator tables of
{k, k + r, ...} and {0, r, 2r, ...} (`d_rk_rhs_series`).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional

from . import shelling
from .poset import mobius_table, top_mu
from .series import (
    TruncatedSeries,
    coeff_den,
    compose,
    cosh_series,
    exp,
    log,
    pow_rational,
    series_from_table,
    sech_pow_series,
    sinh_series,
)
from .structures import (
    GUARD,
    BuiltLattice,
    Family,
    ParameterError,
    StructureType,
    D_rk_family,
    all_types,
    build_D_rk,
    build_dowling_lattice,
    build_extended,
    build_partition_lattice,
    build_r_divisible,
    count_of_type,
    denominator_N_rk,
    grown_mobius,
    r_divisible_family,
    restricted_dowling_family,
    restricted_partition_family,
    semigroup_violation,
    type_of,
)

# ---------------------------------------------------------------------------
# the run memo and reports


class Run(dict):
    """The memo of one `verify` run: (function, arguments) -> value."""

    def once(self, fn: Callable, *args):
        key = (fn, *args)
        if key not in self:
            self[key] = fn(*args)
        return self[key]


# The printed closed forms of these identities (prop4.5, thm5.4) carry the
# opposite sign to the Mobius recursion; every other identity is exact.
EXPECTED_EPSILON = {"d-rk-series": -1, "mu-descent": -1}


class IdentityReport:
    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = params
        self.rows = []  # (label, brute, closed)
        self.notes = []

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


def grown_mu(family: Family, guard: int = GUARD) -> int:
    """mu(0-hat, 1-hat) of a family, its growth streamed into the Mobius
    walk (`grown_mobius`), so nothing is built."""
    return top_mu(grown_mobius(family, guard))


# ---------------------------------------------------------------------------
# the two closed forms


def exponential_form(a, T: int) -> TruncatedSeries:
    """-log sum a(n) x^n/n!, the Mobius series of an exponential structure
    (Stanley); `a` is a function of n with a(0) = 1."""
    return -log(series_from_table(a, T))


def dowling_form(b, a, s: int, T: int) -> TruncatedSeries:
    """-(sum b(n) x^n/n!) * (sum a(n) (sx)^n/n!)^(-1/s), the Dowling analogue
    of `exponential_form`; a(0) = 1."""
    A = series_from_table(a, T).scale_argument(s)
    return -(series_from_table(b, T) * pow_rational(A, Fraction(-1, s)))


# ---------------------------------------------------------------------------
# the derived families Q^(r) and D^(r,k)(s)


def _derived_family(r: int, k: Optional[int], s: int) -> tuple:
    """(its family in the mu-series report, its family in the minimal-count
    report, n -> the `Family` of its n-th lattice with a 0-hat adjoined,
    n -> that lattice built, its first n, M, N) for Q^(r) (k None) or
    D^(r,k)(s); Q^(r)_n with a 0-hat is Pi_{rn}^r.  N counts the minimal
    elements; it is M = N^(r,0) at s = 1 for Q^(r).  Pi_n is Q^(1)_n and
    L_n(s) is D^(1,0)(s), where M = N = 1."""

    def M(n):
        return denominator_N_rk(n, r, 0, 1)

    if k is None:
        label = "partition" if r == 1 else f"partition^({r})"
        return (label, f"Q^({r})", lambda n: r_divisible_family(r * n, r),
                lambda n: build_r_divisible(r * n, r), 1, M, M)

    def N(n):
        return denominator_N_rk(n, r, k, s)

    label = f"D^({r},{k})(s={s})"
    series_label = f"dowling(s={s})" if (r, k) == (1, 0) else label
    return (series_label, label, lambda n: D_rk_family(n, r, k, s),
            lambda n: build_D_rk(n, r, k, s), 0, M, N)


def check_mu_series(r: int, k: Optional[int], s: int, n_max: int) -> IdentityReport:
    """Cor 3.4: mu(0-hat, 1-hat) of each lattice of Q^(r) (k None) or
    D^(r,k)(s) against N(n) n! [x^n] of `exponential_form` of 1/M or
    `dowling_form` of 1/N and 1/M."""
    label, _, family, _, first, M, N = _derived_family(r, k, s)
    if k is None:
        name = "mu-series-exponential"
        closed = exponential_form(lambda n: Fraction(1, M(n)), n_max)
    else:
        name = "mu-series-dowling"
        closed = dowling_form(
            lambda n: Fraction(1, N(n)), lambda n: Fraction(1, M(n)), s, n_max
        )
    report = IdentityReport(name, {"family": label, "n_max": n_max})
    for n in range(first, n_max + 1):
        report.add(n, grown_mu(family(n)), coeff_den(closed, n) * N(n))
    return report


def minimal_count_check(r: int, k: Optional[int], s: int, n_max: int) -> IdentityReport:
    """Minimal-element counts of Q^(r) (k None) or D^(r,k)(s) against the
    type counts N."""
    _, label, _, build, first, _, N = _derived_family(r, k, s)
    report = IdentityReport("minimal-count", {"family": label, "n_max": n_max})
    for n in range(first, n_max + 1):
        built = build(n)
        report.add(n, len(built.poset.covers_up[built.bottom]), N(n))
    return report


# ---------------------------------------------------------------------------
# type census and compositional formulas


def _type_histogram(n: int, s: Optional[int]) -> tuple:
    """The (type, element count) pairs of Pi_n (s None) or L_n(s), counted
    on the built lattice."""
    built = build_partition_lattice(n) if s is None else build_dowling_lattice(n, s)
    return tuple(Counter(type_of(x, n) for x in built.elements).items())


def _type_sum(n: int, s: Optional[int], term: Callable, run: Run) -> Fraction:
    """The sum of term(type of x) over the elements x of Pi_n (s None) or
    L_n(s), one term per type."""
    return sum((count * term(t) for t, count in run.once(_type_histogram, n, s)), Fraction(0))


def _blocks_term(f: Callable, g: Callable, t: StructureType) -> Fraction:
    """g(number of blocks) times f(size) of each block, for a type t."""
    term = Fraction(g(sum(t.a)))
    for i, ai in enumerate(t.a, start=1):
        term *= Fraction(f(i)) ** ai
    return term


def census_check(n: int, s: int, run: Run) -> IdentityReport:
    """Per-type element counts of L_n(s): closed formula versus enumeration."""
    report = IdentityReport("type-census", {"n": n, "s": s})
    hist = dict(run.once(_type_histogram, n, s))
    for t in all_types(n):
        report.add(f"(b={t.b}; a={t.a})", hist.get(t, 0), count_of_type(n, s, t))
    return report


def compositional_check_partition(
    f: Callable, g: Callable, n_max: int, run: Run
) -> IdentityReport:
    """Type-sum h(n) over Pi_n versus the coefficient of G(F(x))."""
    report = IdentityReport("compositional-partition", {"n_max": n_max})
    F = series_from_table(lambda n: f(n) if n else 0, n_max)
    H = compose(series_from_table(g, n_max), F)
    for n in range(0, n_max + 1):
        if n == 0:
            # the empty structure has zero blocks and contributes g(0)
            brute = Fraction(g(0))
        else:
            brute = _type_sum(n, None, lambda t: _blocks_term(f, g, t), run)
        report.add(n, brute, coeff_den(H, n))
    return report


def compositional_check_dowling(
    f: Callable, g: Callable, k: Callable, s: int, n_max: int, run: Run
) -> IdentityReport:
    """Type-sum h(n) over L_n(s) versus the coefficient of K(x)*G(1/s*F(s*x))."""
    report = IdentityReport("compositional-dowling", {"s": s, "n_max": n_max})
    F = series_from_table(lambda n: f(n) if n else 0, n_max)
    G, K = series_from_table(g, n_max), series_from_table(k, n_max)
    H = K * compose(G, F.scale_argument(s) * Fraction(1, s))
    for n in range(0, n_max + 1):
        brute = _type_sum(n, s, lambda t: Fraction(k(t.b)) * _blocks_term(f, g, t), run)
        report.add(n, brute, coeff_den(H, n))
    return report


# ---------------------------------------------------------------------------
# rank polynomials


def corank_census(built: BuiltLattice) -> dict:
    """Histogram of rho(x, 1-hat) over the natural elements."""
    P = built.poset
    top_rank = P.rank[P.top]
    hist = {}
    for x in range(len(built.codes)):
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
    e_x = series_from_table(lambda n: 1, T)
    inner = e_x - 1  # sum_{n>=1} x^n/n!
    for t in t_values:
        t = Fraction(t)
        if family == "partition":
            closed = exp(inner * t)
        else:
            closed = e_x * exp(inner.scale_argument(s) * (t / s))
        for n, census in enumerate(censuses):
            value = sum(count * t**e for e, count in census.items())
            report.add(f"n={n},t={t}", value, coeff_den(closed, n))
    return report


# ---------------------------------------------------------------------------
# restricted structures


def _restricted_mu(n: int, s: int, I: frozenset, J: Optional[frozenset]):
    """(mu(0-hat, 1-hat) if n is in J, or in I with J None, else 0; m_n, the
    sum of mu(0-hat, z) over every z) of Q_n^I (J None) or R_n^{I,J}(s), in
    one walk of its growth stream."""
    if J is None:
        family = restricted_partition_family(n, I)
    else:
        family = restricted_dowling_family(n, s, I, J)
    total, tops = 0, []
    for key, value, maximal in grown_mobius(family):
        total += value
        if maximal:
            tops.append((key, value, maximal))
    return (top_mu(tops) if n in (I if J is None else J) else 0), total


def _restricted_rows(report, I, J, s, closed: TruncatedSeries, run: Run, side: str = "") -> None:
    """Rows n = 0..T (labelled n, or "side:n"): mu(Q_n^I) (J None) or
    mu(R_n^{I,J}(s)) over n!, 0 off I (or J), against the coefficient of x^n
    in `closed`."""
    for n in range(closed.order + 1):
        mu = run.once(_restricted_mu, n, s, I, J)[0] if n in (I if J is None else J) else 0
        report.add(f"{side}:{n}" if side else n, Fraction(mu, math.factorial(n)), closed[n])


def restricted_mu_check(
    I: frozenset, J: Optional[frozenset], s: int, n_max: int, run: Run
) -> IdentityReport:
    """Restricted Mobius generating-function identity, coefficientwise.

    With J None this is the exponential-structure identity over Pi (Thm 4.1);
    with J it is the Dowling-structure identity over L_n(s) (Thm 4.2)."""
    I = frozenset(I)

    def a(n):  # 1 on {0} and I, else 1 - m_n, the Mobius sum of Q_n^I
        return 1 if n == 0 or n in I else 1 - run.once(_restricted_mu, n, 1, I, None)[1]

    if J is None:
        report = IdentityReport("restricted-mu", {"I": sorted(I), "n_max": n_max})
        _restricted_rows(report, I, None, 1, exponential_form(a, n_max), run)
        return report

    J = frozenset(J)
    report = IdentityReport(
        "restricted-mu-dowling", {"I": sorted(I), "J": sorted(J), "s": s, "n_max": n_max}
    )

    def b(n):  # 1 on J, else 1 - p_n, the Mobius sum of R_n^{I,J}(s)
        return 1 if n in J else 1 - run.once(_restricted_mu, n, s, I, J)[1]

    _restricted_rows(report, I, J, s, dowling_form(b, a, s, n_max), run)
    return report


def semigroup_check(I: frozenset, J: frozenset, s: int, n_max: int, run: Run) -> IdentityReport:
    """The semigroup specialization (Cor 4.3): the closure hypotheses are
    verified on [0, n_max] first (ParameterError if they fail), then both
    closed forms are checked coefficientwise through x^n_max, over the
    indicator tables of {0} + I and of J."""
    I, J = frozenset(I), frozenset(J)
    problem = semigroup_violation(I, J, n_max)
    if problem:
        raise ParameterError(problem)

    report = IdentityReport(
        "semigroup-mu", {"I": sorted(I), "J": sorted(J), "s": s, "n_max": n_max}
    )
    # mechanism from the proof: the restricted posets vanish off the index sets
    for n in range(1, n_max + 1):
        if n not in I:
            _, m_n = run.once(_restricted_mu, n, 1, I, None)
            if m_n != 1:
                report.notes.append(f"Q_{n}^I unexpectedly nonempty (m_n={m_n})")

    def a(n):
        return int(n == 0 or n in I)

    _restricted_rows(report, I, None, 1, exponential_form(a, n_max), run, "Q")
    _restricted_rows(report, I, J, s, dowling_form(lambda n: int(n in J), a, s, n_max), run, "R")
    return report


# ---------------------------------------------------------------------------
# the (r, k) Dowling family


def d_rk_rhs_series(r: int, k: int, s: int, T: int) -> TruncatedSeries:
    """The printed closed form (sum x^{rn+k}/(rn+k)!)*(sum (sx)^{rn}/(rn)!)^{-1/s}:
    minus `dowling_form` of the indicator tables of {k, k+r, ...} and
    {0, r, 2r, ...}."""
    return -dowling_form(
        lambda n: int(n >= k and (n - k) % r == 0), lambda n: int(n % r == 0), s, T
    )


def d_rk_mu(n: int, r: int, k: int, s: int) -> int:
    """mu(D_n^{(r,k)}(s) + 0-hat), its growth streamed into the Mobius walk;
    a check reads it through its `Run`, which keeps only the number."""
    return grown_mu(D_rk_family(n, r, k, s))


def d_rk_series_check(r: int, k: int, s: int, max_rnk: int, run: Run) -> IdentityReport:
    """Brute mu(D_n^{(r,k)} + 0-hat) against the printed closed form; the
    expected verdict is a global sign of -1 (see notes)."""
    report = IdentityReport(
        "d-rk-series", {"r": r, "k": k, "s": s, "max_rnk": max_rnk}
    )
    closed = d_rk_rhs_series(r, k, s, max_rnk)
    n = 0
    while r * n + k <= max_rnk:
        report.add(n, run.once(d_rk_mu, n, r, k, s), coeff_den(closed, r * n + k))
        n += 1
    if report.epsilon == -1:
        report.notes.append(
            "brute values equal minus the printed closed form (constant epsilon)"
        )
    return report


def binomial_mu_check(k: int, s_values: list, n_max: int, run: Run) -> IdentityReport:
    """|mu(D_n^{(1,k)} + 0-hat)| = C(n+k-1, k-1), independent of the order s."""
    report = IdentityReport("d-1k-binomial", {"k": k, "s_values": s_values, "n_max": n_max})
    for n in range(0, n_max + 1):
        expected = math.comb(n + k - 1, k - 1)
        values = {s: run.once(d_rk_mu, n, 1, k, s) for s in s_values}
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
    head = base - series_from_table(lambda n: int(n % 2 == parity and n < k), T)
    hyperbolic = head * sech_pow_series(s, T)
    generic = d_rk_rhs_series(2, k, s, T)
    for n in range(T + 1):
        report.add(n, hyperbolic[n], generic[n])
    return report


# ---------------------------------------------------------------------------
# descent-statistic Mobius values


def mu_descent_check(r: int, k: int, n: int, run: Run) -> IdentityReport:
    """Brute mu of the extended r-divisible lattice against the signed descent
    count (m = r*n + k + 1)."""
    m = r * n + k + 1
    report = IdentityReport("mu-descent", {"r": r, "k": k, "n": n, "m": m})
    closed = (-1) ** n * shelling.descent_class_size(m, r, k + 1)
    report.add(f"m={m}", brute_mu(run.once(build_extended, m, r, k + 1)), closed)
    if report.epsilon == -1:
        report.notes.append("brute sign is (-1)^(n+1), opposite to the printed (-1)^n")
    return report


def theorem_j1_check(r: int, n: int, run: Run) -> IdentityReport:
    """The j=1 case: mu vanishes, and the join of the atoms stays below the
    top."""
    m = r * n + 1
    report = IdentityReport("mu-j1-zero", {"r": r, "n": n, "m": m})
    built = run.once(build_extended, m, r, 1)
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
