"""The bodies of the `verify` suites, one function per suite, each taking
the resolved options of its run and returning its `IdentityReport`s.
`cli.SUITES` names each suite's function here and the options it reads.
Only `verify` imports this module, and with it `identities`, `descents`,
`shelling` and `fractions`, so no other command loads them (see the `cli`
docstring).  The functions are looked up by name at each run, so that a
wrapper rebound on this module sees the call; `ns.run` is the run's memo.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import descents, identities, shelling


def suite_census(ns):
    out = []
    for s in ns.s_list:
        for n in range(1, ns.nmax + 1):
            out.append(identities.census_check(n, s, ns.run))
    out.append(identities.minimal_count_check(2, None, 1, 3))
    out.append(identities.minimal_count_check(2, 1, 1, 2))
    return out


def suite_compositional_partition(ns):
    rng = random.Random(ns.seed)
    out = []
    for _ in range(5):
        f = {i: rng.randint(-3, 3) for i in range(1, ns.nmax + 1)}
        g = {i: rng.randint(-3, 3) for i in range(ns.nmax + 1)}
        g[0] = 1
        out.append(
            identities.compositional_check_partition(f.__getitem__, g.__getitem__, ns.nmax, ns.run)
        )
    return out


def suite_compositional_dowling(ns):
    rng = random.Random(ns.seed)
    out = []
    for s in ns.s_list:
        for _ in range(5):
            f = {i: rng.randint(-3, 3) for i in range(1, ns.nmax + 1)}
            g = {i: rng.randint(-3, 3) for i in range(ns.nmax + 1)}
            k = {i: rng.randint(-3, 3) for i in range(ns.nmax + 1)}
            out.append(
                identities.compositional_check_dowling(
                    f.__getitem__, g.__getitem__, k.__getitem__, s, ns.nmax, ns.run
                )
            )
    return out


# The default grids of ex3.5 and cor3.4 stop their Dowling and r-divisible
# rows at n = 4; a given --nmax runs every row to it.
def suite_rank_polynomials(ns):
    t_values = [Fraction(v) for v in range(-1, ns.nmax + 2)]
    out = [identities.rank_polynomial_check("partition", 1, t_values, ns.nmax, ns.run)]
    for s in ns.s_list:
        out.append(
            identities.rank_polynomial_check("dowling", s, t_values, ns.given_nmax or 4, ns.run)
        )
    return out


def suite_mu_series(ns):
    # Pi_n is Q^(1)_n and L_n(s) is D^(1,0)(s)
    out = [identities.check_mu_series(1, None, 1, ns.nmax)]
    out.append(identities.check_mu_series(2, None, 1, ns.given_nmax or 4))
    for s in ns.s_list:
        out.append(identities.check_mu_series(1, 0, s, ns.given_nmax or 4))
    return out


def suite_thm41(ns):
    return [identities.restricted_mu_check(ns.I, None, 1, ns.window, ns.run)]


def suite_thm42(ns):
    return [identities.restricted_mu_check(ns.I, ns.J, ns.s, ns.window, ns.run)]


def suite_semigroup(ns):
    return [identities.semigroup_check(ns.I, ns.J, ns.s, ns.window, ns.run)]


def suite_prop45(ns):
    out = []
    for r, k in [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]:
        for s in ns.s_list:
            out.append(identities.d_rk_series_check(r, k, s, ns.nmax, ns.run))
    return out


def suite_cor47(ns):
    return [
        identities.binomial_mu_check(1, [1, 2, 3], ns.nmax, ns.run),
        identities.binomial_mu_check(2, [1, 2, 3], ns.nmax, ns.run),
    ]


def suite_cor48(ns):
    out = []
    for k in (0, 1, 2, 3):
        for s in ns.s_list:
            out.append(identities.hyperbolic_series_check(k, s, ns.nmax + 2))
    return out


def suite_macmahon(ns):
    report = identities.IdentityReport("macmahon-multiplication", {"max_total": ns.nmax})
    for total in range(2, ns.nmax + 1):
        for n in range(1, total):
            m = total - n
            for u_bits in range(2 ** (n - 1)):
                u = "".join("ab"[u_bits >> i & 1] for i in range(n - 1))
                for v_bits in range(2 ** (m - 1)):
                    v = "".join("ab"[v_bits >> i & 1] for i in range(m - 1))
                    ok = descents.multiplication_check(u, v)
                    report.add(f"u={u or 'e'},v={v or 'e'}", 1 if ok else 0, 1)
    return [report]


def suite_eulerian(ns):
    report = identities.IdentityReport(
        "alternating-eulerian", {"T": ns.nmax, "q_values": ["1", "2"]}
    )
    for r, w in [(2, "a"), (2, "aa"), (3, "aa")]:
        for q in (1, 2):
            ok = descents.eulerian_identity_check(r, w, q, ns.nmax)
            report.add(f"r={r},w={w},q={q}", 1 if ok else 0, 1)
    return [report]


def suite_thm54(ns):
    return [
        identities.mu_descent_check(2, 1, 1, ns.run),
        identities.mu_descent_check(2, 1, 2, ns.run),
        identities.mu_descent_check(1, 1, 4, ns.run),
        identities.mu_descent_check(2, 2, 1, ns.run),
    ]


def suite_thm55(ns):
    return [
        identities.theorem_j1_check(2, 1, ns.run),
        identities.theorem_j1_check(2, 2, ns.run),
        identities.theorem_j1_check(3, 1, ns.run),
    ]


def suite_cor56(ns):
    report = identities.IdentityReport("r-divisible-euler", {})
    for n in (1, 2):
        m = 2 * n + 2
        mu = ns.run.once(identities.build_extended, m, 2, 2).mu
        report.add(f"m={m}", abs(mu), descents.euler_number(2 * n + 1))
    return [report]


def suite_el(ns):
    out = []
    for m, r, j in [(3, 2, 1), (4, 2, 2), (5, 2, 3), (6, 2, 2), (7, 3, 4)]:
        result = shelling.el_verify(m, r, j, built=ns.run.once(identities.build_extended, m, r, j))
        report = identities.IdentityReport("el-shelling", {"m": m, "r": r, "j": j})
        report.add("rising_violations", result["rising_violations"], 0)
        report.add("f_sigma_match", 1 if result["f_sigma_match"] else 0, 1)
        report.add("falling_count", result["falling_count"], result["des_expected"])
        report.add("mu_abs", abs(result["mu"]), result["falling_count"])
        out.append(report)
    return out
