"""Command-line front end: build and export lattices, run named verification
suites, print series and descent tables.

Exit codes: 0 all checks exact, or exact up to the constant sign documented
for that identity; 1 a check mismatched or showed an unexpected sign; 2 bad
suite name, invalid parameters or an exceeded guard; 3 an internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__, descents, identities, shelling
from .poset import mobius_table
from .series import UNIT, coeff_den
from .structures import (
    GUARD,
    DowlingElement,
    GuardError,
    build_D_rk,
    build_dowling_lattice,
    build_extended,
    build_partition_lattice,
    build_Q_r,
    build_r_divisible,
    build_restricted_dowling,
    build_restricted_partition,
)

EXIT_OK, EXIT_MISMATCH, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3


def _parse_int_set(text: str) -> frozenset:
    try:
        return frozenset(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers: {text!r}")


def _element_json(e):
    if isinstance(e, DowlingElement):
        return e.to_json_dict()
    return [list(block) for block in e]


def _emit(data, ns):
    if getattr(ns, "format", "json") == "csv" and isinstance(data, dict) and "rows" in data:
        out = io.StringIO()
        writer = csv.writer(out)
        for row in data["rows"]:
            writer.writerow(row)
        text = out.getvalue()
    else:
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if getattr(ns, "output", None):
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


FAMILY_ARGS = {
    "pi": ("m",),
    "dowling": ("n", "s"),
    "pi-r": ("m", "r"),
    "pi-rj": ("m", "r", "j"),
    "q-r": ("n", "r"),
    "d-rk": ("n", "r", "k", "s"),
    "q-I": ("n", "I"),
    "r-IJ": ("n", "s", "I", "J"),
}


def build_family(ns):
    fam = ns.family
    missing = [f"--{key}" for key in FAMILY_ARGS.get(fam, ()) if getattr(ns, key) is None]
    if missing:
        raise ValueError(f"family {fam} needs {', '.join(missing)}")
    if fam == "pi":
        return build_partition_lattice(ns.m, guard=ns.guard)
    if fam == "dowling":
        return build_dowling_lattice(ns.n, ns.s, guard=ns.guard)
    if fam == "pi-r":
        return build_r_divisible(ns.m, ns.r, guard=ns.guard)
    if fam == "pi-rj":
        return build_extended(ns.m, ns.r, ns.j, guard=ns.guard)
    if fam == "q-r":
        return build_Q_r(ns.n, ns.r, guard=ns.guard)
    if fam == "d-rk":
        return build_D_rk(ns.n, ns.r, ns.k, ns.s, guard=ns.guard, adjoin=True)
    if fam == "q-I":
        return build_restricted_partition(ns.n, ns.I, guard=ns.guard)
    if fam == "r-IJ":
        return build_restricted_dowling(ns.n, ns.s, ns.I, ns.J, guard=ns.guard)
    raise argparse.ArgumentTypeError(f"unknown family {fam!r}")


def _built_json(built):
    return {
        "poset": built.poset.to_json_dict(),
        "elements": [_element_json(e) for e in built.elements],
        "bottom": built.bottom,
    }


# ---------------------------------------------------------------------------
# verification suites (names mirror the numbered results they exercise)


def _wrap(reports):
    if not isinstance(reports, list):
        reports = [reports]
    return reports


def suite_census(ns):
    out = []
    for s in ns.s_list:
        for n in range(1, ns.nmax + 1):
            out.append(identities.census_check(n, s))
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
            identities.compositional_check_partition(f.__getitem__, g.__getitem__, ns.nmax)
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
                    f.__getitem__, g.__getitem__, k.__getitem__, s, ns.nmax
                )
            )
    return out


def suite_rank_polynomials(ns):
    t_values = [Fraction(v) for v in range(-1, ns.nmax + 2)]
    out = [identities.rank_polynomial_check("partition", 1, t_values, ns.nmax)]
    for s in ns.s_list:
        out.append(identities.rank_polynomial_check("dowling", s, t_values, min(ns.nmax, 4)))
    return out


def suite_mu_series(ns):
    out = [identities.check_mu_series_partition(ns.nmax)]
    out.append(identities.check_mu_series_partition_r(2, min(4, ns.nmax)))
    for s in ns.s_list:
        out.append(identities.check_mu_series_dowling(s, min(4, ns.nmax)))
    return out


def suite_thm41(ns):
    return [identities.restricted_mu_check(ns.I, None, 1, ns.window)]


def suite_thm42(ns):
    return [identities.restricted_mu_check(ns.I, ns.J, ns.s, ns.window)]


def suite_semigroup(ns):
    return [identities.semigroup_check(ns.I, ns.J, ns.s, ns.window, ns.window)]


def suite_prop45(ns):
    out = []
    for r, k in [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]:
        for s in ns.s_list:
            out.append(identities.d_rk_series_check(r, k, s, ns.nmax))
    return out


def suite_cor47(ns):
    return [
        identities.binomial_mu_check(1, [1, 2, 3], min(ns.nmax, 4)),
        identities.binomial_mu_check(2, [1, 2, 3], min(ns.nmax, 4)),
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
        identities.mu_descent_check(2, 1, 1),
        identities.mu_descent_check(2, 1, 2),
        identities.mu_descent_check(1, 1, 4),
        identities.mu_descent_check(2, 2, 1),
    ]


def suite_thm55(ns):
    return [
        identities.theorem_j1_check(2, 1),
        identities.theorem_j1_check(2, 2),
        identities.theorem_j1_check(3, 1),
    ]


def suite_cor56(ns):
    report = identities.IdentityReport("r-divisible-euler", {})
    for n in (1, 2):
        m = 2 * n + 2
        check = identities.mu_descent_check(2, 1, n)
        _, brute, _ = check.rows[0]
        report.add(f"m={m}", abs(brute), descents.euler_number(2 * n + 1))
    return [report]


def suite_el(ns):
    out = []
    for m, r, j in [(3, 2, 1), (4, 2, 2), (5, 2, 3), (6, 2, 2), (7, 3, 4)]:
        result = shelling.el_verify(m, r, j)
        report = identities.IdentityReport("el-shelling", {"m": m, "r": r, "j": j})
        report.add("rising_violations", result["rising_violations"], 0)
        report.add("f_sigma_match", 1 if result["f_sigma_match"] else 0, 1)
        report.add("falling_count", result["falling_count"], result["des_expected"])
        report.add("mu_abs", abs(result["mu"]), result["falling_count"])
        out.append(report)
    return out


SUITES = {
    "lemma2.1": suite_census,
    "prop3.2": suite_census,
    "thm3.2": suite_compositional_partition,
    "thm3.3": suite_compositional_dowling,
    "ex3.5": suite_rank_polynomials,
    "cor3.4": suite_mu_series,
    "thm4.1": suite_thm41,
    "thm4.2": suite_thm42,
    "cor4.3": suite_semigroup,
    "prop4.5": suite_prop45,
    "cor4.7": suite_cor47,
    "cor4.8": suite_cor48,
    "lemma5.1": suite_macmahon,
    "prop5.3": suite_eulerian,
    "thm5.4": suite_thm54,
    "thm5.5": suite_thm55,
    "cor5.6": suite_cor56,
    "thm6.1": suite_el,
    "cor6.4": suite_el,
    "cor6.5": suite_el,
}

SUITE_DEFAULTS = {
    "lemma2.1": {"nmax": 4, "s_list": [1, 2, 3]},
    "prop3.2": {"nmax": 4, "s_list": [1, 2, 3]},
    "thm3.2": {"nmax": 6},
    "thm3.3": {"nmax": 4, "s_list": [1, 2]},
    "ex3.5": {"nmax": 5, "s_list": [1, 2]},
    "cor3.4": {"nmax": 7, "s_list": [1, 2, 3]},
    "thm4.1": {"I": frozenset({2}), "window": 8},
    "thm4.2": {"I": frozenset({2}), "J": frozenset({1}), "s": 1, "window": 8},
    "cor4.3": {
        "I": frozenset({2, 4, 6, 8}),
        "J": frozenset({1, 3, 5, 7}),
        "s": 1,
        "window": 8,
    },
    "prop4.5": {"nmax": 6, "s_list": [1, 2]},
    "cor4.7": {"nmax": 4},
    "cor4.8": {"nmax": 8, "s_list": [1, 2]},
    "lemma5.1": {"nmax": 6},
    "prop5.3": {"nmax": 9},
    "thm6.1": {},
}


def resolved_config(ns) -> dict:
    keys = ("suite", "nmax", "s", "s_list", "I", "J", "window", "seed", "format", "jobs")
    out = {}
    for key in keys:
        value = getattr(ns, key, None)
        if isinstance(value, frozenset):
            value = sorted(value)
        out[key] = value
    return out


def _internal_error(where: str) -> int:
    """Report the exception being handled, with its traceback, as a fault of
    the program rather than of its arguments."""
    import traceback  # imported here so that start-up imports stay as they are

    print(f"internal error{where}:", file=sys.stderr)
    traceback.print_exc()
    return EXIT_INTERNAL


def validate_suite_params(name, ns) -> None:
    """Reject parameters that suite `name` cannot run with, before any suite
    runs, so that an exception raised inside a suite is an internal error."""
    for key in ("nmax", "s", "window", "jobs"):
        if getattr(ns, key) < 1:
            raise ValueError(f"--{key} must be >= 1, got {getattr(ns, key)}")
    if not ns.s_list or min(ns.s_list) < 1:
        raise ValueError(f"--s-list must be positive integers, got {ns.s_list}")
    for key, least in (("I", 1), ("J", 0)):
        values = getattr(ns, key)
        if values and min(values) < least:
            raise ValueError(f"--{key} entries must be >= {least}, got {sorted(values)}")
    if SUITES[name] is suite_semigroup:
        problem = identities.semigroup_violation(ns.I, ns.J, ns.window)
        if problem:
            raise ValueError(problem)


def cmd_verify(ns) -> int:
    names = sorted(SUITES) if ns.suite == "all" else [ns.suite]
    if any(name not in SUITES for name in names):
        print(f"unknown suite: {ns.suite}", file=sys.stderr)
        return EXIT_USAGE
    runs = {}  # suite function -> (first name, resolved parameters)
    for name in names:
        fn = SUITES[name]
        if fn in runs:
            continue
        local = argparse.Namespace(**vars(ns))
        for key, value in SUITE_DEFAULTS.get(name, {}).items():
            if getattr(local, key, None) is None:
                setattr(local, key, value)
        for key, value in [("nmax", 4), ("s_list", [1, 2]), ("s", 1), ("window", 6)]:
            if getattr(local, key, None) is None:
                setattr(local, key, value)
        try:
            validate_suite_params(name, local)
        except ValueError as exc:
            print(f"invalid parameters for {name}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        runs[fn] = (name, local)
    results = []
    failed = False
    for fn, (name, local) in runs.items():
        try:
            reports = _wrap(fn(local))
        except GuardError as exc:
            print(f"guard exceeded in {name}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except Exception:
            return _internal_error(f" in {name}")
        for report in reports:
            results.append(report)
            if not report.passed:
                failed = True
    if ns.format == "csv":
        rows = [["identity", "n", "brute", "closed_form", "ratio"]]
        for report in results:
            for row in report.to_csv_rows()[1:]:
                rows.append([report.name] + row)
        _emit({"rows": rows}, ns)
    else:
        _emit(
            {
                "config": resolved_config(ns),
                "results": [r.to_json_dict() for r in results],
            },
            ns,
        )
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_lattice(ns) -> int:
    cache_path = None
    if ns.cache_dir:
        os.makedirs(ns.cache_dir, exist_ok=True)
        key_src = json.dumps(
            {k: sorted(v) if isinstance(v, frozenset) else v
             for k, v in vars(ns).items()
             if k in ("family", "m", "n", "r", "j", "k", "s", "I", "J", "guard")}
            | {"version": __version__},
            sort_keys=True,
        )
        key = hashlib.sha256(key_src.encode()).hexdigest()[:16]
        cache_path = os.path.join(ns.cache_dir, f"lattice-{key}.json")
        if os.path.exists(cache_path):
            with open(cache_path) as fh:
                _emit(json.load(fh), ns)
            return EXIT_OK
    built = build_family(ns)
    data = _built_json(built)
    if cache_path:
        with open(cache_path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
    _emit(data, ns)
    return EXIT_OK


def cmd_mobius(ns) -> int:
    built = build_family(ns)
    print(identities.brute_mu(built))
    return EXIT_OK


def cmd_series(ns) -> int:
    T = ns.T
    if ns.name == "cor3.4-exponential":
        f = identities.series_mu_exponential(UNIT, T)
    elif ns.name == "cor3.4-dowling":
        f = identities.series_mu_dowling(ns.s, UNIT, UNIT, T)
    elif ns.name == "prop4.5":
        f = identities.d_rk_rhs_series(ns.r, ns.k, ns.s, T)
    else:
        print(f"unknown series {ns.name!r}", file=sys.stderr)
        return EXIT_USAGE
    print(", ".join(str(coeff_den(f, n, UNIT)) for n in range(T + 1)))
    return EXIT_OK


def cmd_descents(ns) -> int:
    if ns.q:
        print(descents.des_q(ns.word))
    else:
        print(descents.des_count(ns.word))
    return EXIT_OK


def cmd_el_check(ns) -> int:
    result = shelling.el_verify(ns.m, ns.r, ns.j, guard=ns.guard)
    _emit(result, ns)
    return EXIT_OK if result["passed"] else EXIT_MISMATCH


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="expdowling")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--cache-dir", dest="cache_dir")
        p.add_argument("--guard", type=int, default=GUARD, help="element limit of a build")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--nmax", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--s-list", dest="s_list", type=lambda t: [int(v) for v in t.split(",")])
    p.add_argument("--I", type=_parse_int_set)
    p.add_argument("--J", type=_parse_int_set)
    p.add_argument("--window", type=int)
    p.add_argument("--seed", type=int, default=20090311)
    common(p)
    p.set_defaults(fn=cmd_verify)

    def family_args(p):
        p.add_argument("--family", required=True,
                       choices=["pi", "dowling", "pi-r", "pi-rj", "q-r", "d-rk", "q-I", "r-IJ"])
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--r", type=int)
        p.add_argument("--j", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--s", type=int, default=1)
        p.add_argument("--I", type=_parse_int_set)
        p.add_argument("--J", type=_parse_int_set)

    p = sub.add_parser("lattice", help="build and export a lattice")
    family_args(p)
    common(p)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("mobius", help="Mobius number of a lattice")
    family_args(p)
    common(p)
    p.set_defaults(fn=cmd_mobius)

    p = sub.add_parser("series", help="coefficients of a named closed form")
    p.add_argument("--name", required=True)
    p.add_argument("--T", type=int, default=6)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("descents", help="Des / Des_q of a descent word")
    p.add_argument("--word", required=True)
    p.add_argument("--q", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_descents)

    p = sub.add_parser("el-check", help="EL-labeling report for one lattice")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_el_check)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return ns.fn(ns)
    except GuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # lattice, mobius and el-check hand their arguments straight to the
        # builders, whose ValueErrors are argument checks
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        return _internal_error("")


if __name__ == "__main__":
    sys.exit(main())
