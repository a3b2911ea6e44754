"""Command-line front end: build and export lattices, run named verification
suites, print series and descent tables.

Each subcommand accepts only the options it reads.  Exit codes: 0 all checks
exact, or exact up to the constant sign documented for that identity; 1 a
check mismatched or showed an unexpected sign; 2 bad usage (an unknown suite,
an option the subcommand does not read, invalid parameters) or an exceeded
guard; 3 an internal error.
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

from . import __version__, descents, identities, shelling, structures
from .series import UNIT, coeff_den
from .structures import GUARD, DowlingElement, GuardError

EXIT_OK, EXIT_MISMATCH, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3


def _integers(least: int, collect=None):
    """argparse type: an integer >= `least` or, with `collect` (list or
    frozenset), a comma list of them; a set skips empty items."""

    def parse(text: str):
        items = [text] if collect is None else text.split(",")
        try:
            values = [int(v) for v in items if v != "" or collect is not frozenset]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected integers: {text!r}")
        if any(v < least for v in values):
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {text!r}")
        return values[0] if collect is None else collect(values)

    return parse


def _descent_word(text: str) -> str:
    if set(text) - {"a", "b"}:
        raise argparse.ArgumentTypeError(f"a descent word has only the letters a and b: {text!r}")
    return text


def _element_json(e):
    if isinstance(e, DowlingElement):
        return e.to_json_dict()
    return [list(block) for block in e]


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# family -> (builder in `structures`, the options it takes, in order).  The
# builder is looked up by name at each call, so that a wrapper rebound on the
# module (perfbench/traced.py) sees the build.
FAMILIES = {
    "pi": ("build_partition_lattice", ("m",)),
    "dowling": ("build_dowling_lattice", ("n", "s")),
    "pi-r": ("build_r_divisible", ("m", "r")),
    "pi-rj": ("build_extended", ("m", "r", "j")),
    "q-r": ("build_Q_r", ("n", "r")),
    "d-rk": ("build_D_rk", ("n", "r", "k", "s")),
    "q-I": ("build_restricted_partition", ("n", "I")),
    "r-IJ": ("build_restricted_dowling", ("n", "s", "I", "J")),
}


def build_family(ns):
    builder, keys = FAMILIES[ns.family]
    missing = [f"--{key}" for key in keys if getattr(ns, key) is None]
    if missing:
        raise ValueError(f"family {ns.family} needs {', '.join(missing)}")
    # D_n^(r,k) has no 0-hat of its own; the CLI reports it with one adjoined
    extra = {"adjoin": True} if ns.family == "d-rk" else {}
    return getattr(structures, builder)(*(getattr(ns, key) for key in keys), guard=ns.guard, **extra)


def _built_json(built):
    return {
        "poset": built.poset.to_json_dict(),
        "elements": [_element_json(e) for e in built.elements],
        "bottom": built.bottom,
    }


# ---------------------------------------------------------------------------
# verification suites (names mirror the numbered results they exercise)


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


# suite name -> (suite function, parameters it uses when they are not given)
SUITES = {
    "lemma2.1": (suite_census, {"nmax": 4, "s_list": [1, 2, 3]}),
    "prop3.2": (suite_census, {"nmax": 4, "s_list": [1, 2, 3]}),
    "thm3.2": (suite_compositional_partition, {"nmax": 6}),
    "thm3.3": (suite_compositional_dowling, {"nmax": 4, "s_list": [1, 2]}),
    "ex3.5": (suite_rank_polynomials, {"nmax": 5, "s_list": [1, 2]}),
    "cor3.4": (suite_mu_series, {"nmax": 7, "s_list": [1, 2, 3]}),
    "thm4.1": (suite_thm41, {"I": frozenset({2}), "window": 8}),
    "thm4.2": (suite_thm42, {"I": frozenset({2}), "J": frozenset({1}), "s": 1, "window": 8}),
    "cor4.3": (
        suite_semigroup,
        {"I": frozenset({2, 4, 6, 8}), "J": frozenset({1, 3, 5, 7}), "s": 1, "window": 8},
    ),
    "prop4.5": (suite_prop45, {"nmax": 6, "s_list": [1, 2]}),
    "cor4.7": (suite_cor47, {"nmax": 4}),
    "cor4.8": (suite_cor48, {"nmax": 8, "s_list": [1, 2]}),
    "lemma5.1": (suite_macmahon, {"nmax": 6}),
    "prop5.3": (suite_eulerian, {"nmax": 9}),
    "thm5.4": (suite_thm54, {}),
    "thm5.5": (suite_thm55, {}),
    "cor5.6": (suite_cor56, {}),
    "thm6.1": (suite_el, {}),
    "cor6.4": (suite_el, {}),
    "cor6.5": (suite_el, {}),
}


def resolved_config(ns) -> dict:
    keys = ("suite", "nmax", "s", "s_list", "I", "J", "window", "seed", "format")
    out = {}
    for key in keys:
        value = getattr(ns, key)
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


def validate_suite_params(fn, ns) -> None:
    """Reject the cor4.3 parameters that are not semigroups, before any suite
    runs, so that an exception raised inside a suite is an internal error.
    Every single value is range-checked when the arguments are parsed."""
    if fn is suite_semigroup:
        problem = identities.semigroup_violation(ns.I, ns.J, ns.window)
        if problem:
            raise ValueError(problem)


def cmd_verify(ns) -> int:
    names = sorted(SUITES) if ns.suite == "all" else [ns.suite]
    runs = {}  # suite function -> (first name, resolved parameters)
    for name in names:
        fn, defaults = SUITES[name]
        if fn in runs:
            continue
        local = argparse.Namespace(
            **vars(ns) | {k: v for k, v in defaults.items() if getattr(ns, k) is None}
        )
        try:
            validate_suite_params(fn, local)
        except ValueError as exc:
            print(f"invalid parameters for {name}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        runs[fn] = (name, local)
    results = []
    for fn, (name, local) in runs.items():
        try:
            results.extend(fn(local))
        except GuardError as exc:
            print(f"guard exceeded in {name}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except Exception:
            return _internal_error(f" in {name}")
    if ns.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["identity", "n", "brute", "closed_form", "ratio"])
        for report in results:
            for row in report.to_csv_rows()[1:]:
                writer.writerow([report.name] + row)
        text = out.getvalue()
    else:
        text = _json({
            "config": resolved_config(ns),
            "results": [r.to_json_dict() for r in results],
        })
    _emit(text, ns.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_MISMATCH


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
                _emit(_json(json.load(fh)), ns.output)
            return EXIT_OK
    data = _built_json(build_family(ns))
    if cache_path:
        with open(cache_path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
    _emit(_json(data), ns.output)
    return EXIT_OK


def cmd_mobius(ns) -> int:
    print(identities.brute_mu(build_family(ns)))
    return EXIT_OK


SERIES = {
    "cor3.4-exponential": lambda ns: identities.series_mu_exponential(UNIT, ns.T),
    "cor3.4-dowling": lambda ns: identities.series_mu_dowling(ns.s, UNIT, UNIT, ns.T),
    "prop4.5": lambda ns: identities.d_rk_rhs_series(ns.r, ns.k, ns.s, ns.T),
}


def cmd_series(ns) -> int:
    f = SERIES[ns.name](ns)
    print(", ".join(str(coeff_den(f, n, UNIT)) for n in range(ns.T + 1)))
    return EXIT_OK


def cmd_descents(ns) -> int:
    print(descents.des_q(ns.word) if ns.q else descents.des_count(ns.word))
    return EXIT_OK


def cmd_el_check(ns) -> int:
    result = shelling.el_verify(ns.m, ns.r, ns.j, guard=ns.guard)
    _emit(_json(result), ns.output)
    return EXIT_OK if result["passed"] else EXIT_MISMATCH


# the options that several subcommands read; each declares only those it reads
SHARED_OPTIONS = {
    "--output": {"help": "write to this file instead of standard output"},
    "--guard": {"type": int, "default": GUARD, "help": "element limit of a build"},
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="expdowling")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, *shared):
        p = sub.add_parser(name, help=summary)
        for flag in shared:
            p.add_argument(flag, **SHARED_OPTIONS[flag])
        p.set_defaults(fn=fn)
        return p

    def family_args(p):
        p.add_argument("--family", required=True, choices=FAMILIES)
        for key in ("m", "n", "r", "j", "k"):
            p.add_argument(f"--{key}", type=int)
        p.add_argument("--s", type=int, default=1)
        p.add_argument("--I", type=_integers(1, frozenset))
        p.add_argument("--J", type=_integers(0, frozenset))

    positive, natural = _integers(1), _integers(0)
    p = command("verify", cmd_verify, "run a named verification suite", "--output")
    p.add_argument("suite", choices=["all", *SUITES], metavar="suite")
    p.add_argument("--nmax", type=positive)
    p.add_argument("--s", type=positive)
    p.add_argument("--s-list", dest="s_list", type=_integers(1, list))
    p.add_argument("--I", type=_integers(1, frozenset))
    p.add_argument("--J", type=_integers(0, frozenset))
    p.add_argument("--window", type=positive)
    p.add_argument("--seed", type=int, default=20090311)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = command("lattice", cmd_lattice, "build and export a lattice", "--output", "--guard")
    family_args(p)
    p.add_argument("--cache-dir", dest="cache_dir")

    family_args(command("mobius", cmd_mobius, "Mobius number of a lattice", "--guard"))

    p = command("series", cmd_series, "coefficients of a named closed form")
    p.add_argument("--name", required=True, choices=SERIES)
    p.add_argument("--T", type=natural, default=6)
    p.add_argument("--s", type=positive, default=1)
    p.add_argument("--r", type=positive, default=1)
    p.add_argument("--k", type=natural, default=1)

    p = command("descents", cmd_descents, "Des / Des_q of a descent word")
    p.add_argument("--word", required=True, type=_descent_word)
    p.add_argument("--q", action="store_true")

    p = command("el-check", cmd_el_check, "EL-labeling report for one lattice", "--output", "--guard")
    for key in ("m", "r", "j"):
        p.add_argument(f"--{key}", type=int, required=True)

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
