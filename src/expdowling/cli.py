"""Command-line front end: build and export lattices, run named verification
suites, print series and descent tables.

Each subcommand accepts only the options it reads.  Exit codes: 0 all checks
exact, or exact up to the constant sign documented for that identity; 1 a
check mismatched or showed an unexpected sign; 2 bad usage (an unknown suite,
an option the subcommand does not read, a suite option such as --nmax or --s
for a suite that does not read it, invalid parameters, a Mobius number
mu(0-hat, 1-hat) of a poset without a unique 0-hat or 1-hat, an --output or
--cache-dir path that cannot be written, a `verify` report without rows) or
an exceeded guard; 3 an internal error, including any other exception.

Every command runs in a fresh process, so start-up imports only what every
command needs: a module that only one command reads is imported inside that
command.  So hashlib (the --cache-dir key), csv (--format csv), traceback
(an internal error) and json (exports, reports and the cache) load only
where they are read, and so do the verify stack (`suites`, `identities`,
`series` with fractions, `descents`, `shelling`), which `verify`,
`series`, `descents` and `el-check` import inside the command.  A
`mobius` run loads only `structures` and `poset`.  `verify` hands each suite
the memo of its invocation, an `identities.Run`, as `ns.run`.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import os
import sys

from . import __version__, structures
from .poset import top_mu
from .structures import GUARD, DowlingElement, GuardError, ParameterError

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


@contextlib.contextmanager
def _writing(option: str, path: str):
    """Report an OSError raised inside the block as bad usage, a
    ParameterError naming `option` and its `path`."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot write {option} {path}: {exc.strerror or exc}") from None


def _emit(text: str, output) -> None:
    if output:
        with _writing("--output", output), open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(data) -> str:
    import json

    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# family -> (its builder and its `Family` function in `structures`, the
# options both take, in order).  They are looked up by name at each call, so
# that a wrapper rebound on the module (perfbench/traced.py) sees the build.
FAMILIES = {
    "pi": ("build_partition_lattice", "partition_family", ("m",)),
    "dowling": ("build_dowling_lattice", "dowling_family", ("n", "s")),
    "pi-r": ("build_r_divisible", "r_divisible_family", ("m", "r")),
    "pi-rj": ("build_extended", "extended_family", ("m", "r", "j")),
    "q-r": ("build_Q_r", "Q_r_family", ("n", "r")),
    "d-rk": ("build_D_rk", "D_rk_family", ("n", "r", "k", "s")),
    "q-I": ("build_restricted_partition", "restricted_partition_family", ("n", "I")),
    "r-IJ": ("build_restricted_dowling", "restricted_dowling_family", ("n", "s", "I", "J")),
}


def _family_args(ns) -> list:
    """The options that the family of `ns` takes, in order."""
    keys = FAMILIES[ns.family][2]
    missing = [f"--{key}" for key in keys if getattr(ns, key) is None]
    if missing:
        raise ParameterError(f"family {ns.family} needs {', '.join(missing)}")
    return [getattr(ns, key) for key in keys]


def build_family(ns):
    return getattr(structures, FAMILIES[ns.family][0])(*_family_args(ns), guard=ns.guard)


def _built_json(built):
    return {
        "poset": built.poset.to_json_dict(),
        "elements": [_element_json(e) for e in built.elements],
        "bottom": built.bottom,
    }


# suite name -> (its function in `suites`, the parameters it uses when they
# are not given).  Suite names mirror the numbered results they exercise;
# `suites` is imported by `cmd_verify` alone, and its functions are looked
# up by name at each run, as FAMILIES names builders.
SUITES = {
    "lemma2.1": ("suite_census", {"nmax": 4, "s_list": [1, 2, 3]}),
    "prop3.2": ("suite_census", {"nmax": 4, "s_list": [1, 2, 3]}),
    "thm3.2": ("suite_compositional_partition", {"nmax": 6}),
    "thm3.3": ("suite_compositional_dowling", {"nmax": 4, "s_list": [1, 2]}),
    "ex3.5": ("suite_rank_polynomials", {"nmax": 5, "s_list": [1, 2]}),
    "cor3.4": ("suite_mu_series", {"nmax": 7, "s_list": [1, 2, 3]}),
    "thm4.1": ("suite_thm41", {"I": frozenset({2}), "window": 8}),
    "thm4.2": ("suite_thm42", {"I": frozenset({2}), "J": frozenset({1}), "s": 1, "window": 8}),
    "cor4.3": (
        "suite_semigroup",
        {"I": frozenset({2, 4, 6, 8}), "J": frozenset({1, 3, 5, 7}), "s": 1, "window": 8},
    ),
    "prop4.5": ("suite_prop45", {"nmax": 6, "s_list": [1, 2]}),
    "cor4.7": ("suite_cor47", {"nmax": 4}),
    "cor4.8": ("suite_cor48", {"nmax": 8, "s_list": [1, 2]}),
    "lemma5.1": ("suite_macmahon", {"nmax": 6}),
    "prop5.3": ("suite_eulerian", {"nmax": 9}),
    "thm5.4": ("suite_thm54", {}),
    "thm5.5": ("suite_thm55", {}),
    "cor5.6": ("suite_cor56", {}),
    "thm6.1": ("suite_el", {}),
    "cor6.4": ("suite_el", {}),
    "cor6.5": ("suite_el", {}),
}
# a suite reads exactly the options its defaults name
SUITE_OPTIONS = sorted({key for _, defaults in SUITES.values() for key in defaults})


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
    import traceback  # only this path reads it (see the module docstring)

    print(f"internal error{where}:", file=sys.stderr)
    traceback.print_exc()
    return EXIT_INTERNAL


def cmd_verify(ns) -> int:
    names = sorted(SUITES) if ns.suite == "all" else [ns.suite]
    if ns.suite != "all":
        for key in SUITE_OPTIONS:
            if getattr(ns, key) is not None and key not in SUITES[ns.suite][1]:
                print(f"suite {ns.suite} does not read --{key.replace('_', '-')}", file=sys.stderr)
                return EXIT_USAGE
    from . import identities, suites

    runs = {}  # suite function name -> the first suite name that runs it
    for name in names:
        runs.setdefault(SUITES[name][0], name)
    run, results = identities.Run(), []  # run: the memo this invocation's suites share
    for fn, name in runs.items():
        local = argparse.Namespace(
            **vars(ns) | {k: v for k, v in SUITES[name][1].items() if getattr(ns, k) is None},
            given_nmax=ns.nmax, run=run,
        )
        try:
            reports = getattr(suites, fn)(local)
            for report in reports:  # a report without rows checks nothing
                if not report.rows:
                    raise ParameterError(f"the {report.name} report has no rows")
        except GuardError as exc:
            print(f"guard exceeded in {name}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ParameterError as exc:
            print(f"invalid parameters for {name}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except Exception:
            return _internal_error(f" in {name}")
        results.extend(reports)
    if ns.format == "csv":
        import csv

        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["identity", "n", "brute", "closed_form", "ratio"])
        for report in results:
            for row in report.to_csv_rows():
                writer.writerow([report.name] + row)
        text = out.getvalue()
    else:
        # a suite named alone echoes the parameters of its one run
        text = _json({
            "config": resolved_config(ns if ns.suite == "all" else local),
            "results": [r.to_json_dict() for r in results],
        })
    _emit(text, ns.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_MISMATCH


def _read_cache(path):
    """The text of the cached export at `path`, or None when it is missing
    or damaged (truncated, without the final newline that every export of
    this version ends in, not JSON, not an export), so that it is rebuilt."""
    import json

    try:
        with open(path) as fh:
            text = fh.read()
        data = json.loads(text)
    except (OSError, ValueError):
        return None
    exported = isinstance(data, dict) and set(data) == {"poset", "elements", "bottom"}
    return text if exported and text.endswith("\n") else None


def cmd_lattice(ns) -> int:
    cache_path = None
    if ns.cache_dir:
        with _writing("--cache-dir", ns.cache_dir):
            os.makedirs(ns.cache_dir, exist_ok=True)
        import hashlib
        import json

        key_src = json.dumps(
            {k: sorted(v) if isinstance(v, frozenset) else v
             for k, v in vars(ns).items()
             if k in ("family", "m", "n", "r", "j", "k", "s", "I", "J", "guard")}
            | {"version": __version__},
            sort_keys=True,
        )
        key = hashlib.sha256(key_src.encode()).hexdigest()[:16]
        cache_path = os.path.join(ns.cache_dir, f"lattice-{key}.json")
        cached = _read_cache(cache_path)
        if cached is not None:
            _emit(cached, ns.output)
            return EXIT_OK
        # a miss: learn that the export cannot be stored before building it
        with _writing("--cache-dir", ns.cache_dir):
            if os.path.isdir(cache_path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if not os.access(ns.cache_dir, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    text = _json(_built_json(build_family(ns)))
    if cache_path:
        # write beside the target and rename, so a reader never sees half a file
        partial = f"{cache_path}.{os.getpid()}.tmp"
        try:
            with _writing("--cache-dir", ns.cache_dir):
                with open(partial, "w") as fh:
                    fh.write(text)
                os.replace(partial, cache_path)
        finally:
            if os.path.exists(partial):
                os.remove(partial)
    _emit(text, ns.output)
    return EXIT_OK


def _undefined_mu(ns):
    """Why mu(0-hat, 1-hat) is undefined, from the parameters alone; None if
    it is defined or the builder rejects them.  The other families always
    have a 0-hat and a 1-hat."""
    if ns.family == "q-I" and None not in (ns.n, ns.I) and structures.lacks_unique_top(ns.n, ns.I):
        return f"Q_{ns.n}^I has more than one maximal element"
    if (ns.family == "r-IJ" and None not in (ns.n, ns.I, ns.J) and ns.s >= 1
            and structures.lacks_unique_top(ns.n, ns.I, ns.J, ns.s)):
        return f"R_{ns.n}^(I,J)({ns.s}) has more than one maximal element"
    if ns.family == "q-r" and None not in (ns.n, ns.r) and min(ns.n, ns.r) >= 2:
        count = structures.denominator_N_rk(ns.n, ns.r, 0, 1)
        return f"Q^({ns.r})_{ns.n} has {count} minimal elements"
    return None


def cmd_mobius(ns) -> int:
    reason = _undefined_mu(ns)
    if reason:
        raise ParameterError(f"mu(0-hat, 1-hat) is undefined: {reason}")
    family = getattr(structures, FAMILIES[ns.family][1])(*_family_args(ns))
    print(top_mu(structures.grown_mobius(family, ns.guard)))
    return EXIT_OK


# series name -> its closed form, from the module `identities` and the options
SERIES = {
    "cor3.4-exponential": lambda ids, ns: ids.exponential_form(lambda n: 1, ns.T),
    "cor3.4-dowling": lambda ids, ns: ids.dowling_form(lambda n: 1, lambda n: 1, ns.s, ns.T),
    "prop4.5": lambda ids, ns: ids.d_rk_rhs_series(ns.r, ns.k, ns.s, ns.T),
}


def cmd_series(ns) -> int:
    from . import identities
    from .series import coeff_den

    f = SERIES[ns.name](identities, ns)
    print(", ".join(str(coeff_den(f, n)) for n in range(ns.T + 1)))
    return EXIT_OK


def cmd_descents(ns) -> int:
    from . import descents

    print(descents.des_q(ns.word) if ns.q else descents.des_count(ns.word))
    return EXIT_OK


def cmd_el_check(ns) -> int:
    from . import shelling

    result = shelling.el_verify(ns.m, ns.r, ns.j, guard=ns.guard)
    _emit(_json(result), ns.output)
    return EXIT_OK if result["passed"] else EXIT_MISMATCH


# the options that several subcommands read; each declares only those it reads
SHARED_OPTIONS = {
    "--output": {"help": "write to this file instead of standard output"},
    "--guard": {"type": _integers(0), "default": GUARD, "help": "element limit of a build"},
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
    except ParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        return _internal_error("")


if __name__ == "__main__":
    sys.exit(main())
