"""Traced run of one expdowling CLI invocation, for the benchmark's per-layer
metrics.

    python3 perfbench/traced.py <expdowling arguments...>

with ``src`` on ``PYTHONPATH``.  The script wraps the public entry points of
each module (a module is a layer), runs ``expdowling.cli.main`` in this
process with its standard output captured, and prints one JSON object:
``{"exit": code, "stdout": captured output, "raw": aggregates}``.

Each wrapper opens a span around the call.  A span's exclusive time (its
duration minus the spans it called) is added to its time bucket, so a layer's
``*_s`` figure is self time that excludes the layers it calls.  Counters that
are derived from sizes (pairs compared, relations, Mobius terms, permutations
scanned) are computed after the span has closed, and that time is charged to
no layer.  Leaf helpers that run once per element or per permutation
(``canonical_partition``, ``partition_leq``, ``dowling_leq``,
``descent_set``, ...) and generators (``partitions_of``) are not wrapped:
their time counts toward the layer that calls them.

A wrapper replaces the original in every module namespace (and class) that
holds it, because ``from .poset import mobius_table`` copies the name into
``identities``, ``shelling`` and ``cli``.  A function named here that the
program no longer defines is listed in ``raw["absent"]`` instead of wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import sys
import time
import traceback
from collections import defaultdict

MODULES = ("series", "poset", "structures", "descents", "identities", "shelling", "cli")


def _built(res, count):
    count["structures.builds"] += 1
    count["structures.elements"] += res.poset.n
    count["structures.covers"] += sum(map(len, res.poset.covers_up))


def _candidates(res, count):
    count["structures.candidates"] += len(res)


def _induced(res, count, elements, *_a, **_k):
    v = len(elements)
    count["structures.pairs_compared"] += v * (v - 1) // 2
    count["structures.kept"] += v


def _from_ambient(res, count, ambient, *_a, **_k):
    count["structures.candidates"] += len(ambient.elements)
    count["structures.kept"] += res.poset.n


def _closure(res, count):
    count["poset.closures"] += 1
    count["poset.relations"] += sum(row.bit_count() for row in res.up_rows)


def _mobius_up(res, count, P, x):
    count["poset.mobius_tables"] += 1
    row = P.up_rows[x]
    count["poset.mobius_terms"] += sum((row & P.down_rows[y]).bit_count() - 1 for y in res)


def _mobius_down(res, count, P, y):
    count["poset.mobius_tables"] += 1
    row = P.down_rows[y]
    count["poset.mobius_terms"] += sum((row & P.up_rows[x]).bit_count() - 1 for x in res)


def _chains(res, count):
    count["poset.chains_listed"] += len(res)


def _el(res, count):
    count["shelling.intervals"] += res["intervals_checked"]


def _perms(res, count, m, *_a, **_k):
    count["shelling.perms_scanned"] += math.factorial(m - 1)
    count["shelling.perms_qualifying"] += len(res)


def _call(name):
    def hook(res, count):
        count[name] += 1
    return hook


STRUCTURE_BUILDS = (
    "build_partition_lattice", "build_dowling_lattice", "build_r_divisible",
    "build_extended", "build_Q_r", "build_restricted_partition",
    "build_restricted_dowling", "build_D_rk",
)
_SERIES_METHODS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "scale_argument", "truncate",
)
_SERIES_FUNCTIONS = (
    "multiply", "compose", "log", "exp", "pow_rational", "series_from_table",
    "coeff_den", "sinh_series", "cosh_series", "sech_pow_series", "hyperbolic_builders",
)
_DESCENTS_FUNCTIONS = (
    "gaussian", "q_multinomial", "des_q_enumerate", "des_q", "des_count",
    "multiplication_check", "euler_number", "alternating_permutations",
    "prop_series_lhs", "prop_series_rhs", "eulerian_identity_check",
)

# (layer, "function" or "Class.method", time bucket, hook or None).  A hook
# runs after the span closes as hook(result, counters, *args, **kwargs) when
# it takes call arguments, else hook(result, counters).
SPANS = (
    [("cli", "main", "cli.self_s", None)]
    + [("structures", name, "structures.build_s", _built) for name in STRUCTURE_BUILDS]
    + [
        ("structures", "ambient_dowling", "structures.build_s", None),
        ("structures", "set_partitions", "structures.build_s", _candidates),
        ("structures", "enumerate_dowling", "structures.build_s", _candidates),
        ("structures", "induced_subposet", "structures.build_s", _induced),
        ("structures", "induce_from_ambient", "structures.build_s", _from_ambient),
        ("structures", "adjoin_zero", "structures.build_s", None),
        ("structures", "bijection_extended_to_dowling", "structures.build_s", None),
        ("poset", "from_covers", "poset.closure_s", _closure),
        ("poset", "mobius_table", "poset.mobius_s", _mobius_up),
        ("poset", "mobius_table_to_top", "poset.mobius_s", _mobius_down),
        ("poset", "maximal_chains", "poset.chains_s", _chains),
        ("shelling", "el_verify", "shelling.el_s", _el),
        ("shelling", "rising_chain_census", "shelling.el_s", None),
        ("shelling", "falling_chains", "shelling.el_s", None),
        ("shelling", "permutations_with_descents", "shelling.el_s", _perms),
        ("shelling", "f_sigma", "shelling.el_s", None),
    ]
    + [("series", name, "series.busy_s", _call("series.calls")) for name in _SERIES_FUNCTIONS]
    + [
        ("series", f"TruncatedSeries.{name}", "series.busy_s", _call("series.calls"))
        for name in _SERIES_METHODS
    ]
    + [("descents", name, "descents.busy_s", _call("descents.calls")) for name in _DESCENTS_FUNCTIONS]
)


class Tracer:
    """Aggregates exclusive span time per bucket, counters, and errors per
    layer.  Nothing is written until the run ends."""

    def __init__(self):
        self.time = defaultdict(float)
        self.count = defaultdict(int)
        self._children = [0.0]   # time spent in child spans, one slot per open span
        self._failed = set()     # (layer, id(exception)) already counted

    def wrap(self, fn, layer, bucket, hook):
        children = self._children
        takes_args = hook is not None and len(inspect.signature(hook).parameters) > 2

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                elapsed = time.perf_counter() - t0
                self.time[bucket] += elapsed - children.pop()
                children[-1] += elapsed
                if (layer, id(exc)) not in self._failed:
                    self._failed.add((layer, id(exc)))
                    self.count[f"{layer}.errors"] += 1
                raise
            self.time[bucket] += time.perf_counter() - t0 - children.pop()
            if hook is not None:
                if takes_args:
                    hook(res, self.count, *args, **kwargs)
                else:
                    hook(res, self.count)
            # The caller's exclusive time excludes this whole call, hook included.
            children[-1] += time.perf_counter() - t0
            return res

        return traced


def _identities_spans(identities):
    """Every public function of `identities` is a span of that layer."""
    report = getattr(identities, "IdentityReport", ())

    def checks(res, count):
        if isinstance(res, report):
            count["identities.checks"] += 1

    return [
        ("identities", key, "identities.self_s", checks)
        for key, fn in vars(identities).items()
        if inspect.isfunction(fn) and fn.__module__ == identities.__name__
        and not key.startswith("_") and not inspect.isgeneratorfunction(fn)
    ]


def install(tracer, modules, package):
    """Wrap every function of SPANS (and of `identities`) that `modules`
    still define and rebind each wrapper wherever the original is bound.
    Returns the names of the functions that no longer exist."""
    owners = [package, *modules.values()]
    for module in modules.values():
        owners.extend(
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        )
    absent = []
    wrappers = set()
    for layer, name, bucket, hook in SPANS + _identities_spans(modules["identities"]):
        fn = modules[layer]
        for part in name.split("."):
            fn = getattr(fn, part, None)
        if fn is None:
            absent.append(f"{layer}.{name}")
            continue
        if id(fn) in wrappers:  # an alias such as __rmul__ = __mul__, already rebound
            continue
        wrapped = tracer.wrap(fn, layer, bucket, hook)
        wrappers.add(id(wrapped))
        for ns in owners:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapped)
    return absent


def main(argv):
    modules = {name: importlib.import_module(f"expdowling.{name}") for name in MODULES}
    ambient = getattr(modules["structures"], "ambient_dowling", None)
    tracer = Tracer()
    absent = install(tracer, modules, importlib.import_module("expdowling"))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = modules["cli"].main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    if code not in (None, 0, 1):  # None: the wrapper of main counted it; 1 is a mismatch
        tracer.count["cli.errors"] += 1
    info = ambient.cache_info() if ambient is not None else None
    raw = {
        "time": dict(tracer.time),
        "count": dict(tracer.count),
        "absent": absent,
        "ambient": [info.hits, info.misses] if info is not None else None,
    }
    json.dump({"exit": code, "stdout": out.getvalue(), "raw": raw}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
