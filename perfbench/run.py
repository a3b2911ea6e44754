#!/usr/bin/env python3
"""Benchmark of the expdowling CLI: time to verdict, set-up time and peak
memory on fixed workloads, with per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload verify_all --seed 20090311 --seconds 40 --trace 0

Run from the root of a source checkout (``src/expdowling`` must exist); there
is nothing to build.  Every sample runs the workload's CLI invocations one at
a time, each in a fresh single-threaded interpreter, so no cache (such as the
``ambient_dowling`` lru_cache) carries over between samples.  The run takes
samples (closed loop, one client) until the next one would end after
``--seconds``, and reports medians.

Every verdict is checked against answers pinned below from closed forms.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (verdicts) and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run
(see ``traced.py``), which alternates traced and untraced samples so the
tracing overhead and the equality of their verdicts can be checked.  The
lines before it are a human-readable stamp and summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import traced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "expdowling")
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
)
SETUP_CMD = [sys.executable, "-c", "import expdowling.cli as cli; cli.make_parser()"]
SETUP_PER_SAMPLE = 4
HARD_LIMIT_S = 170  # every process is killed by then, so a run ends within 180 s
DEFAULT_SEED = 20090311

# ---------------------------------------------------------------------------
# workloads and their pinned answers

# The printed closed forms of these identities carry the opposite sign to the
# Mobius recursion, so their reports must read epsilon = -1; every other
# report must be exact with epsilon = +1.  A flipped sign anywhere fails.
SIGN_FLIPPED = {"d-rk-series", "mu-descent"}


def _mobius(argv, mu):
    def check(code, out):
        ok = code == 0 and out.strip() == str(mu)
        return [ok], out.strip(), 1
    return argv, check


def mobius_pi(m):
    """mu(Pi_m) = (-1)^(m-1) (m-1)!"""
    return _mobius(["mobius", "--family", "pi", "--m", str(m)],
                   (-1) ** (m - 1) * math.factorial(m - 1))


def mobius_dowling(n, s):
    """mu(L_n(s)) = (-1)^n prod_{i<n} (1 + i s)"""
    return _mobius(["mobius", "--family", "dowling", "--n", str(n), "--s", str(s)],
                   (-1) ** n * math.prod(1 + i * s for i in range(n)))


def el_check(m, r, j, falling, intervals):
    """EL report of Pi_m^{r,j}: passed, and |mu| = number of falling chains."""
    def check(code, out):
        try:
            got = json.loads(out)
        except ValueError:
            return [False], out, 0
        ok = (
            code == 0 and got.get("passed") is True and got.get("rising_violations") == 0
            and got.get("f_sigma_match") is True and got.get("falling_count") == falling
            and isinstance(got.get("mu"), int) and abs(got["mu"]) == falling
            and got.get("intervals_checked") == intervals
        )
        return [ok], got, 1
    return ["el-check", "--m", str(m), "--r", str(r), "--j", str(j)], check


def verify(argv, reports):
    """`reports` verdicts, each exact (epsilon +1) or, for SIGN_FLIPPED
    identities, exact up to the global sign -1."""
    def check(code, out):
        try:
            results = json.loads(out)["results"]
            got = [(r["identity"], r["verdict"], r["epsilon"]) for r in results]
        except (ValueError, KeyError, TypeError):
            got = []
        if code != 0 or len(got) != reports:
            return [False] * reports, got, len(got)
        oks = [
            (verdict, eps) == (("exact-up-to-global-sign", -1) if name in SIGN_FLIPPED else ("exact", 1))
            for name, verdict, eps in got
        ]
        return oks, got, len(got)
    return ["verify", *argv], check


def workloads(seed):
    return {
        # The command users run: hundreds of small lattices, most time in
        # Dowling cover growth through ambient_dowling; per-call overhead
        # and lru_cache reuse show here.
        "verify_all": [verify(["all", "--seed", str(seed)], 75)],
        # Large one-shot growth, closure and Mobius (21,147 and 28,640
        # elements); no cache, series or EL.
        "lattice_wall": [mobius_pi(9), mobius_dowling(7, 2)],
        # EL chain census and permutation scan on Pi_9^{2,j}.  (9,2,1) has
        # mu = 0 and no falling chain; (9,2,3) has E_8 = 1385 of them.
        "el_wall": [el_check(9, 2, 1, 0, 18630), el_check(9, 2, 3, 1385, 9703)],
        # Tiny sizes for smoke.py.  (5,2,3): the permutations of [4] with
        # descent set {2} number C(4,2) - 1 = 5.
        "smoke": [
            mobius_pi(5),
            el_check(5, 2, 3, 5, 13),
            verify(["prop4.5", "--nmax", "3", "--seed", str(seed)], 10),
        ],
    }


# ---------------------------------------------------------------------------
# processes


def spawn(cmd, deadline):
    """Run `cmd` from the checkout root until it exits.  Returns (seconds from
    spawn to exit, exit code, stdout, peak RSS in MiB); the process is killed
    at `deadline` (time.monotonic)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return wall, proc.returncode, out, usage.ru_maxrss / 1024


@dataclass
class Sample:
    wall: float = 0.0
    rss: float = 0.0
    oks: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    reports: int = 0
    raws: list = field(default_factory=list)


def take_sample(invocations, is_traced, deadline):
    sample = Sample()
    for argv, check in invocations:
        if is_traced:
            cmd = [sys.executable, os.path.join(HERE, "traced.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "expdowling.cli", *argv]
        wall, code, out, rss = spawn(cmd, deadline)
        if is_traced:
            try:
                child = json.loads(out.splitlines()[-1]) if code == 0 else None
            except (ValueError, IndexError):
                child = None
            code, out = (child["exit"], child["stdout"]) if child else (None, "")
            sample.raws.append(child["raw"] if child else None)
        oks, summary, reports = check(code, out)
        sample.wall += wall
        sample.rss = max(sample.rss, rss)
        sample.oks += oks
        sample.summaries.append(summary)
        sample.reports += reports
    return sample


# ---------------------------------------------------------------------------
# metrics

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _sources(layer, names=None):
    return [f"{l}.{n}" for l, n, _, _ in traced.SPANS if l == layer and (names is None or n in names)]


_BUILDS = _sources("structures", traced.STRUCTURE_BUILDS)
_FILTERS = _sources("structures", ("set_partitions", "enumerate_dowling",
                                   "induced_subposet", "induce_from_ambient"))

# name -> (unit, the traced functions it needs: absent only when all are gone)
LAYER_METRICS = {
    "cli.self_s": ("s", ["cli.main"]),
    "cli.reports": ("count", ["cli.main"]),
    "cli.errors": ("count", ["cli.main"]),
    "identities.self_s": ("s", []),
    "identities.checks": ("count", []),
    "identities.errors": ("count", []),
    "structures.build_s": ("s", _sources("structures")),
    "structures.builds": ("count", _BUILDS),
    "structures.elements": ("count", _BUILDS),
    "structures.covers": ("count", _BUILDS),
    "structures.pairs_compared": ("count", ["structures.induced_subposet"]),
    "structures.kept_ratio": ("ratio", _FILTERS),
    "structures.ambient_hits": ("count", ["structures.ambient_dowling"]),
    "structures.ambient_misses": ("count", ["structures.ambient_dowling"]),
    "structures.errors": ("count", _sources("structures")),
    "poset.closure_s": ("s", ["poset.from_covers"]),
    "poset.closures": ("count", ["poset.from_covers"]),
    "poset.relations": ("count", ["poset.from_covers"]),
    "poset.mobius_s": ("s", ["poset.mobius_table", "poset.mobius_table_to_top"]),
    "poset.mobius_tables": ("count", ["poset.mobius_table", "poset.mobius_table_to_top"]),
    "poset.mobius_terms": ("count", ["poset.mobius_table", "poset.mobius_table_to_top"]),
    "poset.chains_s": ("s", ["poset.maximal_chains"]),
    "poset.chains_listed": ("count", ["poset.maximal_chains"]),
    "poset.errors": ("count", _sources("poset")),
    "shelling.el_s": ("s", _sources("shelling")),
    "shelling.intervals": ("count", ["shelling.el_verify"]),
    "shelling.chain_yield": ("ratio", ["poset.maximal_chains"]),
    "shelling.perms_scanned": ("count", ["shelling.permutations_with_descents"]),
    "shelling.perm_yield": ("ratio", ["shelling.permutations_with_descents"]),
    "shelling.errors": ("count", _sources("shelling")),
    "series.busy_s": ("s", _sources("series")),
    "series.calls": ("count", _sources("series")),
    "series.errors": ("count", _sources("series")),
    "descents.busy_s": ("s", _sources("descents")),
    "descents.calls": ("count", _sources("descents")),
    "descents.errors": ("count", _sources("descents")),
    "trace.overhead_s": ("s", []),
}

# A ratio over zero attempts reads 1.0: nothing was discarded.
RATIOS = {
    "structures.kept_ratio": ("structures.kept", "structures.candidates"),
    "shelling.chain_yield": ("shelling.intervals", "poset.chains_listed"),
    "shelling.perm_yield": ("shelling.perms_qualifying", "shelling.perms_scanned"),
}


def layer_values(sample):
    """Per-layer values of one traced sample; None marks a metric whose
    functions no longer exist."""
    times, counts, absent, ambient = Counter(), Counter(), set(), Counter()
    for raw in sample.raws:
        if raw is None:
            continue
        times.update(raw["time"])
        counts.update(raw["count"])
        absent.update(raw["absent"])
        if raw["ambient"] is not None:
            ambient.update(hits=raw["ambient"][0], misses=raw["ambient"][1])
    counts["cli.reports"] = sample.reports
    counts["structures.ambient_hits"] = ambient["hits"]
    counts["structures.ambient_misses"] = ambient["misses"]
    values = {}
    for name, (unit, sources) in LAYER_METRICS.items():
        if sources and all(s in absent for s in sources):
            values[name] = None
        elif name in RATIOS:
            num, den = RATIOS[name]
            values[name] = counts[num] / counts[den] if counts[den] else 1.0
        elif unit == "s":
            values[name] = times[name]
        else:
            values[name] = counts[name]
    return values


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def tail(values):
    """(percentile, value) of the highest percentile with at least ten samples
    above it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100 * k / n, sorted(values)[k - 1]


# ---------------------------------------------------------------------------
# run


def stamp(args):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
    }


def measure(args):
    """Set-up and workload samples until the next round would end after
    args.seconds.  Set-up samples are spread over the run, a few before each
    workload sample, so that they see the same machine as the workload."""
    invocations = workloads(args.seed)[args.workload]
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    kinds = (False, True) if args.trace else (False,)
    setup, samples = [], {kind: [] for kind in kinds}
    i = 0
    while True:
        for _ in range(SETUP_PER_SAMPLE):
            wall, code, _, _ = spawn(SETUP_CMD, deadline)
            if code != 0:
                sys.exit(f"importing expdowling.cli failed with exit code {code}")
            setup.append(wall)
        kind = kinds[i % len(kinds)]
        samples[kind].append(take_sample(invocations, kind, deadline))
        i += 1
        if all(samples.values()):
            est = samples[kinds[i % len(kinds)]][-1].wall + SETUP_PER_SAMPLE * max(setup)
            now = time.monotonic()
            if now - start + est > args.seconds or now + est > deadline:
                break
    return setup, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads(DEFAULT_SEED)))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        sys.exit(f"no expdowling sources under {SRC}: run from the root of a source checkout")

    print("stamp", json.dumps(stamp(args), sort_keys=True))
    setup, samples = measure(args)
    plain = samples[False]
    every = [s for kind in samples.values() for s in kind]
    attempted = sum(len(s.oks) for s in every)
    failed = sum(not ok for s in every for ok in s.oks)
    same = all(s.summaries == plain[0].summaries for s in every)
    walls = [s.wall for s in plain]
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"wall_s: median {statistics.median(walls):.4f} s, quartiles "
          f"{quartiles[0]:.4f}..{quartiles[2]:.4f}, n={len(walls)}, tail: "
          + ("p{:.0f} {:.4f} s".format(*tail(walls)) if tail(walls)
             else "none (needs >= 11 samples)"))
    print("wall_s samples:", " ".join(f"{w:.4f}" for w in walls))
    print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} verdicts)")
    if not same:
        print("verdicts differ between samples (traced vs untraced, or run to run)")

    if args.trace:
        per_sample = [layer_values(s) for s in samples[True]]
        values = {name: _median([v[name] for v in per_sample]) for name in LAYER_METRICS}
        values["trace.overhead_s"] = (
            statistics.median(s.wall for s in samples[True]) - statistics.median(walls)
        )
        if args.workload == "verify_all" and values["structures.ambient_misses"] is not None:
            first = per_sample[0]["structures.ambient_misses"]
            print(f"fresh interpreter per sample: first traced sample has "
                  f"structures.ambient_misses = {first}")
        for name, value in values.items():
            if value is None:
                print(f"note: {name} is absent: {', '.join(LAYER_METRICS[name][1])} no longer exist")
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()
        }
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(s.rss for s in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
