#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/smoke.py

Runs the ``smoke`` workload (``mobius --family pi --m 5``,
``el-check --m 5 --r 2 --j 3`` and ``verify prop4.5 --nmax 3``) with tracing
off and on, and checks that the result line prints every metric named in
``BENCHMARK.json`` with its unit.  It also checks that a pinned answer with a
flipped sign fails, that a traced function the program no longer defines is
reported as absent without crashing the traced run, and that the benchmark
refuses to run in a directory without the sources.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
problems = []


def expect(ok, what):
    if not ok:
        problems.append(what)


def check_result_line(trace, spec):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "smoke",
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode == 0, f"trace {trace}: exit code {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"trace {trace}: keys {set(result)}")
    expect(result["correct"] is True and result["failed"] == 0, f"trace {trace}: {result}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"trace {trace}: attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    expect(set(got) == set(wanted), f"trace {trace}: metrics {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        expect(entry.get("unit") == unit, f"trace {trace}: {name} unit {entry.get('unit')} != {unit}")
        value = entry.get("value")
        expect(isinstance(value, (int, float)) and not isinstance(value, bool),
               f"trace {trace}: {name} value {value!r}")


def check_pins():
    _, check = run.verify(["prop4.5"], 1)
    report = {"identity": "d-rk-series", "verdict": "exact", "epsilon": 1}
    oks, _, _ = check(0, json.dumps({"results": [report]}))
    expect(oks == [False], "a d-rk-series report with epsilon +1 passed")
    oks, _, _ = check(0, json.dumps({"results": [dict(report, verdict="exact-up-to-global-sign", epsilon=-1)]}))
    expect(oks == [True], "a d-rk-series report with epsilon -1 failed")
    _, check = run.mobius_pi(5)
    expect(check(0, "-24\n")[0] == [False], "mu(Pi_5) = -24 passed")
    expect(check(0, "24\n")[0] == [True], "mu(Pi_5) = 24 failed")


def check_absent():
    gone = {"structures": ["ambient_dowling", "induced_subposet"],
            "shelling": ["permutations_with_descents"]}
    code = (
        "import sys, expdowling.structures as st, expdowling.shelling as sh\n"
        "del st.ambient_dowling, st.induced_subposet, sh.permutations_with_descents\n"
        "import traced\n"
        "sys.exit(traced.main(['mobius', '--family', 'pi', '--m', '5']))\n"
    )
    env = dict(run.ENV, PYTHONPATH=os.pathsep.join([run.HERE, run.ENV["PYTHONPATH"]]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"traced run with deleted functions crashed: {proc.stderr}")
    child = json.loads(proc.stdout.splitlines()[-1])
    expect(child["exit"] == 0 and child["stdout"].strip() == "24", f"traced run output {child}")
    raw = child["raw"]
    expect(set(raw["absent"]) == {f"{m}.{f}" for m, fs in gone.items() for f in fs},
           f"absent {raw['absent']}")
    values = run.layer_values(run.Sample(raws=[raw], reports=1))
    missing = {"structures.ambient_hits", "structures.ambient_misses",
               "structures.pairs_compared", "shelling.perms_scanned", "shelling.perm_yield"}
    for name, value in values.items():
        if name in missing:
            expect(value is None, f"{name} = {value!r}, expected absent")
        else:
            expect(value is not None, f"{name} absent, expected a value")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-smoke-") as tmp:
        shutil.copy(BENCHMARK, tmp)
        shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170,
        )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main():
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    check_pins()
    check_absent()
    check_refuses_without_sources()
    for trace in (0, 1):
        check_result_line(trace, spec)
    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
