"""The package holds only what its commands run.

Every public function and public method of `src/expdowling` must be entered
by one of the commands below, be named in the benchmark's `SPANS`
(`perfbench/traced.py`, read without change), or be on `ALLOWED` with its
reason.  Code that only the tests call belongs in `tests/oracles.py`.

The commands run in a fresh interpreter under `sys.setprofile`, so that no
lru_cache filled by an earlier test hides a call.  A frame is matched to its
definition by file and first line: the line of the `def`, or of its first
decorator, which is what `co_firstlineno` holds (`co_qualname` needs Python
3.11).
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys

import expdowling
from expdowling import cli

PACKAGE = os.path.dirname(os.path.abspath(expdowling.__file__))
TRACED = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "traced.py")

# family -> the options of one small build with a unique 0-hat and 1-hat
FAMILY_ARGS = {
    "pi": ["--m", "4"],
    "dowling": ["--n", "3", "--s", "2"],
    "pi-r": ["--m", "4", "--r", "2"],
    "pi-rj": ["--m", "5", "--r", "2", "--j", "3"],
    "q-r": ["--n", "3", "--r", "1"],
    "d-rk": ["--n", "1", "--r", "2", "--k", "1", "--s", "2"],
    "q-I": ["--n", "4", "--I", "2,4"],
    "r-IJ": ["--n", "3", "--s", "2", "--I", "1,2,3", "--J", "0,1,2,3"],
}

# (argv, exit code)
COMMANDS = (
    [
        (["verify", "all"], 0),
        (["verify", "all", "--format", "csv"], 0),
        (["verify", "cor4.3", "--I", "2,3", "--J", "1"], 2),
    ]
    + [([command, "--family", family, *args], 0)
       for family, args in FAMILY_ARGS.items() for command in ("mobius", "lattice")]
    + [
        # a label field wider than a byte: the wide-field BlockCode path
        (["lattice", "--family", "r-IJ", "--n", "3", "--s", "70", "--I", "1,2", "--J", "0,1,2,3"], 0),
    ]
    + [(["series", "--name", name], 0) for name in cli.SERIES]
    + [
        (["descents", "--word", "abba"], 0),
        (["descents", "--word", "abba", "--q"], 0),
        (["el-check", "--m", "5", "--r", "2", "--j", "3"], 0),
    ]
)

# name -> why it stays in the package although no command enters it
ALLOWED = {
    "descents.descent_word": "read by the traced oracle des_q_enumerate",
    "descents.inversions": "read by the traced oracle des_q_enumerate",
    "poset.Poset.leq": "read by the traced oracle maximal_chains",
    "poset.Poset.covers_down": "read by the traced oracle mobius_table_to_top",
    "poset.Poset.down_rows": "read by the traced oracle maximal_chains",
    "poset.mobius": "package API, in expdowling.__all__",
    "poset.Poset.interval": "package API: Poset is in expdowling.__all__",
    "poset.Poset.bottom": "package API: Poset is in expdowling.__all__",
    "series.TruncatedSeries.zero": "package API: TruncatedSeries is in expdowling.__all__",
    "series.TruncatedSeries.one": "package API: TruncatedSeries is in expdowling.__all__",
    "series.TruncatedSeries.x": "package API: TruncatedSeries is in expdowling.__all__",
}

CHILD = """
import contextlib, io, json, os, sys
from expdowling import cli

package, commands = sys.argv[1], json.loads(sys.argv[2])
seen, files = set(), {}

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        name = files.get(code.co_filename)
        if name is None:
            path = os.path.abspath(code.co_filename)
            name = files[code.co_filename] = (
                os.path.relpath(path, package) if path.startswith(package + os.sep) else "")
        if name:
            seen.add((name, code.co_firstlineno))

codes = []
sys.setprofile(profile)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "seen": sorted(seen)}))
"""


def entered():
    """The (file, first line) of every code object under the package that
    the commands enter, and the exit code of each command."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    argvs = [argv for argv, _ in COMMANDS]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, PACKAGE, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return {tuple(key) for key in result["seen"]}, result["codes"]


def first_line(node):
    return node.decorator_list[0].lineno if node.decorator_list else node.lineno


def public_definitions():
    """{module.name or module.Class.method: (file, first line)} of every
    public function and public method of the package."""
    out = {}
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, filename)) as fh:
            tree = ast.parse(fh.read())
        module = filename[:-3]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    out[f"{module}.{node.name}"] = (filename, first_line(node))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        out[f"{module}.{node.name}.{item.name}"] = (filename, first_line(item))
    return out


def traced_names():
    spec = importlib.util.spec_from_file_location("traced_spans", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return {f"{layer}.{name}" for layer, name, _, _ in traced.SPANS}


def test_every_public_definition_is_run_traced_or_allowed():
    seen, codes = entered()
    assert codes == [code for _, code in COMMANDS]
    definitions = public_definitions()
    spans = traced_names()
    # a stale allowlist entry, or one that the commands now enter, is an error too
    assert set(ALLOWED) <= set(definitions), sorted(set(ALLOWED) - set(definitions))
    assert not {name for name in ALLOWED if definitions[name] in seen}, "allowed but entered"
    unused = sorted(
        name for name, key in definitions.items()
        if key not in seen and name not in spans and name not in ALLOWED
    )
    assert not unused, f"public definitions no command runs: {unused}"

