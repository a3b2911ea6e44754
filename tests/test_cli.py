"""CLI surface: subcommands, exit codes, output formats, the cache."""

import hashlib
import json
from collections import Counter
import os
import subprocess
import sys

import pytest

import expdowling
from expdowling import cli, identities, shelling, structures, suites
from expdowling.cli import EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from expdowling.poset import PosetError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_series_dowling_constant(capsys):
    code, out = run(capsys, "series", "--name", "cor3.4-dowling", "--s", "1", "--T", "5")
    assert code == EXIT_OK
    assert out.strip() == "-1, 0, 0, 0, 0, 0"


# the stdout of `series` at T = 10, one line each
SERIES_LINES = [
    pytest.param(["--name", "cor3.4-exponential"], "0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0",
                 id="cor3.4-exponential"),
    pytest.param(["--name", "cor3.4-dowling", "--s", "2"], "-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0",
                 id="cor3.4-dowling-s2"),
    pytest.param(["--name", "cor3.4-dowling", "--s", "3"], "-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0",
                 id="cor3.4-dowling-s3"),
    pytest.param(["--name", "prop4.5", "--r", "2", "--k", "1", "--s", "2"],
                 "0, 1, 0, -5, 0, 121, 0, -6845, 0, 698161, 0", id="prop4.5-r2-k1-s2"),
    pytest.param(["--name", "prop4.5", "--r", "3", "--k", "2", "--s", "3"],
                 "0, 0, 1, 0, 0, -89, 0, 0, 83413, 0, 0", id="prop4.5-r3-k2-s3"),
]


@pytest.mark.parametrize("argv,line", SERIES_LINES)
def test_series_lines_are_pinned(capsys, argv, line):
    code, out = run(capsys, "series", *argv, "--T", "10")
    assert code == EXIT_OK
    assert out == line + "\n"


def test_descents_q(capsys):
    code, out = run(capsys, "descents", "--word", "aba", "--q")
    assert code == EXIT_OK
    assert out.strip() == "q + 2*q^2 + q^3 + q^4"


def test_descents_count(capsys):
    code, out = run(capsys, "descents", "--word", "aba")
    assert code == EXIT_OK
    assert out.strip() == "5"


def test_mobius_extended(capsys):
    code, out = run(capsys, "mobius", "--family", "pi-rj", "--m", "4", "--r", "2", "--j", "2")
    assert code == EXIT_OK
    assert out.strip() == "2"


def test_mobius_d_rk_has_adjoined_bottom(capsys):
    # D_2^(2,1) over s = 2 has several minimal elements; the CLI adjoins a 0-hat
    code, out = run(capsys, "mobius", "--family", "d-rk", "--n", "2", "--r", "2", "--k", "1", "--s", "2")
    assert code == EXIT_OK
    assert out.strip() == "-121"


def test_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "nonsense")
    assert code == EXIT_USAGE


def test_unknown_series(capsys):
    code, _ = run(capsys, "series", "--name", "nope")
    assert code == EXIT_USAGE


def test_verify_suite_json(capsys):
    code, out = run(capsys, "verify", "thm5.5")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["config"]["suite"] == "thm5.5"
    assert all(r["verdict"] != "mismatch" for r in data["results"])
    assert all("epsilon" in r for r in data["results"])


def test_verify_suite_csv(capsys):
    code, out = run(capsys, "verify", "thm4.1", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("identity,")
    assert len(lines) > 1


def test_verify_respects_parameters(capsys):
    code, out = run(capsys, "verify", "thm4.1", "--I", "1,3", "--window", "5")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["config"]["I"] == [1, 3]


# the suites whose sizes are fixed or set by --window: none reads --nmax
FIXED_SIZE_SUITES = ["cor4.3", "cor5.6", "cor6.4", "cor6.5", "thm4.1", "thm4.2",
                     "thm5.4", "thm5.5", "thm6.1"]


def test_fixed_size_suites_are_those_without_nmax():
    assert FIXED_SIZE_SUITES == sorted(
        name for name, (_, defaults) in cli.SUITES.items() if "nmax" not in defaults
    )


@pytest.mark.parametrize("suite", FIXED_SIZE_SUITES)
def test_unread_nmax_is_rejected(capsys, suite):
    code = main(["verify", suite, "--nmax", "9"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert f"suite {suite} does not read --nmax" in captured.err


# every (suite, option) pair where the suite does not read the option, with
# a value the option would accept where it is read
UNREAD_SUITE_OPTIONS = [
    (suite, key, value)
    for suite, (_, defaults) in sorted(cli.SUITES.items())
    for key, value in [("s", "3"), ("s_list", "2"), ("I", "2"), ("J", "1"), ("window", "5")]
    if key not in defaults
]


@pytest.mark.parametrize("suite,key,value", UNREAD_SUITE_OPTIONS,
                         ids=[f"{suite}-{key}" for suite, key, _ in UNREAD_SUITE_OPTIONS])
def test_unread_suite_option_is_rejected(capsys, suite, key, value):
    option = "--" + key.replace("_", "-")
    code = main(["verify", suite, option, value])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert f"suite {suite} does not read {option}" in captured.err


def test_unread_suite_options_reach_every_option():
    assert set(cli.SUITE_OPTIONS) == {"nmax", "s", "s_list", "I", "J", "window"}
    assert {key for _, key, _ in UNREAD_SUITE_OPTIONS} == set(cli.SUITE_OPTIONS) - {"nmax"}
    assert main(["verify", "thm4.1", "--s", "3", "--s-list", "2"]) == EXIT_USAGE


def test_named_suite_echoes_its_defaults(capsys):
    code, out = run(capsys, "verify", "thm4.1")
    assert code == EXIT_OK
    assert json.loads(out)["config"] == {
        "suite": "thm4.1", "nmax": None, "s": None, "s_list": None, "I": [2], "J": None,
        "window": 8, "seed": 20090311, "format": "json",
    }
    code, out = run(capsys, "verify", "cor4.7", "--nmax", "3")
    assert code == EXIT_OK
    assert json.loads(out)["config"]["nmax"] == 3


def test_cor47_checks_every_n_up_to_nmax(capsys):
    # D_5^(1,k) at s = 3 fits the default guard; n is not clamped to 4
    code, out = run(capsys, "verify", "cor4.7", "--nmax", "5")
    assert code == EXIT_OK
    for report in json.loads(out)["results"]:
        assert report["verdict"] == "exact"
        assert report["params"]["n_max"] == 5
        assert [row["n"] for row in report["rows"]] == [f"n={n}" for n in range(6)]


def checked_sizes(report):
    """The sizes n of a cor3.4 row (n) or an ex3.5 row ("n=..,t=..")."""
    return sorted({int(str(row["n"]).split(",")[0].removeprefix("n=")) for row in report["rows"]})


@pytest.mark.parametrize("suite,first", [("cor3.4", [1, 1, 0, 0, 0]), ("ex3.5", [0, 0, 0])])
def test_suite_checks_every_n_up_to_nmax(capsys, suite, first):
    # without --nmax the r-divisible and Dowling rows stop at n = 4; with it
    # every row runs to --nmax, and each report's params say so
    code, out = run(capsys, "verify", suite)
    assert code == EXIT_OK
    assert {max(checked_sizes(r)) for r in json.loads(out)["results"][1:]} == {4}
    code, out = run(capsys, "verify", suite, "--nmax", "5")
    assert code == EXIT_OK
    reports = json.loads(out)["results"]
    assert [checked_sizes(r) for r in reports] == [list(range(low, 6)) for low in first]
    assert all(r["params"]["n_max"] == 5 and r["verdict"] == "exact" for r in reports)


def test_cor34_past_the_guard_exits_usage(capsys):
    # Q^(2)_6, the 150,349 partitions of [12] into even blocks, exceeds the
    # default guard: exit 2, never a shrunk pass
    code = main(["verify", "cor3.4", "--nmax", "6"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "guard" in captured.err


def test_cor47_past_the_guard_exits_usage(capsys):
    # D_6^(1,1) at s = 3 exceeds the default guard: exit 2, never a shrunk pass
    code = main(["verify", "cor4.7", "--nmax", "6"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "guard" in captured.err


def test_el_check(capsys):
    code, out = run(capsys, "el-check", "--m", "4", "--r", "2", "--j", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] and data["falling_count"] == 2


# sha256 of the stdout of `el-check`, by (m, r, j)
EL_CHECK_DIGESTS = {
    (9, 2, 1): "f4ed36e3ccf8e990cc112e0196e058f12d4f6ba60d56631fc9340c3984ca572d",
    (9, 2, 3): "9eaa53ee089b3a45bf4b7fb870eb56beafdf0540c162d43d25ae56a363f60b5e",
    (8, 3, 2): "08e97a859d7b5ac93deffe34159d769b751266da77c7771e61de457bfc50db71",
}


@pytest.mark.parametrize("m,r,j", sorted(EL_CHECK_DIGESTS))
def test_el_check_output_is_pinned(capsys, m, r, j):
    code, out = run(capsys, "el-check", "--m", str(m), "--r", str(r), "--j", str(j))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == EL_CHECK_DIGESTS[m, r, j]


def test_lattice_export_and_cache(tmp_path, capsys):
    args = ("lattice", "--family", "pi", "--m", "3", "--cache-dir", str(tmp_path))
    code, cold = run(capsys, *args)
    assert code == EXIT_OK
    cached_files = list(tmp_path.iterdir())
    assert len(cached_files) == 1
    assert cached_files[0].read_bytes() == cold.encode()
    code, warm = run(capsys, *args)
    assert code == EXIT_OK
    assert warm == cold
    data = json.loads(cold)
    assert data["poset"]["n"] == 5  # Bell(3)


DAMAGE = {
    "truncate": lambda text: text[: len(text) // 2],
    "not-an-export": lambda text: "[]",
    # the export as valid JSON but cut short of its final newline, which
    # every file of this version (the key carries it) was written with
    "no-final-newline": lambda text: text[:-1],
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_lattice_cache_rebuilds_unreadable_file(tmp_path, capsys, damage):
    args = ("lattice", "--family", "pi", "--m", "3", "--cache-dir", str(tmp_path))
    code, fresh = run(capsys, *args)
    assert code == EXIT_OK
    (cached,) = tmp_path.iterdir()
    cached.write_text(DAMAGE[damage](cached.read_text()))
    code, out = run(capsys, *args)
    assert code == EXIT_OK
    assert out == fresh
    assert list(tmp_path.iterdir()) == [cached]
    assert json.loads(cached.read_text()) == json.loads(fresh)


def test_lattice_output_file(tmp_path, capsys):
    out_file = tmp_path / "lat.json"
    code, _ = run(capsys, "lattice", "--family", "q-r", "--n", "2", "--r", "2",
                  "--output", str(out_file))
    assert code == EXIT_OK
    data = json.loads(out_file.read_text())
    assert len(data["elements"]) == 4


def test_el_check_output_file(tmp_path, capsys):
    out_file = tmp_path / "el.json"
    code, out = run(capsys, "el-check", "--m", "4", "--r", "2", "--j", "2", "--output", str(out_file))
    assert code == EXIT_OK
    assert out == ""
    data = json.loads(out_file.read_text())
    assert data["passed"] and data["falling_count"] == 2


def test_verify_output_file(tmp_path, capsys):
    out_file = tmp_path / "thm5.5.csv"
    code, out = run(capsys, "verify", "thm5.5", "--format", "csv", "--output", str(out_file))
    assert code == EXIT_OK
    assert out == ""
    assert out_file.read_text().startswith("identity,n,brute,closed_form,ratio")


@pytest.mark.parametrize("argv", [
    ["verify", "thm5.5"],
    ["lattice", "--family", "pi", "--m", "3"],
    ["el-check", "--m", "4", "--r", "2", "--j", "2"],
])
def test_unwritable_output_exits_usage(tmp_path, capsys, argv):
    missing = tmp_path / "missing" / "out.json"
    code = main([*argv, "--output", str(missing)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"invalid parameters: cannot write --output {missing}: No such file or directory"
    ]


def test_cache_dir_on_a_file_exits_usage(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code = main(["lattice", "--family", "pi", "--m", "3", "--cache-dir", str(not_a_dir)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"invalid parameters: cannot write --cache-dir {not_a_dir}: File exists"
    ]


def test_unwritable_cache_file_exits_usage(tmp_path, capsys, monkeypatch):
    # a directory where the cached export belongs: it reads as a miss, and
    # the command exits before it builds anything it could not store
    args = ("lattice", "--family", "pi", "--m", "3", "--cache-dir", str(tmp_path))
    assert run(capsys, *args)[0] == EXIT_OK
    (cached,) = tmp_path.iterdir()
    cached.unlink()
    cached.mkdir()

    def refuse(*args, **kwargs):
        raise AssertionError("built an export that cannot be stored")

    monkeypatch.setattr(structures, "build_partition_lattice", refuse)
    monkeypatch.setattr(structures, "_growth", refuse)
    code = main(list(args))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"invalid parameters: cannot write --cache-dir {tmp_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == [cached]  # no partial file is left


# modules that neither start-up nor a `mobius` run reads, each loaded only
# by the command that needs it: the verify stack, and what only it, an
# export or the cache reads
NOT_AT_START_UP = {
    "hashlib", "_hashlib", "dataclasses", "inspect", "csv", "fractions", "decimal", "json",
    "random", "expdowling.series", "expdowling.identities", "expdowling.shelling",
    "expdowling.descents", "expdowling.suites",
}


def _loaded(code):
    """The modules that `code` loads in a fresh interpreter beyond those of a
    bare one (`site` may load some, such as `random` and `typing`)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(expdowling.__file__)))

    def modules(code):
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        return set(proc.stdout.split())

    return modules(code) - modules("pass")


def test_start_up_imports_only_what_every_command_needs():
    extra = _loaded("import expdowling.cli as cli; cli.make_parser()")
    assert "expdowling.cli" in extra
    assert not extra & NOT_AT_START_UP, sorted(extra & NOT_AT_START_UP)


def test_mobius_run_loads_no_verify_stack():
    extra = _loaded(
        "import expdowling.cli as cli\n"
        "assert cli.main(['mobius', '--family', 'pi', '--m', '4']) == 0"
    )
    assert {"expdowling.structures", "expdowling.poset"} <= extra
    assert not extra & NOT_AT_START_UP, sorted(extra & NOT_AT_START_UP)


def test_guard_exit_code(capsys):
    code, _ = run(capsys, "lattice", "--family", "pi", "--m", "12")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["mobius", "--family", "dowling", "--n", "3", "--s", "2", "--guard", "5"],
    ["mobius", "--family", "d-rk", "--n", "2", "--r", "2", "--k", "1", "--s", "1", "--guard", "1"],
])
def test_guard_counts_elements_of_every_family(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""


def test_default_guard_admits_pi_10_r_2(capsys):
    # 6,556 elements; mu = -E_9
    code, out = run(capsys, "mobius", "--family", "pi-r", "--m", "10", "--r", "2")
    assert code == EXIT_OK
    assert out.strip() == "-7936"


# sha256 of the stdout of `verify all` in each format
VERIFY_ALL_DIGESTS = {
    "json": "7df30235a83ab3f65a19fb4d9fcd0f983fcb744c403046cc3ebcb2475664040e",
    "csv": "21dfe2aff04f9e50f73a6ef3e2680e8d0dd676b7a0b7dff1dcf5c0d7ae5054cf",
}


def test_verify_all_end_to_end(capsys):
    code, out = run(capsys, "verify", "all")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert len(results) == 75
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGESTS["json"]
    assert all(r["verdict"] != "mismatch" for r in results)
    flipped = {r["identity"] for r in results if r["epsilon"] == -1}
    assert flipped == {"d-rk-series", "mu-descent"}
    assert all(r["epsilon"] == 1 for r in results if r["identity"] not in flipped)


def test_verify_all_csv_digest(capsys):
    code, out = run(capsys, "verify", "all", "--format", "csv")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGESTS["csv"]


BASE_ARGV = {
    "verify": ["verify", "thm5.5"],
    "lattice": ["lattice", "--family", "pi", "--m", "3"],
    "mobius": ["mobius", "--family", "pi", "--m", "3"],
    "series": ["series", "--name", "cor3.4-exponential"],
    "descents": ["descents", "--word", "ab"],
    "el-check": ["el-check", "--m", "4", "--r", "2", "--j", "2"],
}
READ_OPTIONS = [
    ("verify", "--format"), ("verify", "--output"),
    ("lattice", "--output"), ("lattice", "--cache-dir"), ("lattice", "--guard"),
    ("mobius", "--guard"),
    ("el-check", "--output"), ("el-check", "--guard"),
]
# the other 22 of the 30 (subcommand, option) slots that every subcommand
# once accepted
UNREAD_OPTIONS = sorted(
    {(command, option) for command in BASE_ARGV
     for option in ("--format", "--output", "--jobs", "--cache-dir", "--guard")}
    - set(READ_OPTIONS)
)


@pytest.mark.parametrize("command,option", READ_OPTIONS)
def test_read_option_is_parsed(command, option):
    value = {"--format": "csv", "--guard": "7"}.get(option, "somewhere")
    ns = cli.make_parser().parse_args([*BASE_ARGV[command], option, value])
    assert str(getattr(ns, option[2:].replace("-", "_"))) == value


@pytest.mark.parametrize("command,option", UNREAD_OPTIONS)
def test_unread_option_is_rejected(tmp_path, capsys, command, option):
    # a value the option would accept where it is read
    value = {"--format": "json", "--jobs": "1", "--guard": "50000"}.get(option, str(tmp_path / "x"))
    code, out = run(capsys, *BASE_ARGV[command], option, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_flipped_sign_fails_verify(capsys, monkeypatch):
    # a cor3.4 report whose brute values are minus the closed form: epsilon -1
    # where +1 is expected
    def flipped(ns):
        report = identities.IdentityReport("mu-series-exponential", {})
        report.add(1, 1, -1)
        report.add(2, -1, 1)
        return [report]

    monkeypatch.setattr(suites, cli.SUITES["cor3.4"][0], flipped)
    code, out = run(capsys, "verify", "cor3.4")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["results"][0]["epsilon"] == -1


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(ns):
        raise PosetError("poset has no unique minimal element")

    monkeypatch.setattr(suites, cli.SUITES["thm5.5"][0], broken)
    code = main(["verify", "thm5.5"])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL
    assert "internal error in thm5.5" in err


@pytest.mark.parametrize("argv", [
    ["verify", "cor4.3", "--I", "2,3", "--J", "1"],  # I is not a semigroup
    ["verify", "all", "--nmax", "0"],
    ["verify", "thm4.1", "--I", "0,2"],
    ["mobius", "--family", "pi"],  # --m missing
    ["mobius", "--family", "d-rk", "--n", "1", "--r", "0", "--k", "1", "--s", "1"],
    ["mobius", "--family", "pi-rj", "--m", "4", "--r", "0", "--j", "4"],
    ["mobius", "--family", "d-rk", "--n", "1", "--r", "2", "--k", "-1", "--s", "1"],
    ["mobius", "--family", "q-r", "--n", "2", "--r", "0"],
    ["series", "--name", "cor3.4-dowling", "--s", "0"],
    ["series", "--name", "prop4.5", "--r", "0"],
    ["series", "--name", "prop4.5", "--k", "-1"],
    ["series", "--name", "prop4.5", "--T", "-1"],
    ["descents", "--word", "xyz"],
    ["mobius", "--family", "pi", "--m", "3", "--guard", "-5"],
    ["el-check", "--m", "5", "--r", "2", "--j", "3", "--guard", "-3"],
    ["lattice", "--family", "pi", "--m", "3", "--guard", "-1"],
])
def test_invalid_parameters_exit_usage(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "guard exceeded" not in captured.err


def test_verify_all_reports_a_suite_with_invalid_parameters(capsys):
    # thm4.1 and thm4.2 read I = {2, 3} and J = {1} as they are; cor4.3
    # needs I to be a semigroup and rejects them as bad usage
    code = main(["verify", "all", "--I", "2,3", "--J", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "invalid parameters for cor4.3: I is not a semigroup on the window: 2+2 missing\n"
    )


def test_mobius_without_unique_bounds_is_undefined(capsys):
    # Q^I_4 with I = {2} has 0-hat adjoined but three maximal elements
    code = main(["mobius", "--family", "q-I", "--n", "4", "--I", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "mu(0-hat, 1-hat) is undefined" in captured.err


def test_mobius_without_unique_top_exits_before_building(capsys, monkeypatch):
    # 9 is not in I = {1, 2, 3} but a sum of sizes in I, so Q_9^I has several
    # maximal elements; it has 12,644 elements, and none is built
    def refuse(*args, **kwargs):
        raise AssertionError("built a family whose mu is undefined")

    monkeypatch.setattr(structures, "build_restricted_partition", refuse)
    monkeypatch.setattr(structures, "_growth", refuse)
    code = main(["mobius", "--family", "q-I", "--n", "9", "--I", "1,2,3"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "mu(0-hat, 1-hat) is undefined" in captured.err


@pytest.mark.parametrize("family,builder,argv", [
    # 7 is in I but not in J: the one block [7] in each of its 64 labellings
    # is maximal, and so are elements with a zero block (1,093 in all)
    ("r-IJ", "build_restricted_dowling",
     ["--n", "7", "--s", "2", "--I", "1,2,3,4,5,6,7", "--J", "0,1,2,3,4,5,6"]),
    # the one block [6] is the top, but no 0-hat is adjoined and the 15
    # perfect matchings of [6] are minimal
    ("q-r", "build_Q_r", ["--n", "3", "--r", "2"]),
], ids=["r-IJ", "q-r"])
def test_mobius_without_unique_bounds_exits_before_building(capsys, monkeypatch, family, builder, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("built a family whose mu is undefined")

    monkeypatch.setattr(structures, builder, refuse)
    monkeypatch.setattr(structures, "_growth", refuse)
    code = main(["mobius", "--family", family, *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "mu(0-hat, 1-hat) is undefined" in captured.err


def test_q_r_message_names_the_minimal_count(capsys):
    code = main(["mobius", "--family", "q-r", "--n", "3", "--r", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err == (
        "invalid parameters: mu(0-hat, 1-hat) is undefined: "
        "Q^(2)_3 has 15 minimal elements\n"
    )


def test_descent_suites_build_each_extended_lattice_once(capsys, monkeypatch):
    # thm5.4 and cor5.6 both read mu of Pi_4^{2,2} and Pi_6^{2,2}; a run
    # builds each lattice it reads once and shares no build with another run
    built = []

    def counted(m, r, j, *args, **kwargs):
        built.append((m, r, j))
        return structures.build_extended(m, r, j, *args, **kwargs)

    monkeypatch.setattr(identities, "build_extended", counted)
    for suite in ("thm5.4", "cor5.6"):
        built.clear()
        assert main(["verify", suite]) == EXIT_OK
        assert sorted(built) == sorted(set(built)), suite
        assert {(4, 2, 2), (6, 2, 2)} <= set(built), suite
    capsys.readouterr()


def test_verify_all_builds_each_extended_lattice_once(capsys, monkeypatch):
    # the EL suite checks Pi_3^{2,1}, Pi_4^{2,2}, Pi_5^{2,3} and Pi_6^{2,2},
    # which thm5.4 and thm5.5 have built in the same run
    built = []

    def counted(m, r, j, *args, **kwargs):
        built.append((m, r, j))
        return structures.build_extended(m, r, j, *args, **kwargs)

    monkeypatch.setattr(identities, "build_extended", counted)
    monkeypatch.setattr(shelling, "build_extended", counted)
    assert main(["verify", "all"]) == EXIT_OK
    capsys.readouterr()
    assert sorted(built) == sorted(set(built))
    assert {(3, 2, 1), (4, 2, 2), (5, 2, 3), (6, 2, 2), (7, 3, 4)} <= set(built)


def growths(monkeypatch):
    """The (code class, n, s, I, J) of every growth from now on: a family
    and its arguments, whether it is built or streamed into the Mobius walk."""
    grown = []
    growth = structures._growth

    def counted(seeds, code, *args, **kwargs):
        grown.append((type(code).__name__, code.n, code.s, code.I, code.J))
        return growth(seeds, code, *args, **kwargs)

    monkeypatch.setattr(structures, "_growth", counted)
    return grown


def test_verify_all_builds_each_d_1k_lattice_once(capsys, monkeypatch):
    # prop4.5 and cor4.7 both read mu of D_n^(1,1)(s) and D_n^(1,2)(s) for
    # n <= 4 and s = 1, 2; a run grows each of them once, streamed into the
    # Mobius walk, and keeps only mu
    grown = growths(monkeypatch)
    assert main(["verify", "all"]) == EXIT_OK
    capsys.readouterr()
    counts = Counter(grown)

    def d_1k(n, k, s):  # D_n^(1,k)(s) = R_{n+k}^{I,J}(s), I = [1, n+k], J = [k, n+k]
        return "BlockCode", n + k, s, frozenset(range(1, n + k + 1)), frozenset(range(k, n + k + 1))

    wanted = [d_1k(n, k, s) for n in range(5) for k in (1, 2) for s in (1, 2)]
    assert {key: counts[key] for key in wanted} == dict.fromkeys(wanted, 1)


def test_nothing_outlives_a_run(capsys, monkeypatch):
    # a second run in the same process grows what the first grew: Q_n^I for
    # thm4.1, and L_n(s) and D_n^(2,1)(1) for lemma2.1
    grown = growths(monkeypatch)
    for suite in ("thm4.1", "lemma2.1"):
        counts = []
        for _ in range(2):
            grown.clear()
            assert main(["verify", suite]) == EXIT_OK
            counts.append(Counter(grown))
        assert counts[0] and counts[1] == counts[0], suite
    capsys.readouterr()


def test_verify_all_computes_each_shared_value_once(capsys, monkeypatch):
    # every value that a run memoizes is computed once per run, whichever
    # suite reads it first
    shared = ("_type_histogram", "_restricted_mu", "d_rk_mu", "build_extended")
    calls = Counter()
    for name in shared:
        def counted(*args, fn=getattr(identities, name), name=name):
            calls[(name, *args)] += 1
            return fn(*args)

        monkeypatch.setattr(identities, name, counted)
    for _ in range(2):
        calls.clear()
        assert main(["verify", "all"]) == EXIT_OK
        assert set(calls.values()) == {1}
        assert {key[0] for key in calls} == set(shared)
    capsys.readouterr()


@pytest.mark.parametrize("argv,identity", [
    (["lemma5.1", "--nmax", "1"], "macmahon-multiplication"),
    (["prop4.5", "--nmax", "1"], "d-rk-series"),  # k = 2 > max_rnk
])
def test_report_without_rows_exits_usage(capsys, argv, identity):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"invalid parameters for {argv[0]}: the {identity} report has no rows\n"


def test_every_prop45_report_has_rows_from_nmax_2(capsys):
    assert main(["verify", "prop4.5", "--nmax", "2"]) == EXIT_OK
    assert all(r["rows"] for r in json.loads(capsys.readouterr().out)["results"])


def test_q_r_bounds_decided_before_building():
    # Q^(r)_n has the one block [rn] on top, and a unique minimal element
    # only when r = 1 or n = 1
    for r in range(1, 5):
        for n in range(1, 9 // r + 1):
            P = structures.build_Q_r(n, r).poset
            defined = len(P.minimals) == len(P.maximals) == 1
            ns = cli.make_parser().parse_args(["mobius", "--family", "q-r", "--n", str(n), "--r", str(r)])
            assert (cli._undefined_mu(ns) is None) is defined, (n, r)


@pytest.mark.parametrize("error", [ValueError, PosetError, OSError])
@pytest.mark.parametrize("command", ["lattice", "mobius"])
def test_builder_exception_is_internal(capsys, monkeypatch, command, error):
    # only ParameterError (an unwritable --output or --cache-dir too) and
    # GuardError are bad usage; a ValueError or OSError raised inside the
    # growth, which `lattice` builds from and `mobius` streams, is a fault
    # of the program
    def broken(*args, **kwargs):
        raise error("raised inside the builder")

    monkeypatch.setattr(structures, "_growth", broken)
    code = main([command, "--family", "pi", "--m", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert "internal error" in captured.err
    assert "raised inside the builder" in captured.err


# sha256 of the export.  Every family lists its elements in the order the
# cover moves first reach them (absorbs by block, then merges of blocks
# i < j by shift, one block count at a time), which no hash affects.  A move
# that changes several blocks at once (q-I 7 {2,3} and r-IJ 4,2,{1,2},{0,2},
# which fail the semigroup condition) places its element when the block
# count it lands on comes up.  A partition family moves in the code of
# L_{m-1}(1), where m lies in the zero block, so an absorb joins a block to
# the block holding m.
GOLDEN_EXPORTS = [
    (["--family", "dowling", "--n", "3", "--s", "2"],
     "cea6ca5b413497da79d977822e31f28f1b4c9c6a1479bf9fde5247655ee68e10"),
    (["--family", "pi", "--m", "5"],
     "8c4c7403b09dcaab57810eb96737f6a26cfcd673235c99e9ab1a28c8a999367b"),
    (["--family", "d-rk", "--n", "2", "--r", "2", "--k", "1", "--s", "2"],
     "274c6d0a4af0101d06795151ddd183f767ea114d0a9be0a52545f82112aaa96d"),
    (["--family", "q-I", "--n", "7", "--I", "2,3"],
     "951b43529297d723fade0dcead9fcfcc55525f354595ea38f5c4e3e0c7a4677b"),
    (["--family", "r-IJ", "--n", "4", "--s", "2", "--I", "1,2", "--J", "0,2"],
     "bd57cc7f7e526166504d4bf7fb491b0a2e9b7f1dc71ab77f7633a52dd4af159c"),
    (["--family", "q-I", "--n", "6", "--I", "2,4,6"],
     "c518ac58e4d6a6c2a0ad838335638ed3d6e446d1be8b61242e0c00c49a4dcec0"),
    # the same family as d-rk 2,2,1,2, grown from the same seeds
    (["--family", "r-IJ", "--n", "5", "--s", "2", "--I", "2,4", "--J", "1,3,5"],
     "274c6d0a4af0101d06795151ddd183f767ea114d0a9be0a52545f82112aaa96d"),
]
GOLDEN_IDS = ["dowling3,2", "pi5", "d-rk2,2,1,2", "q-I7,{2,3}", "r-IJ4,2,{1,2},{0,2}",
              "q-I6,{2,4,6}", "r-IJ5,2,{2,4},{1,3,5}"]


@pytest.mark.parametrize("argv,digest", GOLDEN_EXPORTS, ids=GOLDEN_IDS)
def test_lattice_export_is_pinned(capsys, argv, digest):
    code, out = run(capsys, "lattice", *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def relabelled(export):
    """sha256 of an export with every index replaced by the element it
    names: the element set, the cover pairs and the rank of each element."""
    data = json.loads(export)
    names = [json.dumps(e, sort_keys=True) for e in data["elements"]]
    if data["bottom"] is not None:
        assert data["bottom"] == len(names)
        names.append("0-hat")
    poset = data["poset"]
    covers = sorted([names[x], names[y]] for x, y in poset["covers"])
    ranks = sorted([names[i], r] for i, r in enumerate(poset["ranks"]))
    return hashlib.sha256(json.dumps([sorted(names), covers, ranks]).encode()).hexdigest()


# relabelled() of the three grown exports as they were when elements were
# placed in hash order: the placement order permutes indices, not lattices
HASH_ORDER_EXPORTS = [
    (GOLDEN_EXPORTS[0][0], "95512ce3738ac06a0676a0e33fe91aae2d86f2ecf6f24632f406f72221b91c66"),
    (GOLDEN_EXPORTS[1][0], "e783b1753d1b3360297f115e5cd65fdadc14c3c7a4a5d711a091b7b0e9facdb5"),
    (GOLDEN_EXPORTS[2][0], "900d0348516ad7ff2790aa8b0dd56b59ea86ba5421a0aabc8031105ec62c8f85"),
]


@pytest.mark.parametrize("argv,digest", HASH_ORDER_EXPORTS, ids=GOLDEN_IDS[:3])
def test_grown_export_is_the_hash_order_export_relabelled(capsys, argv, digest):
    code, out = run(capsys, "lattice", *argv)
    assert code == EXIT_OK
    assert relabelled(out) == digest


# relabelled() of the two semigroup exports as they were when Q^I and R^{I,J}
# were ordered by comparing pairs of sorted elements: growth permutes indices,
# not lattices
PAIRWISE_EXPORTS = [
    (GOLDEN_EXPORTS[5][0], "807bf4950308ac4eac75a68e7c577efaadee062d58f5abba0ca33e10c546c067"),
    (GOLDEN_EXPORTS[6][0], "900d0348516ad7ff2790aa8b0dd56b59ea86ba5421a0aabc8031105ec62c8f85"),
]


@pytest.mark.parametrize("argv,digest", PAIRWISE_EXPORTS, ids=GOLDEN_IDS[5:])
def test_grown_export_is_the_pairwise_export_relabelled(capsys, argv, digest):
    code, out = run(capsys, "lattice", *argv)
    assert code == EXIT_OK
    assert relabelled(out) == digest


# relabelled() of three exports of q-I and r-IJ without the semigroup
# condition, as they were when those families were listed and ordered by
# their up sets: the order of the build permutes indices, not lattices
LISTED_EXPORTS = [
    (GOLDEN_EXPORTS[3][0], "39d10675968e89de99ca01a91c31d49792fe5453c96cff85f9dab8dbca0b0673"),
    (GOLDEN_EXPORTS[4][0], "ca758170a5b268738715860af351b6b265d4431327f99d03cc9a3f49a56b3e0f"),
    (["--family", "q-I", "--n", "8", "--I", "1,2,3"],
     "be284a45158f3e736a077b8fc83a3eceb54142ba1d59e6adeaa7642435652522"),
]


@pytest.mark.parametrize("argv,digest", LISTED_EXPORTS,
                         ids=GOLDEN_IDS[3:5] + ["q-I8,{1,2,3}"])
def test_export_is_the_listed_export_relabelled(capsys, argv, digest):
    code, out = run(capsys, "lattice", *argv)
    assert code == EXIT_OK
    assert relabelled(out) == digest


# sha256 and relabelled() of one export of pi-r, pi-rj and q-r.  The
# relabelled() digests were taken when these families grew from marked seeds
# (the block containing m), before Pi_m, L_n(s), D^(r,k), Q^I and R^{I,J}
# came to share one constructor; they pin the lattices.  The raw digests pin
# the order: all three are grown in the code of L_{m-1}(1) and read through
# the bijection, pi-r and q-r as R_{m-1}^{I,I-1}(1) with I = {r, 2r, ...} and
# pi-rj as D^(r,k) at s = 1.  pi-r 6,2 is Q_6^{2,4,6} and Pi_6^{2,2}, so both
# its digests equal those of the q-I export above.
MARKED_EXPORTS = [
    (["--family", "pi-r", "--m", "6", "--r", "2"],
     "c518ac58e4d6a6c2a0ad838335638ed3d6e446d1be8b61242e0c00c49a4dcec0",
     "807bf4950308ac4eac75a68e7c577efaadee062d58f5abba0ca33e10c546c067"),
    (["--family", "pi-rj", "--m", "7", "--r", "2", "--j", "3"],
     "ca1bcbf531e5f0bec30de838dadfb2344696a5b682e8c491389c6f1f1a6e9a88",
     "046e245c7ef49aaf9cc5849df25bc115d68ecb74c9b40d28e84122ce35777af1"),
    (["--family", "q-r", "--n", "3", "--r", "2"],
     "892ac1834533a247f6a54205076c52a0c00e67cdb9ff186100d6d7dee8a21e2f",
     "2d6c0b302288e3369e22f77f49cc7be2cf422d6fc09942fa9dd0e97bf71a7f36"),
]


@pytest.mark.parametrize("argv,digest,relabelled_digest", MARKED_EXPORTS,
                         ids=["pi-r6,2", "pi-rj7,2,3", "q-r3,2"])
def test_marked_seed_export_is_pinned(capsys, argv, digest, relabelled_digest):
    code, out = run(capsys, "lattice", *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert relabelled(out) == relabelled_digest


def test_r_divisible_export_is_the_restricted_export(capsys):
    """Pi_m^r is Q_m^I with I = {r, 2r, ..., m} and Pi_m^{r,r}, all three
    built by the same call."""
    pi_r = run(capsys, "lattice", "--family", "pi-r", "--m", "6", "--r", "2")
    q_I = run(capsys, "lattice", *GOLDEN_EXPORTS[5][0])
    pi_rj = run(capsys, "lattice", "--family", "pi-rj", "--m", "6", "--r", "2", "--j", "2")
    assert pi_r == q_I == pi_rj
    assert pi_r[0] == EXIT_OK


def test_lattice_cache_keyed_on_guard(tmp_path, capsys):
    args = ("lattice", "--family", "pi", "--m", "3", "--cache-dir", str(tmp_path))
    assert run(capsys, *args, "--guard", "9")[0] == EXIT_OK
    assert run(capsys, *args, "--guard", "10")[0] == EXIT_OK
    assert len(list(tmp_path.iterdir())) == 2


def test_lattice_cache_keyed_on_version(tmp_path, capsys, monkeypatch):
    """An export cached by version 0.1.0, which placed the elements of Pi_m
    in another order, is not served."""
    fresh = run(capsys, "lattice", "--family", "pi", "--m", "3")
    args = ("lattice", "--family", "pi", "--m", "3", "--cache-dir", str(tmp_path))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "__version__", "0.1.0")
        assert run(capsys, *args) == fresh
    (cached,) = tmp_path.iterdir()
    stale = json.loads(cached.read_text())
    stale["elements"].reverse()
    cached.write_text(json.dumps(stale))
    assert run(capsys, *args) == fresh
    assert len(list(tmp_path.iterdir())) == 2
