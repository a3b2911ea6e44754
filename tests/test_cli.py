"""CLI surface: subcommands, exit codes, output formats, the cache."""

import json

import pytest

from expdowling import cli, identities
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


def test_el_check(capsys):
    code, out = run(capsys, "el-check", "--m", "4", "--r", "2", "--j", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] and data["falling_count"] == 2


def test_lattice_export_and_cache(tmp_path, capsys):
    args = ("lattice", "--family", "pi", "--m", "3", "--cache-dir", str(tmp_path))
    code, cold = run(capsys, *args)
    assert code == EXIT_OK
    cached_files = list(tmp_path.iterdir())
    assert len(cached_files) == 1
    code, warm = run(capsys, *args)
    assert code == EXIT_OK
    assert warm == cold
    data = json.loads(cold)
    assert data["poset"]["n"] == 5  # Bell(3)


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


def test_verify_all_end_to_end(capsys):
    code, out = run(capsys, "verify", "all")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert len(results) == 75
    assert all(r["verdict"] != "mismatch" for r in results)
    flipped = {r["identity"] for r in results if r["epsilon"] == -1}
    assert flipped == {"d-rk-series", "mu-descent"}
    assert all(r["epsilon"] == 1 for r in results if r["identity"] not in flipped)


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

    monkeypatch.setitem(cli.SUITES, "cor3.4", (flipped, cli.SUITES["cor3.4"][1]))
    code, out = run(capsys, "verify", "cor3.4")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["results"][0]["epsilon"] == -1


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(ns):
        raise PosetError("poset has no unique minimal element")

    monkeypatch.setitem(cli.SUITES, "thm5.5", (broken, cli.SUITES["thm5.5"][1]))
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
])
def test_invalid_parameters_exit_usage(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "guard exceeded" not in captured.err


def test_lattice_cache_keyed_on_guard(tmp_path, capsys):
    args = ("lattice", "--family", "pi", "--m", "3", "--cache-dir", str(tmp_path))
    assert run(capsys, *args, "--guard", "9")[0] == EXIT_OK
    assert run(capsys, *args, "--guard", "10")[0] == EXIT_OK
    assert len(list(tmp_path.iterdir())) == 2
