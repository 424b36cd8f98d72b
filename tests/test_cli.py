import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kummer_chern import cli
from kummer_chern.polyring import SPoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_table_n2(capsys):
    code, out, _ = run(capsys, "compute", "--n-max", "2")
    assert code == 0
    assert "c2 | 24" in out


def test_compute_table_includes_all_blocks(capsys):
    code, out, _ = run(capsys, "compute", "--n-max", "4", "--format", "table")
    assert code == 0
    assert "n=2" in out and "n=3" in out and "n=4" in out
    assert "c2^2 | 756" in out and "c4 | 108" in out
    assert "c2^3 | 30208" in out and "c2 c4 | 6784" in out and "c6 | 448" in out


def test_compute_json_and_round_trip(capsys):
    code, out, _ = run(capsys, "compute", "--n-max", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records[-1] == {
        "n": 3,
        "dimension": 4,
        "surface": "p2",
        "chern_numbers": {"c2^2": "756", "c4": "108"},
    }
    assert json.dumps(records, indent=2) + "\n" == out  # re-rendering is byte-identical


def test_compute_n1_is_the_point(capsys):
    code, out, _ = run(capsys, "compute", "--n-max", "1")
    assert code == 0
    assert "1 | 1" in out


def usage_error(capsys, *argv):
    """stderr of a parser usage error: exit 2, nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: kummer-chern ")
    return captured.err


BAD_COUNTS = {
    ("compute", "--n-max", "0"): "argument --n-max: must be at least 1, got 0\n",
    ("genus", "--name", "todd", "--n-max", "0"): (
        "argument --n-max: must be at least 1, got 0\n"
    ),
    ("hilbert", "--k", "-1"): "argument --k: must be at least 0, got -1\n",
}


@pytest.mark.parametrize("argv", list(BAD_COUNTS), ids=" ".join)
def test_compute_rejects_bad_n_max(capsys, argv):
    # exit 2, invalid configuration, through the parser before any work
    err = usage_error(capsys, *argv)
    assert err.endswith(f"kummer-chern {argv[0]}: error: {BAD_COUNTS[argv]}")


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == 0
    assert "1 of 1 entries match" in out


def test_verify_n4(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4")
    assert code == 0
    assert "6 of 6 entries match" in out


def test_verify_rejects_out_of_range(capsys):
    for n_max in ("0", "9"):
        err = usage_error(capsys, "verify", "--n-max", n_max)
        assert err.endswith(f"argument --n-max: must be from 1 to 8, got {n_max}\n")


def test_verify_detects_corruption(capsys, monkeypatch):
    import kummer_chern.cli as climod

    good = dict(climod.reference_for(2))
    good[(2,)] = 23

    def fake_reference(n):
        return good if n == 2 else climod.reference_for(n)

    monkeypatch.setattr(climod, "reference_for", fake_reference)
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == 1
    assert "n=2 c2 expected=23 got=24" in out
    assert "0 of 1 entries match" in out


def test_hilbert_k2_top_chern(capsys):
    code, out, _ = run(capsys, "hilbert", "--k", "2")
    assert code == 0
    assert "c4 | 9" in out
    assert "fixed points: 9" in out


def test_hilbert_k0(capsys):
    code, out, _ = run(capsys, "hilbert", "--k", "0")
    assert code == 0
    assert "1 | 1" in out


def test_genus_todd(capsys):
    code, out, _ = run(capsys, "genus", "--name", "todd", "--n-max", "4")
    assert code == 0
    assert "2 | 2" in out and "3 | 3" in out and "4 | 4" in out


def test_genus_euler(capsys):
    code, out, _ = run(capsys, "genus", "--name", "euler", "--n-max", "4")
    assert code == 0
    assert "2 | 24" in out and "3 | 108" in out and "4 | 448" in out


def test_genus_point(capsys):
    code, out, _ = run(capsys, "genus", "--name", "euler", "--n-max", "1")
    assert code == 0
    assert "1 | 1" in out


def test_genus_unknown_preset_is_usage_error(capsys):
    usage_error(capsys, "genus", "--name", "elliptic", "--n-max", "2")


# a zero cell weight, then zero chart weights: the chart weights are the
# one-box partition's tangent weights, so every case fails the one rule
DEGENERATE = {
    ("verify", "--n-max", "3", "--weights", "1,2"): "(1, 2) are degenerate for p2 at depth 3",
    ("verify", "--n-max", "2", "--weights", "1,1"): "(1, 1) are degenerate for p2 at depth 2",
    ("verify", "--n-max", "1", "--surface", "p1xp1", "--weights", "1,0"): (
        "(1, 0) are degenerate for p1xp1 at depth 1"
    ),
}


@pytest.mark.parametrize("argv", list(DEGENERATE), ids=" ".join)
def test_explicit_degenerate_weights_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"genericity failure: weights {DEGENERATE[argv]}\n"


def test_explicit_good_weights_work(capsys):
    assert run(capsys, "verify", "--n-max", "2", "--weights", "1,7") == (
        0, "1 of 1 entries match\n", ""
    )


def test_negative_first_weight_needs_the_equals_form(capsys):
    # a separate "-5,11" reads as an option, so the help asks for "="
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--weights=-5,11")
    assert code == 0
    assert "6 of 6 entries match" in out
    err = usage_error(capsys, "verify", "--n-max", "4", "--weights", "-5,11")
    assert err.endswith("kummer-chern verify: error: argument --weights: expected one argument\n")


def test_bad_weight_syntax_is_usage_error(capsys):
    usage_error(capsys, "verify", "--n-max", "2", "--weights", "1;2")
    err = usage_error(capsys, "compute", "--n-max", "two")
    assert err.endswith("argument --n-max: invalid int value: 'two'\n")


def test_p1xp1_surface(capsys):
    assert run(capsys, "verify", "--n-max", "2", "--surface", "p1xp1") == (
        0, "1 of 1 entries match\n", ""
    )


def test_missing_subcommand_is_usage_error(capsys):
    usage_error(capsys)


def test_options_take_their_value_after_a_space_or_an_equals_sign(capsys):
    spaced = run(capsys, "hilbert", "--k", "2", "--format", "csv", "--surface", "p1xp1")
    assert spaced[0] == 0 and spaced[1].startswith("k,partition_key,value\n")
    assert run(capsys, "hilbert", "--k=2", "--format=csv", "--surface=p1xp1") == spaced
    verified = run(capsys, "verify", "--n-max=4", "--weights=-9,6")
    assert verified == (0, "6 of 6 entries match\n", "")


def test_a_repeated_option_keeps_its_last_value(capsys):
    assert run(capsys, "verify", "--n-max", "3", "--n-max=2") == (0, "1 of 1 entries match\n", "")
    code, out, _ = run(capsys, "compute", "--n-max", "2", "--format", "json", "--format", "csv")
    assert (code, out) == (0, "n,partition_key,value\n2,c2,24\n")


USAGE_ERRORS = {
    ("verify", "--bogus", "1"): "kummer-chern verify: error: unrecognized arguments: --bogus 1\n",
    # options are matched whole, with no prefix abbreviation
    ("verify", "--n", "2"): "kummer-chern verify: error: unrecognized arguments: --n 2\n",
    # missing required options are reported before unknown ones
    ("genus", "--surface", "p2"): (
        "kummer-chern genus: error: the following arguments are required: --name, --n-max\n"
    ),
    # compute and genus run on p2 at the default weights: verify is the cross-check
    ("compute", "--n-max", "2", "--surface", "p1xp1"): (
        "kummer-chern compute: error: unrecognized arguments: --surface p1xp1\n"
    ),
    ("compute", "--n-max", "2", "--weights=-9,6"): (
        "kummer-chern compute: error: unrecognized arguments: --weights=-9,6\n"
    ),
    ("genus", "--name", "todd", "--n-max", "2", "--weights", "1,7"): (
        "kummer-chern genus: error: unrecognized arguments: --weights 1,7\n"
    ),
    ("genus", "--name", "todd", "--n-max", "2", "--surface=p2"): (
        "kummer-chern genus: error: unrecognized arguments: --surface=p2\n"
    ),
    # hilbert runs at the default weights too: only verify takes --weights
    ("hilbert", "--k", "2", "--weights", "1,7"): (
        "kummer-chern hilbert: error: unrecognized arguments: --weights 1,7\n"
    ),
    ("hilbert", "--k", "2", "--weights=1,7"): (
        "kummer-chern hilbert: error: unrecognized arguments: --weights=1,7\n"
    ),
    # output goes to stdout alone: a file is the shell's "> FILE"
    ("compute", "--n-max", "2", "--out", "x.json"): (
        "kummer-chern compute: error: unrecognized arguments: --out x.json\n"
    ),
    ("compute", "--n-max", "2", "--out=x.json"): (
        "kummer-chern compute: error: unrecognized arguments: --out=x.json\n"
    ),
    ("hilbert", "--k", "2", "--out", "x.csv"): (
        "kummer-chern hilbert: error: unrecognized arguments: --out x.csv\n"
    ),
    ("hilbert", "--k", "2", "--out=x.csv"): (
        "kummer-chern hilbert: error: unrecognized arguments: --out=x.csv\n"
    ),
    ("genus", "--name", "todd", "--n-max", "2", "--out", "x.txt"): (
        "kummer-chern genus: error: unrecognized arguments: --out x.txt\n"
    ),
    ("genus", "--name", "todd", "--n-max", "2", "--out=x.txt"): (
        "kummer-chern genus: error: unrecognized arguments: --out=x.txt\n"
    ),
    ("hilbert", "--k"): "kummer-chern hilbert: error: argument --k: expected one argument\n",
    ("frob", "--n-max", "2"): (
        "kummer-chern: error: argument command: invalid choice: 'frob' "
        "(choose from 'compute', 'verify', 'hilbert', 'genus')\n"
    ),
    (): "kummer-chern: error: the following arguments are required: command\n",
    # a malformed weight is named by the option, never by int()
    ("verify", "--n-max", "2", "--weights", "1,x"): (
        "kummer-chern verify: error: argument --weights: weights must be two integers: A,B\n"
    ),
    ("verify", "--n-max", "2", "--weights=1,"): (
        "kummer-chern verify: error: argument --weights: weights must be two integers: A,B\n"
    ),
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=" ".join)
def test_usage_errors_exit_2_with_one_error_line(capsys, argv):
    err = usage_error(capsys, *argv)
    assert err.endswith(USAGE_ERRORS[argv])
    assert err.count("error:") == 1


def test_an_out_option_writes_no_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "table.json"
    for argv in (["--out", str(target)], [f"--out={target}"], ["--out", "table.json"]):
        usage_error(capsys, "compute", "--n-max", "2", "--format", "json", *argv)
    assert list(tmp_path.iterdir()) == []


def test_help_lists_the_commands_and_each_commands_options(capsys):
    for argv in (["--help"], ["-h"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.err) == (0, "")
        usage = "usage: kummer-chern [-h] {compute,verify,hilbert,genus} ...\n"
        assert captured.out.startswith(usage)
        assert all(f"\n  {command} " in captured.out for command in cli.COMMANDS)
    for command, (_, _, options) in cli.COMMANDS.items():
        # help comes before any other check, an invalid value included
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help", "--n-max", "0"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.err) == (0, "")
        assert captured.out.startswith(f"usage: kummer-chern {command} [-h] ")
        assert all(f"\n  {name} " in captured.out for name, *_ in options)


def _csv_rows(records: list[dict]) -> list[list[str]]:
    """The rows a CSV of these JSON records holds: a genus value or a Chern number each."""
    if "values" in records[0]:
        return [["n", "value"], *([n, value] for n, value in records[0]["values"].items())]
    index = "n" if "n" in records[0] else "k"
    return [[index, "partition_key", "value"], *(
        [str(r[index]), key, value] for r in records for key, value in r["chern_numbers"].items()
    )]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--n-max", "8"],
        ["hilbert", "--k", "5", "--surface", "p1xp1"],
        ["genus", "--name", "signature", "--n-max", "8"],
    ],
    ids=" ".join,
)
def test_csv_rows_are_the_json_records_and_need_no_quoting(capsys, argv):
    # the rows are joined with "," unquoted: a field that needed quoting
    # would read back differently here
    code, text, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    code, records, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(csv.reader(text.splitlines())) == _csv_rows(json.loads(records))


def test_output_is_deterministic_across_runs(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "compute", "--n-max", "3", "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


# modules a cold verify or hilbert must not load: the dataclasses chain
# costs about 13 ms; reading the reference table through
# importlib.resources (pathlib, zipfile, tempfile) made verify --n-max 2
# about 26 ms slower under -S; csv, needed only by --format csv, costs about
# 1 ms; and fractions with decimal and numbers about 2.7 ms of CPU, while
# both commands run on integers and return no rational.
COLD_UNLOADED = (
    "dataclasses", "inspect", "importlib.resources", "pathlib", "zipfile", "tempfile",
    "csv", "fractions", "decimal", "numbers",
)
# modules no cold command loads: argparse, with the gettext and locale it
# imports and the shutil it loads to read the terminal width, costs about
# 2.2 ms of CPU to build and run a parser for verify
PARSER_MODULES = ("argparse", "gettext", "locale", "shutil")


def _cold_loaded(argv: list[str], watched=COLD_UNLOADED + PARSER_MODULES) -> str:
    # runs cli.main(argv) in a fresh interpreter without site; prints its
    # output, then the exit code and the watched modules it loaded
    src = str(Path(cli.__file__).parents[1])
    probe = (
        "import sys; from kummer_chern import cli; "
        f"code = cli.main({argv!r}); "
        f"print(code, sorted(set({watched!r}) & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # a cold verify reads its table without json too (about 2.2 ms)
    out = _cold_loaded(["verify", "--n-max", "2"], COLD_UNLOADED + PARSER_MODULES + ("json",))
    assert out == "1 of 1 entries match\n0 []\n"


def test_cold_hilbert_loads_no_rational_type():
    # json is loaded here, by --format json; the reference table is not
    watched = COLD_UNLOADED + PARSER_MODULES + ("kummer_chern.reference_data",)
    out = _cold_loaded(["hilbert", "--k", "2", "--format", "json"], watched)
    assert out.endswith("\n]\n0 []\n") and json.loads(out[: -len("0 []\n")])[0]["k"] == 2


@pytest.mark.parametrize(
    "argv",
    [["compute", "--n-max", "2", "--format", "csv"], ["genus", "--name", "todd", "--n-max", "2"]],
    ids=" ".join,
)
def test_no_cold_command_loads_the_argparse_chain(argv):
    # nor csv: CSV rows are joined without it
    assert _cold_loaded(argv, PARSER_MODULES + ("csv",)).endswith("\n0 []\n")


def test_verify_and_hilbert_run_on_integers_alone(capsys, monkeypatch):
    # from the kernel to the Chern table the pipeline has integer
    # numerators: it passes no rational coefficient to SPoly(...) and
    # makes no Q of a coefficient
    from kummer_chern import assembly, polyring, symfun

    init = polyring.SPoly.__init__

    def integer_init(self, terms=None):
        rational = [c for c in (terms or {}).values() if type(c) is not int]
        assert not rational, f"SPoly({terms}) on the integer path"
        init(self, terms)

    def refused(num, den):
        raise AssertionError(f"_rational({num}, {den}) on the integer path")

    monkeypatch.setattr(polyring.SPoly, "__init__", integer_init)
    monkeypatch.setattr(polyring, "_rational", refused)
    monkeypatch.setattr(assembly, "_assembled", {})
    symfun.genus_log_form.cache_clear()
    assert run(capsys, "verify", "--n-max", "4") == (0, "6 of 6 entries match\n", "")
    code, out, err = run(capsys, "hilbert", "--k", "3", "--surface", "p1xp1")
    assert (code, err) == (0, "") and "  c6 | 40" in out.splitlines()


# every (command, format) pair, pinned byte for byte
GOLDEN = {
    ("compute", "--n-max", "3", "--format", "table"): """\
n=2  dimension=2  surface=p2
  c2 | 24
n=3  dimension=4  surface=p2
  c2^2 | 756
  c4 | 108
""",
    ("compute", "--n-max", "3", "--format", "json"): """\
[
  {
    "n": 2,
    "dimension": 2,
    "surface": "p2",
    "chern_numbers": {
      "c2": "24"
    }
  },
  {
    "n": 3,
    "dimension": 4,
    "surface": "p2",
    "chern_numbers": {
      "c2^2": "756",
      "c4": "108"
    }
  }
]
""",
    ("compute", "--n-max", "3", "--format", "csv"): """\
n,partition_key,value
2,c2,24
3,c2^2,756
3,c4,108
""",
    ("hilbert", "--k", "1", "--format", "table"): """\
k=1  dimension=2  surface=p2
  fixed points: 3 (series predicts 3)
  euler cross-check: ok (top Chern number 3)
  c1^2 | 9
  c2 | 3
""",
    ("hilbert", "--k", "1", "--format", "json"): """\
[
  {
    "k": 1,
    "dimension": 2,
    "surface": "p2",
    "fixed_points": 3,
    "euler_check": "ok",
    "chern_numbers": {
      "c1^2": "9",
      "c2": "3"
    }
  }
]
""",
    ("hilbert", "--k", "1", "--format", "csv"): """\
k,partition_key,value
1,c1^2,9
1,c2,3
""",
    ("genus", "--name", "signature", "--n-max", "3", "--format", "table"): """\
signature genus on the Kummer tables, surface p2
  2 | -16
  3 | 84
""",
    ("genus", "--name", "signature", "--n-max", "3", "--format", "json"): """\
[
  {
    "genus": "signature",
    "surface": "p2",
    "values": {
      "2": "-16",
      "3": "84"
    }
  }
]
""",
    ("genus", "--name", "signature", "--n-max", "3", "--format", "csv"): """\
n,value
2,-16
3,84
""",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_output_is_the_golden_text(capsys, argv):
    assert run(capsys, *argv) == (0, GOLDEN[argv], "")


def test_compute_json_keeps_the_advisories(capsys, monkeypatch):
    note = "n=2: an advisory made by this test"
    original = cli.kummer_chern_numbers

    def advised(model, n):
        return original(model, n)._replace(advisories=(note,))

    monkeypatch.setattr(cli, "kummer_chern_numbers", advised)
    code, out, _ = run(capsys, "compute", "--n-max", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["advisories"] == [note]
    code, out, _ = run(capsys, "compute", "--n-max", "2")
    assert code == 0 and f"  advisory: {note}" in out.splitlines()


def test_failed_check_exits_1_with_one_line(capsys, monkeypatch):
    import kummer_chern.assembly as assembly

    original = assembly.zseries_log

    def corrupting_log(series):
        coeffs = list(original(series))
        coeffs[2] = coeffs[2] + SPoly({(): 1})  # off weight 4
        return tuple(coeffs)

    monkeypatch.setattr(assembly, "zseries_log", corrupting_log)
    monkeypatch.setattr(assembly, "_assembled", {})  # no stored series answers first
    code, out, err = run(capsys, "verify", "--n-max", "3", "--weights", "1,47")
    assert code == 1 and out == ""
    assert err.startswith("check failed: z^2 coefficient of ln H(0) has off-weight")
    assert len(err.splitlines()) == 1


def test_failed_hilbert_euler_check_exits_1_with_one_line(capsys, monkeypatch):
    import kummer_chern.assembly as assembly

    original = assembly.hilbert_genus

    def corrupted(model, k):  # + 9 s3^2 adds 1 to c6 and, as l_3 = 0, 0 to Todd
        return original(model, k) + SPoly({(3, 3): 9})

    monkeypatch.setattr(assembly, "hilbert_genus", corrupted)
    code, out, err = run(capsys, "hilbert", "--k", "3")
    assert (code, out) == (1, "")
    assert err == "check failed: k=3: top Chern number 23, expected Euler number 22\n"
