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
    assert cli.render_json(records) == out  # re-rendering is byte-identical


def test_compute_n1_is_the_point(capsys):
    code, out, _ = run(capsys, "compute", "--n-max", "1")
    assert code == 0
    assert "1 | 1" in out


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--n-max", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,partition_key,value"
    assert "2,c2,24" in lines
    assert "3,c2^2,756" in lines and "3,c4,108" in lines


def test_compute_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(
        capsys, "compute", "--n-max", "2", "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    records = json.loads(target.read_text())
    assert records[0]["chern_numbers"] == {"c2": "24"}


def test_compute_out_to_unwritable_path_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.json"
    code, out, err = run(capsys, "compute", "--n-max", "2", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"cannot write --out {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.exists() and not target.parent.exists()


def test_compute_rejects_bad_n_max(capsys):
    code, _, err = run(capsys, "compute", "--n-max", "0")
    assert code == 2
    assert "n-max" in err


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == 0
    assert "1 of 1 entries match" in out


def test_verify_n4(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4")
    assert code == 0
    assert "6 of 6 entries match" in out


def test_verify_rejects_out_of_range(capsys):
    code, _, err = run(capsys, "verify", "--n-max", "9")
    assert code == 2
    assert "verify covers" in err


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


def test_hilbert_k1(capsys):
    code, out, _ = run(capsys, "hilbert", "--k", "1")
    assert code == 0
    assert "c1^2 | 9" in out and "c2 | 3" in out
    assert "fixed points: 3" in out
    assert "euler cross-check: ok" in out


def test_hilbert_k2_top_chern(capsys):
    code, out, _ = run(capsys, "hilbert", "--k", "2")
    assert code == 0
    assert "c4 | 9" in out
    assert "fixed points: 9" in out


def test_hilbert_k0(capsys):
    code, out, _ = run(capsys, "hilbert", "--k", "0")
    assert code == 0
    assert "1 | 1" in out


def test_hilbert_json(capsys):
    code, out, _ = run(capsys, "hilbert", "--k", "1", "--format", "json")
    assert code == 0
    record = json.loads(out)[0]
    assert record["fixed_points"] == 3
    assert record["chern_numbers"] == {"c1^2": "9", "c2": "3"}


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


def test_genus_json_and_csv(capsys):
    code, out, _ = run(
        capsys, "genus", "--name", "signature", "--n-max", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)[0]["values"] == {"2": "-16", "3": "84"}
    code, out, _ = run(
        capsys, "genus", "--name", "signature", "--n-max", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,value", "2,-16", "3,84"]


def test_genus_unknown_preset_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["genus", "--name", "elliptic", "--n-max", "2"])
    assert exc.value.code == 2


def test_explicit_degenerate_weights_exit_3(capsys):
    code, _, err = run(capsys, "compute", "--n-max", "3", "--weights", "1,2")
    assert code == 3
    assert "genericity" in err


def test_explicit_good_weights_work(capsys):
    code, out, _ = run(capsys, "compute", "--n-max", "2", "--weights", "1,7")
    assert code == 0
    assert "c2 | 24" in out


def test_bad_weight_syntax_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--n-max", "2", "--weights", "1;2"])
    assert exc.value.code == 2


def test_p1xp1_surface(capsys):
    code, out, _ = run(capsys, "compute", "--n-max", "2", "--surface", "p1xp1")
    assert code == 0
    assert "c2 | 24" in out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_output_is_deterministic_across_runs(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "compute", "--n-max", "3", "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # every command is a fresh process; the dataclasses chain costs about
    # 13 ms, and importlib.resources (only verify reads the table) about 20 ms
    src = str(Path(cli.__file__).parents[1])
    probe = (
        "import sys; import kummer_chern.cli; "
        "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} "
        "& set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
        coeffs[2] = coeffs[2] + SPoly.constant(1)  # off weight 4
        return tuple(coeffs)

    monkeypatch.setattr(assembly, "zseries_log", corrupting_log)
    # weights no other test assembles, so no stored series answers first
    code, out, err = run(capsys, "compute", "--n-max", "3", "--weights", "1,47")
    assert code == 1 and out == ""
    assert err.startswith("check failed: z^2 coefficient of ln H(0) has off-weight")
    assert len(err.splitlines()) == 1
