"""Tests of the benchmark harness itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

from kummer_chern.reference import reference_for  # noqa: E402


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_partition_counts_match_known_fixed_point_counts():
    # fixed points of the k-point Hilbert scheme: 3 charts on p2, 4 on p1xp1
    assert [workloads.partition_count(1, k) for k in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert workloads.partition_count(3, 9) == 1479
    assert workloads.partition_count(3, 10) == 2640
    assert workloads.partition_count(4, 7) == 1240
    assert workloads.verify_entry_count(8) == 44


def hilbert_output(k: int, top: int, euler_check: str = "ok") -> str:
    key = f"c{2 * k}" if k else "1"
    record = {"k": k, "fixed_points": top, "euler_check": euler_check, "chern_numbers": {key: str(top)}}
    return json.dumps([record])


def sweep_output(spec: dict) -> dict:
    ns = range(2, spec["n_max"] + 1)
    return {
        "models": [
            {
                "surface": surface,
                "weights": [1, 2],
                "tables": {str(n): [[list(mu), str(v)] for mu, v in reference_for(n).items()] for n in ns},
                "todd": {str(n): str(n) for n in ns},
            }
            for surface in spec["surfaces"]
            for _ in range(spec["pairs_per_surface"])
        ]
    }


def test_checks_accept_right_outputs():
    assert workloads.check_verify(8, "44 of 44 entries match\n") is None
    assert workloads.check_hilbert(7, hilbert_output(7, 1240)) is None
    assert workloads.check_hilbert(0, hilbert_output(0, 1)) is None
    spec = {"n_max": 5, "surfaces": ["p2", "p1xp1"], "pairs_per_surface": 2}
    assert workloads.check_sweep(spec, json.dumps(sweep_output(spec))) is None


@pytest.mark.parametrize(
    "out",
    ["43 of 44 entries match\n", "n=8 c2^8 expected=1 got=2\n44 of 44 entries match\n", ""],
)
def test_verify_check_rejects_tampered_output(out):
    assert workloads.check_verify(8, out) is not None


@pytest.mark.parametrize(
    "out",
    [hilbert_output(7, 1240, "MISMATCH"), hilbert_output(7, 1241), hilbert_output(6, 574), "[]", "oops"],
)
def test_hilbert_check_rejects_tampered_output(out):
    assert workloads.check_hilbert(7, out) is not None


def test_sweep_check_rejects_tampered_output():
    spec = {"n_max": 4, "surfaces": ["p2"], "pairs_per_surface": 2}
    wrong_value = sweep_output(spec)
    wrong_value["models"][1]["tables"]["4"][0][1] += "0"
    wrong_todd = sweep_output(spec)
    wrong_todd["models"][0]["todd"]["3"] = "4"
    missing_model = sweep_output(spec)
    del missing_model["models"][0]
    for tampered in (wrong_value, wrong_todd, missing_model):
        assert workloads.check_sweep(spec, json.dumps(tampered)) is not None


def test_tampered_output_counts_as_failed(monkeypatch, capsys):
    calls = []

    def fake_spawn(argv, stdout_path):
        if argv[-1] == str(run.CALIBRATE):
            stdout_path.write_text(run.CALIBRATION_CHECKSUM + "\n")
            return 0.5, 0.5, 8.0, 0
        n_max = int(argv[argv.index("--n-max") + 1])
        entries = workloads.verify_entry_count(n_max)
        calls.append(n_max)
        # the second measured operation reports one mismatching entry
        tampered = n_max == workloads.VERIFY_N_MAX and calls.count(n_max) == 2
        matched = entries - 1 if tampered else entries
        stdout_path.write_text(f"{matched} of {entries} entries match\n")
        return 1.0 + len(calls) / 100, 1.0, 16.0, 0

    monkeypatch.setattr(run, "spawn", fake_spawn)
    assert run.main(["--workload", "verify-p2", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["attempted"] == 2 + run.MIN_OPS * (2 + run.SETUPS_PER_ROUND)
    assert result["failed"] == 1
    assert result["correct"] is False
    # operations take 1.02, 1.04 and 1.06 s between calibrations of 0.5 s
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(1.04 / 0.5 * run.CALIBRATION_REFERENCE_S)


def test_scaled_median_divides_by_the_calibrations_around_each_round():
    def sample(seconds):
        return run.Sample("cli", seconds, seconds, 1.0, "", None)

    calibrations = [sample(s) for s in (1.0, 4.0, 1.0, 1.0)]
    # gauges are 2, 2 and 1; two samples a round
    setups = [sample(s) for s in (2.0, 4.0, 6.0, 6.0, 3.0, 3.0)]
    ref = run.CALIBRATION_REFERENCE_S
    assert run.scaled_median(setups, "wall_s", calibrations) == pytest.approx(3.0 * ref)


def test_calibration_checksum_is_what_the_script_prints():
    import calibrate

    assert run.check_calibration(f"{calibrate.checksum()}\n") is None
    assert run.check_calibration("0\n") is not None


def test_nonzero_exit_counts_as_failed():
    op = workloads.WORKLOADS["verify-p2"].setup_op
    assert run.judge(1, "0 of 0 entries match\n", op.check) == "exit code 1"
    assert run.judge(0, "0 of 0 entries match\n", op.check) is None


def test_self_times_subtract_direct_children():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 8]
    tree = [
        ["cli.main", -1, 0.0, 10.0, False, None],
        ["assembly.kummer_genus_series", 0, 1.0, 4.0, False, None],
        ["localization.localized_sums", 0, 5.0, 9.0, False, 3],
        ["localization.tangent_data", 2, 6.0, 8.0, False, None],
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0]


def test_metrics_of_a_span_tree():
    search, build = "localization.find_generic_model", "localization.build_surface_model"
    tree = [
        ["cli.sweep", -1, 0.0, 10.0, False, None],
        [search, 0, 1.0, 2.0, True, None],  # explicit weights rejected: one redraw
        [build, 1, 1.0, 1.5, False, None],
        [search, 0, 3.0, 5.0, False, None],  # schedule took a second step
        [build, 3, 3.0, 3.5, True, None],
        [build, 3, 4.0, 4.5, False, None],
        ["localization.localized_sums", 0, 6.0, 9.0, False, 2],
        ["localization.tangent_data", 6, 7.0, 8.0, False, None],
    ]
    run_data = {"spans": tree, "tables": [{"k": 2, "terms": 4, "lcm_bits": 3}], "points_distinct": 1}
    metrics = spans.run_metrics(run_data)
    assert metrics["localization.weight_retries"] == (2, "count")
    assert metrics["localization.model_search_s"] == (3.0, "s")
    assert metrics["localization.sums_s.k2"] == metrics["localization.sums_s.kmax"] == (2.0, "s")
    assert metrics["localization.useful_ratio"] == (1.0, "ratio")
    assert metrics["cli.self_s"] == (4.0, "s")
    assert spans.closure_residual(metrics) == 0.0


def test_traced_runs_repeat_counts_and_close(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    op = workloads.cli_op(["verify", "--n-max", "3"], lambda out: workloads.check_verify(3, out))
    metrics = []
    for i in range(2):
        sample, trace = run.run_traced(op, "tiny", f"tiny-{i}")
        assert sample.problem is None
        metrics.append(spans.run_metrics(trace))
        assert abs(spans.closure_residual(metrics[-1])) < 1e-6
    assert spans.exact_counts(metrics[0]) == spans.exact_counts(metrics[1])
    counts = spans.exact_counts(metrics[0])
    # n_max=3 builds k = 0..n tables for each n = 2, 3 at its own weight cap
    assert counts["localization.tables_built"] == 3 + 4
    assert counts["assembly.series.calls"] == 3
    assert set(run.PER_LAYER) - {"trace.overhead"} <= set(metrics[0])


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    assert run.main(["--workload", "verify-p2", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
