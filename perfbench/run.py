"""Benchmark of the kummer-chern pipeline.

    python3 perfbench/run.py --workload verify-p2 --seed 1 --seconds 35 --trace 0

Run from the repository root.  Every operation is a fresh child process,
started one at a time, with no threads and no concurrent children.

--trace 0 measures the end-to-end metrics.  A run starts with one child
running calibrate.py, a fixed stdlib-only workload like the program's
kernel.  Each round after it is one operation, one cold start of the same
entry point on trivial input (the set-up), and one more calibration.  The
speed of a shared host swings by up to 2x within seconds and between
minutes, so raw times do not repeat from run to run.  Each time metric is
therefore the median over the run of the sample's time divided by the
geometric mean of the two calibrations around its round, times
CALIBRATION_REFERENCE_S: seconds on a quiet host of the reference kind.
The metrics are spawn-to-exit wall time (wall_s), the child's user+sys CPU
time (cpu_s, from os.wait4, divided by the calibrations' CPU time), the
set-up's wall time (setup_s), and the median peak RSS of the operations
(peak_rss_mb).  The raw medians and minima are printed on their own lines.

--trace 1 alternates untraced operations with operations run in-process
under the span tracer (spans.py) and reports the per-layer metrics: self
times as medians over the traced runs, exact counts (which must repeat
exactly), and the tracing overhead.

Every output is checked by workloads.py; an operation whose output fails
its check or whose exit code is not 0 counts as failed.  The last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from workloads import Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS_PER_ROUND = 1  # set-up samples are spread over the run like the operations
CALIBRATE = HERE / "calibrate.py"
CALIBRATION_CHECKSUM = "969183"
# calibrate.py's time on a quiet 2-vCPU Xeon at 2.0 GHz with Python 3.11.7
CALIBRATION_REFERENCE_S = 0.22
MIN_OPS = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 50
STOP_STARTING_AFTER_S = 60  # with the timeout, keeps a run inside 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer metrics reported in the result line; each exists on every workload
PER_LAYER = (
    "localization.sums_s",
    "localization.sums_s.kmax",
    "localization.tables_built",
    "localization.tangent_data.calls",
    "localization.points_distinct",
    "localization.useful_ratio",
    "localization.table_terms",
    "localization.lcm_bits.kmax",
    "localization.tangent_data_s",
    "localization.fixed_points_s",
    "localization.hilbert_genus_s",
    "localization.model_search_s",
    "localization.weight_retries",
    "cli.self_s",
    "assembly.series.calls",
    "assembly.chern_s",
    "symfun.power_integrals_s",
    "symfun.chern_conversion_s",
    "localization.self_s",
    "assembly.self_s",
    "symfun.self_s",
    "partitions.self_s",
    "trace.wall_s",
    "trace.overhead",
)


@dataclass(frozen=True)
class Sample:
    """One finished child: its entry point, timings, output, and why it failed (None if it did not)."""

    entry: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    problem: str | None


def judge(exit_code: int, stdout: str, check) -> str | None:
    """Why an operation failed, or None: a non-zero exit or a failed output check."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    return check(stdout)


def child_argv(op, traced_out: Path | None = None, run_id: str = "") -> list[str]:
    if traced_out is not None:
        return [sys.executable, str(HERE / "spans.py"), str(traced_out), run_id, op.entry, *op.args]
    if op.entry == "cli":
        return [sys.executable, "-m", "kummer_chern.cli", *op.args]
    if op.entry == "calibrate":
        return [sys.executable, str(CALIBRATE)]
    return [sys.executable, str(HERE / "sweep.py"), *op.args]


def spawn(argv: list[str], stdout_path: Path) -> tuple[float, float, float, int]:
    """Run one child to completion: (wall s, user+sys s, peak RSS MB, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def run_untraced(op, name: str) -> Sample:
    path = OUT / f"{name}.stdout"
    wall, cpu, rss, code = spawn(child_argv(op), path)
    stdout = path.read_text(encoding="utf-8")
    return Sample(op.entry, wall, cpu, rss, stdout, judge(code, stdout, op.check))


def run_traced(op, name: str, run_id: str) -> tuple[Sample, dict | None]:
    path = OUT / f"{name}.trace.json"
    path.unlink(missing_ok=True)
    wall, cpu, rss, code = spawn(child_argv(op, path, run_id), OUT / f"{name}.trace.stdout")
    if code != 0 or not path.exists():
        return Sample(op.entry, wall, cpu, rss, "", f"traced child exit code {code}"), None
    run = json.loads(path.read_text(encoding="utf-8"))
    problem = judge(run["exit_code"], run["stdout"], op.check)
    return Sample(op.entry, wall, cpu, rss, run["stdout"], problem), run


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def default_weights_fact(surface: str, depth: int) -> dict:
    """The torus weights the program's own schedule picks, with its retry count."""
    from kummer_chern import localization
    from spans import Tracer

    tracer = Tracer()
    tracer.install([("kummer_chern.localization", "build_surface_model")])
    try:
        model = localization.find_generic_model(surface, depth)
    finally:
        tracer.uninstall()
    return {"surface": surface, "weights": list(model.weights), "retries": len(tracer.spans) - 1}


def run_facts(workload, seed: int, samples: list[Sample]) -> dict:
    from kummer_chern import polyring

    backend = "gmpy2" if polyring.Q.__module__.startswith("gmpy2") else polyring.Q.__name__
    facts = {
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    if workload.default_model is not None:
        facts["torus_weights"] = [default_weights_fact(*workload.default_model)]
    else:
        facts["torus_weights"] = [
            {"surface": m["surface"], "weights": m["weights"], "retries": m["redraws"]}
            for s in samples
            if s.entry == "sweep" and not s.problem
            for m in json.loads(s.stdout)["models"]
        ]
    return facts


def repeat(seconds: float, min_rounds: int, one_round) -> None:
    """Call one_round until the next call would end after `seconds`, at least min_rounds times."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        if elapsed > STOP_STARTING_AFTER_S:
            return
        if len(durations) >= min_rounds and elapsed + median(durations) > seconds:
            return
        began = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - began)


def check_calibration(out: str) -> str | None:
    if out.strip() != CALIBRATION_CHECKSUM:
        return f"calibration printed {out[-100:]!r}, expected {CALIBRATION_CHECKSUM}"
    return None


CALIBRATION_OP = Op("calibrate", (), check_calibration)


def scaled_median(sample_set: list[Sample], field: str, calibrations: list[Sample]) -> float:
    """Median over the run of each sample's time over the calibrations on either side of its round.

    calibrations[i] and calibrations[i + 1] bracket round i; their geometric
    mean gauges the host's speed during that round.  The median ratio is
    given in reference seconds.
    """
    cal = [getattr(c, field) for c in calibrations]
    gauges = [(before * after) ** 0.5 for before, after in zip(cal, cal[1:])]
    per_round = len(sample_set) // len(gauges)
    ratios = [getattr(s, field) / gauges[i // per_round] for i, s in enumerate(sample_set)]
    return median(ratios) * CALIBRATION_REFERENCE_S


def end_to_end(workload, rng, seconds: float, samples: list[Sample], raw: list[str]) -> dict:
    calibrations = [run_untraced(CALIBRATION_OP, "calibrate")]
    setups: list[Sample] = []
    ops: list[Sample] = []

    def one_round():
        ops.append(run_untraced(workload.make_op(rng), workload.name))
        for _ in range(SETUPS_PER_ROUND):
            setups.append(run_untraced(workload.setup_op, f"{workload.name}.setup"))
        calibrations.append(run_untraced(CALIBRATION_OP, "calibrate"))

    repeat(seconds, MIN_OPS, one_round)
    samples.extend(ops + setups + calibrations)
    for label, sample_set in (("operation", ops), ("setup", setups), ("calibration", calibrations)):
        for field in ("wall_s", "cpu_s"):
            values = [getattr(s, field) for s in sample_set]
            raw.append(f"{label} {field} median={median(values):.6g} min={min(values):.6g} s (n={len(values)})")
    metrics = {
        "wall_s": (scaled_median(ops, "wall_s", calibrations), len(ops)),
        "cpu_s": (scaled_median(ops, "cpu_s", calibrations), len(ops)),
        "peak_rss_mb": (median(s.peak_rss_mb for s in ops), len(ops)),
        "setup_s": (scaled_median(setups, "wall_s", calibrations), len(setups)),
    }
    return {name: (value, END_TO_END_UNITS[name], n) for name, (value, n) in metrics.items()}


def traced(workload, seed: int, seconds: float, samples: list[Sample], problems: list[str]) -> dict:
    import spans

    plain: list[Sample] = []
    traced_samples: list[Sample] = []
    runs_metrics: list[dict] = []

    def one_round():
        op = workload.make_op(random.Random(seed))  # every traced run repeats the same input
        plain.append(run_untraced(op, workload.name))
        run_id = f"{workload.name}-{seed}-{len(traced_samples)}"
        sample, run = run_traced(op, workload.name, run_id)
        traced_samples.append(sample)
        if run is not None:
            metrics = spans.run_metrics(run)
            residual = spans.closure_residual(metrics)
            if abs(residual) > 1e-6:
                problems.append(f"{run_id}: layer self times miss the traced wall time by {residual} s")
            runs_metrics.append(metrics)

    repeat(seconds, MIN_TRACED, one_round)
    samples.extend(plain + traced_samples)
    if not runs_metrics:
        return {}
    counts = [spans.exact_counts(m) for m in runs_metrics]
    if any(c != counts[0] for c in counts):
        problems.append(f"exact counts differ between traced runs: {counts}")
    metrics = {name: (v, unit, len(runs_metrics)) for name, (v, unit) in spans.combine(runs_metrics).items()}
    overhead = median(s.wall_s for s in traced_samples) / median(s.wall_s for s in plain)
    metrics["trace.overhead"] = (overhead, "ratio", len(traced_samples))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kummer_chern" / "cli.py").is_file():
        print(f"no kummer_chern sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    # a discarded cold start compiles the sources to bytecode, as an installed package has
    samples = [run_untraced(workload.setup_op, f"{workload.name}.setup")]
    problems: list[str] = []
    raw: list[str] = []
    if args.trace:
        metrics = traced(workload, args.seed, args.seconds, samples, problems)
        wanted = PER_LAYER
    else:
        metrics = end_to_end(workload, random.Random(args.seed), args.seconds, samples, raw)
        wanted = tuple(END_TO_END_UNITS)
    failed = [s.problem for s in samples if s.problem]
    problems.extend(failed)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")

    print("facts " + json.dumps(run_facts(workload, args.seed, samples)))
    for line in raw:
        print(f"raw {line}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(f"metric error_rate = {len(failed) / len(samples):.6g} ratio ({len(failed)} of {len(samples)} operations failed)")
    for problem in problems:
        print(f"problem {problem}")
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
