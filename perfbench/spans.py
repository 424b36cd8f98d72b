"""Span tracing for the traced runs, and the per-layer metrics derived from it.

The program is not edited: the tracer replaces public functions at the
module attributes where the calling layer looks them up (for example
``assembly.hilbert_genus`` or ``localization.tangent_data``) with wrappers
that record a span each.  Spans stay in memory and are written out once,
when the operation has finished.

Run as a script, it executes one operation in-process under the tracer:

    python3 perfbench/spans.py OUT.json RUN_ID cli verify --n-max 8
    python3 perfbench/spans.py OUT.json RUN_ID sweep '{"seed": 1, ...}'

(with ``src`` on PYTHONPATH) and writes the spans, the per-table counts,
the exit code and the captured standard output to OUT.json.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import time
from collections import Counter, defaultdict
from statistics import median

# (module, attribute) pairs wrapped in a traced run: every boundary at which
# one layer calls into another, at the name the caller resolves.
SITES = (
    ("kummer_chern", "find_generic_model"),
    ("kummer_chern", "kummer_genus_series"),
    ("kummer_chern", "kummer_chern_numbers"),
    ("kummer_chern", "genus_log_coefficients"),
    ("kummer_chern", "evaluate_genus"),
    ("kummer_chern.cli", "find_generic_model"),
    ("kummer_chern.cli", "fixed_points"),
    ("kummer_chern.cli", "kummer_genus_series"),
    ("kummer_chern.cli", "kummer_chern_numbers"),
    ("kummer_chern.cli", "hilbert_chern_numbers"),
    ("kummer_chern.cli", "reference_for"),
    ("kummer_chern.cli", "genus_log_coefficients"),
    ("kummer_chern.cli", "evaluate_genus"),
    ("kummer_chern.reference", "load_reference_table"),
    ("kummer_chern.assembly", "hilbert_genus"),
    ("kummer_chern.assembly", "hilbert_genus_series"),
    ("kummer_chern.assembly", "kummer_genus_series"),
    ("kummer_chern.assembly", "zseries_log"),
    ("kummer_chern.assembly", "zseries_euler_sq"),
    ("kummer_chern.assembly", "chern_from_power_integrals"),
    ("kummer_chern.assembly", "power_integrals_from_genus_poly"),
    ("kummer_chern.localization", "localized_sums"),
    ("kummer_chern.localization", "fixed_points"),
    ("kummer_chern.localization", "tangent_data"),
    ("kummer_chern.localization", "build_surface_model"),
    ("kummer_chern.localization", "is_generic"),
    ("kummer_chern.localization", "multipartitions"),
)

# Calls whose arguments are kept (by reference) for counts made at the end.
KEEP_ARGS = ("localization.localized_sums", "localization.tangent_data")

LAYERS = ("cli", "reference", "partitions", "localization", "polyring", "assembly", "symfun")


def span_name(fn) -> str:
    """'kummer_chern.localization.tangent_data' -> 'localization.tangent_data'."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Records one span per wrapped call: name, parent, start, end, raised."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, raised]
        self.args: dict[int, tuple] = {}  # span index -> arguments, for KEEP_ARGS
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, False]
        self.spans.append(record)
        if name in KEEP_ARGS:
            self.args[index] = args
        self._stack.append(index)
        record[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record[4] = True
            raise
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            name = span_name(fn)

            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

            self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self, sites=SITES) -> None:
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrapper(original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def table_stats(tracer: Tracer) -> dict:
    """Counts over the distinct localization tables and fixed points of a run."""
    from kummer_chern import localization

    sums_args = {
        i: args for i, args in tracer.args.items() if tracer.spans[i][0] == "localization.localized_sums"
    }
    points = {args for i, args in tracer.args.items() if i not in sums_args}
    tables = []
    for args in dict.fromkeys(sums_args.values()):
        sums = localization.localized_sums(*args)  # a cache hit: the table built in the run
        coeffs = [c for poly in sums.table.values() for c in poly.terms.values()]
        lcm = math.lcm(*(int(c.denominator) for c in coeffs))
        tables.append({"k": sums.k, "cap": sums.weight_cap, "terms": len(coeffs), "lcm_bits": lcm.bit_length()})
    spans_k = {i: args[1] for i, args in sums_args.items()}
    return {"tables": tables, "points_distinct": len(points), "localized_sums_k": spans_k}


def traced_main(argv: list[str]) -> int:
    out_path, run_id, entry, *args = argv
    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        if entry == "cli":
            from kummer_chern import cli

            try:
                code = tracer.call("cli.main", cli.main, args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        else:
            import sweep

            code = tracer.call("cli.sweep", sweep.main, args)
    tracer.uninstall()
    stats = table_stats(tracer)
    payload = {
        "run_id": run_id,
        "exit_code": code,
        "stdout": captured.getvalue(),
        "spans": [
            record + [stats["localized_sums_k"].get(i)] for i, record in enumerate(tracer.spans)
        ],
        "tables": stats["tables"],
        "points_distinct": stats["points_distinct"],
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


# -- analysis (runs in the benchmark's parent process) -------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, parent, start, end, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[3] - s[2]) - child[i] for i, s in enumerate(spans)]


def layer_of(index: int, name: str) -> str:
    # span 0 is the entry point: cli.main, or the sweep script for sweep-weights
    return "cli" if index == 0 else name.split(".", 1)[0]


def run_metrics(run: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    spans = run["spans"]
    selfs = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    total_by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    by_layer = dict.fromkeys(LAYERS, 0.0)
    sums_by_k: dict[int, float] = defaultdict(float)
    attempts = searches_ok = 0
    for i, (name, parent, start, end, raised, k) in enumerate(spans):
        self_by_name[name] += selfs[i]
        total_by_name[name] += end - start
        calls[name] += 1
        by_layer[layer_of(i, name)] += selfs[i]
        if name == "localization.localized_sums":
            sums_by_k[k] += selfs[i]
        if name == "localization.find_generic_model" and not raised:
            searches_ok += 1
        in_search = parent >= 0 and spans[parent][0] == "localization.find_generic_model"
        if name == "localization.build_surface_model" and in_search:
            attempts += 1
    tables = run["tables"]
    kmax = max(t["k"] for t in tables)
    tangent_calls = calls["localization.tangent_data"]
    lcm_bits = max(t["lcm_bits"] for t in tables if t["k"] == kmax)
    m: dict[str, tuple[float, str]] = {
        "localization.sums_s": (self_by_name["localization.localized_sums"], "s"),
        "localization.sums_s.kmax": (sums_by_k[kmax], "s"),
    }
    for k in sorted(sums_by_k):
        m[f"localization.sums_s.k{k}"] = (sums_by_k[k], "s")
    m.update(
        {
            "localization.tables_built": (len(tables), "count"),
            "localization.tangent_data.calls": (tangent_calls, "count"),
            "localization.points_distinct": (run["points_distinct"], "count"),
            "localization.useful_ratio": (run["points_distinct"] / tangent_calls, "ratio"),
            "localization.table_terms": (sum(t["terms"] for t in tables), "count"),
            "localization.lcm_bits.kmax": (lcm_bits, "bits"),
            f"localization.lcm_bits.k{kmax}": (lcm_bits, "bits"),
            "localization.tangent_data_s": (self_by_name["localization.tangent_data"], "s"),
            "localization.fixed_points_s": (self_by_name["localization.fixed_points"], "s"),
            "localization.hilbert_genus_s": (self_by_name["localization.hilbert_genus"], "s"),
            "localization.model_search_s": (total_by_name["localization.find_generic_model"], "s"),
            "localization.weight_retries": (attempts - searches_ok, "count"),
            "reference.load_s": (self_by_name["reference.load_reference_table"], "s"),
            "cli.self_s": (by_layer["cli"], "s"),
            "polyring.zseries_log_s": (self_by_name["polyring.zseries_log"], "s"),
            "polyring.zseries_euler_sq_s": (self_by_name["polyring.zseries_euler_sq"], "s"),
            "assembly.series_s": (
                self_by_name["assembly.kummer_genus_series"] + self_by_name["assembly.hilbert_genus_series"],
                "s",
            ),
            "assembly.series.calls": (calls["assembly.kummer_genus_series"], "count"),
            "assembly.chern_s": (
                self_by_name["assembly.kummer_chern_numbers"] + self_by_name["assembly.hilbert_chern_numbers"],
                "s",
            ),
            "symfun.power_integrals_s": (self_by_name["symfun.power_integrals_from_genus_poly"], "s"),
            "symfun.chern_conversion_s": (self_by_name["symfun.chern_from_power_integrals"], "s"),
            "symfun.evaluate_genus_s": (self_by_name["symfun.evaluate_genus"], "s"),
        }
    )
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (by_layer[layer], "s")
    m["trace.wall_s"] = (spans[0][3] - spans[0][2], "s")
    return m


def closure_residual(metrics: dict[str, tuple[float, str]]) -> float:
    """Traced wall time minus the self times of all layers, cli included (0 up to rounding)."""
    return metrics["trace.wall_s"][0] - sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)


def exact_counts(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    return {name: value for name, (value, unit) in metrics.items() if unit != "s"}


def combine(runs_metrics: list[dict]) -> dict[str, tuple[float, str]]:
    """Median over traced runs of each time; counts are the first run's (checked identical)."""
    first = runs_metrics[0]
    return {
        name: (median(m[name][0] for m in runs_metrics) if unit == "s" else value, unit)
        for name, (value, unit) in first.items()
    }


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1:]))
