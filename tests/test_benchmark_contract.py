"""The benchmark's tracer wraps names in the package; they must keep resolving,
and every workload's operations must keep passing the harness's gates.

The harness under ``perfbench/`` has its own suite, outside this one, so a
refactor that drops a name the tracer wraps, a field its table counts
read, or the one tangent_data call per fixed point whose arguments it
counts, or that changes an output a workload checks, would otherwise only
show up as a failing benchmark run.
"""

import importlib
import random
from pathlib import Path

from kummer_chern import assembly, cli, localization

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_sites_and_table_fields_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        model = localization.find_generic_model("p2", 2)
        sums = localization.localized_sums(model, 2)
    finally:
        tracer.uninstall()
    assert "localization.localized_sums" in {span[0] for span in tracer.spans}
    # one traced tangent_data call per fixed point, each with hashable
    # positional arguments: table_stats counts the distinct ones
    stats = spans.table_stats(tracer)
    calls = sum(span[0] == "localization.tangent_data" for span in tracer.spans)
    assert calls == stats["points_distinct"] == len(localization.fixed_points(model, 2))
    # the fields spans.table_stats reads from each traced table
    assert sums.k == 2 and sums.weight_cap == 4
    assert sums.table and all(hasattr(poly, "terms") for poly in sums.table.values())


def test_traced_series_path_keeps_hashable_table_arguments(monkeypatch):
    # the series hands its shared tangent pieces to every table by keyword:
    # a dict among the positional arguments the tracer keeps would make
    # table_stats fail on every traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(assembly, "_assembled", {})  # no series served from store
    spans = importlib.import_module("spans")
    model = localization.find_generic_model("p2", 3)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assembly.kummer_genus_series(model, 3)
    finally:
        tracer.uninstall()
    stats = spans.table_stats(tracer)
    assert sorted(table["k"] for table in stats["tables"]) == [0, 1, 2, 3]
    calls = sum(span[0] == "localization.tangent_data" for span in tracer.spans)
    points = sum(len(localization.fixed_points(model, k)) for k in range(4))
    assert stats["points_distinct"] == points == calls


def test_workload_operations_pass_their_own_gates(monkeypatch, capsys):
    # every workload's set-up and measured operation, run in-process: each
    # must exit 0 and pass the check the harness applies to its output,
    # so a change to an output the benchmark reads (verify --n-max 1 prints
    # "0 of 0 entries match" and exits 0) fails here before a benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    entries = {"cli": cli.main, "sweep": importlib.import_module("sweep").main}
    for name, workload in workloads.WORKLOADS.items():
        for op in (workload.setup_op, workload.make_op(random.Random(0))):
            code = entries[op.entry](list(op.args))
            out = capsys.readouterr().out
            assert code == 0, (name, op.args)
            assert op.check(out) is None, (name, op.args, op.check(out))
