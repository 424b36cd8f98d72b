"""The benchmark's tracer wraps names in the package; they must keep resolving.

The harness under ``perfbench/`` has its own suite, outside this one, so a
refactor that drops a name the tracer wraps, a field its table counts
read, or the one tangent_data call per fixed point whose arguments it
counts, would otherwise only show up as a failing traced benchmark run.
"""

import importlib
from pathlib import Path

from kummer_chern import assembly, localization

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
