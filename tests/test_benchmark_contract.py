"""The benchmark's tracer wraps names in the package; they must keep resolving.

The harness under ``perfbench/`` has its own suite, outside this one, so a
refactor that drops a name the tracer wraps, a field its table counts
read, or the one tangent_data call per fixed point whose arguments it
counts, would otherwise only show up as a failing traced benchmark run.
"""

import importlib
from pathlib import Path

from kummer_chern import localization

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
