import random
from itertools import groupby

import pytest

from kummer_chern.localization import (
    SURFACE_NAMES,
    CheckError,
    GenericityError,
    SurfaceModel,
    build_surface_model,
    default_weights,
    find_generic_model,
    fixed_points,
    hilbert_genus,
    is_generic,
    localized_sums,
    tangent_data,
    tangent_pieces,
)
from kummer_chern.partitions import enumerate_partitions
from kummer_chern.polyring import Q, SPoly

from oracles import (
    cell_hook_weights,
    direct_tangent_data,
    fixed_point_contribution,
    hom_tangent_weights,
    localized_twisted_sums,
    weight_data,
)


# each surface's charts written out by hand from its homogeneous coordinates
# (weights (0, a, b) on the plane, a and b on the two lines): the fan formula
# must give the same weight pairs, up to order within a chart and the order
# of the charts
HAND_WRITTEN_CHARTS = {
    "p2": lambda a, b: ((a, b), (-a, b - a), (-b, a - b)),
    "p1xp1": lambda a, b: ((a, b), (a, -b), (-a, b), (-a, -b)),
}
PARAMETERS = [(1, 2), (1, 3), (3, 7), (1, 73), (-5, 11), (2, -9), (-4, -13)]


def _weight_pairs(charts):
    return sorted(tuple(sorted(chart)) for chart in charts)


def test_p2_model_at_1_2():
    m = build_surface_model("p2", 1, 2)
    assert m.charts == ((1, 2), (1, -1), (-2, -1))
    for a, b in PARAMETERS:
        m = build_surface_model("p2", a, b)
        assert _weight_pairs(m.charts) == _weight_pairs(HAND_WRITTEN_CHARTS["p2"](a, b))
        assert (m.c1sq, m.c2) == (9, 3)


def test_p2_model_at_1_1_is_degenerate():
    # charts 1 and 2 have a zero weight: the model builds, and the one
    # genericity rule refuses it from depth 1 on, where the one-box
    # partition's tangent weights are the chart weights
    m = build_surface_model("p2", 1, 1)
    assert m.charts == ((1, 1), (0, -1), (-1, 0))
    assert is_generic(m, 0) and not is_generic(m, 1)
    with pytest.raises(GenericityError, match="degenerate for p2 at depth 1"):
        find_generic_model("p2", 1, weights=(1, 1))
    with pytest.raises(GenericityError, match="degenerate for p2 at depth 1"):
        localized_sums(m, 1)


def test_p1xp1_model():
    for a, b in PARAMETERS:
        m = build_surface_model("p1xp1", a, b)
        assert _weight_pairs(m.charts) == _weight_pairs(HAND_WRITTEN_CHARTS["p1xp1"](a, b))
        assert (m.c1sq, m.c2) == (8, 4)


def test_unknown_surface():
    with pytest.raises(ValueError, match="unknown surface 'k3'"):
        build_surface_model("k3", 1, 2)
    # the name is checked before the default weights are read off its fan
    for weights in (None, (1, 2)):
        with pytest.raises(ValueError, match="unknown surface 'foo'"):
            find_generic_model("foo", 3, weights=weights)


def _charts_model(charts) -> SurfaceModel:
    # a model that carries the given charts, only to build their pieces
    return SurfaceModel("charts", tuple(charts), 0, len(charts), (0, 0))


def test_tangent_weights_examples():
    # the pieces hold the product and the power sums through 2n of the weights
    pieces = tangent_pieces(_charts_model([(1, 2), (1, 5)]), 2)
    assert pieces[(1, 2), (1,)] == weight_data([1, 2], 4) == (2, (3, 5, 9, 17))
    assert pieces[(1, 5), (2,)] == weight_data([1, 2, 4, 5], 4)
    assert pieces[(1, 5), (1, 1)] == weight_data([-4, 1, 5, 10], 4)


def test_transposed_convention_would_fail_the_oracle():
    # arm on v2 instead of v1 (the chart's weights swapped) gives a
    # different multiset already for [2]
    v1, v2 = 1, 5
    transposed = cell_hook_weights((v2, v1), (2,))
    assert sorted(transposed) != hom_tangent_weights((2,), v1, v2)


def test_genericity_precheck_and_schedule():
    m = build_surface_model("p2", 1, 2)
    assert is_generic(m, 2)
    assert not is_generic(m, 3)  # [2,1] produces a zero weight in chart 0
    assert default_weights("p2", 8) == (1, 9)
    assert find_generic_model("p2", 8).weights == (1, 9)
    # the defaults pass on the first try at every depth, depth 0 included
    for name in SURFACE_NAMES:
        for d in range(31):
            assert find_generic_model(name, d).weights == default_weights(name, d)
    with pytest.raises(GenericityError):
        find_generic_model("p2", 3, weights=(1, 2))
    assert find_generic_model("p2", 3, weights=(1, 5)).weights == (1, 5)


def test_default_weights_read_the_bound_off_the_fan(extra_fans):
    for name, (_, bound, _) in extra_fans.items():
        for d in range(1, 13):
            assert find_generic_model(name, d).weights == (1, d * bound + 1), (name, d)
    # on the hexagon (M = 1) the bound is tight: b = d is degenerate at depth d
    for d in range(2, 8):
        assert not is_generic(build_surface_model("hexagon", 1, d), d), d


def test_is_generic_is_no_zero_tangent_weight(extra_fans):
    # is_generic decides on hooks; by definition a model is generic to depth
    # d when no tangent weight of a partition of size 1..d vanishes in any
    # chart.  That includes a zero chart weight, the one-box partition's.
    rng = random.Random(20)
    cases = degenerate = zero_chart = 0
    for name in SURFACE_NAMES + tuple(extra_fans):
        for _ in range(150):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            m = build_surface_model(name, a, b)
            zero_chart += any(0 in chart for chart in m.charts)
            generic = True
            for d in range(7):
                generic = generic and all(
                    0 not in cell_hook_weights(chart, lam)
                    for lam in enumerate_partitions(d)
                    for chart in m.charts
                )
                assert is_generic(m, d) == generic, (name, (a, b), d)
                cases += 1
                degenerate += not generic
    # both answers occur, and zero chart weights are among the degenerate
    # cases, so the comparison is not vacuous
    assert 0 < degenerate < cases
    assert zero_chart > 0


def test_tangent_data_at_a_point():
    m = build_surface_model("p2", 1, 2)
    fp = fixed_points(m, 1)[0]
    assert fp == ((1,), (), ()) and m.charts[0] == (1, 2)  # weights 1 and 2
    data = tangent_data(m, fp, pieces=tangent_pieces(m, 1))
    assert data.euler_product == 2
    assert data.power_sums == (3, 5)


def test_tangent_weights_match_the_cell_hook_oracle():
    # every piece against the cell-hook oracle: column lengths give the same
    # legs as scanning the rows below, and the power sums run through 2n
    charts = [(1, 73), (-1, 72), (-73, -72), (2, -91), (-3, 5), (7, 11)]
    m = _charts_model(charts)
    pieces = tangent_pieces(m, 8)
    assert pieces == {
        (chart, lam): weight_data(cell_hook_weights(chart, lam), 16)
        for k in range(1, 9)
        for lam in enumerate_partitions(k)
        for chart in charts
    }
    # the empty partition has no piece and adds no weights
    assert tangent_data(m, ((),) * len(charts), pieces=pieces) == weight_data([], 0)


def test_tangent_data_from_shared_pieces_matches_direct_computation():
    # one pieces dict for the whole series, as hilbert_genus_series shares
    # it, against the pieces of each table alone
    for name, k_max in (("p2", 6), ("p1xp1", 5)):
        for weights in (None, (3, 7), (-5, 11)):
            m = find_generic_model(name, k_max, weights=weights)
            series_pieces = tangent_pieces(m, k_max)
            for k in range(k_max + 1):
                table_pieces = tangent_pieces(m, k)
                for point in fixed_points(m, k):
                    shared = tangent_data(m, point, pieces=series_pieces)
                    assert shared == tangent_data(m, point, pieces=table_pieces), (
                        name, weights, point
                    )
                    assert shared == direct_tangent_data(m, point), (name, weights, point)


@pytest.fixture
def tangent_data_calls(monkeypatch):
    """Record each tangent_data call that localized_sums makes."""
    import kummer_chern.localization as localization

    original = localization.tangent_data
    calls = []

    def counting_data(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(localization, "tangent_data", counting_data)
    return calls


def test_tangent_weights_zero_weight_raises(tangent_data_calls):
    # cell (0,0) of [2,1] has arm 1, leg 1: weight 2*1 - 1*2 = 0 in chart (1, 2),
    # and localized_sums rejects the model before it computes any tangent data
    assert cell_hook_weights((1, 2), (2, 1))[0] == 0
    m = build_surface_model("p2", 1, 2)
    with pytest.raises(GenericityError, match="degenerate for p2 at depth 3"):
        localized_sums(m, 3)
    assert tangent_data_calls == []
    # the counter does see the points of a table that passes
    localized_sums(m, 2)
    assert len(tangent_data_calls) == len(fixed_points(m, 2))


def test_zero_tangent_weight_raises_through_the_pieces_path(tangent_data_calls):
    # a zero chart weight is a zero tangent weight of the one-box partition:
    # it raises before localized_sums builds any piece
    zero_chart = build_surface_model("p2", 1, 1)
    assert 0 in cell_hook_weights(zero_chart.charts[1], (1,))
    with pytest.raises(GenericityError, match="degenerate for p2 at depth 1"):
        localized_sums(zero_chart, 1)
    assert tangent_data_calls == []


def test_a_series_decides_genericity_once(tangent_data_calls, monkeypatch):
    # hilbert_genus_series builds its pieces once, at depth n_max, and that
    # is where a degenerate model is refused: before any table reads tangent
    # data, although (1, 2) is generic up to depth 2
    import kummer_chern.localization as localization
    from kummer_chern.assembly import hilbert_genus_series

    m = build_surface_model("p2", 1, 2)
    with pytest.raises(GenericityError, match="degenerate for p2 at depth 3"):
        hilbert_genus_series(m, 3)
    assert tangent_data_calls == []

    original = localization.is_generic
    decided = []

    def counting_generic(*args):
        decided.append(args)
        return original(*args)

    monkeypatch.setattr(localization, "is_generic", counting_generic)
    model = find_generic_model("p2", 5)
    assert decided == [(model, 5)]
    hilbert_genus_series(model, 5)
    assert decided == [(model, 5)] * 2  # one decision for the six tables


def test_contribution_of_first_chart_point():
    m = build_surface_model("p2", 1, 2)
    fp = fixed_points(m, 1)[0]
    c = fixed_point_contribution(m, fp, 0)
    assert c[0] == SPoly({(): Q(1, 2)})
    assert c[1] == SPoly({(1,): Q(3, 2)})
    assert c[2] == SPoly({(1, 1): Q(9, 4), (2,): Q(5, 2)})
    shifted = fixed_point_contribution(m, fp, 1)
    assert shifted[1] == SPoly({(1,): Q(3, 2), (): Q(3, 2)})


def test_contribution_of_empty_subscheme_is_one():
    m = build_surface_model("p2", 1, 2)
    fp = fixed_points(m, 0)[0]
    c = fixed_point_contribution(m, fp, 1)
    assert len(c) == 1 and c[0].is_one()


def test_hilbert_genus_of_one_point():
    m = build_surface_model("p2", 1, 2)
    assert hilbert_genus(m, 1) == SPoly({(1, 1): Q(9, 2), (2,): 3})
    assert hilbert_genus(m, 0).is_one()


def test_localized_sums_keep_only_the_genus():
    # the below-top sums are checked on their numerators and not stored
    m = find_generic_model("p2", 4)
    for k in range(5):
        assert localized_sums(m, k).table == {2 * k: hilbert_genus(m, k)}


def test_vanishing_check_fires_on_a_corrupted_point(monkeypatch):
    import kummer_chern.localization as localization

    original = localization.tangent_data
    calls = []

    def corrupting_data(model, point, **kwargs):
        data = original(model, point, **kwargs)
        calls.append(None)
        if len(calls) != 1:  # the first fixed point only
            return data
        return data._replace(euler_product=2 * data.euler_product)

    monkeypatch.setattr(localization, "tangent_data", corrupting_data)
    m = find_generic_model("p2", 2)
    with pytest.raises(CheckError, match=r"degree 0\).*partition \(\)"):
        localized_sums(m, 2)


def test_vanishing_check_reads_every_below_top_degree(monkeypatch):
    # a corrupted q_3 leaves degrees 0..2 intact, so only a kernel that
    # computes the degree-3 numerators sees it
    import kummer_chern.localization as localization

    original = localization.tangent_data
    calls = []

    def corrupting_data(model, point, **kwargs):
        data = original(model, point, **kwargs)
        calls.append(None)
        if len(calls) != 1:  # the first fixed point only
            return data
        q = list(data.power_sums)
        q[2] += 1
        return data._replace(power_sums=tuple(q))

    monkeypatch.setattr(localization, "tangent_data", corrupting_data)
    m = find_generic_model("p2", 2)
    with pytest.raises(CheckError, match=r"degree 3\).*partition \(3,\)"):
        localized_sums(m, 2)


def test_vanishing_check_reads_each_points_own_q1(monkeypatch):
    # the kernel groups the points by q_1 and never walks a part 1, so only
    # a grouping that reads each point's own q_1 sees a corrupted one: at
    # degree 1, partition (1,); degree 0 reads no power sum
    import kummer_chern.localization as localization

    original = localization.tangent_data
    calls = []

    def corrupting_data(model, point, **kwargs):
        data = original(model, point, **kwargs)
        calls.append(None)
        if len(calls) != 1:  # the first fixed point only
            return data
        q = list(data.power_sums)
        q[0] += 1
        return data._replace(power_sums=tuple(q))

    monkeypatch.setattr(localization, "tangent_data", corrupting_data)
    m = find_generic_model("p2", 3)
    with pytest.raises(CheckError, match=r"degree 1\).*partition \(1,\)"):
        localized_sums(m, 3)


def test_grouped_kernel_matches_the_literal_fixed_point_sum():
    # the kernel sums each run of adjacent points with one q_1 value
    # together; the oracle adds every point's literal contribution.  k = 0
    # has one point and no q_1.
    groups = {}
    inputs = [(name, k_max, weights) for name, k_max in (("p2", 5), ("p1xp1", 4))
              for weights in ((37, -29), (13, -31))]
    inputs.append(("p2", 5, (-9, 6)))
    for name, k_max, weights in inputs:
        m = find_generic_model(name, k_max, weights=weights)
        pieces = tangent_pieces(m, k_max)
        for k in range(k_max + 1):
            literal = localized_twisted_sums(m, k, 0)
            assert all(c.is_zero() for c in literal[: 2 * k]), (name, weights, k)
            assert hilbert_genus(m, k, pieces=pieces) == literal[2 * k], (name, weights, k)
        q1 = [tangent_data(m, p, pieces=pieces).power_sums[0] for p in fixed_points(m, k_max)]
        groups[name, weights] = (len(set(q1)), sum(1 for _ in groupby(q1)))
    # (distinct values, runs in the enumeration order): several points
    # share each value, so the grouping is not the identity, and where
    # there are more runs than values, one value is summed in separate runs
    assert groups == {
        ("p2", (37, -29)): (21, 21),
        ("p2", (13, -31)): (21, 21),
        ("p1xp1", (37, -29)): (25, 35),
        ("p1xp1", (13, -31)): (25, 35),
        ("p2", (-9, 6)): (20, 21),
    }
    for name in SURFACE_NAMES:
        m = find_generic_model(name, 0)
        assert localized_sums(m, 0).table == {0: SPoly({(): 1})}
