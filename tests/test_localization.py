import pytest

from kummer_chern.localization import (
    SURFACE_NAMES,
    GenericityError,
    SurfaceModel,
    VanishingCheckError,
    build_surface_model,
    default_weights,
    find_generic_model,
    fixed_points,
    hilbert_genus,
    is_generic,
    localized_sums,
    tangent_data,
    tangent_weights,
)
from kummer_chern.partitions import enumerate_partitions
from kummer_chern.polyring import Q, SPoly

from oracles import (
    cell_hooks,
    colored_partition_counts,
    direct_tangent_data,
    fixed_point_contribution,
    hom_tangent_weights,
    localized_twisted_sums,
)


def test_p2_model_at_1_2():
    m = build_surface_model("p2", 1, 2)
    assert m.charts == ((1, 2), (-1, 1), (-2, -1))
    assert m.c1sq == 9 and m.c2 == 3


def test_p2_model_at_1_1_is_degenerate():
    with pytest.raises(GenericityError):
        build_surface_model("p2", 1, 1)


def test_p1xp1_model():
    m = build_surface_model("p1xp1", 1, 3)
    assert sorted(m.charts) == [(-1, -3), (-1, 3), (1, -3), (1, 3)]
    assert m.c1sq == 8 and m.c2 == 4


def test_unknown_surface():
    with pytest.raises(ValueError):
        build_surface_model("k3", 1, 2)


def test_tangent_weights_examples():
    assert sorted(tangent_weights((1, 2), (1,))) == [1, 2]
    assert sorted(tangent_weights((1, 5), (2,))) == [1, 2, 4, 5]
    assert sorted(tangent_weights((1, 5), (1, 1))) == [-4, 1, 5, 10]


def test_tangent_weights_zero_weight_raises():
    # cell (0,0) of [2,1] has arm 1, leg 1: weight 2*1 - 1*2 = 0
    with pytest.raises(GenericityError, match=r"row 0, col 0, arm 1, leg 1"):
        tangent_weights((1, 2), (2, 1))


def test_tangent_weights_match_the_cell_hook_oracle():
    # column lengths give the same legs, in the same cell order, as scanning rows
    charts = [(1, 73), (-1, 72), (-73, -72), (2, -91), (-3, 5), (7, 11)]
    for k in range(9):
        for lam in enumerate_partitions(k):
            for v1, v2 in charts:
                expected = []
                for cell in cell_hooks(lam):
                    expected.append((cell.arm + 1) * v1 - cell.leg * v2)
                    expected.append(-cell.arm * v1 + (cell.leg + 1) * v2)
                assert tangent_weights((v1, v2), lam) == expected, (v1, v2, lam)


def test_tangent_weights_match_module_hom_oracle():
    pairs = [(1, 5), (5, 1), (-1, 3), (2, -7), (-3, -5), (1, 73)]
    for k in range(1, 5):
        for lam in enumerate_partitions(k):
            for v1, v2 in pairs:
                assert sorted(tangent_weights((v1, v2), lam)) == hom_tangent_weights(
                    lam, v1, v2
                ), (lam, v1, v2)


def test_transposed_convention_would_fail_the_oracle():
    # arm on v2 instead of v1 gives a different multiset already for [2]
    v1, v2 = 1, 5
    transposed = []
    for cell in cell_hooks((2,)):
        transposed.append((cell.arm + 1) * v2 - cell.leg * v1)
        transposed.append(-cell.arm * v2 + (cell.leg + 1) * v1)
    assert sorted(transposed) != hom_tangent_weights((2,), v1, v2)


def test_genericity_precheck_and_schedule():
    m = build_surface_model("p2", 1, 2)
    assert is_generic(m, 2)
    assert not is_generic(m, 3)  # [2,1] produces a zero weight in chart 0
    assert default_weights(8) == (1, 73)
    assert find_generic_model("p2", 8).weights == (1, 73)
    # the defaults pass on the first try at every depth, depth 0 included
    for name in SURFACE_NAMES:
        for d in range(31):
            assert find_generic_model(name, d).weights == default_weights(d)
    with pytest.raises(GenericityError):
        find_generic_model("p2", 3, weights=(1, 2))
    assert find_generic_model("p2", 3, weights=(1, 5)).weights == (1, 5)


def test_fixed_point_enumeration_counts():
    for name, colors in (("p2", 3), ("p1xp1", 4)):
        m = find_generic_model(name, 2)
        expected = colored_partition_counts(8, colors)
        for k in range(9):
            assert len(fixed_points(m, k)) == expected[k]


def test_tangent_data_at_a_point():
    m = build_surface_model("p2", 1, 2)
    fp = fixed_points(m, 1)[0]
    data = tangent_data(m, fp)
    assert data.weights == (1, 2)
    assert data.euler_product == 2
    assert data.power_sums == (3, 5)


def test_tangent_data_from_shared_pieces_matches_direct_computation():
    # one pieces dict per table, as localized_sums shares it
    for name, k_max in (("p2", 6), ("p1xp1", 5)):
        for weights in (None, (3, 7), (-5, 11)):
            m = find_generic_model(name, k_max, weights=weights)
            for k in range(k_max + 1):
                pieces = {}
                for point in fixed_points(m, k):
                    shared = tangent_data(m, point, pieces=pieces)
                    assert shared == tangent_data(m, point), (name, weights, point)
                    assert shared == direct_tangent_data(m, point), (name, weights, point)


def test_zero_tangent_weight_raises_through_the_pieces_path():
    m = build_surface_model("p2", 1, 2)  # [2,1] in chart 0 has a zero weight
    pieces = {}
    for point in fixed_points(m, 2):
        tangent_data(m, point, pieces=pieces)
    for _ in range(2):  # a failed piece is not kept
        with pytest.raises(GenericityError, match="zero tangent weight"):
            tangent_data(m, ((2, 1), (), ()), pieces=pieces)
    # a zero chart weight raises even where the chart's partition is empty
    bad = SurfaceModel("p2", ((1, 2), (0, 1), (-2, -1)), 9, 3, (1, 2))
    for pieces in (None, {}):
        with pytest.raises(GenericityError, match="chart weights"):
            tangent_data(bad, ((1,), (), ()), pieces=pieces)


def test_contribution_of_first_chart_point():
    m = build_surface_model("p2", 1, 2)
    fp = fixed_points(m, 1)[0]
    c = fixed_point_contribution(m, fp, 0)
    assert c[0] == SPoly.constant(Q(1, 2))
    assert c[1] == SPoly({(1,): Q(3, 2)})
    assert c[2] == SPoly({(1, 1): Q(9, 4), (2,): Q(5, 2)})
    shifted = fixed_point_contribution(m, fp, 1)
    assert shifted[1] == SPoly({(1,): Q(3, 2), (): Q(3, 2)})


def test_contribution_of_empty_subscheme_is_one():
    m = build_surface_model("p2", 1, 2)
    fp = fixed_points(m, 0)[0]
    c = fixed_point_contribution(m, fp, 1)
    assert c.degree_cap == 0 and c[0].is_one()


def test_hilbert_genus_of_one_point():
    m = build_surface_model("p2", 1, 2)
    assert hilbert_genus(m, 1) == SPoly({(1, 1): Q(9, 2), (2,): 3})
    assert hilbert_genus(m, 0).is_one()


def test_fast_accumulator_matches_literal_contributions():
    # the literal oracle localizes the twisted class: below-top degrees cancel
    # at every twist, and at t = 0 the top degree is the kernel's genus
    for name in ("p2", "p1xp1"):
        m = find_generic_model(name, 4)
        for k in range(5):
            W = 2 * k
            for t in (-1, 0, 1):
                total = localized_twisted_sums(m, k, t)
                for d in range(W):
                    assert total[d].is_zero(), (name, k, t, d)
            assert localized_twisted_sums(m, k, 0)[W] == hilbert_genus(m, k)


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
    with pytest.raises(VanishingCheckError, match=r"degree 0\).*partition \(\)"):
        localized_sums(m, 2)


def test_homogeneity_at_zero_twist():
    m = find_generic_model("p2", 3)
    for k in range(4):
        genus = hilbert_genus(m, k)
        assert genus.off_weight_part(2 * k).is_zero()


def test_weight_independence_small():
    a = find_generic_model("p2", 3, weights=(1, 13))
    b = find_generic_model("p2", 3, weights=(2, 19))
    for k in range(4):
        assert hilbert_genus(a, k) == hilbert_genus(b, k)
