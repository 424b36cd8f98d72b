from math import factorial

import pytest

from kummer_chern import localization
from kummer_chern.assembly import (
    HomogeneityError,
    KummerResult,
    QuadraticCheckError,
    TableValidationError,
    _assemble_kummer_series,
    _check_euler_number,
    _check_todd_genus,
    _s1_derivative,
    _validate_kummer_table,
    hilbert_chern_numbers,
    hilbert_genus_series,
    kummer_chern_numbers,
    kummer_genus_series,
)
from kummer_chern.localization import (
    build_surface_model,
    find_generic_model,
    hilbert_genus,
    localized_sums,
)
from kummer_chern.polyring import Q, SPoly, ZSeries
from kummer_chern.symfun import ChernTable

from oracles import localized_twisted_sums, sigma1


@pytest.fixture(scope="module")
def p2():
    return find_generic_model("p2", 4)


def test_hilbert_genus_series_order_one(p2):
    series = hilbert_genus_series(p2, 1)
    assert series[0].is_one()
    assert series[1] == SPoly({(1, 1): Q(9, 2), (2,): 3})


def test_hilbert_genus_series_order_zero(p2):
    series = hilbert_genus_series(p2, 0)
    assert series.order == 0 and series[0].is_one()


def test_hilbert_series_z2_coefficient_is_homogeneous(p2):
    series = hilbert_genus_series(p2, 2)
    assert series[2].off_weight_part(4).is_zero()


def test_kummer_series_small_coefficients(p2):
    series = kummer_genus_series(p2, 3)
    assert series[1].is_one()
    assert series[2] == SPoly({(2,): -48})


def test_kummer_chern_numbers_small(p2):
    assert dict(kummer_chern_numbers(p2, 2).chern.numbers) == {(2,): 24}
    assert dict(kummer_chern_numbers(p2, 3).chern.numbers) == {
        (2, 2): 756,
        (4,): 108,
    }
    four = kummer_chern_numbers(p2, 4)
    assert dict(four.chern.numbers) == {(2, 2, 2): 30208, (4, 2): 6784, (6,): 448}
    assert four.dimension == 6 and four.advisories == ()


def test_kummer_point_case(p2):
    one = kummer_chern_numbers(p2, 1)
    assert one.dimension == 0 and one.chern[()] == 1


def test_kummer_odd_part_entries_vanish_before_dropping(p2):
    # the full converted table contains every partition; odd-part ones are 0
    from kummer_chern.symfun import (
        chern_from_power_integrals,
        power_integrals_from_genus_poly,
    )

    genus = kummer_genus_series(p2, 3)[3]
    table = chern_from_power_integrals(
        power_integrals_from_genus_poly(genus, 4), 4
    )
    for mu in table.sorted_keys():
        if any(part % 2 for part in mu):
            assert table[mu] == 0, mu


def test_validation_rejects_bad_tables():
    with pytest.raises(TableValidationError, match="not integral"):
        _validate_kummer_table(2, ChernTable(2, {(2,): Q(1, 2), (1, 1): Q(0)}))
    with pytest.raises(TableValidationError, match="odd-part"):
        _validate_kummer_table(2, ChernTable(2, {(2,): Q(24), (1, 1): Q(1)}))
    with pytest.raises(TableValidationError, match="not positive"):
        _validate_kummer_table(2, ChernTable(2, {(2,): Q(-24), (1, 1): Q(0)}))
    with pytest.raises(TableValidationError, match="divisible"):
        _validate_kummer_table(2, ChernTable(2, {(2,): Q(25), (1, 1): Q(0)}))
    # beyond the verified range the same findings downgrade to advisories
    result = _validate_kummer_table(9, ChernTable(2, {(2,): Q(25), (1, 1): Q(0)}))
    assert len(result.advisories) == 1


def test_closed_form_oracles_reject_corrupted_inputs(p2):
    genus = kummer_genus_series(p2, 3)[3]
    table = ChernTable(4, {(4,): Q(108), (2, 2): Q(756)})
    _check_todd_genus(3, genus)
    _check_euler_number(3, table)
    with pytest.raises(TableValidationError, match="Todd genus"):
        _check_todd_genus(3, genus + SPoly({(4,): 1}))
    with pytest.raises(TableValidationError, match="sigma_1"):
        _check_euler_number(3, ChernTable(4, {(4,): Q(109), (2, 2): Q(756)}))


def test_closed_forms_hold_beyond_the_reference_table():
    model = find_generic_model("p2", 9)
    nine = kummer_chern_numbers(model, 9)
    assert nine.chern.top() == 9**3 * sigma1(9) == 9477
    assert nine.advisories == ()


def test_smaller_n_is_served_from_the_longest_series(monkeypatch):
    model = find_generic_model("p2", 5, weights=(1, 37))
    kummer_genus_series(model, 5)
    calls = []

    def counting_sums(*args):
        calls.append(args)
        return localized_sums(*args)

    monkeypatch.setattr(localization, "localized_sums", counting_sums)
    for n in range(1, 6):
        kummer_chern_numbers(model, n)
    assert calls == []
    for n in range(1, 5):
        assert kummer_genus_series(model, n) == _assemble_kummer_series(model, n)


def test_homogeneity_check_fires_on_one_corrupted_twist(p2, monkeypatch):
    import kummer_chern.assembly as assembly

    original = assembly.zseries_log
    # weight 0 below the z^2 weight 4, and s1^8 above every weight that
    # H(0) reaches at n_max = 3 (6): the check must see both
    for corruption in (SPoly.constant(1), SPoly({(1,) * 8: 1})):

        def corrupting_log(series, corruption=corruption):
            out = original(series)
            coeffs = list(out.coeffs)
            coeffs[2] = coeffs[2] + corruption
            return ZSeries(coeffs)

        monkeypatch.setattr(assembly, "zseries_log", corrupting_log)
        with pytest.raises(HomogeneityError, match="off-weight"):
            _assemble_kummer_series(p2, 3)


def test_quadratic_check_fires_on_a_cubic_s1_term(p2, monkeypatch):
    import kummer_chern.assembly as assembly

    original = assembly.zseries_log

    def corrupting_log(series):
        out = original(series)
        coeffs = list(out.coeffs)
        # s1^4 has weight 4, so the homogeneity check passes it
        coeffs[2] = coeffs[2] + SPoly({(1, 1, 1, 1): 1})
        return ZSeries(coeffs)

    monkeypatch.setattr(assembly, "zseries_log", corrupting_log)
    with pytest.raises(QuadraticCheckError):
        _assemble_kummer_series(p2, 3)


def test_twisted_genus_is_the_s1_shift_of_the_untwisted_one():
    # the literal twisted fixed-point sum against the s1-shift that the
    # assembly applies to the untwisted genus
    for name, depth in (("p2", 5), ("p1xp1", 4)):
        model = find_generic_model(name, depth)
        for k in range(depth + 1):
            two_k = 2 * k
            untwisted = hilbert_genus(model, k)
            derivatives = [_s1_derivative(untwisted, m) for m in range(two_k + 1)]
            for t in range(-2, 3):
                shifted = SPoly()
                for m, derivative in enumerate(derivatives):
                    shifted = shifted + derivative.scale(Q(t**m, factorial(m)))
                assert localized_twisted_sums(model, k, t)[two_k] == shifted, (name, k, t)


def test_surface_independence_small():
    q = find_generic_model("p1xp1", 3)
    p = find_generic_model("p2", 3)
    for n in (2, 3):
        assert dict(kummer_chern_numbers(p, n).chern.numbers) == dict(
            kummer_chern_numbers(q, n).chern.numbers
        )


def test_kummer_weight_independence_small():
    a = find_generic_model("p2", 3, weights=(1, 13))
    b = find_generic_model("p2", 3, weights=(2, 19))
    for n in (2, 3):
        assert dict(kummer_chern_numbers(a, n).chern.numbers) == dict(
            kummer_chern_numbers(b, n).chern.numbers
        )


def test_hilbert_chern_numbers(p2):
    one = hilbert_chern_numbers(p2, 1)
    assert dict(one.numbers) == {(1, 1): 9, (2,): 3}
    two = hilbert_chern_numbers(p2, 2)
    assert two[(4,)] == 9  # Euler number of the Hilbert square of the plane
    assert all(isinstance(v, int) for v in two.numbers.values())
    zero = hilbert_chern_numbers(p2, 0)
    assert dict(zero.numbers) == {(): 1}


def test_public_records_compare_by_value():
    model = build_surface_model("p2", 1, 13)
    again = build_surface_model("p2", 1, 13)
    assert model == again and hash(model) == hash(again) and len({model, again}) == 1
    assert model != build_surface_model("p2", 1, 14)
    table = ChernTable(2, {(2,): 24})
    assert table == ChernTable(2, {(2,): 24}) and table != ChernTable(2, {(2,): 25})
    with pytest.raises(ValueError, match="not a partition of 2"):
        ChernTable(2, {(3,): 1})
    result = KummerResult(2, 2, table)
    assert result.advisories == ()
    assert result == KummerResult(2, 2, ChernTable(2, {(2,): 24}), ())
