from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from kummer_chern.partitions import enumerate_partitions
from kummer_chern.polyring import Q, SPoly
from kummer_chern.symfun import (
    ChernTable,
    chern_from_power_integrals,
    evaluate_genus,
    format_chern_key,
    genus_log_coefficients,
    power_in_elementary_basis,
    power_integrals_from_chern,
    power_integrals_from_genus_poly,
    power_product_in_elementary_basis,
)

from oracles import (
    elementary_in_power_basis,
    elementary_product_in_power_basis,
    expand_elementary_product,
    expand_power_product,
    parse_chern_key,
    refines,
    scalar_exp,
    scalar_mul,
    surface_product_chern_table,
)

P2 = ChernTable(2, {(1, 1): Q(9), (2,): Q(3)})
K3 = ChernTable(2, {(1, 1): Q(0), (2,): Q(24)})


def test_newton_expansions():
    assert dict(elementary_in_power_basis(1)) == {(1,): 1}
    assert dict(elementary_in_power_basis(2)) == {(1, 1): Q(1, 2), (2,): Q(-1, 2)}
    assert dict(elementary_in_power_basis(3)) == {
        (1, 1, 1): Q(1, 6),
        (2, 1): Q(-1, 2),
        (3,): Q(1, 3),
    }


def test_elementary_products():
    assert elementary_product_in_power_basis((1,)) == {(1,): Q(1)}
    assert elementary_product_in_power_basis((2, 1)) == {
        (1, 1, 1): Q(1, 2),
        (2, 1): Q(-1, 2),
    }
    assert elementary_product_in_power_basis((2, 2)) == {
        (1, 1, 1, 1): Q(1, 4),
        (2, 1, 1): Q(-1, 2),
        (2, 2): Q(1, 4),
    }


def test_power_in_elementary_basis():
    assert dict(power_in_elementary_basis(1)) == {(1,): 1}
    assert dict(power_in_elementary_basis(2)) == {(1, 1): 1, (2,): -2}


def test_power_rows_are_refinement_triangular_with_integer_entries():
    # what the back-substitution in chern_from_power_integrals relies on
    for d in range(17):
        for lam in enumerate_partitions(d):
            row = power_product_in_elementary_basis(lam)
            for mu, c in row.items():
                assert type(c) is int, (lam, mu, c)
                assert mu == lam or (len(mu) > len(lam) and refines(mu, lam)), (lam, mu)
            assert row[lam] == prod((-1) ** (part - 1) * part for part in lam), lam


def test_chern_from_power_integrals_on_surfaces():
    table = chern_from_power_integrals({(1, 1): Q(9), (2,): Q(3)}, 2)
    assert table[(1, 1)] == 9 and table[(2,)] == 3
    table = chern_from_power_integrals({(1, 1): Q(0), (2,): Q(-48)}, 2)
    assert table[(1, 1)] == 0 and table[(2,)] == 24
    assert chern_from_power_integrals({(): Q(1)}, 0)[()] == 1


def test_missing_power_integral_is_reported():
    with pytest.raises(KeyError):
        chern_from_power_integrals({(2,): Q(3)}, 2)


def test_power_integrals_from_chern_round_trip_examples():
    assert power_integrals_from_chern(P2) == {(1, 1): 9, (2,): 3}
    assert power_integrals_from_chern(K3) == {(1, 1): 0, (2,): -48}


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.data(),
)
def test_conversion_round_trip_random_tables(d, data):
    values = {
        mu: data.draw(
            st.builds(
                Q,
                st.integers(min_value=-30, max_value=30),
                st.integers(min_value=1, max_value=5),
            )
        )
        for mu in enumerate_partitions(d)
    }
    table = ChernTable(d, values)
    back = chern_from_power_integrals(power_integrals_from_chern(table), d)
    assert all(back[mu] == table[mu] for mu in values)


def test_conversion_round_trip_is_exact_identity_up_to_degree_16():
    # composite transition matrix on every basis vector, degree by degree
    for d in range(17):
        for lam in enumerate_partitions(d):
            acc: dict = {}
            for nu, c in power_product_in_elementary_basis(lam).items():
                for rho, b in elementary_product_in_power_basis(nu).items():
                    acc[rho] = acc.get(rho, 0) + c * b
            acc = {k: v for k, v in acc.items() if v}
            assert acc == {lam: 1}


def test_conversion_round_trip_through_tables():
    for d in range(7):
        for mu in enumerate_partitions(d):
            table = ChernTable(d, {mu: Q(1)})
            back = chern_from_power_integrals(power_integrals_from_chern(table), d)
            for nu in enumerate_partitions(d):
                assert back[nu] == (1 if nu == mu else 0)


def test_transition_agrees_with_explicit_polynomials_up_to_degree_8():
    # the oracle's inverse rows, e_mu in the power-sum basis; the program's
    # p-rows are checked against the same polynomials in criterion 7
    nvars = 8
    for d in range(1, 9):
        for mu in enumerate_partitions(d):
            combo = elementary_product_in_power_basis(mu)
            direct = expand_elementary_product(mu, nvars)
            assembled = {}
            for lam, c in combo.items():
                frac = Fraction(int(c.numerator), int(c.denominator))
                for expo, v in expand_power_product(lam, nvars).items():
                    assembled[expo] = assembled.get(expo, Fraction(0)) + frac * v
            assembled = {e: v for e, v in assembled.items() if v}
            assert assembled == {e: Fraction(v) for e, v in direct.items()}


def test_genus_preset_sanity_constants():
    todd = genus_log_coefficients("todd", 4)
    assert todd[0] == Q(1, 2) and todd[1] == Q(-1, 24)
    assert todd[2] == 0  # log of the Todd series is even beyond x/2
    euler = genus_log_coefficients("euler", 4)
    assert list(euler) == [Q(1), Q(-1, 2), Q(1, 3), Q(-1, 4)]
    sig = genus_log_coefficients("signature", 4)
    assert sig[0] == 0 and sig[1] == Q(1, 3) and sig[2] == 0


def test_genus_presets_exponentiate_to_their_series_through_x18():
    # f(x) = exp(sum l_j x^j), checked as f(x) * den(x) == num(x)
    order = 18
    fact = [Fraction(factorial(k)) for k in range(order + 2)]
    one = [Fraction(1)] + [Fraction(0)] * order
    # (1 - e^-x) / x, sinh(x) / x and cosh(x), through x^order
    todd_den = [(-1) ** k / fact[k + 1] for k in range(order + 1)]
    sinh_over_x = [(k % 2 == 0) / fact[k + 1] for k in range(order + 1)]
    cosh = [(k % 2 == 0) / fact[k] for k in range(order + 1)]
    cases = {
        "todd": (todd_den, one),
        "euler": (one, [Fraction(1), Fraction(1)] + [Fraction(0)] * (order - 1)),
        "signature": (sinh_over_x, cosh),
    }
    for name, (den, num) in cases.items():
        ell = genus_log_coefficients(name, order)
        assert len(ell) == order
        assert all(type(c) is type(Q(1)) for c in ell), name
        ell = [Fraction(int(c.numerator), int(c.denominator)) for c in ell]
        assert scalar_mul(scalar_exp(ell, order), den) == num, name


def test_unknown_preset():
    with pytest.raises(ValueError):
        genus_log_coefficients("elliptic", 3)


def test_todd_and_euler_and_signature_on_surfaces():
    todd = genus_log_coefficients("todd", 2)
    euler = genus_log_coefficients("euler", 2)
    sig = genus_log_coefficients("signature", 2)
    assert evaluate_genus(K3, todd) == 2
    assert evaluate_genus(K3, euler) == 24
    assert evaluate_genus(K3, sig) == -16
    assert evaluate_genus(P2, todd) == 1
    assert evaluate_genus(P2, euler) == 3
    assert evaluate_genus(P2, sig) == 1


def test_genus_of_a_point_is_one():
    point = ChernTable(0, {(): Q(1)})
    for name in ("todd", "euler", "signature"):
        assert evaluate_genus(point, genus_log_coefficients(name, 1)) == 1


def test_euler_preset_reads_top_chern_number():
    table = ChernTable(4, {(4,): Q(17), (2, 2): Q(5), (2, 1, 1): Q(-3)})
    assert evaluate_genus(table, genus_log_coefficients("euler", 4)) == 17


def test_insufficient_log_coefficients():
    with pytest.raises(ValueError):
        evaluate_genus(P2, genus_log_coefficients("todd", 1))


def test_genus_multiplicative_on_products_of_surfaces():
    surfaces = {
        "p2": {(1, 1): Fraction(9), (2,): Fraction(3)},
        "k3": {(1, 1): Fraction(0), (2,): Fraction(24)},
        "p1xp1": {(1, 1): Fraction(8), (2,): Fraction(4)},
    }
    for name_x, x in surfaces.items():
        for name_y, y in surfaces.items():
            product = surface_product_chern_table(x, y)
            table = ChernTable(4, {mu: Q(int(v.numerator), int(v.denominator)) for mu, v in product.items()})
            for preset in ("todd", "euler", "signature"):
                ell = genus_log_coefficients(preset, 4)
                lhs = evaluate_genus(table, ell)
                rhs = evaluate_genus(
                    ChernTable(2, {k: Q(int(v)) for k, v in x.items()}), ell
                ) * evaluate_genus(
                    ChernTable(2, {k: Q(int(v)) for k, v in y.items()}), ell
                )
                assert lhs == rhs, (name_x, name_y, preset)


def test_extraction_from_genus_polynomial():
    g = SPoly({(2,): Q(-48)})
    P = power_integrals_from_genus_poly(g, 2)
    assert P == {(2,): -48, (1, 1): 0}
    g = SPoly({(1, 1): Q(9, 2), (2,): Q(3)})
    P = power_integrals_from_genus_poly(g, 2)
    assert P[(1, 1)] == 9 and P[(2,)] == 3


def test_chern_key_formatting():
    assert format_chern_key(()) == "1"
    assert format_chern_key((2,)) == "c2"
    assert format_chern_key((4, 2, 2)) == "c2^2 c4"
    assert format_chern_key((14,)) == "c14"
    assert parse_chern_key("c2^2 c4") == (4, 2, 2)
    assert parse_chern_key("1") == ()
    for d in range(11):
        for mu in enumerate_partitions(d):
            assert parse_chern_key(format_chern_key(mu)) == mu
    with pytest.raises(ValueError):
        parse_chern_key("d4")
