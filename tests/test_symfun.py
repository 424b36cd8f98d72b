import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kummer_chern import symfun
from kummer_chern.partitions import enumerate_partitions
from kummer_chern.polyring import Q, SPoly
from kummer_chern.reference import reference_for
from kummer_chern.symfun import (
    ChernTable,
    _elementary_coefficient,
    _power_coefficient,
    _product_rows,
    chern_from_power_integrals,
    evaluate_genus,
    format_chern_key,
    genus_log_coefficients,
    genus_value,
    power_integrals_from_chern,
    power_integrals_from_genus_poly,
)

from oracles import (
    elementary_in_power_basis,
    elementary_product_in_power_basis,
    fraction_zseries_log,
    parse_chern_key,
    scalar_exp,
    scalar_mul,
    surface_product_chern_table,
)

P2 = ChernTable(2, {(1, 1): Q(9), (2,): Q(3)})
K3 = ChernTable(2, {(1, 1): Q(0), (2,): Q(24)})
P2_INT = ChernTable(2, {(1, 1): 9, (2,): 3})
K3_INT = ChernTable(2, {(1, 1): 0, (2,): 24})


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


def test_chern_from_power_integrals_on_surfaces():
    table = chern_from_power_integrals(SPoly({(1, 1): Q(9), (2,): Q(3)}), 2)
    assert table[(1, 1)] == 9 and table[(2,)] == 3
    assert all(type(v) is int for v in table.numbers.values())
    # an SPoly's absent term is a zero: here P_(1,1)
    table = chern_from_power_integrals(SPoly({(2,): Q(-48)}), 2)
    assert table[(1, 1)] == 0 and table[(2,)] == 24
    assert chern_from_power_integrals(SPoly({(): Q(1)}), 0)[()] == 1


def test_chern_table_keys_are_partitions_and_lookups_sort_their_parts():
    table = ChernTable(6, reference_for(4))
    # c2 c4 is c4 c2: the parts are read in any order
    assert table[(4, 2)] == table[(2, 4)] == table[[2, 4]] == 6784
    assert table[(1, 1, 4)] == table[(4, 1, 1)] == 0  # an omitted entry
    for parts in ((0, 6), (6, 0), (7, -1), (3, 2)):
        with pytest.raises(KeyError, match="not a partition of 6"):
            table[parts]
    # a key that is not a partition (largest part first, every part positive)
    for key in ((0, 2), (2, 0), (3, -1), (1, 2)):
        with pytest.raises(ValueError, match=f"{re.escape(str(key))} is not a partition of"):
            ChernTable(sum(key), {key: 5})
    assert ChernTable(0, {(): 1}).top() == 1


def test_power_integrals_from_chern_round_trip_examples():
    assert power_integrals_from_chern(P2) == SPoly({(1, 1): 9, (2,): 3})
    assert power_integrals_from_chern(K3) == SPoly({(2,): -48})


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_conversion_round_trip_random_tables(d, max_denominator, data):
    # integral tables round-trip on ints; any other table raises at its first
    # non-integral entry in the walk's order: decreasing, read from the
    # smallest part, so (d,) first and (1, ..., 1) last
    values = {
        mu: data.draw(
            st.builds(
                Q,
                st.integers(min_value=-30, max_value=30),
                st.integers(min_value=1, max_value=max_denominator),
            )
        )
        for mu in enumerate_partitions(d)
    }
    table = ChernTable(d, values)
    P = power_integrals_from_chern(table)
    walk_order = sorted(values, key=lambda mu: mu[::-1], reverse=True)
    inexact = [mu for mu in walk_order if values[mu].denominator != 1]
    if inexact:
        first = inexact[0]
        message = f"entry {first} = {values[first]} is not integral"
        with pytest.raises(ValueError, match=re.escape(message)):
            chern_from_power_integrals(P, d)
        return
    back = chern_from_power_integrals(P, d)
    assert back == table
    assert all(type(v) is int for v in back.numbers.values())


def test_only_the_last_entry_in_walk_order_is_non_integral():
    # every p_nu reads e_1^4 with coefficient 1, so every P_nu carries the
    # 1/2 of c_(1,1,1,1); every earlier entry sums the P_nu to an integral
    # Fraction (its e_mu vanishes at one variable set to 1) and must not raise
    d = 4
    values = {mu: Q(3 * i + 1) for i, mu in enumerate(enumerate_partitions(d))}
    values[(1, 1, 1, 1)] = Q(1, 2)
    P = power_integrals_from_chern(ChernTable(d, values))
    assert P.den == 2 and len(P.terms) == len(values)
    message = "entry (1, 1, 1, 1) = 1/2 is not integral"
    with pytest.raises(ValueError, match=re.escape(message)):
        chern_from_power_integrals(P, d)


def test_integral_tables_convert_on_ints():
    for d in range(9):
        keys = enumerate_partitions(d)
        table = ChernTable(d, {mu: (-1) ** i * (3 * i + 1) for i, mu in enumerate(keys)})
        P = power_integrals_from_chern(table)
        assert P.den == 1, d
        back = chern_from_power_integrals(P, d)
        assert back == table and all(type(v) is int for v in back.numbers.values()), d


def test_conversion_round_trip_is_exact_identity_up_to_degree_16():
    # both walks' rows against the oracle's e-rows, degree by degree: the
    # rows of prod r! e_r are prod_i mu_i! times them, and the rows of p_lam
    # composed with them give the identity.  Criterion 7 checks both walks
    # against explicit polynomials in 8 variables through degree 8
    for d in range(17):
        full = enumerate_partitions(d)
        for mu, row in _product_rows(_elementary_coefficient, d, full):
            assert all(type(c) is int for c in row.values()), mu
            scale = prod(map(factorial, mu))
            oracle = elementary_product_in_power_basis(mu)
            assert row == {nu: scale * b for nu, b in oracle.items()}, mu
        for lam, row in _product_rows(_power_coefficient, d, full):
            assert all(type(c) is int for c in row.values()), lam
            acc: dict = {}
            for nu, c in row.items():
                for rho, b in elementary_product_in_power_basis(nu).items():
                    acc[rho] = acc.get(rho, 0) + c * b
            acc = {k: v for k, v in acc.items() if v}
            assert acc == {lam: 1}, lam


def test_round_trip_at_degree_16_holds_under_a_megabyte():
    # a fresh interpreter, so no earlier test warms a cache: only the rows on
    # the walk's current path are alive (every row of degree 16 kept at once
    # peaked near 3 MB)
    probe = """
import tracemalloc
from kummer_chern.partitions import enumerate_partitions
from kummer_chern.symfun import ChernTable, chern_from_power_integrals, power_integrals_from_chern
d = 16
keys = enumerate_partitions(d)
table = ChernTable(d, {mu: (-1) ** i * (3 * i + 1) for i, mu in enumerate(keys)})
tracemalloc.start()
back = chern_from_power_integrals(power_integrals_from_chern(table), d)
assert back == table
print(tracemalloc.get_traced_memory()[1])
"""
    src = str(Path(symfun.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10**6, proc.stdout


def test_conversion_round_trip_through_tables():
    for d in range(7):
        for mu in enumerate_partitions(d):
            table = ChernTable(d, {mu: Q(1)})
            back = chern_from_power_integrals(power_integrals_from_chern(table), d)
            for nu in enumerate_partitions(d):
                assert back[nu] == (1 if nu == mu else 0)


def test_genus_preset_sanity_constants():
    todd = genus_log_coefficients("todd", 4)
    assert todd[0] == Q(1, 2) and todd[1] == Q(-1, 24)
    assert todd[2] == 0  # log of the Todd series is even beyond x/2
    euler = genus_log_coefficients("euler", 4)
    assert list(euler) == [Q(1), Q(-1, 2), Q(1, 3), Q(-1, 4)]
    sig = genus_log_coefficients("signature", 4)
    assert sig[0] == 0 and sig[1] == Q(1, 3) and sig[2] == 0


def test_genus_presets_exponentiate_to_their_series_through_x30():
    # f(x) = exp(sum l_j x^j), checked as f(x) * den(x) == num(x), through
    # the degree 30 that genus --n-max 16 asks for
    order = 30
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
        assert all(type(c) is Fraction for c in ell), name
        assert scalar_mul(scalar_exp(ell, order), den) == num, name


def _direct_log_forms(order: int) -> dict[tuple[str, int], SPoly]:
    # every preset's form l_1 s_1 + ... + l_count s_count for count <= order,
    # from one logarithm of each factor series by its defining sum
    fact = [factorial(k) for k in range(order + 2)]
    factors = {
        "todd": [(-1, [Fraction((-1) ** k, fact[k + 1]) for k in range(order + 1)])],
        "euler": [(1, [Fraction(int(k < 2)) for k in range(order + 1)])],
        "signature": [
            (1, [Fraction(1 - k % 2, fact[k]) for k in range(order + 1)]),
            (-1, [Fraction(1 - k % 2, fact[k + 1]) for k in range(order + 1)]),
        ],
    }
    forms = {}
    for name, pairs in factors.items():
        ell = [Fraction(0)] * (order + 1)
        for sign, series in pairs:
            log = fraction_zseries_log(tuple(SPoly({(): c}) for c in series))
            for j in range(1, order + 1):
                ell[j] += sign * log[j].get((), 0)
        for count in range(order + 1):
            forms[name, count] = SPoly({(j,): ell[j] for j in range(1, count + 1)})
    return forms


def test_log_forms_equal_the_direct_logarithms_in_any_request_order():
    expected = _direct_log_forms(18)
    keys = list(expected)
    shuffled = random.Random(5).sample(keys, len(keys))
    for order in (keys, keys[::-1], shuffled):
        symfun.genus_log_form.cache_clear()
        for key in order:
            assert symfun.genus_log_form(*key) == expected[key], key


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
    # exact on int tables too: dividing int power integrals by / gives floats
    for table in (K3, P2, K3_INT, P2_INT):
        for ell in (todd, euler, sig):
            assert type(evaluate_genus(table, ell)) is type(Q(1))
    assert evaluate_genus(K3_INT, todd) == 2 and evaluate_genus(P2_INT, sig) == 1


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


def test_genus_value_matches_the_literal_fraction_sum():
    # genus_value sums on integers over the dens of g and of the linear form
    # sum_j l_j s_j; the literal sum of c_lam * prod_i l_{lam_i} in
    # Fractions is the reference
    rng = random.Random(22)

    def literal(terms, ell):
        return sum(
            (c * prod(ell[j - 1] for j in lam) for lam, c in terms.items()),
            Fraction(0),
        )

    def rational():
        return Q(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))

    seen_non_integral = False
    for trial in range(60):
        d = rng.randint(0, 9)
        lams = rng.sample(enumerate_partitions(d), rng.randint(1, len(enumerate_partitions(d))))
        if trial % 3 == 0:  # int-only coefficients and l_j
            terms = {lam: rng.randint(-50, 50) for lam in lams}
            ell = [rng.randint(-9, 9) for _ in range(d)]
        else:
            terms = {lam: rational() for lam in lams}
            ell = [rational() for _ in range(d + rng.randint(0, 2))]
        total, den = genus_value(SPoly(terms), SPoly({(j,): l for j, l in enumerate(ell, 1)}))
        assert type(total) is int and type(den) is int and den > 0
        value = Fraction(total, den)
        assert value == literal(terms, ell)
        seen_non_integral = seen_non_integral or value.denominator != 1
    assert seen_non_integral
    assert genus_value(SPoly(), SPoly()) == (0, 1)
    assert genus_value(SPoly(), SPoly({(1,): Q(1, 3)})) == (0, 1)


def test_genus_multiplicative_on_products_of_surfaces():
    surfaces = {
        "p2": {(1, 1): Fraction(9), (2,): Fraction(3)},
        "k3": {(1, 1): Fraction(0), (2,): Fraction(24)},
        "p1xp1": {(1, 1): Fraction(8), (2,): Fraction(4)},
    }
    for name_x, x in surfaces.items():
        for name_y, y in surfaces.items():
            product = surface_product_chern_table(x, y)
            table = ChernTable(4, product)
            for preset in ("todd", "euler", "signature"):
                ell = genus_log_coefficients(preset, 4)
                lhs = evaluate_genus(table, ell)
                rhs = evaluate_genus(ChernTable(2, x), ell) * evaluate_genus(ChernTable(2, y), ell)
                assert lhs == rhs, (name_x, name_y, preset)


def test_extraction_from_genus_polynomial():
    g = SPoly({(2,): Q(-48)})
    P = power_integrals_from_genus_poly(g, 2)
    assert P == SPoly({(2,): -48}) and P.coefficient((1, 1)) == 0
    g = SPoly({(1, 1): Q(9, 2), (2,): Q(3)})
    P = power_integrals_from_genus_poly(g, 2)
    assert P.coefficient((1, 1)) == 9 and P.coefficient((2,)) == 3
    # numerators over one den, reduced: 1/2 * 2! and 1/3 over 3, then off weight
    g = SPoly({(1, 1): Q(1, 2), (2,): Q(1, 3), (3,): Q(1, 5)})
    P = power_integrals_from_genus_poly(g, 2)
    assert (P.terms, P.den) == ({(1, 1): 3, (2,): 1}, 3)


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


def test_product_rows_keep_only_the_parts_the_support_uses():
    # every mu is walked in the same order whatever the support, and its row
    # is the full row restricted to the keys whose parts all occur in the
    # support's keys; the full e-rows are the oracle's, scaled by
    # prod_i mu_i!, and the full p-rows are the ones that compose with them
    # to the identity (test_conversion_round_trip_is_exact_identity_up_to_degree_16)
    rng = random.Random(5)
    for d in range(1, 11):
        keys = enumerate_partitions(d)
        full_rows = {
            _elementary_coefficient: {
                mu: {
                    nu: prod(map(factorial, mu)) * b
                    for nu, b in elementary_product_in_power_basis(mu).items()
                }
                for mu in keys
            },
            _power_coefficient: dict(_product_rows(_power_coefficient, d, keys)),
        }
        supports = [
            keys,
            [mu for mu in keys if not any(part % 2 for part in mu)],
            [(d,)],
            [(1,) * d],
            [],
            rng.sample(keys, min(3, len(keys))),
        ]
        for coefficient, full in full_rows.items():
            for support in supports:
                parts = {part for key in support for part in key}
                rows = list(_product_rows(coefficient, d, support))
                assert [mu for mu, _ in rows] == sorted(keys, key=lambda mu: mu[::-1], reverse=True)
                for mu, row in rows:
                    assert all(parts.issuperset(nu) for nu in row), (d, mu, support)
                    kept = {nu: c for nu, c in full[mu].items() if parts.issuperset(nu)}
                    assert row == kept, (d, mu, support)


def test_rows_drop_only_the_parts_the_data_never_use():
    # a Kummer P has P_nu = 0 at every nu with an odd part, and its rows drop
    # those nu; with one of them nonzero the conversion must give what the
    # full rows give (the oracle's e-rows): the same table, or a ValueError
    # at the same first non-integral entry in walk order
    from kummer_chern.assembly import kummer_chern_numbers, kummer_genus_series
    from kummer_chern.localization import find_generic_model

    d = 4
    model = find_generic_model("p2", 3)
    genus_P = power_integrals_from_genus_poly(kummer_genus_series(model, 3)[3], d)
    kummer = {nu: genus_P.coefficient(nu) for nu in enumerate_partitions(d)}
    with_odd = [nu for nu in enumerate_partitions(d) if any(part % 2 for part in nu)]
    assert with_odd == [(3, 1), (2, 1, 1), (1, 1, 1, 1)]
    assert not any(kummer[nu] for nu in with_odd)
    walk_order = sorted(enumerate_partitions(d), key=lambda mu: mu[::-1], reverse=True)

    def full_rows(P):
        return {
            mu: sum(c * P[nu] for nu, c in elementary_product_in_power_basis(mu).items())
            for mu in walk_order
        }

    assert SPoly(kummer) == genus_P
    assert chern_from_power_integrals(genus_P, d).numbers == full_rows(kummer)
    outcomes = set()
    for nu in with_odd:
        for value in (1, 24, Q(-1, 2)):
            P = {**kummer, nu: value}
            expected = full_rows(P)
            inexact = [mu for mu in walk_order if expected[mu].denominator != 1]
            if inexact:
                first = inexact[0]
                message = f"entry {first} = {expected[first]} is not integral"
                with pytest.raises(ValueError, match=re.escape(message)):
                    chern_from_power_integrals(SPoly(P), d)
            else:
                assert chern_from_power_integrals(SPoly(P), d).numbers == expected, (nu, value)
            outcomes.add(bool(inexact))
    assert outcomes == {False, True}  # both branches are compared
    # the inverse direction: a Chern number with an odd part set nonzero
    # brings its parts back into the rows
    table = kummer_chern_numbers(model, 3).chern
    for mu in with_odd:
        numbers = {**table.numbers, mu: 5}
        expected = {
            lam: sum(c * numbers.get(nu, 0) for nu, c in row.items())
            for lam, row in _product_rows(_power_coefficient, d, enumerate_partitions(d))
        }
        assert power_integrals_from_chern(ChernTable(d, numbers)) == SPoly(expected), mu


def test_evaluate_genus_keeps_the_full_rows_on_hilbert_tables():
    # the nonzero entries of the Hilbert tables of p2 use every part (c1 != 0),
    # so they convert on the full rows, and the Todd genus of each is 1; the
    # nonzero entries of a Kummer table use only even parts
    from kummer_chern.assembly import hilbert_chern_numbers, kummer_chern_numbers
    from kummer_chern.localization import find_generic_model, hilbert_genus

    m = find_generic_model("p2", 4)
    for k in range(1, 5):
        table = hilbert_chern_numbers(m, k)
        used = {part for mu, v in table.numbers.items() if v for part in mu}
        assert used == set(range(1, 2 * k + 1)), k
        assert evaluate_genus(table, genus_log_coefficients("todd", 2 * k)) == 1, k
        P = power_integrals_from_chern(table)
        assert P == power_integrals_from_genus_poly(hilbert_genus(m, k), 2 * k), k
    kummer = kummer_chern_numbers(m, 4).chern
    used = {part for mu, v in kummer.numbers.items() if v for part in mu}
    assert used == {2, 4, 6}
    assert evaluate_genus(kummer, genus_log_coefficients("todd", 6)) == 4
