import random
from math import factorial

import pytest

from kummer_chern import assembly, localization
from kummer_chern.assembly import (
    KummerResult,
    _assemble_kummer_series,
    _checked_table,
    _s1_derivative,
    _validate_kummer_table,
    hilbert_chern_numbers,
    hilbert_genus_series,
    kummer_chern_numbers,
    kummer_genus_series,
)
from kummer_chern.localization import (
    CheckError,
    GenericityError,
    build_surface_model,
    find_generic_model,
    fixed_points,
    hilbert_genus,
    localized_sums,
)
from kummer_chern.polyring import Q, SPoly
from kummer_chern.reference import reference_for
from kummer_chern.symfun import ChernTable, evaluate_genus, genus_log_coefficients

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
    assert len(series) == 1 and series[0].is_one()
    with pytest.raises(ValueError):
        hilbert_genus_series(p2, -1)


def test_public_entry_points_refuse_sizes_out_of_range(p2):
    with pytest.raises(ValueError, match="^need n_max >= 1$"):
        kummer_genus_series(p2, 0)
    with pytest.raises(ValueError, match="^need n >= 1$"):
        kummer_chern_numbers(p2, 0)
    with pytest.raises(ValueError, match="^need k >= 0$"):
        hilbert_chern_numbers(p2, -1)


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
    # s1^2 / 2 gives c1^2 = 1 and the non-integral c2 = 1/2; its Todd value
    # is l_1^2 / 2 = 1/8, passed so that the integrality check is reached
    message = r"n=2: entry \(2,\) = 1/2 is not integral"
    with pytest.raises(CheckError, match=message):
        _checked_table("n=2", SPoly({(1, 1): Q(1, 2)}), 2, 0, Q(1, 8))
    with pytest.raises(CheckError, match="odd-part"):
        _validate_kummer_table(2, ChernTable(2, {(2,): Q(24), (1, 1): Q(1)}))
    with pytest.raises(CheckError, match="not positive"):
        _validate_kummer_table(2, ChernTable(2, {(2,): Q(-24), (1, 1): Q(0)}))
    with pytest.raises(CheckError, match="divisible"):
        _validate_kummer_table(2, ChernTable(2, {(2,): Q(25), (1, 1): Q(0)}))
    # beyond the verified range the same findings downgrade to advisories
    result = _validate_kummer_table(9, ChernTable(2, {(2,): Q(25), (1, 1): Q(0)}))
    assert len(result.advisories) == 1


def test_closed_form_oracles_reject_corrupted_inputs(p2):
    genus = kummer_genus_series(p2, 3)[3]
    table = _checked_table("n=3", genus, 4, 108, 3)
    assert (table[(4,)], table[(2, 2)]) == (108, 756)
    # + s4 adds the Todd l_4 = 1/2880 to the Todd genus 3
    with pytest.raises(CheckError, match="n=3: Todd genus 8641/2880, expected 3"):
        _checked_table("n=3", genus + SPoly({(4,): 1}), 4, 108, 3)
    with pytest.raises(CheckError, match="expected Euler number 109"):
        _checked_table("n=3", genus, 4, 109, 3)


# every entry of the p2 table at n = 9, above the reference table
NINE = {
    (2, 2, 2, 2, 2, 2, 2, 2): 35447947999488,
    (4, 2, 2, 2, 2, 2, 2): 13129602781824,
    (4, 4, 2, 2, 2, 2): 4862661530400,
    (4, 4, 4, 2, 2): 1800797040144,
    (4, 4, 4, 4): 666853820172,
    (6, 2, 2, 2, 2, 2): 2332758616128,
    (6, 4, 2, 2, 2): 864167470848,
    (6, 4, 4, 2): 320117226120,
    (6, 6, 2, 2): 153694101888,
    (6, 6, 4): 56953381608,
    (8, 2, 2, 2, 2): 215605377504,
    (8, 4, 2, 2): 79938804096,
    (8, 4, 4): 29638792620,
    (8, 6, 2): 14239224576,
    (8, 8): 1322820801,
    (10, 2, 2, 2): 10441752768,
    (10, 4, 2): 3878495784,
    (10, 6): 692780364,
    (12, 2, 2): 254566800,
    (12, 4): 94850190,
    (14, 2): 2685636,
    (16,): 9477,
}


def test_closed_forms_hold_beyond_the_reference_table():
    model = find_generic_model("p2", 9)
    nine = kummer_chern_numbers(model, 9)
    assert nine.chern.top() == 9**3 * sigma1(9) == 9477
    assert nine.advisories == ()
    assert nine.chern.numbers == NINE


def test_kummer_genus_has_only_even_subscripts(p2_series):
    # T and T* are isomorphic on a hyper-Kaehler manifold, so its odd Chern
    # classes vanish, and with them every power integral with an odd part:
    # no coefficient of the Kummer genus has an odd subscript
    rng = random.Random(6)
    while True:
        weights = (rng.randint(-40, 40), rng.randint(-40, 40))
        try:
            p1xp1 = find_generic_model("p1xp1", 6, weights=weights)
            break
        except GenericityError:
            continue
    for surface, series in (("p2", p2_series), ("p1xp1", kummer_genus_series(p1xp1, 6))):
        for n, coefficient in enumerate(series):
            odd = [lam for lam in coefficient.terms if any(part % 2 for part in lam)]
            assert odd == [], (surface, weights, n, odd)
    assert len(p2_series) == 9


def test_signature_of_the_kummer_tables_is_the_goettsche_soergel_closed_form():
    # chi_y at y = 1 of the n-th generalised Kummer variety (Goettsche-Soergel):
    # n * sum over the odd divisors o of n of (-1)^(n - o) (n/o)^3, through
    # the inverse conversion at degrees up to 18
    model = find_generic_model("p2", 10)
    ell = genus_log_coefficients("signature", 18)
    signatures = {
        n: evaluate_genus(kummer_chern_numbers(model, n).chern, ell) for n in range(2, 11)
    }
    expected = {
        n: n * sum((-1) ** (n - o) * (n // o) ** 3 for o in range(1, n + 1, 2) if n % o == 0)
        for n in range(2, 11)
    }
    assert signatures == expected
    assert expected[2] == -16 and expected[10] == -10080


def test_smaller_n_is_served_from_the_longest_series(monkeypatch):
    model = find_generic_model("p2", 5, weights=(1, 37))
    kummer_genus_series(model, 5)
    calls = []

    def counting_sums(*args, **kwargs):
        calls.append(args)
        return localized_sums(*args, **kwargs)

    monkeypatch.setattr(localization, "localized_sums", counting_sums)
    for n in range(1, 6):
        kummer_chern_numbers(model, n)
    assert calls == []
    for n in range(1, 5):
        assert kummer_genus_series(model, n) == _assemble_kummer_series(model, n)
    # assembling another model drops this one's series: one series is held
    other = find_generic_model("p2", 3, weights=(1, 43))
    kummer_genus_series(other, 3)
    assert list(assembly._assembled) == [other]


def test_series_builds_its_tangent_pieces_once(monkeypatch):
    model = find_generic_model("p2", 5, weights=(1, 41))
    built = []

    def counting_pieces(*args):
        built.append(args)
        return localization.tangent_pieces(*args)

    monkeypatch.setattr(assembly, "tangent_pieces", counting_pieces)
    series = hilbert_genus_series(model, 5)
    assert built == [(model, 5)]
    # each table alone builds its own pieces and gives the same genus
    for k in range(6):
        assert localized_sums(model, k).table == {2 * k: series[k]}


def test_homogeneity_check_fires_on_one_corrupted_twist(p2, monkeypatch):
    original = assembly.zseries_log
    # weight 0 below the z^2 weight 4, and s1^8 above every weight that
    # H(0) reaches at n_max = 3 (6): the check must see both
    for corruption in (SPoly({(): 1}), SPoly({(1,) * 8: 1})):

        def corrupting_log(series, corruption=corruption):
            out = original(series)
            coeffs = list(out)
            coeffs[2] = coeffs[2] + corruption
            return tuple(coeffs)

        monkeypatch.setattr(assembly, "zseries_log", corrupting_log)
        with pytest.raises(CheckError, match="off-weight"):
            _assemble_kummer_series(p2, 3)


def test_quadratic_check_fires_on_a_cubic_s1_term(p2, monkeypatch):
    original = assembly.zseries_log

    def corrupting_log(series):
        out = original(series)
        coeffs = list(out)
        # s1^4 has weight 4, so the homogeneity check passes it
        coeffs[2] = coeffs[2] + SPoly({(1, 1, 1, 1): 1})
        return tuple(coeffs)

    monkeypatch.setattr(assembly, "zseries_log", corrupting_log)
    with pytest.raises(
        CheckError, match=r"z\^2 coefficient of ln H\(0\) has third s1-derivative"
    ):
        _assemble_kummer_series(p2, 3)


def test_twisted_genus_is_the_s1_shift_of_the_untwisted_one(extra_fans):
    # the literal twisted fixed-point sum against the s1-shift that the
    # assembly applies to the untwisted genus (at t = 0, the kernel's genus
    # itself); the same literal sums also cancel in every degree below the
    # top, at every twist.  F2's dual entries reach 2, beyond the presets'.
    for name, depth in (("p2", 5), ("p1xp1", 4), ("f2", 3)):
        model = find_generic_model(name, depth)
        for k in range(depth + 1):
            two_k = 2 * k
            untwisted = hilbert_genus(model, k)
            derivatives = [_s1_derivative(untwisted, m) for m in range(two_k + 1)]
            for t in range(-2, 3):
                literal = localized_twisted_sums(model, k, t)
                for d in range(two_k):
                    assert literal[d].is_zero(), (name, k, t, d)
                shifted = SPoly()
                for m, derivative in enumerate(derivatives):
                    shifted = shifted + derivative.scale(Q(t**m, factorial(m)))
                assert literal[two_k] == shifted, (name, k, t)


def test_hilbert_chern_numbers(p2):
    one = hilbert_chern_numbers(p2, 1)
    assert dict(one.numbers) == {(1, 1): 9, (2,): 3}
    two = hilbert_chern_numbers(p2, 2)
    assert two[(4,)] == 9  # Euler number of the Hilbert square of the plane
    assert all(isinstance(v, int) for v in two.numbers.values())
    zero = hilbert_chern_numbers(p2, 0)
    assert dict(zero.numbers) == {(): 1}
    # the point has no tangent weight, so zero chart weights localize it too
    for name in ("p2", "p1xp1"):
        at_default = hilbert_chern_numbers(find_generic_model(name, 0), 0)
        assert hilbert_chern_numbers(build_surface_model(name, 0, 0), 0) == at_default


def test_hilbert_top_chern_number_counts_the_fixed_points():
    # each fixed point adds 1 to the top Chern number in the residue sum,
    # and hilbert_chern_numbers checks that number against Goettsche's series
    for name in ("p2", "p1xp1"):
        tables = []
        for weights in (None, (3, 7)):
            model = find_generic_model(name, 6, weights=weights)
            tables.append([hilbert_chern_numbers(model, k) for k in range(7)])
            for k, table in enumerate(tables[-1]):
                assert len(fixed_points(model, k)) == table.top(), (name, weights, k)
        # Bott's residue formula gives the same tables at any generic weights
        assert tables[0] == tables[1], name


def test_fans_beyond_the_presets_at_their_default_weights(extra_fans):
    # hilbert_chern_numbers runs Goettsche's Euler check on each table
    for name, (_, _, invariants) in extra_fans.items():
        model = find_generic_model(name, 4)
        assert (model.c1sq, model.c2) == invariants
        for k in range(5):
            top = hilbert_chern_numbers(model, k).top()
            assert len(fixed_points(model, k)) == top, (name, k)
    f2 = find_generic_model("f2", 3)
    for n in (2, 3):
        assert dict(kummer_chern_numbers(f2, n).chern.numbers) == reference_for(n)


def test_hilbert_euler_check_fires_on_a_corrupted_genus(p2, monkeypatch):
    original = assembly.hilbert_genus

    def corrupted(model, k):  # + 9 s3^2 adds 1 to c6 and, as l_3 = 0, 0 to Todd
        return original(model, k) + SPoly({(3, 3): 9})

    monkeypatch.setattr(assembly, "hilbert_genus", corrupted)
    with pytest.raises(
        CheckError, match="k=3: top Chern number 23, expected Euler number 22"
    ):
        hilbert_chern_numbers(p2, 3)


def test_hilbert_todd_check_fires_where_every_other_check_passes(p2, monkeypatch):
    # s1^6 - 9 s3^2 keeps the k = 3 table integral with top number 22, but
    # adds l_1^6 = 1/64 to the Todd genus 1 of the Hilbert scheme
    corruption = SPoly({(1,) * 6: 1, (3, 3): -9})
    genus = hilbert_genus(p2, 3) + corruption
    assert _checked_table("k=3", genus, 6, 22, Q(65, 64)).top() == 22
    original = assembly.hilbert_genus
    monkeypatch.setattr(assembly, "hilbert_genus", lambda m, k: original(m, k) + corruption)
    with pytest.raises(CheckError, match="k=3: Todd genus 65/64, expected 1"):
        hilbert_chern_numbers(p2, 3)


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
