"""Acceptance suite: one test per criterion, each printing a verdict line.

The heavy inputs (the full n <= 8 run on the plane and the n <= 6 run on
the quadric) come from session fixtures and are computed once.
"""

import os
import subprocess
import sys
import time
from math import factorial, prod
from pathlib import Path

import kummer_chern
from kummer_chern.assembly import kummer_chern_numbers
from kummer_chern.localization import (
    SurfaceModel,
    find_generic_model,
    fixed_points,
    hilbert_genus,
    tangent_pieces,
)
from kummer_chern.partitions import enumerate_partitions
from kummer_chern.reference import load_reference_table, reference_for
from kummer_chern.symfun import (
    _elementary_coefficient,
    _power_coefficient,
    _product_rows,
    chern_from_power_integrals,
    evaluate_genus,
    genus_log_coefficients,
    power_integrals_from_genus_poly,
)

from oracles import (
    colored_partition_counts,
    expand_elementary_product,
    expand_power_product,
    hom_tangent_weights,
    weight_data,
)


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_reference_table_reproduction(kummer_results_p2):
    spot = {
        (2, (2,)): 24,
        (3, (2, 2)): 756,
        (3, (4,)): 108,
        (4, (2, 2, 2)): 30208,
        (4, (4, 2)): 6784,
        (4, (6,)): 448,
        (7, (6, 6)): 12976376,
        (8, (2,) * 7): 421414305792,
        (8, (14,)): 7680,
    }
    reference = load_reference_table()
    assert len(reference) == 44
    for (n, mu), value in reference.items():
        assert kummer_results_p2[n].chern[mu] == value, (n, mu)
    for n in range(2, 9):
        assert set(kummer_results_p2[n].chern.numbers) == set(reference_for(n))
    for (n, mu), value in spot.items():
        assert kummer_results_p2[n].chern[mu] == value

    # end-to-end runtime, measured on a cold process that imports this package
    src = str(Path(kummer_chern.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kummer_chern.cli", "verify", "--n-max", "8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "44 of 44 entries match" in proc.stdout
    assert elapsed < 600, f"verify took {elapsed:.0f}s"
    _report(1, f"all 44 reference entries exact; cold verify in {elapsed:.1f}s")


def test_criterion_2_surface_universality(kummer_results_p2, kummer_results_p1xp1):
    for n in range(1, 7):
        assert dict(kummer_results_p1xp1[n].chern.numbers) == dict(
            kummer_results_p2[n].chern.numbers
        ), n
    _report(2, "p1xp1 tables identical to p2 tables for n <= 6")


def test_criterion_3_weight_independence():
    first = find_generic_model("p2", 5, weights=(1, 31))
    second = find_generic_model("p2", 5, weights=(2, 41))
    for k in range(6):
        assert hilbert_genus(first, k) == hilbert_genus(second, k), k
    for n in range(1, 6):
        assert dict(kummer_chern_numbers(first, n).chern.numbers) == dict(
            kummer_chern_numbers(second, n).chern.numbers
        ), n
    _report(3, "weights (1,31) and (2,41) agree: hilbert k <= 5, kummer n <= 5")


def test_criterion_4_todd_genus(kummer_results_p2):
    ell = genus_log_coefficients("todd", 14)
    for n in range(2, 9):
        assert evaluate_genus(kummer_results_p2[n].chern, ell) == n, n
    _report(4, "todd genus equals n for 2 <= n <= 8")


def test_criterion_5_euler_top_chern(kummer_results_p2):
    expected = {2: 24, 3: 108, 4: 448, 5: 750, 6: 2592, 7: 2744, 8: 7680}
    ell = genus_log_coefficients("euler", 14)
    for n, value in expected.items():
        table = kummer_results_p2[n].chern
        assert table.top() == value, n
        assert evaluate_genus(table, ell) == value, n
    _report(5, "top Chern numbers match 24, 108, 448, 750, 2592, 2744, 7680")


def test_criterion_6_property_suites(p2_model, p1xp1_model, p2_series):
    # (a) below-top localization vanishing, k <= 8: localized_sums raises
    # CheckError ("below-top localization sum") on any nonzero below-top
    # sum, and assembling p2_series localizes every k <= 8; every twisted sum
    # is a combination of these untwisted ones

    # (b) homogeneity of the z^n coefficient at weight 2(n-1)
    series = p2_series
    for n in range(1, 9):
        assert series[n].off_weight_part(2 * (n - 1)).is_zero(), n

    # (c, d, e) integrality, odd-part vanishing, positivity, n^3 divisibility
    for n in range(2, 9):
        d = 2 * (n - 1)
        full = chern_from_power_integrals(
            power_integrals_from_genus_poly(series[n], d), d
        )
        for mu in enumerate_partitions(d):
            value = full[mu]
            assert value.denominator == 1, (n, mu)
            if any(part % 2 for part in mu):
                assert value == 0, (n, mu)
            else:
                assert value > 0, (n, mu)
                assert value % n**3 == 0, (n, mu)

    # (f) fixed-point counts against the Euler-product coefficients
    for model, colors in ((p2_model, 3), (p1xp1_model, 4)):
        counts = colored_partition_counts(8, colors)
        for k in range(9):
            assert len(fixed_points(model, k)) == counts[k], (model.name, k)

    # (g) quadratic twist dependence: assembling p2_series checked that
    # d^3/ds1^3 ln H(0) vanishes through z^8, raising CheckError ("has third
    # s1-derivative") otherwise (test_quadratic_check_fires_on_a_cubic_s1_term
    # shows it fires)

    _report(6, "vanishing, homogeneity, integrality, odd-part zeros, "
               "positivity, n^3 divisibility, fixed-point counts, "
               "quadratic twist dependence")


def test_criterion_7_oracle_equivalence():
    # the tangent pieces the pipeline builds against the module-homomorphism
    # computation: for seven charts and every lam with |lam| <= 4, the Euler
    # product and the power sums through 8 >= 2|lam| of the weights of
    # Hom(I, O/I), which fix the weights as a multiset
    charts = ((1, 5), (5, 1), (-1, 3), (2, -7), (-3, -5), (1, 73), (73, 1))
    pieces = tangent_pieces(SurfaceModel("charts", charts, 0, len(charts), (0, 0)), 4)
    assert len(pieces) == 77
    for k in range(1, 5):
        for lam in enumerate_partitions(k):
            for v1, v2 in charts:
                assert pieces[(v1, v2), lam] == weight_data(
                    hom_tangent_weights(lam, v1, v2), 8
                ), (lam, v1, v2)

    # the rows of both conversion walks against explicit polynomials in 8
    # variables: p_lam as its combination of e_nu, and prod_i mu_i! e_mu as
    # its combination of p_nu
    nvars = 8

    def combination(row, expand):
        assembled: dict = {}
        for nu, c in row.items():
            for expo, v in expand(nu, nvars).items():
                assembled[expo] = assembled.get(expo, 0) + c * v
        return {e: v for e, v in assembled.items() if v}

    for d in range(1, 9):
        for lam, row in _product_rows(_power_coefficient, d, enumerate_partitions(d)):
            assert combination(row, expand_elementary_product) == (
                expand_power_product(lam, nvars)
            ), lam
        for mu, row in _product_rows(_elementary_coefficient, d, enumerate_partitions(d)):
            scale = prod(map(factorial, mu))
            assert combination(row, expand_power_product) == {
                e: scale * v for e, v in expand_elementary_product(mu, nvars).items()
            }, mu

    _report(7, "tangent pieces match Hom(I, O/I); transitions match "
               "explicit symmetric polynomials through degree 8")
