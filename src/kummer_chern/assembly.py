"""Assembly of the Kummer-variety Chern numbers from Hilbert-scheme genera.

Write H(t) for the generating series whose z^k coefficient is the
universal genus of the Hilbert scheme of k surface points, twisted by
exp(t * x).  The combination

    (z d/dz)^2 [ ln H(1) + ln H(-1) - 2 ln H(0) ] / c1sq

is, coefficient by coefficient, the universal genus of the generalised
Kummer varieties: the z^n coefficient equals the genus of the 2(n-1)-fold
member of the family.

Twisting by exp(t * x) multiplies the genus series f by e^{tx}, which in
the log-coefficient variables is the substitution s1 -> s1 + t, so
ln H(t) = sum_r t^r / r! * d^r/ds1^r ln H(0).  The twist multiplies the
genus of the Hilbert scheme by exp(t c1), and c1 of the Hilbert scheme is
the class induced by c1 of the surface; by the multiplicativity of
Ellingsrud-Goettsche-Lehn, ln H(t) is then a polynomial of degree at most
two in t whose t-dependence is a multiple of c1sq.  So the derivatives of
order three and more vanish, and the combination above equals

    (z d/dz)^2 d^2/ds1^2 ln H(0) / c1sq ,

which needs one logarithm, of the untwisted series only.  Two checks run
on every z^n coefficient L_n of ln H(0): L_n is homogeneous of weight 2n
(off-weight residue is the most sensitive symptom of a grading bug), and
d^3/ds1^3 L_n vanishes (the quadratic law of the twist).
"""

from __future__ import annotations

from math import perm
from typing import NamedTuple

from .localization import SurfaceModel, hilbert_genus
from .partitions import Partition
from .polyring import Q, SPoly, ZSeries, zseries_euler_sq, zseries_log
from .symfun import (
    ChernTable,
    chern_from_power_integrals,
    genus_log_coefficients,
    genus_value,
    power_integrals_from_genus_poly,
)


class HomogeneityError(Exception):
    """A series coefficient had exact residue outside its expected weight."""


class TableValidationError(Exception):
    """A computed Chern table violated a structural requirement."""


class QuadraticCheckError(Exception):
    """The log series failed to be quadratic in the twist."""


def hilbert_genus_series(model: SurfaceModel, n_max: int) -> ZSeries:
    """The untwisted series H(0) through z^n_max.

    Its z^k coefficient is the genus of the Hilbert scheme of k points,
    homogeneous of weight 2k.  The twisted series H(t) is H(0) with s1
    shifted by t.
    """
    return ZSeries(hilbert_genus(model, k) for k in range(n_max + 1))


# the one per-model store: the longest Kummer series assembled so far
_assembled: dict[SurfaceModel, ZSeries] = {}


def kummer_genus_series(model: SurfaceModel, n_max: int) -> ZSeries:
    """Universal genus of the Kummer family through z^n_max.

    The z^n coefficient is homogeneous of weight 2(n-1) (the member has
    complex dimension 2(n-1)).

    The longest series assembled for each model is kept.  A request with
    n_max at most its order is served by slicing it: the z^n coefficient
    does not depend on the order the series was assembled to, so the slice
    equals the series assembled directly, and the longer assembly only ran
    more of the vanishing, homogeneity and quadratic checks.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    longest = _assembled.get(model)
    if longest is None or longest.order < n_max:
        longest = _assembled[model] = _assemble_kummer_series(model, n_max)
    if longest.order == n_max:
        return longest
    return ZSeries(longest.coeffs[: n_max + 1])


def _s1_derivative(poly: SPoly, r: int) -> SPoly:
    """The r-th derivative of poly in s1.

    A monomial's 1s are its trailing entries, so s1^e * rest becomes
    perm(e, r) * s1^(e-r) * rest.
    """
    terms = {}
    for mono, c in poly.terms.items():
        e = mono.count(1)
        if e >= r:
            terms[mono[: len(mono) - r]] = c * perm(e, r)
    return SPoly(terms)


def _assemble_kummer_series(model: SurfaceModel, n_max: int) -> ZSeries:
    log_h = zseries_log(hilbert_genus_series(model, n_max))
    second = []
    for n, coeff in enumerate(log_h.coeffs):
        residue = coeff.off_weight_part(2 * n)
        if not residue.is_zero():
            raise HomogeneityError(
                f"z^{n} coefficient of ln H(0) has off-weight part {residue} "
                f"(expected pure weight {2 * n})"
            )
        cubic = _s1_derivative(coeff, 3)
        if not cubic.is_zero():
            raise QuadraticCheckError(
                f"z^{n} coefficient of ln H(0) has third s1-derivative {cubic}, "
                "so ln H(t) is not quadratic in the twist"
            )
        second.append(_s1_derivative(coeff, 2))
    return zseries_euler_sq(ZSeries(second)).scale(Q(1, model.c1sq))


class KummerResult(NamedTuple):
    """Chern numbers of the 2(n-1)-dimensional Kummer-family member.

    An immutable record that compares by value.  ``chern`` keeps only the
    partitions into even parts; entries with an odd part are identically
    zero (the manifold is holomorphic symplectic) and are checked, then
    dropped.  ``advisories`` reports positivity or divisibility surprises
    for n > 8 where they are conjectural; it defaults to none.
    """

    n: int
    dimension: int
    chern: ChernTable
    advisories: tuple[str, ...] = ()


def _validate_kummer_table(n: int, table: ChernTable) -> KummerResult:
    kept: dict[Partition, object] = {}
    advisories: list[str] = []
    cube = n**3
    for mu in table.sorted_keys():
        value = table[mu]
        if value.denominator != 1:
            raise TableValidationError(f"n={n}: entry {mu} = {value} is not integral")
        value = int(value)
        if any(part % 2 for part in mu):
            if value != 0:
                raise TableValidationError(
                    f"n={n}: odd-part entry {mu} = {value}, expected 0"
                )
            continue
        kept[mu] = value
        problems = []
        if value <= 0:
            problems.append("not positive")
        if value % cube:
            problems.append(f"not divisible by {n}^3")
        if problems:
            message = f"n={n}: entry {mu} = {value} is " + " and ".join(problems)
            if n <= 8:
                raise TableValidationError(message)
            advisories.append(message)
    return KummerResult(
        n, table.degree, ChernTable(table.degree, kept), tuple(advisories)
    )


def _sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _check_euler_number(n: int, table: ChernTable) -> None:
    """The top Chern number of the n-th member is n^3 * sigma_1(n), for every n."""
    expected = n**3 * _sigma1(n)
    if table.top() != expected:
        raise TableValidationError(
            f"n={n}: top Chern number {table.top()}, expected n^3 sigma_1(n) "
            f"= {expected}"
        )


def _check_todd_genus(n: int, genus: SPoly) -> None:
    """The Todd genus of the n-th member is n, for every n.

    Evaluated on the z^n series coefficient by substituting the Todd log
    coefficients l_j for s_j, independently of the Chern conversion.
    """
    todd = genus_value(genus.terms, genus_log_coefficients("todd", 2 * (n - 1)))
    if todd != n:
        raise TableValidationError(f"n={n}: Todd genus {todd}, expected {n}")


def kummer_chern_numbers(model: SurfaceModel, n: int) -> KummerResult:
    """Chern numbers of the n-th Kummer-family member, fully validated."""
    if n < 1:
        raise ValueError("need n >= 1")
    genus = kummer_genus_series(model, n)[n]
    _check_todd_genus(n, genus)
    d = 2 * (n - 1)
    table = chern_from_power_integrals(power_integrals_from_genus_poly(genus, d), d)
    _check_euler_number(n, table)
    return _validate_kummer_table(n, table)


def hilbert_chern_numbers(model: SurfaceModel, k: int) -> ChernTable:
    """Chern numbers of the Hilbert scheme of k points on the surface."""
    if k < 0:
        raise ValueError("need k >= 0")
    genus = hilbert_genus(model, k)
    d = 2 * k
    table = chern_from_power_integrals(power_integrals_from_genus_poly(genus, d), d)
    for mu in table.sorted_keys():
        if table[mu].denominator != 1:
            raise TableValidationError(
                f"k={k}: entry {mu} = {table[mu]} is not integral"
            )
    return ChernTable(d, {mu: int(table[mu]) for mu in table.sorted_keys()})
