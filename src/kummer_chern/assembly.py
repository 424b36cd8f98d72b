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

from . import polyring
from .localization import CheckError, SurfaceModel, hilbert_genus, tangent_pieces
from .partitions import Partition
from .polyring import SPoly, zseries_euler_sq, zseries_log
from .reference import REFERENCE_N_MAX
from .symfun import (
    ChernTable,
    chern_from_power_integrals,
    genus_log_form,
    genus_value,
    power_integrals_from_genus_poly,
)


def hilbert_genus_series(model: SurfaceModel, n_max: int) -> tuple[SPoly, ...]:
    """The untwisted series H(0) through z^n_max, as its coefficient tuple.

    Its z^k coefficient is the genus of the Hilbert scheme of k points,
    homogeneous of weight 2k.  The twisted series H(t) is H(0) with s1
    shifted by t.

    This call owns the tangent pieces of the series: it builds them once,
    for n_max, passes them to every table and drops them on return.  So
    genericity is decided once, at depth n_max, before any table is built.
    """
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    pieces = tangent_pieces(model, n_max)
    return tuple(hilbert_genus(model, k, pieces=pieces) for k in range(n_max + 1))


# the one store: the model assembled last and its longest Kummer series
_assembled: dict[SurfaceModel, tuple[SPoly, ...]] = {}


def kummer_genus_series(model: SurfaceModel, n_max: int) -> tuple[SPoly, ...]:
    """Universal genus of the Kummer family through z^n_max, as a tuple.

    The z^n coefficient is homogeneous of weight 2(n-1) (the member has
    complex dimension 2(n-1)).

    The longest series of the model assembled last is kept, and assembling
    another model drops it, so a process that works through many models
    holds one series.  A request with n_max at most its order is served by
    slicing it: the z^n coefficient does not depend on the order the series
    was assembled to, so the slice equals the series assembled directly,
    and the longer assembly only ran more of the vanishing, homogeneity and
    quadratic checks.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    longest = _assembled.get(model)
    if longest is None or len(longest) <= n_max:
        longest = _assemble_kummer_series(model, n_max)
        _assembled.clear()
        _assembled[model] = longest
    return longest[: n_max + 1]


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
    return SPoly.over(terms, poly.den)


def _assemble_kummer_series(model: SurfaceModel, n_max: int) -> tuple[SPoly, ...]:
    log_h = zseries_log(hilbert_genus_series(model, n_max))
    second = []
    for n, coeff in enumerate(log_h):
        residue = coeff.off_weight_part(2 * n)
        if not residue.is_zero():
            raise CheckError(
                f"z^{n} coefficient of ln H(0) has off-weight part {residue} "
                f"(expected pure weight {2 * n})"
            )
        cubic = _s1_derivative(coeff, 3)
        if not cubic.is_zero():
            raise CheckError(
                f"z^{n} coefficient of ln H(0) has third s1-derivative {cubic}, "
                "so ln H(t) is not quadratic in the twist"
            )
        second.append(_s1_derivative(coeff, 2).scale(1, model.c1sq))
    return zseries_euler_sq(tuple(second))


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
        if any(part % 2 for part in mu):
            if value != 0:
                raise CheckError(
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
            if n <= REFERENCE_N_MAX:
                raise CheckError(message)
            advisories.append(message)
    return KummerResult(
        n, table.degree, ChernTable(table.degree, kept), tuple(advisories)
    )


def _sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _hilbert_euler_number(c2: int, k: int) -> int:
    """Euler number of the Hilbert scheme of k points on a surface with c2.

    It is the coefficient of q^k in prod_m (1 - q^m)^(-c2) (Goettsche).
    """
    coeffs = [1] + [0] * k
    for m in range(1, k + 1):
        for _ in range(c2):
            for i in range(m, k + 1):
                coeffs[i] += coeffs[i - m]
    return coeffs[k]


def _checked_table(label: str, genus: SPoly, d: int, euler: int, todd: int) -> ChernTable:
    """Chern numbers of a degree-d genus, checked against its closed forms.

    The Todd genus (the Todd l_j put for s_j in genus) must be todd, and the
    table integral with top number euler.  label ("n=3") starts each message.
    All of it runs on integers; only a failure message builds a rational.
    """
    total, den = genus_value(genus, genus_log_form("todd", d))
    if total != todd * den:
        raise CheckError(f"{label}: Todd genus {polyring.Q(total, den)}, expected {todd}")
    try:
        table = chern_from_power_integrals(power_integrals_from_genus_poly(genus, d), d)
    except ValueError as exc:
        raise CheckError(f"{label}: {exc}") from exc
    if table.top() != euler:
        raise CheckError(
            f"{label}: top Chern number {table.top()}, expected Euler number {euler}"
        )
    return table


def kummer_chern_numbers(model: SurfaceModel, n: int) -> KummerResult:
    """Chern numbers of the n-th Kummer-family member, fully validated."""
    if n < 1:
        raise ValueError("need n >= 1")
    genus = kummer_genus_series(model, n)[n]
    # the n-th member has Euler number n^3 * sigma_1(n) and Todd genus n
    table = _checked_table(f"n={n}", genus, 2 * (n - 1), n**3 * _sigma1(n), n)
    return _validate_kummer_table(n, table)


def hilbert_chern_numbers(model: SurfaceModel, k: int) -> ChernTable:
    """Chern numbers of the Hilbert scheme of k points on the surface.

    Checked integral, with the top number equal to Goettsche's Euler number
    and Todd genus 1 (a toric surface is rational, so chi(O) of S^[k] is 1:
    Ellingsrud-Goettsche-Lehn); a failure raises CheckError, one "check
    failed:" line in the CLI.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    euler = _hilbert_euler_number(model.c2, k)
    return _checked_table(f"k={k}", hilbert_genus(model, k), 2 * k, euler, 1)
