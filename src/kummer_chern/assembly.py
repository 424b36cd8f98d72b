"""Assembly of the Kummer-variety Chern numbers from Hilbert-scheme genera.

Write H(t) for the generating series whose z^k coefficient is the
universal genus of the Hilbert scheme of k surface points, twisted by
exp(t * x).  The combination

    (z d/dz)^2 [ ln H(1) + ln H(-1) - 2 ln H(0) ] / c1sq

is, coefficient by coefficient, the universal genus of the generalised
Kummer varieties: the z^n coefficient equals the genus of the 2(n-1)-fold
member of the family.  That coefficient must be homogeneous of weight
2(n-1); the raw right-hand side is asserted to vanish in every other
weight before the projection, since off-weight residue is the most
sensitive symptom of a grading bug.

Twisting by exp(t * x) multiplies the genus series f by e^{tx}, which in
the log-coefficient variables is the substitution s1 -> s1 + t.  The
logarithm of the twisted series is exactly quadratic in the twist, which
``universal_series_quadratic_check`` verifies via third differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import localization
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
    """The twisted log series failed to be quadratic in the twist."""


def hilbert_genus_series(
    model: SurfaceModel, n_max: int, twists: Sequence[int], weight_cap: int
) -> list[ZSeries]:
    """One series per twist t; its z^k coefficient is the t-twisted genus.

    Each k-point localization table is built once, read at every twist and
    dropped before the next k.
    """
    coeffs: list[list[SPoly]] = [[] for _ in twists]
    for k in range(n_max + 1):
        sums = localization.localized_sums(model, k, weight_cap)
        for column, t in zip(coeffs, twists):
            column.append(sums.genus_at(t, 2 * k))
    return [ZSeries(column) for column in coeffs]


# the one per-model store: the longest Kummer series assembled so far
_assembled: dict[SurfaceModel, ZSeries] = {}


def kummer_genus_series(model: SurfaceModel, n_max: int) -> ZSeries:
    """Universal genus of the Kummer family through z^n_max.

    The z^n coefficient is homogeneous of weight 2(n-1) (the member has
    complex dimension 2(n-1)), so all arithmetic is capped at weight
    2(n_max - 1).

    The longest series assembled for each model is kept.  A request with
    n_max at most its order is served by slicing it and lowering the cap to
    2(n_max - 1): every kept coefficient is homogeneous of a weight within
    that cap, so the slice equals the series assembled directly, and the
    higher cap only ran more of the vanishing and homogeneity checks.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    longest = _assembled.get(model)
    if longest is None or longest.order < n_max:
        longest = _assembled[model] = _assemble_kummer_series(model, n_max)
    if longest.order == n_max:
        return longest
    cap = 2 * (n_max - 1)
    return ZSeries([SPoly(cap, c.terms) for c in longest.coeffs[: n_max + 1]])


def _assemble_kummer_series(model: SurfaceModel, n_max: int) -> ZSeries:
    plus, minus, zero = hilbert_genus_series(model, n_max, (1, -1, 0), 2 * (n_max - 1))
    log_combined = zseries_log(plus) + zseries_log(minus) - zseries_log(zero).scale(2)
    raw = zseries_euler_sq(log_combined).scale(Q(1, model.c1sq))
    coeffs = [raw[0]]
    for n in range(1, n_max + 1):
        w = 2 * (n - 1)
        residue = raw[n].off_weight_part(w)
        if not residue.is_zero():
            raise HomogeneityError(
                f"z^{n} coefficient has off-weight part {residue} "
                f"(expected pure weight {w})"
            )
        coeffs.append(raw[n].weight_part(w))
    if not raw[0].is_zero():
        raise HomogeneityError(f"constant coefficient is {raw[0]}, expected 0")
    return ZSeries(coeffs)


@dataclass(frozen=True)
class KummerResult:
    """Chern numbers of the 2(n-1)-dimensional Kummer-family member.

    ``chern`` keeps only the partitions into even parts; entries with an
    odd part are identically zero (the manifold is holomorphic symplectic)
    and are checked, then dropped.  ``advisories`` reports positivity or
    divisibility surprises for n > 8 where they are conjectural.
    """

    n: int
    dimension: int
    chern: ChernTable
    advisories: tuple[str, ...] = field(default=())


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
    genus = hilbert_genus(model, k, 0, 2 * k)
    d = 2 * k
    table = chern_from_power_integrals(power_integrals_from_genus_poly(genus, d), d)
    for mu in table.sorted_keys():
        if table[mu].denominator != 1:
            raise TableValidationError(
                f"k={k}: entry {mu} = {table[mu]} is not integral"
            )
    return ChernTable(d, {mu: int(table[mu]) for mu in table.sorted_keys()})


@dataclass(frozen=True)
class QuadraticCheckReport:
    """Outcome of the quadratic-in-twist verification."""

    n_max: int
    twists: tuple[int, ...]
    windows_checked: int


def third_difference_defect(logs: Mapping[int, ZSeries], m0: int) -> ZSeries:
    """L(m0+3) - 3 L(m0+2) + 3 L(m0+1) - L(m0); zero iff quadratic there."""
    return (
        logs[m0 + 3]
        - logs[m0 + 2].scale(3)
        + logs[m0 + 1].scale(3)
        - logs[m0]
    )


def universal_series_quadratic_check(
    model: SurfaceModel, n_max: int
) -> QuadraticCheckReport:
    """Verify that ln of the twisted Hilbert series is quadratic in the twist.

    Builds the series for twists -2..2 and requires both third finite
    differences to vanish exactly, coefficient by coefficient, through
    z^n_max.
    """
    twists = (-2, -1, 0, 1, 2)
    series = hilbert_genus_series(model, n_max, twists, 2 * n_max)
    logs = {m: zseries_log(s) for m, s in zip(twists, series)}
    windows = 0
    for m0 in twists[: len(twists) - 3]:
        defect = third_difference_defect(logs, m0)
        for n, coeff in enumerate(defect.coeffs):
            if not coeff.is_zero():
                raise QuadraticCheckError(
                    f"third difference at twists {m0}..{m0 + 3} has z^{n} "
                    f"coefficient {coeff}"
                )
        windows += 1
    return QuadraticCheckReport(n_max, twists, windows)
