"""Symmetric-function layer: Chern numbers vs power-sum integrals.

The Chern classes of a manifold are the elementary symmetric functions of
its Chern roots, while localization most naturally produces power sums of
the roots.  One transition matrix serves both directions: the expansion of
the power sums in the elementary basis (the Girard-Waring formula),

    p_r = sum_{lam |- r} (-1)^(r - l(lam)) r (l(lam) - 1)! / m(lam) * e_lam

where l(lam) is the number of parts and m(lam) = prod_j mult_j(lam)!.  Its
entries are integers.  Products of basis elements are indexed by
partitions, and multiplying two indexed elements concatenates the index
partitions, so a linear combination is just a dict mapping partitions to
coefficients.  The expansion of p_lam is its first factor times the cached
expansion of the product of the remaining parts.

Reading the Chern numbers c_mu off the power-sum integrals

    P_lam = sum_mu M[lam][mu] c_mu ,   M[lam][mu] = coefficient of e_mu in p_lam,

is a triangular solve: the row of lam reads only partitions mu that refine
lam, and its diagonal entry is prod_i (-1)^(lam_i - 1) lam_i.  Walking the
partitions from most parts to fewest, each c_lam is one exact division by
that diagonal.  Tables of genuine manifolds are integral, so the solve
runs on integers: an integral P_lam is carried as an int and every division
must come out exact.  With the earlier entries integral, an entry is
integral exactly when its power integral is integral and its row divides
exactly, so the first inexact row is the first non-integral entry, and
the solve raises there.

A genus with series f(x) = exp(sum_j l_j x^j) takes the value

    sum_{lam |- d} (prod_i l_{lam_i}) / (prod_j mult_j(lam)!) * P_lam

on a d-fold with power-sum integrals P_lam = integral of p_lam.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm, prod
from typing import Mapping, Sequence

from .partitions import Partition, enumerate_partitions, multiplicities, sym_factor
from .polyring import Q, SPoly, combo_mul, zseries_log

# A linear combination of p_lam (or e_lam) basis elements.
Combo = dict[Partition, object]


@lru_cache(maxsize=None)
def power_in_elementary_basis(r: int) -> Mapping[Partition, int]:
    """Expansion of p_r in the elementary-symmetric basis (Girard-Waring).

    The coefficients are integers: r (l - 1)! / m(lam) is the sum over the
    distinct parts j of j times a multinomial coefficient of l - 1.
    """
    if r < 0:
        raise ValueError("negative index")
    if r == 0:
        return {(): 1}
    return {
        lam: (-1) ** (r - len(lam)) * r * factorial(len(lam) - 1) // sym_factor(lam)
        for lam in enumerate_partitions(r)
    }


@lru_cache(maxsize=None)
def power_product_in_elementary_basis(lam: Partition) -> Combo:
    """Expansion of p_lam in the elementary-symmetric basis, integer entries.

    Cached; treat the returned dict as immutable.
    """
    if not lam:
        return {(): 1}
    return combo_mul(
        power_in_elementary_basis(lam[0]), power_product_in_elementary_basis(lam[1:])
    )


class ChernTable:
    """All Chern numbers of one manifold of (even) complex dimension ``degree``.

    numbers maps each partition mu of the degree to the integral of
    c_{mu_1} c_{mu_2} ...; a genuine compact complex manifold gives integers.
    Every key is checked to be a partition of the degree at construction.
    Two tables are equal when their degrees and numbers are.
    """

    __slots__ = ("degree", "numbers")

    def __init__(self, degree: int, numbers: Mapping[Partition, object]):
        for mu in numbers:
            if sum(mu) != degree:
                raise ValueError(f"{mu} is not a partition of {degree}")
        self.degree = degree
        self.numbers = numbers

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.numbers) == (other.degree, other.numbers)

    def __repr__(self) -> str:
        return f"ChernTable(degree={self.degree!r}, numbers={self.numbers!r})"

    def __getitem__(self, mu) -> object:
        """Value for a partition of the degree; omitted entries are 0."""
        mu = tuple(mu)
        if sum(mu) != self.degree:
            raise KeyError(f"{mu} is not a partition of {self.degree}")
        return self.numbers.get(mu, 0)

    def sorted_keys(self) -> list[Partition]:
        return sorted(self.numbers)

    def top(self) -> object:
        """The top Chern number (Euler number)."""
        key = (self.degree,) if self.degree else ()
        return self.numbers.get(key, 0)


def chern_from_power_integrals(P: Mapping[Partition, object], d: int) -> ChernTable:
    """Convert power-sum integrals P_lam (lam |- d) to Chern numbers.

    Solves P_lam = sum_mu M[lam][mu] c_mu on the rows of
    power_product_in_elementary_basis, from most parts to fewest, so every
    c_mu a row reads is known before the row is reached.  An integral P_lam
    is carried as an int, and c_lam is the row's remainder divided exactly
    by its diagonal.  Raises ValueError at the first entry that is not
    integral.
    """
    numbers = {}
    for lam in sorted(enumerate_partitions(d), key=len, reverse=True):
        try:
            total = P[lam]
        except KeyError:
            raise KeyError(f"power integral for {lam} missing") from None
        if total.denominator == 1:
            total = int(total)
        row = power_product_in_elementary_basis(lam)
        for mu, c in row.items():
            if mu != lam:
                total -= c * numbers[mu]
        diagonal = row[lam]
        if type(total) is not int or total % diagonal:
            raise ValueError(f"entry {lam} = {Q(total, diagonal)} is not integral")
        numbers[lam] = total // diagonal
    return ChernTable(d, numbers)


def power_integrals_from_chern(table: ChernTable) -> dict[Partition, object]:
    """Inverse conversion: P_lam from the Chern numbers.

    The rows are integral, so an integral table gives int entries.
    """
    d = table.degree
    out = {}
    for lam in enumerate_partitions(d):
        total = 0
        for mu, c in power_product_in_elementary_basis(lam).items():
            total += c * table[mu]
        out[lam] = total
    return out


def power_integrals_from_genus_poly(g: SPoly, d: int) -> dict[Partition, object]:
    """Read P_lam off a universal-genus value.

    The coefficient of the monomial s_lam is P_lam divided by the product
    of multiplicity factorials, so the extraction multiplies it back.
    """
    return {
        lam: g.coefficient(lam) * sym_factor(lam) for lam in enumerate_partitions(d)
    }


def genus_value(terms: Mapping[Partition, object], ell: Sequence[object]) -> object:
    """sum_lam c_lam prod_i l_{lam_i}: substitute l_j for s_j in sum c_lam s_lam.

    The sum runs on integers.  Over common denominators, l_j = a_j / L and
    c_lam = b_lam / C, so with m the largest number of parts of a lam

        value = sum_lam b_lam * prod_i a_{lam_i} * L^(m - l(lam)) / (C * L^m) ,

    and one rational is built, at the end.
    """
    ell = ell[: max((lam[0] for lam in terms if lam), default=0)]
    L = lcm(*(int(x.denominator) for x in ell))
    a = [int(x.numerator) * (L // int(x.denominator)) for x in ell]
    C = lcm(*(int(c.denominator) for c in terms.values()))
    m = max(map(len, terms), default=0)
    total = sum(
        int(c.numerator) * (C // int(c.denominator))
        * prod(a[j - 1] for j in lam) * L ** (m - len(lam))
        for lam, c in terms.items()
    )
    return Q(total, C * L**m)


def evaluate_genus(table: ChernTable, ell: Sequence[object]) -> object:
    """Value on ``table`` of the genus with series f(x) = exp(sum l_j x^j).

    ell[j-1] is l_j; entries up to the table degree are required.
    """
    d = table.degree
    if len(ell) < d:
        raise ValueError(f"need {d} log-coefficients, got {len(ell)}")
    P = power_integrals_from_chern(table)
    return genus_value({lam: Q(P[lam], sym_factor(lam)) for lam in P}, ell)


# -- genus presets ---------------------------------------------------------


def _log_coefficients(a: list) -> list:
    # log of the scalar series a (a[0] == 1), coefficients from x^1 on
    log = zseries_log(tuple(SPoly.constant(v) for v in a))
    return [Q(c.coefficient(())) for c in log[1:]]


@lru_cache(maxsize=None)
def genus_log_coefficients(name: str, count: int) -> tuple:
    """log f coefficients (l_1, ..., l_count) for a named genus preset.

    todd:      f(x) = x / (1 - exp(-x))
    euler:     f(x) = 1 + x
    signature: f(x) = x / tanh(x)
    """
    n = count + 1
    if name == "euler":
        ell = [Q((-1) ** (j + 1), j) for j in range(1, n)]
    elif name == "todd":
        # log f = -log((1 - e^-x) / x)
        denom = [Q((-1) ** k, factorial(k + 1)) for k in range(n)]
        ell = [-c for c in _log_coefficients(denom)]
    elif name == "signature":
        # log f = log cosh x - log(sinh x / x)
        cosh = [Q(1 - k % 2, factorial(k)) for k in range(n)]
        sinh_over_x = [Q(1 - k % 2, factorial(k + 1)) for k in range(n)]
        log_cosh, log_sinh_over_x = map(_log_coefficients, (cosh, sinh_over_x))
        ell = [a - b for a, b in zip(log_cosh, log_sinh_over_x)]
    else:
        raise ValueError(f"unknown genus preset {name!r}")
    return tuple(ell)


GENUS_PRESETS = ("todd", "euler", "signature")


# -- Chern-number key rendering ---------------------------------------------


def format_chern_key(mu: Partition) -> str:
    """Render a partition as a Chern monomial: (4, 2, 2) -> 'c2^2 c4'."""
    if not mu:
        return "1"
    return " ".join(
        f"c{part}" + (f"^{e}" if e > 1 else "")
        for part, e in multiplicities(sorted(mu)).items()
    )
