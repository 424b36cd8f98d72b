"""Symmetric-function layer: Chern numbers vs power-sum integrals.

The Chern classes of a manifold are the elementary symmetric functions of
its Chern roots, while localization most naturally produces power sums of
the roots.  Products of basis elements are indexed by partitions, and
multiplying two indexed elements concatenates the index partitions, so a
linear combination is just a dict mapping partitions to coefficients.

Both directions of the conversion are one depth-first product walk over
the partitions of the degree d: the row of mu is the product of the
factors of its parts, and a child's row is its new part's factor times
its parent's row, so only the rows on the current path are alive.  The
rows keep only the keys whose parts the data use: a Kummer table uses no
odd part (power integrals with an odd part vanish on a hyper-Kaehler
manifold), a Hilbert table uses every part.  The factors have integer
coefficients,

    p_r    = sum_{lam |- r} (-1)^(r - l(lam)) r (l(lam) - 1)! / m(lam) * e_lam ,
    r! e_r = sum_{nu |- r} (-1)^(r - l(nu)) r! / z_nu * p_nu

(Girard-Waring, and Macdonald I, 2.14'), where l is the number of parts,
m(lam) = prod_j mult_j(lam)! and z_nu = m(nu) prod_i nu_i.  The power-sum
integrals P_lam are the rows of the p_r walk dotted with the Chern
numbers, and each Chern number c_mu is the row of prod_i mu_i! e_mu
dotted with the P_nu, divided exactly by prod_i mu_i!.  Each entry is
read off its own row, independently of the others, so it is integral
exactly when its division is exact.

A genus with series f(x) = exp(sum_j l_j x^j) takes the value

    sum_{lam |- d} (prod_i l_{lam_i}) / (prod_j mult_j(lam)!) * P_lam

on a d-fold with power-sum integrals P_lam = integral of p_lam.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import polyring
from .partitions import Partition, enumerate_partitions, multiplicities, sym_factor
from .polyring import SPoly, combo_mul, zseries_log

# A linear combination of p_lam (or e_lam) basis elements.
Combo = dict[Partition, object]


class ChernTable:
    """All Chern numbers of one manifold of (even) complex dimension ``degree``.

    numbers maps each partition mu of the degree to the integral of
    c_{mu_1} c_{mu_2} ...; a genuine compact complex manifold gives integers.
    Every key is checked to be a partition of the degree (positive parts,
    largest first) at construction.  Two tables are equal when their
    degrees and numbers are.
    """

    __slots__ = ("degree", "numbers")

    def __init__(self, degree: int, numbers: Mapping[Partition, object]):
        for mu in numbers:
            descending = list(mu) == sorted(mu, reverse=True)
            if sum(mu) != degree or not descending or (mu and mu[-1] < 1):
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
        """Value for positive parts mu of the degree, in any order; omitted entries are 0."""
        parts = tuple(sorted(mu, reverse=True))
        if sum(parts) != self.degree or (parts and parts[-1] < 1):
            raise KeyError(f"{tuple(mu)} is not a partition of {self.degree}")
        return self.numbers.get(parts, 0)

    def sorted_keys(self) -> list[Partition]:
        return sorted(self.numbers)

    def top(self) -> object:
        """The top Chern number (Euler number)."""
        key = (self.degree,) if self.degree else ()
        return self.numbers.get(key, 0)


def _power_coefficient(r: int, lam: Partition) -> int:
    # coefficient of e_lam in p_r (Girard-Waring); the division is exact
    return (-1) ** (r - len(lam)) * r * factorial(len(lam) - 1) // sym_factor(lam)


def _elementary_coefficient(r: int, nu: Partition) -> int:
    # coefficient of p_nu in r! e_r: r! / z_nu counts the permutations of type nu
    return (-1) ** (r - len(nu)) * factorial(r) // (sym_factor(nu) * prod(nu))


def _product_rows(
    coefficient: Callable[[int, Partition], int], d: int, support: Iterable[Partition]
) -> Iterator[tuple[Partition, Combo]]:
    """(mu, prod_i factor(mu_i)) for every partition mu of d, depth first.

    factor(r) is {lam: coefficient(r, lam) for lam |- r}, keeping only the
    lam whose parts all occur in the keys of support, the data's nonzero
    entries.  A product's key has a part exactly when one of its factors'
    keys has, so a dropped key meets only zeros of the data: every dot
    product with them is the same as on the full rows.

    A child of mu puts a part >= mu[0] in front, and its row is that part's
    factor times the row of mu; it leaves a remainder of 0 or at least its
    part, so every path ends at a partition of d.  Larger parts are tried
    first, so the partitions come in decreasing order read from their
    smallest part: (4,), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1) for d = 4.
    """
    parts = {part for key in support for part in key}
    factors = [{(): 1}] + [
        {lam: coefficient(r, lam) for lam in enumerate_partitions(r) if parts.issuperset(lam)}
        for r in range(1, d + 1)
    ]

    def walk(mu: Partition, row: Combo, rest: int):
        # rest is d - |mu|
        if not rest:
            yield mu, row
            return
        smallest = mu[0] if mu else 1
        for part in (rest, *range(rest // 2, smallest - 1, -1)):
            yield from walk((part, *mu), combo_mul(factors[part], row), rest - part)

    return walk((), factors[0], d)


def chern_from_power_integrals(P: SPoly, d: int) -> ChernTable:
    """Convert power-sum integrals P_lam (lam |- d) to Chern numbers.

    P is the SPoly sum_lam P_lam s_lam, integer numerators over one
    denominator D, as power_integrals_from_genus_poly and
    power_integrals_from_chern give it; an absent term is a zero.  c_mu is
    the row of prod_i mu_i! e_mu in the power-sum basis dotted with P,
    divided exactly by prod_i mu_i!.  So the dot products run on ints and
    c_mu is integral exactly when D * prod_i mu_i! divides its total.  The
    rows keep only the parts of P's keys (see _product_rows).  The entries
    come in the order of the walk: (d,) first, (1, ..., 1) last.  Raises
    ValueError at the first entry in that order that is not integral.
    """
    numerators, D = P.terms, P.den
    numbers = {}
    for mu, row in _product_rows(_elementary_coefficient, d, numerators):
        total = sum(c * numerators.get(nu, 0) for nu, c in row.items())
        scale = D * prod(map(factorial, mu))
        if total % scale:
            raise ValueError(f"entry {mu} = {polyring.Q(total, scale)} is not integral")
        numbers[mu] = total // scale
    return ChernTable(d, numbers)


def power_integrals_from_chern(table: ChernTable) -> SPoly:
    """Inverse conversion: the SPoly sum_lam P_lam s_lam from the Chern numbers.

    The rows are integral, so an integral table gives den 1.  They keep
    only the parts of the table's nonzero entries (see _product_rows).
    """
    numbers = table.numbers
    support = [mu for mu, c in numbers.items() if c]
    rows = _product_rows(_power_coefficient, table.degree, support)
    return SPoly(
        {lam: sum(c * numbers.get(mu, 0) for mu, c in row.items()) for lam, row in rows}
    )


def power_integrals_from_genus_poly(g: SPoly, d: int) -> SPoly:
    """Read P_lam off a universal-genus value, as the SPoly sum_lam P_lam s_lam.

    The coefficient of the monomial s_lam is P_lam divided by the product
    of multiplicity factorials, so the extraction multiplies its numerator
    back; terms of other weights than d are left out.
    """
    terms = g.terms
    return SPoly.over(
        {lam: terms[lam] * sym_factor(lam) for lam in enumerate_partitions(d) if lam in terms},
        g.den,
    )


def genus_value(g: SPoly, ell: SPoly) -> tuple[int, int]:
    """Substitute l_j for s_j in g, for ell the linear form sum_j l_j s_j.

    The value is returned as an integer numerator and denominator, not
    reduced.  With g's terms b_lam over C, l_j = a_j / L over ell's den L
    and m the largest number of parts of a lam,

        value = sum_lam b_lam * prod_i a_{lam_i} * L^(m - l(lam)) / (C * L^m) .
    """
    a, L = ell.terms, ell.den
    m = max(map(len, g.terms), default=0)
    total = sum(
        c * prod(a.get((j,), 0) for j in lam) * L ** (m - len(lam))
        for lam, c in g.terms.items()
    )
    return total, g.den * L**m


def evaluate_genus(table: ChernTable, ell: Sequence[object]) -> object:
    """Value on ``table`` of the genus with series f(x) = exp(sum l_j x^j).

    ell[j-1] is l_j; entries up to the table degree are required.  The
    value is a Q.
    """
    d = table.degree
    if len(ell) < d:
        raise ValueError(f"need {d} log-coefficients, got {len(ell)}")
    P = power_integrals_from_chern(table)
    F = factorial(d)  # a multiple of every sym_factor(lam) with |lam| = d
    g = SPoly.over({lam: p * (F // sym_factor(lam)) for lam, p in P.terms.items()}, P.den * F)
    return polyring.Q(*genus_value(g, SPoly({(j,): l for j, l in enumerate(ell[:d], 1)})))


# -- genus presets ---------------------------------------------------------


def _log_form(series: list[SPoly]) -> SPoly:
    # sum_j l_j s_j, for log(sum_k a_k x^k) = sum_j l_j x^j with the a_k constant SPolys
    form = SPoly()
    for j, c in enumerate(zseries_log(tuple(series))[1:], 1):
        form = form + c * SPoly.over({(j,): 1}, 1)
    return form


@lru_cache(maxsize=None)
def genus_log_form(name: str, count: int) -> SPoly:
    """The linear form l_1 s_1 + ... + l_count s_count of a named genus preset.

    l_j is the x^j coefficient of log f:

    todd:      f(x) = x / (1 - exp(-x))
    euler:     f(x) = 1 + x
    signature: f(x) = x / tanh(x)
    """
    n = count + 1
    if name == "euler":
        return _log_form([SPoly.constant(1) if k < 2 else SPoly() for k in range(n)])
    if name == "todd":
        # log f = -log((1 - e^-x) / x)
        return -_log_form([SPoly.over({(): (-1) ** k}, factorial(k + 1)) for k in range(n)])
    if name == "signature":
        # log f = log cosh x - log(sinh x / x)
        cosh = [SPoly.over({(): 1 - k % 2}, factorial(k)) for k in range(n)]
        sinh_over_x = [SPoly.over({(): 1 - k % 2}, factorial(k + 1)) for k in range(n)]
        return _log_form(cosh) - _log_form(sinh_over_x)
    raise ValueError(f"unknown genus preset {name!r}")


def genus_log_coefficients(name: str, count: int) -> tuple:
    """log f coefficients (l_1, ..., l_count), as Qs, for a named genus preset.

    See genus_log_form for the presets.
    """
    form = genus_log_form(name, count)
    return tuple(form.coefficient((j,)) for j in range(1, count + 1))


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
