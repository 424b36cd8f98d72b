"""Exact arithmetic kernel: sparse graded polynomials and series of them.

``SPoly`` is a sparse polynomial in formal variables s1, s2, ... where s_j
carries weight j.  Nothing is truncated: the genus of a 2k-fold is
homogeneous of weight 2k, and every product the pipeline forms from such
genera is homogeneous too, so there are no terms to discard.

A truncated power series in z is the plain tuple of its SPoly
coefficients, z^0 first; its order is its length minus one.

The pipeline runs on integers: an SPoly is integer numerators over one
denominator, from the localization kernel to the Chern table.  Three
primitives do all its arithmetic: _reduced, the normal form (divided by
the gcd of the denominator and every numerator); _combination, sums with
integer factors over the lcm of the denominators; and combo_mul,
products.  Q, the type of the rationals the library returns (genus
values, log-coefficients, single coefficients and check messages), is
the standard library's Fraction.  It is resolved on first use, so a run
that returns only integers does not import fractions.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Mapping

from .partitions import multiplicities

Monomial = tuple[int, ...]  # descending variable subscripts; () is the constant 1


def __getattr__(name: str):
    # Q on first use; it is then a module global and this is not called again
    if name != "Q":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global Q
    from fractions import Fraction as Q
    return Q


def _rational(num: int, den: int):
    # num / den as a Q; code in this module reads Q past its __getattr__
    return (globals().get("Q") or __getattr__("Q"))(num, den)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two descending subscript tuples."""
    return tuple(sorted(a + b, reverse=True))


def combo_mul(a: Mapping, b: Mapping) -> dict[Monomial, object]:
    """Product of two sparse combinations keyed by descending tuples.

    The one sparse product: SPoly numerators and the symmetric-function
    bases (keyed by partitions) both multiply by merging keys.  Zero
    coefficients are dropped.
    """
    out: dict[Monomial, object] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = monomial_mul(ma, mb)
            c = ca * cb
            old = out.get(key)
            out[key] = c if old is None else old + c
    return {k: v for k, v in out.items() if v}


def _reduced(terms: dict[Monomial, int], den: int) -> "SPoly":
    # the SPoly of the nonzero numerators terms over den > 0, divided by
    # their common gcd; terms is owned, not copied
    g = gcd(den, *terms.values())
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
        den //= g
    out = SPoly.__new__(SPoly)
    out.terms, out.den = terms, den
    return out


def _combination(parts) -> "SPoly":
    # the reduced SPoly of sum factor * numerators / d over the sequence of parts
    # (factor, numerators, d), for int factors and numerators and d > 0:
    # the numerators go over the lcm of the d, and zero sums drop
    den = lcm(*(d for _, _, d in parts))
    acc: dict[Monomial, int] = {}
    for factor, numerators, d in parts:
        factor *= den // d
        for m, c in numerators.items():
            acc[m] = acc.get(m, 0) + factor * c
    return _reduced({m: c for m, c in acc.items() if c}, den)


class SPoly:
    """Sparse polynomial in s1, s2, ... with exact rational coefficients.

    It is held as integer numerators over one denominator: terms maps
    descending subscript tuples to nonzero ints, (2, 1, 1) meaning s2*s1^2
    of weight 4, and den is a positive int.  The form is reduced, with
    gcd(den, *numerators) == 1, so it is unique: den is the lcm of the
    reduced denominators of the coefficients, and the zero polynomial has
    den 1.  Two polynomials are equal when their terms and dens are.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        # int or rational coefficients, each its numerator over its own
        # denominator; the combination of them is the reduced form
        parts = [(1, {m: c.numerator}, c.denominator) for m, c in (terms or {}).items()]
        out = _combination(parts)
        self.terms, self.den = out.terms, out.den

    @classmethod
    def over(cls, numerators: Mapping[Monomial, int], den: int) -> "SPoly":
        """The polynomial with these integer numerators over den > 0."""
        return _reduced({m: c for m, c in numerators.items() if c}, den)

    # -- queries -----------------------------------------------------------

    def coefficient(self, mono: Monomial):
        """The coefficient of mono, a Q; its subscripts may come in any order."""
        return _rational(self.terms.get(tuple(sorted(mono, reverse=True)), 0), self.den)

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.den == 1 and self.terms == {(): 1}

    def off_weight_part(self, w: int) -> "SPoly":
        return _reduced({m: c for m, c in self.terms.items() if sum(m) != w}, self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return _combination(((1, self.terms, self.den), (1, other.terms, other.den)))

    def __neg__(self):
        return _reduced({m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return _combination(((1, self.terms, self.den), (-1, other.terms, other.den)))

    def __mul__(self, other):
        return _reduced(combo_mul(self.terms, other.terms), self.den * other.den)

    def scale(self, c, den: int = 1) -> "SPoly":
        """This polynomial times c / den, for an int or rational c and an int den."""
        num, den = c.numerator, c.denominator * den
        if not den:
            raise ZeroDivisionError("SPoly scaled by a zero denominator")
        if den < 0:
            num, den = -num, -den
        if not num:
            return SPoly()
        return _reduced({m: v * num for m, v in self.terms.items()}, self.den * den)

    def __eq__(self, other):
        return isinstance(other, SPoly) and (self.den, self.terms) == (other.den, other.terms)

    def __repr__(self):
        return f"SPoly({self!s})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m)):
            c = _rational(self.terms[mono], self.den)
            body = "*".join(
                f"s{part}" + (f"^{e}" if e > 1 else "")
                for part, e in multiplicities(mono).items()
            )
            if body:
                bits.append(f"{c}*{body}" if c != 1 else body)
            else:
                bits.append(str(c))
        return " + ".join(bits)


def zseries_log(H: tuple[SPoly, ...]) -> tuple[SPoly, ...]:
    """Formal logarithm of a series with constant coefficient 1.

    Same value as sum_{m>=1} (-1)^(m+1) (H-1)^m / m truncated at the order
    of H, computed through the derivative recurrence

        L_n = H_n - sum_{0<j<n} (j/n) L_j H_{n-j}

    on integers: each L_n is one combination (see _combination) of the
    numerators of H_n and of the products L_j H_{n-j}, the latter over
    n times their denominators.
    """
    if not H[0].is_one():
        raise ValueError("log needs constant coefficient 1")
    logs = [SPoly()]
    for n in range(1, len(H)):
        parts = [(1, H[n].terms, H[n].den)]
        for j in range(1, n):
            lj, hk = logs[j], H[n - j]
            parts.append((-j, combo_mul(lj.terms, hk.terms), n * lj.den * hk.den))
        logs.append(_combination(parts))
    return tuple(logs)


def zseries_euler_sq(H: tuple[SPoly, ...]) -> tuple[SPoly, ...]:
    """Apply (z d/dz)^2: the z^n coefficient is multiplied by n^2."""
    return tuple(c.scale(n * n) for n, c in enumerate(H))
