"""Exact arithmetic kernel: sparse graded polynomials and series of them.

``SPoly`` is a sparse polynomial in formal variables s1, s2, ... where s_j
carries weight j.  Nothing is truncated: the genus of a 2k-fold is
homogeneous of weight 2k, and every product the pipeline forms from such
genera is homogeneous too, so there are no terms to discard.

A truncated power series in z is the plain tuple of its SPoly
coefficients, z^0 first; its order is its length minus one.

Coefficients use gmpy2.mpq when available and fall back to the standard
library's Fraction.  Both are exact; results are identical.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Mapping

from .partitions import multiplicities

try:  # pragma: no cover - exercised implicitly by the whole suite
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

Monomial = tuple[int, ...]  # descending variable subscripts; () is the constant 1


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two descending subscript tuples."""
    return tuple(sorted(a + b, reverse=True))


def combo_mul(a: Mapping, b: Mapping) -> dict[Monomial, object]:
    """Product of two sparse combinations keyed by descending tuples.

    The one sparse product: SPoly terms and the symmetric-function bases
    (keyed by partitions) both multiply by merging keys.  Zero
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


def _wrap(terms: dict[Monomial, object]) -> "SPoly":
    # an SPoly around a dict already free of zero coefficients, not copied
    out = SPoly.__new__(SPoly)
    out.terms = terms
    return out


class SPoly:
    """Sparse polynomial in s1, s2, ... with exact coefficients.

    Terms are stored as a dict mapping descending subscript tuples to
    nonzero rational coefficients; (2, 1, 1) means s2*s1^2 and has weight 4.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    @classmethod
    def constant(cls, value) -> "SPoly":
        return cls({(): value})

    # -- queries -----------------------------------------------------------

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get((), 0) == 1

    def off_weight_part(self, w: int) -> "SPoly":
        return _wrap({m: c for m, c in self.terms.items() if sum(m) != w})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = c
            else:
                acc = acc + c
                if acc:
                    terms[mono] = acc
                else:
                    del terms[mono]
        return _wrap(terms)

    def __neg__(self):
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _wrap(combo_mul(self.terms, other.terms))

    def scale(self, c) -> "SPoly":
        if not c:
            return SPoly()
        return _wrap({m: v * c for m, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, SPoly) and self.terms == other.terms

    def __repr__(self):
        return f"SPoly({self!s})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m)):
            c = self.terms[mono]
            body = "*".join(
                f"s{part}" + (f"^{e}" if e > 1 else "")
                for part, e in multiplicities(mono).items()
            )
            if body:
                bits.append(f"{c}*{body}" if c != 1 else body)
            else:
                bits.append(str(c))
        return " + ".join(bits)


def _over_lcm(values: Mapping) -> tuple[dict, int]:
    # the rational values as integer numerators over the lcm of their denominators
    den = lcm(*(int(c.denominator) for c in values.values()))
    return {
        key: int(c.numerator) * (den // int(c.denominator)) for key, c in values.items()
    }, den


def zseries_log(H: tuple[SPoly, ...]) -> tuple[SPoly, ...]:
    """Formal logarithm of a series with constant coefficient 1.

    Same value as sum_{m>=1} (-1)^(m+1) (H-1)^m / m truncated at the order
    of H, computed through the derivative recurrence

        n L_n = n H_n - sum_{0<j<n} j L_j H_{n-j}

    on integers: each H_n is written as integer numerators over the lcm of
    its coefficients' denominators, each L_n is built over the lcm of the
    denominators of the terms on the right, times n, and then reduced by
    the gcd of that denominator and all its numerators.  Only the returned
    coefficients are rationals.
    """
    if not H[0].is_one():
        raise ValueError("log needs constant coefficient 1")
    h = [_over_lcm(c.terms) for c in H]
    logs: list[tuple[dict[Monomial, int], int]] = [({}, 1)]
    out = [SPoly()]
    for n in range(1, len(H)):
        # (factor, numerators, denominator) of each term of n L_n
        terms = [(n, *h[n])]
        for j in range(1, n):
            (lj, lden), (hk, hden) = logs[j], h[n - j]
            if lj and hk:
                terms.append((-j, combo_mul(lj, hk), lden * hden))
        den = lcm(*(t[2] for t in terms))
        acc: dict[Monomial, int] = {}
        for factor, numerators, d in terms:
            factor *= den // d
            for m, c in numerators.items():
                acc[m] = acc.get(m, 0) + factor * c
        acc = {m: c for m, c in acc.items() if c}
        g = gcd(n * den, *acc.values())
        acc = {m: c // g for m, c in acc.items()}
        den = n * den // g
        logs.append((acc, den))
        out.append(_wrap({m: Q(c, den) for m, c in acc.items()}))
    return tuple(out)


def zseries_euler_sq(H: tuple[SPoly, ...]) -> tuple[SPoly, ...]:
    """Apply (z d/dz)^2: the z^n coefficient is multiplied by n^2."""
    return tuple(c.scale(n * n) for n, c in enumerate(H))
