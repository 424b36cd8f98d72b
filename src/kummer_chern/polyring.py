"""Exact arithmetic kernel: truncated graded polynomials and series.

Two layers, both with exact rational coefficients:

* ``SPoly`` -- a sparse polynomial in formal variables s1, s2, ... where
  s_j carries weight j.  Every SPoly has a weight cap W; terms of weight
  above W are discarded by construction, so products are truncated exactly.
* ``ZSeries`` -- a truncated power series in z with SPoly coefficients.

Coefficients use gmpy2.mpq when available and fall back to the standard
library's Fraction.  Both are exact; results are identical.
"""

from __future__ import annotations

from typing import Iterable, Mapping

try:  # pragma: no cover - exercised implicitly by the whole suite
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

Monomial = tuple[int, ...]  # descending variable subscripts; () is the constant 1


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two descending subscript tuples."""
    return tuple(sorted(a + b, reverse=True))


class SPoly:
    """Sparse polynomial in s1, s2, ... truncated at a fixed total weight.

    Terms are stored as a dict mapping descending subscript tuples to
    nonzero rational coefficients; (2, 1, 1) means s2*s1^2 and has weight 4.
    """

    __slots__ = ("cap", "terms")

    def __init__(self, cap: int, terms: Mapping[Monomial, object] | None = None):
        if cap < 0:
            raise ValueError("weight cap must be nonnegative")
        self.cap = cap
        clean: dict[Monomial, object] = {}
        if terms:
            for mono, c in terms.items():
                if c and sum(mono) <= cap:
                    clean[mono] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, cap: int) -> "SPoly":
        return cls(cap)

    @classmethod
    def constant(cls, value, cap: int) -> "SPoly":
        return cls(cap, {(): value})

    # -- queries -----------------------------------------------------------

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get((), 0) == 1

    def off_weight_part(self, w: int) -> "SPoly":
        return SPoly(self.cap, {m: c for m, c in self.terms.items() if sum(m) != w})

    # -- arithmetic ----------------------------------------------------------

    def _check_cap(self, other: "SPoly") -> None:
        if self.cap != other.cap:
            raise ValueError(f"weight cap mismatch: {self.cap} != {other.cap}")

    def __add__(self, other):
        if not isinstance(other, SPoly):
            return self + SPoly.constant(other, self.cap)
        self._check_cap(other)
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
        out = SPoly.__new__(SPoly)
        out.cap = self.cap
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = SPoly.__new__(SPoly)
        out.cap = self.cap
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, SPoly):
            other = SPoly.constant(other, self.cap)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SPoly):
            return self.scale(other)
        self._check_cap(other)
        cap = self.cap
        # bucket by weight so pairs over the cap are never formed
        mine = _weight_buckets(self.terms)
        theirs = _weight_buckets(other.terms)
        acc: dict[Monomial, object] = {}
        for w1, items1 in mine.items():
            for w2, items2 in theirs.items():
                if w1 + w2 > cap:
                    continue
                for m1, c1 in items1:
                    for m2, c2 in items2:
                        key = monomial_mul(m1, m2)
                        c = c1 * c2
                        old = acc.get(key)
                        if old is None:
                            acc[key] = c
                        else:
                            acc[key] = old + c
        return SPoly(cap, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "SPoly":
        if not c:
            return SPoly.zero(self.cap)
        out = SPoly.__new__(SPoly)
        out.cap = self.cap
        out.terms = {m: v * c for m, v in self.terms.items()}
        return out

    def __eq__(self, other):
        if isinstance(other, SPoly):
            return self.cap == other.cap and self.terms == other.terms
        # scalar comparison
        if not self.terms:
            return other == 0
        return len(self.terms) == 1 and self.terms.get((), 0) == other

    def __repr__(self):
        return f"SPoly(cap={self.cap}, {self!s})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m)):
            c = self.terms[mono]
            factors = []
            i = 0
            while i < len(mono):
                j = i
                while j < len(mono) and mono[j] == mono[i]:
                    j += 1
                e = j - i
                factors.append(f"s{mono[i]}" + (f"^{e}" if e > 1 else ""))
                i = j
            body = "*".join(factors)
            if body:
                bits.append(f"{c}*{body}" if c != 1 else body)
            else:
                bits.append(str(c))
        return " + ".join(bits)


def _weight_buckets(terms: Mapping[Monomial, object]):
    buckets: dict[int, list] = {}
    for mono, c in terms.items():
        buckets.setdefault(sum(mono), []).append((mono, c))
    return buckets


class ZSeries:
    """Truncated power series in z with SPoly coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[SPoly]):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("ZSeries needs at least the z^0 coefficient")
        cap = self.coeffs[0].cap
        if any(c.cap != cap for c in self.coeffs):
            raise ValueError("mixed weight caps in ZSeries")

    @classmethod
    def from_scalars(cls, values: Iterable[object], weight_cap: int) -> "ZSeries":
        return cls([SPoly.constant(v, weight_cap) for v in values])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def weight_cap(self) -> int:
        return self.coeffs[0].cap

    def __getitem__(self, n: int) -> SPoly:
        return self.coeffs[n]

    def scale(self, c) -> "ZSeries":
        return ZSeries([p.scale(c) for p in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, ZSeries) and self.coeffs == other.coeffs

    def __repr__(self):
        body = ", ".join(f"z^{n}: {c}" for n, c in enumerate(self.coeffs))
        return f"ZSeries({body})"


def zseries_log(H: ZSeries) -> ZSeries:
    """Formal logarithm of a series with constant coefficient 1.

    Same value as sum_{m>=1} (-1)^(m+1) (H-1)^m / m truncated at the order
    of H, computed through the derivative recurrence.
    """
    if not H.coeffs[0].is_one():
        raise ValueError("log needs constant coefficient 1")
    N, W = H.order, H.weight_cap
    L = [SPoly.zero(W)]
    for n in range(1, N + 1):
        acc = H.coeffs[n]
        for j in range(1, n):
            acc = acc - (L[j] * H.coeffs[n - j]).scale(Q(j, n))
        L.append(acc)
    return ZSeries(L)


def zseries_euler_sq(H: ZSeries) -> ZSeries:
    """Apply (z d/dz)^2: the z^n coefficient is multiplied by n^2."""
    return ZSeries([c.scale(n * n) for n, c in enumerate(H.coeffs)])
