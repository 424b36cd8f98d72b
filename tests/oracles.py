"""Independent brute-force oracles used to pin the library's conventions.

Everything here is deliberately written against different definitions than
the library: partitions by ascending composition, counting through the
divisor-sum recurrence, cell legs by scanning the rows below, tangent
weights through explicit module maps, symmetric functions as honest
polynomials in a finite set of variables, the localized class of each
fixed point as a literal truncated exponential, the exponential of a scalar
series as the sum of its powers, and the elementary symmetric functions in
the power-sum basis by their closed form, the inverse of the library's one
transition matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from typing import Iterable, NamedTuple

from kummer_chern.localization import (
    FixedPoint,
    SurfaceModel,
    fixed_points,
    tangent_data,
)
from kummer_chern.partitions import Partition, enumerate_partitions, sym_factor
from kummer_chern.polyring import Monomial, Q, SPoly, ZSeries, combo_mul
from kummer_chern.symfun import Combo


# -- partitions --------------------------------------------------------------


def partitions_ascending(k: int) -> set[tuple[int, ...]]:
    """Partitions of k via ascending compositions, as descending tuples."""
    out: set[tuple[int, ...]] = set()

    def walk(rest: int, smallest: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.add(tuple(sorted(acc, reverse=True)))
            return
        for part in range(smallest, rest + 1):
            walk(rest - part, part, acc + (part,))

    walk(k, 1, ())
    return out


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for c in range(part):
            cols[c] += 1
    return tuple(cols)


class CellHook(NamedTuple):
    """A diagram cell with its arm (boxes to the right) and leg (boxes below)."""

    row: int
    col: int
    arm: int
    leg: int


def cell_hooks(lam: Partition) -> list[CellHook]:
    """One entry per cell, row by row.

    arm = boxes strictly right, leg = boxes strictly below.
    """
    hooks = []
    rows = len(lam)
    for r, part in enumerate(lam):
        for c in range(part):
            arm = part - c - 1
            leg = sum(1 for rr in range(r + 1, rows) if lam[rr] > c)
            hooks.append(CellHook(r, c, arm, leg))
    return hooks


def refines(mu: Partition, lam: Partition) -> bool:
    """Whether the parts of mu split into groups with sums the parts of lam."""
    if sum(mu) != sum(lam):
        return False

    def fill(i: int, room: tuple[int, ...]) -> bool:
        # place mu[i:] into the remaining room of each part of lam
        if i == len(mu):
            return True
        tried = set()
        for j, r in enumerate(room):
            if r >= mu[i] and r not in tried:
                tried.add(r)
                if fill(i + 1, room[:j] + (r - mu[i],) + room[j + 1 :]):
                    return True
        return False

    return fill(0, tuple(lam))


def sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def colored_partition_counts(k_max: int, colors: int) -> list[int]:
    """Coefficients of prod_m (1 - q^m)^(-colors) via the divisor-sum recurrence.

    n * p(n) = colors * sum_{k=1..n} sigma1(k) * p(n - k).
    """
    p = [1] + [0] * k_max
    for n in range(1, k_max + 1):
        p[n] = colors * sum(sigma1(k) * p[n - k] for k in range(1, n + 1)) // n
    return p


# -- tangent weights from module homomorphisms -------------------------------


def _monomial_ideal_generators(lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """Minimal generators (x-exponent, y-exponent) of the staircase ideal."""
    rows = len(lam)
    gens = []
    for r in range(rows + 1):
        width = lam[r] if r < rows else 0
        prev = lam[r - 1] if r > 0 else None
        if r == 0 or width < prev:
            gens.append((width, r))
    return gens


def _rank(matrix: list[list[Fraction]]) -> int:
    m = [row[:] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def hom_tangent_weights(lam: tuple[int, ...], v1: int, v2: int) -> list[int]:
    """Weights of Hom(I, O/I) for the monomial ideal of lam.

    Cell (row r, col c) of the diagram is the monomial x^c y^r of the
    quotient basis; the surface tangent directions at the chart origin have
    weights v1 (x-direction) and v2 (y-direction), so the coordinates x, y
    carry weights -v1, -v2 as functions.  A homomorphism component sending
    the monomial x^a y^b to x^c y^r has weight (a - c) v1 + (b - r) v2.

    Maps from the ideal are presented on the minimal generators, subject to
    the consecutive staircase syzygies y^beta g_i = x^alpha g_{i+1}; the
    weight multiset is read off the kernel, one graded block at a time.
    """
    if not lam:
        return []
    cells = [(r, c) for r, part in enumerate(lam) for c in range(part)]
    cellset = set(cells)
    gens = _monomial_ideal_generators(lam)

    unknowns = []  # (gen index, target cell), graded by (x-shift, y-shift)
    for i, (a, b) in enumerate(gens):
        for (r, c) in cells:
            unknowns.append((i, (r, c)))

    def unknown_bidegree(u):
        i, (r, c) = u
        a, b = gens[i]
        return (a - c, b - r)

    # equations: one per (consecutive syzygy, target cell)
    equations = []  # (bidegree, {unknown: coefficient})
    for i in range(len(gens) - 1):
        a_i, b_i = gens[i]
        a_n, b_n = gens[i + 1]
        alpha, beta = a_i - a_n, b_n - b_i
        row_map: dict[tuple[int, int], dict] = {}
        for (r, c) in cells:
            # y^beta * (g_i -> x^c y^r) lands on x^c y^(r+beta)
            if (r + beta, c) in cellset:
                target = (r + beta, c)
                key = (a_i - c, b_i + beta - (r + beta))
                row_map.setdefault((target, key), {})[(i, (r, c))] = Fraction(1)
            # x^alpha * (g_{i+1} -> x^c y^r) lands on x^(c+alpha) y^r
            if (r, c + alpha) in cellset:
                target = (r, c + alpha)
                key = (a_i - (c + alpha), b_n - r)
                row = row_map.setdefault((target, key), {})
                row[(i + 1, (r, c))] = row.get((i + 1, (r, c)), Fraction(0)) - 1
        for (target, key), row in row_map.items():
            equations.append((key, row))

    by_degree: dict[tuple[int, int], list] = {}
    for u in unknowns:
        by_degree.setdefault(unknown_bidegree(u), []).append(u)

    eq_by_degree: dict[tuple[int, int], list] = {}
    for key, row in equations:
        eq_by_degree.setdefault(key, []).append(row)

    weights = []
    for degree, us in sorted(by_degree.items()):
        rows = eq_by_degree.get(degree, [])
        if rows:
            index = {u: j for j, u in enumerate(us)}
            matrix = []
            for row in rows:
                vec = [Fraction(0)] * len(us)
                for u, coeff in row.items():
                    vec[index[u]] = coeff
                matrix.append(vec)
            kernel_dim = len(us) - _rank(matrix)
        else:
            kernel_dim = len(us)
        weights.extend([degree[0] * v1 + degree[1] * v2] * kernel_dim)
    total = sum(lam)
    assert len(weights) == 2 * total, (lam, len(weights))
    return sorted(weights)


# -- the localized class of one fixed point, term by term ---------------------


def monomial_insert(mono: Monomial, j: int) -> Monomial:
    """Insert one subscript into a descending tuple."""
    for i, p in enumerate(mono):
        if p < j:
            return mono[:i] + (j,) + mono[i:]
    return mono + (j,)


class UPoly:
    """Polynomial in the degree variable u with SPoly coefficients.

    coeffs[d] is the u^d coefficient; multiplication truncates above the
    fixed degree cap len(coeffs) - 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[SPoly]):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("UPoly needs at least the u^0 coefficient")

    @classmethod
    def zero(cls, degree_cap: int) -> "UPoly":
        return cls([SPoly()] * (degree_cap + 1))

    @classmethod
    def one(cls, degree_cap: int) -> "UPoly":
        return cls([spoly_one()] + [SPoly()] * degree_cap)

    @property
    def degree_cap(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, d: int) -> SPoly:
        return self.coeffs[d]

    def __add__(self, other: "UPoly") -> "UPoly":
        if self.degree_cap != other.degree_cap:
            raise ValueError("degree cap mismatch")
        return UPoly([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            return UPoly([c * other for c in self.coeffs])
        if self.degree_cap != other.degree_cap:
            raise ValueError("degree cap mismatch")
        D = self.degree_cap
        out = [SPoly() for _ in range(D + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > D:
                    break
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "UPoly":
        return UPoly([p.scale(c) for p in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        body = ", ".join(f"u^{d}: {c}" for d, c in enumerate(self.coeffs))
        return f"UPoly({body})"


def upoly_exp(E: UPoly) -> UPoly:
    """exp of a UPoly with vanishing u^0 part, truncated at its degree cap.

    Uses the derivative recurrence d*P_d = sum_j j*E_j*P_{d-j}, which is
    exact on truncated polynomials.
    """
    if not E.coeffs[0].is_zero():
        raise ValueError("exp needs a vanishing constant term")
    D = E.degree_cap
    P = [spoly_one()]
    for d in range(1, D + 1):
        acc = SPoly()
        for j in range(1, d + 1):
            Ej = E.coeffs[j]
            if Ej.is_zero():
                continue
            acc = acc + (Ej * P[d - j]).scale(j)
        P.append(acc.scale(Q(1, d)))
    return UPoly(P)


def fixed_point_contribution(model: SurfaceModel, point: FixedPoint, t: int) -> UPoly:
    """The localized genus class of one fixed point, over its Euler class.

    Returns exp(sum_j (s_j + t*[j==1]) q_j u^j) / euler_product, truncated
    at u-degree 2k.
    """
    data = tangent_data(model, point)
    two_k = len(data.weights)
    E = [SPoly()]
    for j in range(1, two_k + 1):
        coeff = spoly_variable(j)
        if j == 1 and t:
            coeff = coeff + t
        E.append(coeff.scale(data.power_sums[j - 1]))
    return upoly_exp(UPoly(E)).scale(Q(1, data.euler_product))


def localized_twisted_sums(model: SurfaceModel, k: int, t: int) -> UPoly:
    """Sum of the literal fixed-point contributions on the k-point scheme.

    Degrees below 2k cancel; degree 2k is the genus twisted by t.
    """
    W = 2 * k
    total = [SPoly() for _ in range(W + 1)]
    for fp in fixed_points(model, k):
        c = fixed_point_contribution(model, fp, t)
        for d in range(W + 1):
            total[d] = total[d] + c[d]
    return UPoly(total)


# -- polynomial and z-series arithmetic that only the tests need --------------


def spoly_one() -> SPoly:
    return SPoly.constant(1)


def spoly_variable(j: int) -> SPoly:
    """The generator s_j."""
    if j < 1:
        raise ValueError("variable subscripts start at 1")
    return SPoly({(j,): 1})


def spoly_div(p: SPoly, c) -> SPoly:
    return p.scale(Q(1, c) if isinstance(c, int) else 1 / c)


def zseries_one(order: int) -> ZSeries:
    return ZSeries([spoly_one()] + [SPoly()] * order)


def _check_orders(A: ZSeries, B: ZSeries) -> None:
    if A.order != B.order:
        raise ValueError("truncation order mismatch")


def zseries_add(A: ZSeries, B: ZSeries) -> ZSeries:
    _check_orders(A, B)
    return ZSeries([a + b for a, b in zip(A.coeffs, B.coeffs)])


def zseries_mul(A: ZSeries, B: ZSeries) -> ZSeries:
    """Product of two series of the same order, truncated at that order."""
    _check_orders(A, B)
    N = A.order
    out = [SPoly() for _ in range(N + 1)]
    for i, a in enumerate(A.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(B.coeffs):
            if i + j > N:
                break
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * b
    return ZSeries(out)


def zseries_exp(S: ZSeries) -> ZSeries:
    """Formal exponential of a series with vanishing constant coefficient."""
    if not S.coeffs[0].is_zero():
        raise ValueError("exp needs a vanishing constant term")
    N = S.order
    E = [spoly_one()]
    for n in range(1, N + 1):
        acc = SPoly()
        for j in range(1, n + 1):
            Sj = S.coeffs[j]
            if Sj.is_zero():
                continue
            acc = acc + (Sj * E[n - j]).scale(j)
        E.append(acc.scale(Q(1, n)))
    return ZSeries(E)


# -- scalar power series in x, as Fraction lists ------------------------------


def scalar_exp(ell: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients of exp(sum_j ell[j-1] x^j) through x^order.

    Sums the powers of the exponent, m = 0..order, with 1/m! each.
    """
    g = [Fraction(0)] + [Fraction(c) for c in ell[:order]]
    g += [Fraction(0)] * (order + 1 - len(g))
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order  # g^m
    for m in range(order + 1):
        for k in range(order + 1):
            out[k] += power[k] / factorial(m)
        power = scalar_mul(power, g)
    return out


def scalar_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Product of two series truncated at the shorter length."""
    n = min(len(a), len(b))
    return [sum((a[j] * b[k - j] for j in range(k + 1)), Fraction(0)) for k in range(n)]


# -- the elementary basis in power sums (Macdonald I, 2.14') -----------------


@lru_cache(maxsize=None)
def elementary_in_power_basis(r: int) -> dict[Partition, object]:
    """Expansion of e_r in the power-sum basis: sum (-1)^(r-l) p_lam / z_lam.

    z_lam = m(lam) * prod_i lam_i, with m(lam) the product of multiplicity
    factorials and l the number of parts.
    """
    if r < 0:
        raise ValueError("negative index")
    return {
        lam: Q((-1) ** (r - len(lam)), sym_factor(lam) * prod(lam))
        for lam in enumerate_partitions(r)
    }


@lru_cache(maxsize=None)
def elementary_product_in_power_basis(mu: Partition) -> Combo:
    """Expansion of e_mu = e_{mu_1} e_{mu_2} ... in the power-sum basis.

    Cached; treat the returned dict as immutable.
    """
    if not mu:
        return {(): Q(1)}
    return combo_mul(
        elementary_in_power_basis(mu[0]), elementary_product_in_power_basis(mu[1:])
    )


def parse_chern_key(key: str) -> Partition:
    """Inverse of kummer_chern.symfun.format_chern_key."""
    key = key.strip()
    if key == "1":
        return ()
    parts: list[int] = []
    for bit in key.split():
        if not bit.startswith("c"):
            raise ValueError(f"bad Chern monomial {key!r}")
        body = bit[1:]
        if "^" in body:
            base, exp = body.split("^")
            parts.extend([int(base)] * int(exp))
        else:
            parts.append(int(body))
    return tuple(sorted(parts, reverse=True))


# -- symmetric polynomials in finitely many variables ------------------------


def _poly_mul(A: dict, B: dict) -> dict:
    out: dict = {}
    for ea, ca in A.items():
        for eb, cb in B.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def expand_elementary(r: int, nvars: int) -> dict:
    """e_r as a polynomial: exponent-tuple -> coefficient."""
    out: dict = {}
    for subset in combinations(range(nvars), r):
        e = [0] * nvars
        for i in subset:
            e[i] = 1
        out[tuple(e)] = 1
    return out


def expand_power(j: int, nvars: int) -> dict:
    out: dict = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = j
        out[tuple(e)] = 1
    return out


def expand_product(factors: list[dict], nvars: int) -> dict:
    acc = {tuple([0] * nvars): Fraction(1)}
    for f in factors:
        acc = _poly_mul(acc, f)
    return acc


@lru_cache(maxsize=None)
def expand_elementary_product(mu: tuple[int, ...], nvars: int) -> dict:
    return expand_product([expand_elementary(r, nvars) for r in mu], nvars)


@lru_cache(maxsize=None)
def expand_power_product(lam: tuple[int, ...], nvars: int) -> dict:
    return expand_product([expand_power(j, nvars) for j in lam], nvars)


# -- products of surfaces -----------------------------------------------------


def surface_product_chern_table(x_numbers: dict, y_numbers: dict) -> dict:
    """Chern numbers of a product of two surfaces by the Whitney formula.

    Inputs map {(1, 1): c1^2, (2,): c2} for each factor; the output maps
    partitions of 4 to integrals over the product fourfold.  Monomials are
    tracked as exponent tuples (a1, a2, b1, b2).
    """

    def cls(*pairs):
        return {e: Fraction(c) for e, c in pairs}

    c = {
        1: cls(((1, 0, 0, 0), 1), ((0, 0, 1, 0), 1)),
        2: cls(((0, 1, 0, 0), 1), ((1, 0, 1, 0), 1), ((0, 0, 0, 1), 1)),
        3: cls(((1, 0, 0, 1), 1), ((0, 1, 1, 0), 1)),
        4: cls(((0, 1, 0, 1), 1)),
    }

    def factor_value(e1, e2, numbers):
        if (e1, e2) == (2, 0):
            return numbers[(1, 1)]
        if (e1, e2) == (0, 1):
            return numbers[(2,)]
        return 0

    out = {}
    for mu in enumerate_partitions(4):
        poly = {(0, 0, 0, 0): Fraction(1)}
        for part in mu:
            poly = _poly_mul(poly, c[part])
        total = Fraction(0)
        for (a1, a2, b1, b2), coeff in poly.items():
            xv = factor_value(a1, a2, x_numbers)
            yv = factor_value(b1, b2, y_numbers)
            if xv and yv:
                total += coeff * xv * yv
        out[mu] = total
    return out
