"""Independent brute-force oracles used to pin the library's conventions.

Everything here is deliberately written against different definitions than
the library: partitions by ascending composition, counting through the
divisor-sum recurrence, cell legs by scanning the rows below, tangent
weights through explicit module maps, the tangent data of a fixed point
from its whole weight list at once, symmetric functions as honest
polynomials in a finite set of variables, the localized class of each
fixed point as a literal truncated exponential, the exponential of a scalar
series as the sum of its powers, and the elementary symmetric functions in
the power-sum basis by their closed form, against which the rows of the
library's depth-first conversion walks are checked.

A truncated series is a plain tuple of SPoly coefficients, handled by the
zseries_* helpers; fraction_zseries_log takes the logarithm of one by its
defining sum on Fractions, apart from SPoly's integer numerators.  The
literal localization oracle (fixed_point_contribution,
localized_twisted_sums) reads each point's tangent data from
direct_tangent_data, so it shares no tangent-data code with the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from typing import NamedTuple

from kummer_chern.localization import (
    FixedPoint,
    SurfaceModel,
    TangentData,
    fixed_points,
)
from kummer_chern.partitions import Partition, enumerate_partitions, sym_factor
from kummer_chern.polyring import Q, SPoly, combo_mul
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


def cell_hook_weights(chart: tuple[int, int], lam: Partition) -> list[int]:
    """The 2|lam| tangent weights of lam in a chart (v1, v2), cell by cell.

    A cell with arm a and leg l (from cell_hooks) gives (a + 1) v1 - l v2
    and -a v1 + (l + 1) v2.
    """
    v1, v2 = chart
    ws = []
    for cell in cell_hooks(lam):
        ws.append((cell.arm + 1) * v1 - cell.leg * v2)
        ws.append(-cell.arm * v1 + (cell.leg + 1) * v2)
    return ws


def weight_data(ws: list[int], count: int) -> TangentData:
    """The product of the weights ws and their power sums q_1..q_count.

    With count >= len(ws) the power sums fix the weights as a multiset
    (Newton), so comparing the records compares the weights.
    """
    return TangentData(prod(ws), tuple(sum(w**j for w in ws) for j in range(1, count + 1)))


def direct_tangent_data(model: SurfaceModel, point: FixedPoint) -> TangentData:
    """Tangent data of a fixed point from all 2k weights at once.

    The weights come from the cell hooks, chart by chart; the power sums
    are taken over the whole list, not assembled from per-chart pieces.
    """
    ws = [w for chart, lam in zip(model.charts, point) for w in cell_hook_weights(chart, lam)]
    return weight_data(ws, len(ws))


def fixed_point_contribution(
    model: SurfaceModel, point: FixedPoint, t: int
) -> tuple[SPoly, ...]:
    """The localized genus class of one fixed point, over its Euler class.

    Returns the u^0..u^2k coefficients of
    exp(sum_j (s_j + t*[j==1]) q_j u^j) / euler_product.
    """
    data = direct_tangent_data(model, point)
    E = [SPoly()]
    for j, q in enumerate(data.power_sums, 1):
        coeff = spoly_variable(j)
        if j == 1 and t:
            coeff = coeff + SPoly({(): t})
        E.append(coeff.scale(q))
    inverse = Q(1, data.euler_product)
    return tuple(c.scale(inverse) for c in zseries_exp(tuple(E)))


def localized_twisted_sums(model: SurfaceModel, k: int, t: int) -> tuple[SPoly, ...]:
    """Sum of the literal fixed-point contributions on the k-point scheme.

    Degrees below 2k cancel; degree 2k is the genus twisted by t.
    """
    total = (SPoly(),) * (2 * k + 1)
    for fp in fixed_points(model, k):
        total = zseries_add(total, fixed_point_contribution(model, fp, t))
    return total


# -- polynomial and z-series arithmetic that only the tests need --------------


def spoly_one() -> SPoly:
    return SPoly({(): 1})


def spoly_variable(j: int) -> SPoly:
    """The generator s_j."""
    if j < 1:
        raise ValueError("variable subscripts start at 1")
    return SPoly({(j,): 1})


def spoly_div(p: SPoly, c) -> SPoly:
    return p.scale(Q(1, c) if isinstance(c, int) else 1 / c)


def zseries_one(order: int) -> tuple[SPoly, ...]:
    return (spoly_one(),) + (SPoly(),) * order


def _check_orders(A: tuple[SPoly, ...], B: tuple[SPoly, ...]) -> None:
    if len(A) != len(B):
        raise ValueError("truncation order mismatch")


def zseries_add(A: tuple[SPoly, ...], B: tuple[SPoly, ...]) -> tuple[SPoly, ...]:
    _check_orders(A, B)
    return tuple(a + b for a, b in zip(A, B))


def zseries_mul(A: tuple[SPoly, ...], B: tuple[SPoly, ...]) -> tuple[SPoly, ...]:
    """Product of two series of the same order, truncated at that order."""
    _check_orders(A, B)
    N = len(A) - 1
    out = [SPoly() for _ in range(N + 1)]
    for i, a in enumerate(A):
        if a.is_zero():
            continue
        for j, b in enumerate(B):
            if i + j > N:
                break
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def zseries_exp(S: tuple[SPoly, ...]) -> tuple[SPoly, ...]:
    """Formal exponential of a series with vanishing constant coefficient."""
    if not S[0].is_zero():
        raise ValueError("exp needs a vanishing constant term")
    N = len(S) - 1
    E = [spoly_one()]
    for n in range(1, N + 1):
        acc = SPoly()
        for j in range(1, n + 1):
            Sj = S[j]
            if Sj.is_zero():
                continue
            acc = acc + (Sj * E[n - j]).scale(j)
        E.append(acc.scale(Q(1, n)))
    return tuple(E)


# -- z-series of Fraction dicts, apart from SPoly's integer form -------------


def spoly_fractions(p: SPoly) -> dict[tuple[int, ...], Fraction]:
    """The coefficients of p as Fractions, each numerator over p.den."""
    return {m: Fraction(c, p.den) for m, c in p.terms.items()}


def _fraction_series_mul(A: list[dict], B: list[dict]) -> list[dict]:
    # truncated product of two series of Fraction dicts of the same order
    out: list[dict] = [{} for _ in A]
    for i, a in enumerate(A):
        for j, b in enumerate(B[: len(A) - i]):
            for mono, c in combo_mul(a, b).items():
                out[i + j][mono] = out[i + j].get(mono, 0) + c
    return out


def fraction_zseries_log(H: tuple[SPoly, ...]) -> list[dict[tuple[int, ...], Fraction]]:
    """ln H through the order of H, as Fraction dicts, by its defining sum.

    sum_{m>=1} (-1)^(m+1) X^m / m with X = H - 1 on dicts of Fractions;
    X^m starts at z^m, so the sum stops at m = the order of H.
    """
    X = [{}] + [spoly_fractions(c) for c in H[1:]]
    out: list[dict] = [{} for _ in H]
    power = X
    for m in range(1, len(H)):
        for n, coeff in enumerate(power):
            for mono, c in coeff.items():
                out[n][mono] = out[n].get(mono, 0) + Fraction((-1) ** (m + 1), m) * c
        power = _fraction_series_mul(power, X)
    return [{mono: c for mono, c in coeff.items() if c} for coeff in out]


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
    acc = {tuple([0] * nvars): 1}
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
