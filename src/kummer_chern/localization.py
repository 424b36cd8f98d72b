"""Torus localization on Hilbert schemes of points on toric surfaces.

A smooth complete toric surface is given by its fan (see FANS): rays listed
counter-clockwise, each two neighbours spanning a cone of determinant one.
The torus fixes one point per cone (u, v); its chart holds the two tangent
weights there, the dual basis of (u, v) at integer parameters (a, b):

    (v2 * a - v1 * b ,  u1 * b - u2 * a) .

A fixed point of the Hilbert scheme of k points is a tuple of monomial
ideals, one per chart, indexed by partitions with total size k.  At a cell
with arm a and leg l of a partition lying in a chart with weights (v1, v2)
the length-2k tangent representation contributes the two weights

    (a + 1) * v1 - l * v2        and        -a * v1 + (l + 1) * v2 .

The two add up to v1 + v2 whatever the cell, so q_1, the sum of all 2k
weights at a fixed point, is the sum over the charts of |lam| * (v1 + v2):
it depends only on how many boxes each chart holds, and few fixed points
have distinct values (221 points of p2 at k = 6 share 28).  The
localization kernel sums over the points of one q_1 value together.

The residue formula then turns integrals over the Hilbert scheme into
sums over fixed points of the localized class divided by the product of
the tangent weights.  For the genus with series exp(sum_j s_j x^j) the
localized class at a fixed point with weight power sums q_j is

    exp( sum_j s_j q_j u^j )

where u is a bookkeeping variable marking cohomological degree: the u^2k
coefficient integrates, everything below must cancel across fixed points.
"""

from __future__ import annotations

from itertools import accumulate, compress, islice
from math import factorial, lcm, prod
from operator import add, itemgetter, mul, ne, sub
from typing import Mapping, NamedTuple

from .partitions import Partition, enumerate_partitions, multipartitions, sym_factor
from .polyring import SPoly


class GenericityError(Exception):
    """A tangent weight of a localized fixed point vanished at these weights."""


class CheckError(Exception):
    """An internal consistency check of a computed result failed."""


class SurfaceModel(NamedTuple):
    """A toric surface with integer chart weights and its Chern invariants.

    An immutable record that compares and hashes by value, so a model can
    key the assembled-series cache (``assembly._assembled``).
    """

    name: str
    charts: tuple[tuple[int, int], ...]
    c1sq: int
    c2: int
    weights: tuple[int, int]


# counter-clockwise rays of each surface's fan
FANS = {
    "p2": ((1, 0), (0, 1), (-1, -1)),
    "p1xp1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
}
SURFACE_NAMES = tuple(FANS)


def _fan(name: str) -> tuple[tuple[int, int], ...]:
    if name not in FANS:
        raise ValueError(f"unknown surface {name!r}")
    return FANS[name]


def build_surface_model(name: str, a: int, b: int) -> SurfaceModel:
    """Surface model at torus parameters (a, b), generic or not (see is_generic).

    One chart per cone of the fan, by the formula in the module docstring.
    A fan with m rays has m fixed points, so c2 = m, and c1^2 = 12 - m by
    Noether's formula (a toric surface is rational).
    """
    rays = _fan(name)
    charts = tuple(
        (v2 * a - v1 * b, u1 * b - u2 * a)
        for (u1, u2), (v1, v2) in zip(rays, rays[1:] + rays[:1])
    )
    return SurfaceModel(name, charts, 12 - len(rays), len(rays), (a, b))


def is_generic(model: SurfaceModel, depth: int) -> bool:
    """True if no tangent weight vanishes for any partition of size <= depth.

    This is the one genericity rule: the residue formula needs no more.
    Every cell of such a partition is one of _hooks(depth), and each of
    those is a cell of one (the hook with that arm and leg), so checking
    the hooks' cell weights in each chart is exact.  The hook (0, 0), the
    one-box partition, has the chart's own two weights, so a zero chart
    weight fails from depth 1 on; at depth 0 there is no tangent weight.
    """
    hooks = _hooks(depth)
    return all(
        0 not in _cell_weights(chart, arm, leg) for chart in model.charts for arm, leg in hooks
    )


def _require_generic(model: SurfaceModel, depth: int) -> None:
    if not is_generic(model, depth):
        raise GenericityError(
            f"weights {model.weights} are degenerate for {model.name} at depth {depth}"
        )


def default_weights(name: str, depth: int) -> tuple[int, int]:
    """Torus parameters (1, b) with b = d * M + 1, generic up to depth d.

    Here d = max(depth, 1) and M is the largest absolute coordinate of a ray
    in the fan of ``name``.  Each cone has determinant one, so its dual basis
    e1, e2 has entries of size at most M.  In its chart a tangent weight is
    <x, (1, b)> with x = (arm + 1) * e1 - leg * e2 or -arm * e1 + (leg + 1) * e2,
    and arm + leg <= d - 1.  Such an x is nonzero with entries of size at most
    (arm + leg + 1) * M <= d * M < b, so <x, (1, b)> = x1 + b * x2 is nonzero,
    and so are the chart weights <e1, (1, b)> and <e2, (1, b)>.
    """
    d = max(depth, 1)
    return (1, d * max(abs(c) for ray in _fan(name) for c in ray) + 1)


def find_generic_model(
    name: str,
    depth: int,
    weights: tuple[int, int] | None = None,
) -> SurfaceModel:
    """Build a model generic up to Hilbert depth ``depth``.

    Explicit weights are used as given and must pass is_generic at
    ``depth``, or GenericityError is raised; without them the model uses
    ``default_weights(name, depth)``, which pass on every fan.
    """
    if weights is None:
        weights = default_weights(name, depth)
    model = build_surface_model(name, *weights)
    _require_generic(model, depth)
    return model


# a torus-fixed subscheme: one partition per chart
FixedPoint = tuple[Partition, ...]


def fixed_points(model: SurfaceModel, k: int) -> list[FixedPoint]:
    """All fixed points of the Hilbert scheme of k points, fixed order."""
    return multipartitions(k, len(model.charts))


def _arm_legs(lam: Partition) -> list[tuple[int, int]]:
    """(arm, leg) of each cell of lam, row by row.

    The cell (r, c) has arm lam[r] - c - 1 and leg cols[c] - r - 1, where
    cols[c] is the length of column c.
    """
    cols = [sum(1 for part in lam if part > c) for c in range(lam[0] if lam else 0)]
    return [
        (part - c - 1, cols[c] - r - 1)
        for r, part in enumerate(lam)
        for c in range(part)
    ]


def _cell_weights(chart: tuple[int, int], arm: int, leg: int) -> tuple[int, int]:
    """The two tangent weights of a cell with this arm and leg in the chart."""
    v1, v2 = chart
    return (arm + 1) * v1 - leg * v2, -arm * v1 + (leg + 1) * v2


def _hooks(n: int) -> list[tuple[int, int]]:
    """Each (arm, leg) with arm + leg <= n - 1: the cells of partitions of size <= n."""
    return [(arm, leg) for arm in range(n) for leg in range(n - arm)]


class TangentData(NamedTuple):
    """The product and power sums of the tangent weights at one fixed point.

    An immutable record; ``_replace`` makes a modified copy.  The same
    record holds one chart's piece of a fixed point: the weights of one
    partition in one chart, through their power sums up to 2n for the
    largest n the pieces serve.  The 2k power sums of the 2k weights fix
    the weights as a multiset.
    """

    euler_product: int
    power_sums: tuple[int, ...]  # q_j = sum w_i^j for j = 1..2k


# the per-chart pieces of a model's fixed points, keyed by (chart, lam)
Pieces = dict[tuple[tuple[int, int], Partition], TangentData]


def tangent_pieces(model: SurfaceModel, n: int) -> Pieces:
    """Every (chart, lam) piece with 1 <= |lam| <= n, power sums through 2n.

    A cell's two weights depend only on its (arm, leg), one of the n(n+1)/2
    _hooks(n).  So each chart raises the weights of the hooks to the powers
    1..2n, one C-level map per power, and a piece is the product and the
    sums of its cells' entries.  The cells' indices depend on lam only and
    are shared by the charts.  Degenerate weights are refused: a model not
    generic up to depth n raises GenericityError before any piece is built.
    """
    _require_generic(model, n)
    hooks = _hooks(n)
    index = {hook: (2 * i, 2 * i + 1) for i, hook in enumerate(hooks)}
    cells = {  # lam -> its cells' two weights in a chart's list of hook weights
        lam: itemgetter(*(i for hook in _arm_legs(lam) for i in index[hook]))
        for size in range(1, n + 1)
        for lam in enumerate_partitions(size)
    }
    pieces: Pieces = {}
    for chart in model.charts:
        weights = [w for arm, leg in hooks for w in _cell_weights(chart, arm, leg)]
        rows = [weights]
        for _ in range(2 * n - 1):
            rows.append(list(map(mul, rows[-1], weights)))
        for lam, take in cells.items():
            pieces[chart, lam] = TangentData(
                prod(take(weights)), tuple(map(sum, map(take, rows)))
            )
    return pieces


def tangent_data(
    model: SurfaceModel, point: FixedPoint, *, pieces: Pieces
) -> TangentData:
    """Tangent data at a fixed point of the Hilbert scheme of k points.

    The tangent space is the direct sum of one piece per chart, so the
    Euler products multiply and the power sums q_1..q_2k add.  This is a
    lookup: ``pieces`` (see tangent_pieces) holds every piece the point
    needs, with power sums through at least 2k, and the sums are added with
    chained maps and cut at 2k.
    """
    two_k = 2 * sum(map(sum, point))
    euler = 1
    sums = None
    for chart, lam in zip(model.charts, point):
        if lam:  # an empty partition adds no weights
            piece = pieces[chart, lam]
            euler *= piece.euler_product
            q = piece.power_sums
            sums = q if sums is None else map(add, sums, q)
    return TangentData(euler, tuple(islice(sums or (), two_k)))


# fixed points per pass of localized_sums' column walk: the walk's few
# thousand Python steps are paid once per block, its columns hold one
# integer per point of the block
_BLOCK = 512


class LocalizedSums(NamedTuple):
    """Fixed-point sums for the Hilbert scheme of k points (an immutable record).

    table has the single key 2k: table[2k] is the sum over all fixed points
    of P_2k / euler_product, where P_d is the weight-d part of
    exp(sum_j s_j q_j).  That is the genus, homogeneous of weight 2k.  The
    sums with d < 2k cancel (checked at construction time) and are not
    stored.  weight_cap is always 2k; it is kept only because
    perfbench/spans.table_stats reads it.

    The per-chart pieces the fixed points were assembled from are not kept
    in the record: their owner is the caller that built them (see
    localized_sums).
    """

    k: int
    weight_cap: int
    table: Mapping[int, SPoly]


def localized_sums(
    model: SurfaceModel, k: int, *, pieces: Pieces | None = None
) -> LocalizedSums:
    """Accumulate all fixed-point data of the Hilbert scheme of k points.

    The coefficient of s_lam in exp(sum_j s_j q_j) is q_lam / sym_factor(lam),
    so the degree-d sum is sum_lam s_lam * N(lam) / (D * sym_factor(lam))
    over partitions lam of d, with D = lcm of the Euler products and the
    integer numerators

        N(lam) = sum over fixed points of (D / euler_product) * q_lam .

    The fixed points share their per-chart pieces (see tangent_pieces), and
    so do the tables of one series: ``pieces`` may hold pieces built for
    any n >= k, as hilbert_genus_series passes the ones it builds once for
    its n_max.  Without it, this call builds tangent_pieces(model, k) for
    its own table.  ``pieces`` is keyword-only: the benchmark's tracer
    keeps the positional arguments and hashes them.

    The numerators come column by column: the column of lam holds
    (D / euler_product) * q_lam at every fixed point, and the column of
    (j, *lam) is the column of q_j times that of lam, point by point.
    Parts equal to 1 need no column: q_1 is one number per point, so with
    S(mu, g) the column of mu summed over the points whose q_1 is g,

        N(mu + (1,) * j) = sum_g g^j S(mu, g) .

    The sum may take any runs of adjacent points with one q_1 value, one
    value in several runs too.  fixed_points yields the points of one
    composition, so of one q_1, together, and S(mu, g) of a run is a
    difference of the column's running sums.  Only the partitions of size
    <= 2k with no part 1 are walked, depth first from ().  The runs read
    each point's own q_1, so every numerator, below-top ones included, is
    the same integer as a walk over every partition gives.  Only the
    columns on the current path are alive: at most 2k.  A partition that
    leaves no room for a part is summed without storing its column.  The
    walk takes the fixed points in blocks of _BLOCK and adds up the blocks'
    sums, so its columns hold at most 2k * _BLOCK integers at any k.

    A sum with d < 2k vanishes exactly when all its numerators are zero,
    so the below-top check reads the integers, in order of size, and raises
    CheckError on the first nonzero one.  Only the top sum, the genus, is
    built, on integers: the numerators N(lam) * (2k)! / sym_factor(lam) over
    D * (2k)!, reduced by one gcd (see SPoly); it is the record's one
    entry.  The pieces were checked for genericity when tangent_pieces
    built them, so a model not generic up to depth k has raised
    GenericityError before any tangent data is read.
    """
    two_k = 2 * k
    if pieces is None:
        pieces = tangent_pieces(model, k)
    points = [tangent_data(model, point, pieces=pieces) for point in fixed_points(model, k)]
    D = lcm(*(data.euler_product for data in points))
    numerators = dict.fromkeys(
        (mu for size in range(two_k + 1) for mu in enumerate_partitions(size)), 0
    )
    ones = [(1,) * j for j in range(two_k + 1)]

    def walk(mu: Partition, column: list[int], rest: int) -> None:
        # mu has no part 1 and rest is 2k - |mu|: add the numerators of
        # mu + (1,) * j for j = 0..rest, then walk the children of mu, which
        # put a part >= max(mu[0], 2) in front
        ends = list(compress(accumulate(column), last))  # the e_i of the block's comment
        for j in range(rest + 1):
            numerators[mu + ones[j]] += sum(map(mul, steps[j], ends))
        for part in range(mu[0] if mu else 2, rest + 1):
            child = (part, *mu)
            if part == rest:  # no ones and no children to add
                numerators[child] += sum(map(mul, columns[part - 1], column))
            else:
                walk(child, list(map(mul, columns[part - 1], column)), rest - part)

    for start in range(0, len(points), _BLOCK):
        block = points[start : start + _BLOCK]
        columns = list(zip(*(data.power_sums for data in block)))  # q_1 .. q_2k
        q1 = columns[0] if k else (0,)  # k = 0: one point, no power sums
        last = list(map(ne, q1, (*q1[1:], None)))  # the last point of each q_1 run
        values = list(compress(q1, last))
        # with e_i the column summed through the last point of run i, of value g_i,
        # sum_i g_i^j (e_i - e_(i-1)) = sum_i e_i (g_i^j - g_(i+1)^j), taking
        # g_(G+1)^j as 0: steps[j] holds those differences
        powers = [[1] * len(values)]
        for _ in range(two_k):
            powers.append(list(map(mul, powers[-1], values)))
        steps = [list(map(sub, row, row[1:] + [0])) for row in powers]
        walk((), [D // data.euler_product for data in block], two_k)

    for size in range(two_k):
        for mu in enumerate_partitions(size):
            if numerators[mu]:
                raise CheckError(
                    f"below-top localization sum (degree {size}) for k={k} on "
                    f"{model.name}{model.weights}: partition {mu} has numerator "
                    f"{numerators[mu]}"
                )
    F = factorial(two_k)  # a multiple of every sym_factor(mu) with |mu| = 2k
    genus = SPoly.over(
        {mu: numerators[mu] * (F // sym_factor(mu)) for mu in enumerate_partitions(two_k)},
        D * F,
    )
    return LocalizedSums(k, two_k, {two_k: genus})


def hilbert_genus(
    model: SurfaceModel, k: int, *, pieces: Pieces | None = None
) -> SPoly:
    """Universal genus of the Hilbert scheme of k points, of weight 2k.

    ``pieces`` is passed on to localized_sums.
    """
    return localized_sums(model, k, pieces=pieces).table[2 * k]
