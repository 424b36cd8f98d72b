"""Torus localization on Hilbert schemes of points on toric surfaces.

The two surfaces carried here (the projective plane and a product of two
projective lines) have finitely many torus-fixed points, one per chart;
the chart records the two tangent weights at its fixed point, evaluated
at an integer parameter pair (a, b).

A fixed point of the Hilbert scheme of k points is a tuple of monomial
ideals, one per chart, indexed by partitions with total size k.  At a cell
with arm a and leg l of a partition lying in a chart with weights (v1, v2)
the length-2k tangent representation contributes the two weights

    (a + 1) * v1 - l * v2        and        -a * v1 + (l + 1) * v2 .

The residue formula then turns integrals over the Hilbert scheme into
sums over fixed points of the localized class divided by the product of
the tangent weights.  For the genus with series exp(sum_j s_j x^j) the
localized class at a fixed point with weight power sums q_j is

    exp( sum_j s_j q_j u^j )

where u is a bookkeeping variable marking cohomological degree: the u^2k
coefficient integrates, everything below must cancel across fixed points.
"""

from __future__ import annotations

from math import lcm, prod
from operator import add, mul
from typing import Mapping, NamedTuple

from .partitions import Partition, enumerate_partitions, multipartitions, sym_factor
from .polyring import Q, SPoly


class GenericityError(Exception):
    """A chart or tangent weight vanished at the given torus parameters."""


class CheckError(Exception):
    """An internal consistency check of a computed result failed."""


class VanishingCheckError(CheckError):
    """A below-top-degree localization sum failed to cancel."""


class SurfaceModel(NamedTuple):
    """A toric surface with integer chart weights and its Chern invariants.

    An immutable record that compares and hashes by value, so a model can
    key the per-model caches.
    """

    name: str
    charts: tuple[tuple[int, int], ...]
    c1sq: int
    c2: int
    weights: tuple[int, int]


SURFACE_NAMES = ("p2", "p1xp1")


def build_surface_model(name: str, a: int, b: int) -> SurfaceModel:
    """Surface model at torus parameters (a, b); rejects zero chart weights.

    For the plane the homogeneous coordinates carry weights (0, a, b), so
    the three fixed points see weights (a, b), (-a, b-a), (-b, a-b).  For
    the product of two lines the factor weights are a and b and the four
    fixed points see (+-a, +-b).
    """
    if (a, b) == (0, 0):
        raise GenericityError("torus parameters (0, 0) are degenerate")
    if name == "p2":
        charts = ((a, b), (-a, b - a), (-b, a - b))
        c1sq, c2 = 9, 3
    elif name == "p1xp1":
        charts = ((a, b), (a, -b), (-a, b), (-a, -b))
        c1sq, c2 = 8, 4
    else:
        raise ValueError(f"unknown surface {name!r}")
    for i, (v1, v2) in enumerate(charts):
        if v1 == 0 or v2 == 0:
            raise GenericityError(
                f"chart {i} of {name} has a zero weight at (a, b) = ({a}, {b})"
            )
    return SurfaceModel(name, charts, c1sq, c2, (a, b))


def is_generic(model: SurfaceModel, depth: int) -> bool:
    """True if no tangent weight vanishes for any partition of size <= depth.

    Every (arm, leg) pair with arm + leg <= depth - 1 occurs in some
    partition of size <= depth (the hook), and no other pair occurs, so
    checking hooks is exact.
    """
    for v1, v2 in model.charts:
        for arm in range(depth):
            for leg in range(depth - arm):
                if (arm + 1) * v1 == leg * v2 or (leg + 1) * v2 == arm * v1:
                    return False
    return True


def default_weights(depth: int) -> tuple[int, int]:
    """Torus parameters (1, b) with b = d^2 + d + 1, d = max(depth, 1).

    They are generic on both surfaces by construction.  The chart weights
    are +-1, +-b and +-(b - 1), nonzero since b >= 3.  A tangent weight
    vanishes only if (arm + 1) * v1 = leg * v2 or (leg + 1) * v2 = arm * v1
    with arm + leg <= depth - 1.  Neither can hold where v1 and v2 differ
    in sign.  In the other charts, (1, b) and (b, b - 1) up to sign, either
    makes one of arm, arm + 1, leg, leg + 1 a positive multiple of b (which
    is prime to b - 1), but each is at most d < b.
    """
    d = max(depth, 1)
    return (1, d * d + d + 1)


def find_generic_model(
    name: str,
    depth: int,
    weights: tuple[int, int] | None = None,
) -> SurfaceModel:
    """Build a model generic up to Hilbert depth ``depth``.

    Explicit weights are used as given and must pass the genericity
    precheck; without them the model uses ``default_weights(depth)``,
    which always pass.
    """
    if weights is None:
        weights = default_weights(depth)
    model = build_surface_model(name, *weights)
    if not is_generic(model, depth):
        raise GenericityError(
            f"weights {weights} are degenerate for {name} at depth {depth}"
        )
    return model


# a torus-fixed subscheme: one partition per chart
FixedPoint = tuple[Partition, ...]


def fixed_points(model: SurfaceModel, k: int) -> list[FixedPoint]:
    """All fixed points of the Hilbert scheme of k points, fixed order."""
    return multipartitions(k, len(model.charts))


def tangent_weights(chart: tuple[int, int], lam: Partition) -> list[int]:
    """The 2|lam| tangent weights of the punctual piece in one chart.

    Cells are visited row by row; the cell (r, c) has arm lam[r] - c - 1
    and leg cols[c] - r - 1, where cols[c] is the length of column c.
    """
    v1, v2 = chart
    if v1 == 0 or v2 == 0:
        raise GenericityError("chart weights must be nonzero")
    cols = [sum(1 for part in lam if part > c) for c in range(lam[0] if lam else 0)]
    out = []
    for r, part in enumerate(lam):
        for c in range(part):
            arm = part - c - 1
            leg = cols[c] - r - 1
            w1 = (arm + 1) * v1 - leg * v2
            w2 = -arm * v1 + (leg + 1) * v2
            if w1 == 0 or w2 == 0:
                raise GenericityError(
                    f"zero tangent weight at cell (row {r}, col {c}, arm {arm}, "
                    f"leg {leg}) of {lam} in chart {chart}"
                )
            out.append(w1)
            out.append(w2)
    return out


class TangentData(NamedTuple):
    """Tangent weights at one fixed point with their derived quantities.

    An immutable record; ``_replace`` makes a modified copy.  The same
    record holds one chart's piece of a fixed point: the weights of one
    partition in one chart, with their power sums up to the same 2k.
    """

    weights: tuple[int, ...]
    euler_product: int
    power_sums: tuple[int, ...]  # q_j = sum w_i^j for j = 1..2k


# per-chart pieces of the fixed points of one table, keyed by (chart, lam, 2k)
Pieces = dict[tuple[tuple[int, int], Partition, int], TangentData]


def _piece(chart: tuple[int, int], lam: Partition, two_k: int) -> TangentData:
    ws = tuple(tangent_weights(chart, lam))
    powers = ws
    sums = []
    for _ in range(two_k):
        sums.append(sum(powers))
        powers = list(map(mul, powers, ws))
    return TangentData(ws, prod(ws), tuple(sums))


def tangent_data(
    model: SurfaceModel, point: FixedPoint, *, pieces: Pieces | None = None
) -> TangentData:
    """Tangent data at a fixed point of the Hilbert scheme of k points.

    The tangent space is the direct sum of one piece per chart, so the
    weights concatenate, the Euler products multiply and the power sums
    q_1..q_2k add.  Each (chart, lam) piece is built once and kept in
    ``pieces``: the localized_sums call passes the dict it owns for its
    table, whose points share most pieces.  Without one the pieces are
    built for this point alone.
    """
    if pieces is None:
        pieces = {}
    two_k = 2 * sum(map(sum, point))
    ws = ()
    euler = 1
    sums = []
    for chart, lam in zip(model.charts, point):
        key = (chart, lam, two_k)
        piece = pieces.get(key)
        if piece is None:
            # built for an empty partition too: a zero chart weight raises
            piece = pieces[key] = _piece(chart, lam, two_k)
        if lam:
            ws += piece.weights
            euler *= piece.euler_product
            sums.append(piece.power_sums)
    return TangentData(ws, euler, tuple(map(sum, zip(*sums))))


class LocalizedSums(NamedTuple):
    """Fixed-point sums for the Hilbert scheme of k points (an immutable record).

    table has the single key 2k: table[2k] is the sum over all fixed points
    of P_2k / euler_product, where P_d is the weight-d part of
    exp(sum_j s_j q_j).  That is the genus, homogeneous of weight 2k.  The
    sums with d < 2k cancel (checked at construction time) and are not
    stored.  weight_cap is always 2k; it is kept only because
    perfbench/spans.table_stats reads it.

    The per-chart pieces the fixed points were assembled from are owned by
    the localized_sums call that built the record and are not kept in it.
    """

    k: int
    weight_cap: int
    table: Mapping[int, SPoly]


def localized_sums(model: SurfaceModel, k: int) -> LocalizedSums:
    """Accumulate all fixed-point data of the Hilbert scheme of k points.

    The coefficient of s_lam in exp(sum_j s_j q_j) is q_lam / sym_factor(lam),
    so the degree-d sum is sum_lam s_lam * N(lam) / (D * sym_factor(lam))
    over partitions lam of d, with D = lcm of the Euler products and the
    integer numerators

        N(lam) = sum over fixed points of (D / euler_product) * q_lam .

    The fixed points share their per-chart pieces (see tangent_data).  This
    call owns the dict that holds them, so each is built once per table and
    dropped on return.

    Each point adds one integer per partition of size <= 2k.  A sum with
    d < 2k vanishes exactly when all its numerators are zero, so the
    below-top check reads the integers and raises VanishingCheckError on
    the first nonzero one.  Only the top sum, the genus, is built, by one
    exact division per partition of 2k; it is the record's one entry.
    """
    two_k = 2 * k
    # descending order makes mu[1:] a partition that comes earlier in the list
    mus = [mu for size in range(two_k + 1) for mu in enumerate_partitions(size)]
    index = {mu: i for i, mu in enumerate(mus)}
    steps = [(mu[0] - 1, index[mu[1:]]) for mu in mus[1:]]
    pieces: Pieces = {}
    points = [tangent_data(model, point, pieces=pieces) for point in fixed_points(model, k)]
    D = lcm(*(data.euler_product for data in points))
    numerators = [0] * len(mus)
    for data in points:
        q = data.power_sums
        values = [D // data.euler_product]
        for j, parent in steps:
            values.append(q[j] * values[parent])
        numerators = list(map(add, numerators, values))

    top = len(enumerate_partitions(two_k))
    for mu, numerator in zip(mus[:-top], numerators):
        if numerator:
            raise VanishingCheckError(
                f"below-top localization sum (degree {sum(mu)}) for k={k} on "
                f"{model.name}{model.weights}: partition {mu} has numerator {numerator}"
            )
    genus = SPoly({
        mu: Q(numerator, D * sym_factor(mu))
        for mu, numerator in zip(mus[-top:], numerators[-top:])
    })
    return LocalizedSums(k, two_k, {two_k: genus})


def hilbert_genus(model: SurfaceModel, k: int) -> SPoly:
    """Universal genus of the Hilbert scheme of k points, of weight 2k."""
    return localized_sums(model, k).table[2 * k]
