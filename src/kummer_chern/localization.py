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

from math import lcm
from operator import add
from typing import Mapping, NamedTuple

from .partitions import Partition, enumerate_partitions, multipartitions, sym_factor
from .polyring import Q, SPoly


class GenericityError(Exception):
    """A chart or tangent weight vanished; retry with other torus parameters."""


class VanishingCheckError(Exception):
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

# torus parameters tried by the default schedule before giving up
MAX_TRIES = 64


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
    return (1, depth * depth + depth + 1)


def find_generic_model(
    name: str,
    depth: int,
    weights: tuple[int, int] | None = None,
) -> SurfaceModel:
    """Build a model generic up to Hilbert depth ``depth``.

    Explicit weights are used as given and must pass; otherwise the
    deterministic schedule starts at (1, depth^2 + depth + 1) and
    increments b until the genericity precheck passes.
    """
    if weights is not None:
        model = build_surface_model(name, *weights)
        if not is_generic(model, depth):
            raise GenericityError(
                f"weights {weights} are degenerate for {name} at depth {depth}"
            )
        return model
    a, b = default_weights(depth)
    for _ in range(MAX_TRIES):
        try:
            model = build_surface_model(name, a, b)
            if is_generic(model, depth):
                return model
        except GenericityError:
            pass
        b += 1
    raise GenericityError(f"no generic parameters found for {name} at depth {depth}")


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

    An immutable record; ``_replace`` makes a modified copy.
    """

    weights: tuple[int, ...]
    euler_product: int
    power_sums: tuple[int, ...]  # q_j = sum w_i^j for j = 1..2k


def tangent_data(model: SurfaceModel, point: FixedPoint) -> TangentData:
    ws: list[int] = []
    for chart, lam in zip(model.charts, point):
        ws.extend(tangent_weights(chart, lam))
    euler = 1
    for w in ws:
        euler *= w
    two_k = len(ws)
    powers = [1] * len(ws)
    sums = []
    for _ in range(two_k):
        powers = [p * w for p, w in zip(powers, ws)]
        sums.append(sum(powers))
    return TangentData(tuple(ws), euler, tuple(sums))


class LocalizedSums(NamedTuple):
    """Fixed-point sums for the Hilbert scheme of k points (an immutable record).

    table[d] is the sum over all fixed points of P_d / euler_product for
    d <= 2k, where P_d is the weight-d part of exp(sum_j s_j q_j).  Entries
    with d < 2k vanish identically (checked at construction time), and
    table[2k] is the genus, homogeneous of weight 2k.  weight_cap is always
    2k; it is kept only because perfbench/spans.table_stats reads it.
    """

    k: int
    weight_cap: int
    table: Mapping[int, SPoly]


def localized_sums(model: SurfaceModel, k: int) -> LocalizedSums:
    """Accumulate all fixed-point data of the Hilbert scheme of k points.

    The coefficient of s_lam in exp(sum_j s_j q_j) is q_lam / sym_factor(lam),
    so entry d is sum_lam s_lam * N(lam) / (D * sym_factor(lam)) over
    partitions lam of d, with D = lcm of the Euler products and the integer
    numerators

        N(lam) = sum over fixed points of (D / euler_product) * q_lam .

    Each point adds one integer per partition of size <= 2k.  An entry with
    d < 2k vanishes exactly when all its numerators are zero, so the
    below-top check reads the integers; only the top entry is built, by one
    exact division per partition.
    """
    two_k = 2 * k
    # descending order makes mu[1:] a partition that comes earlier in the list
    mus = [mu for size in range(two_k + 1) for mu in enumerate_partitions(size)]
    index = {mu: i for i, mu in enumerate(mus)}
    steps = [(mu[0] - 1, index[mu[1:]]) for mu in mus[1:]]
    points = [tangent_data(model, point) for point in fixed_points(model, k)]
    D = lcm(*(data.euler_product for data in points))
    numerators = [0] * len(mus)
    for data in points:
        q = data.power_sums
        values = [D // data.euler_product]
        for j, parent in steps:
            values.append(q[j] * values[parent])
        numerators = list(map(add, numerators, values))

    def entry(d: int) -> SPoly:
        terms = {
            lam: Q(numerators[index[lam]], D * sym_factor(lam))
            for lam in enumerate_partitions(d)
        }
        return SPoly(terms)

    table = {}
    for d in range(two_k):
        if any(numerators[index[lam]] for lam in enumerate_partitions(d)):
            raise VanishingCheckError(
                f"below-top localization sum (degree {d}) for k={k} on "
                f"{model.name}{model.weights} is {entry(d)}"
            )
        table[d] = SPoly()
    table[two_k] = entry(two_k)
    return LocalizedSums(k, two_k, table)


def hilbert_genus(model: SurfaceModel, k: int) -> SPoly:
    """Universal genus of the Hilbert scheme of k points, of weight 2k."""
    return localized_sums(model, k).table[2 * k]
