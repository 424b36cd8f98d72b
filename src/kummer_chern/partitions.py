"""Integer partitions and Young-diagram cell statistics.

A partition is a tuple of weakly decreasing positive integers (English
notation); the empty tuple is the unique partition of 0.  Cell (row, col)
is the col-th box of the row-th part, both 0-based.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]


class CellHook(NamedTuple):
    """A diagram cell with its arm (boxes to the right) and leg (boxes below)."""

    row: int
    col: int
    arm: int
    leg: int


@lru_cache(maxsize=None)
def enumerate_partitions(k: int) -> tuple[Partition, ...]:
    """All partitions of k, each once, lexicographically decreasing.

    enumerate_partitions(3) == ((3,), (2, 1), (1, 1, 1))
    """
    if k < 0:
        raise ValueError(f"cannot partition {k}")

    def gen(rest: int, maxpart: int) -> Iterator[Partition]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(k, k))


def cell_hooks(lam: Partition) -> list[CellHook]:
    """One entry per cell: arm = boxes strictly right, leg = boxes strictly below."""
    hooks = []
    rows = len(lam)
    for r, part in enumerate(lam):
        for c in range(part):
            arm = part - c - 1
            leg = sum(1 for rr in range(r + 1, rows) if lam[rr] > c)
            hooks.append(CellHook(r, c, arm, leg))
    return hooks


def _compositions(k: int, c: int) -> Iterator[tuple[int, ...]]:
    # ordered c-tuples of nonnegative integers summing to k, first entry largest first
    if c == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for tail in _compositions(k - first, c - 1):
            yield (first,) + tail


def multipartitions(k: int, c: int) -> list[tuple[Partition, ...]]:
    """All ordered c-tuples of partitions with total size k, in a fixed order."""
    if k < 0 or c < 1:
        raise ValueError(f"need k >= 0 and c >= 1, got k={k}, c={c}")
    out = []
    for sizes in _compositions(k, c):
        out.extend(product(*(enumerate_partitions(s) for s in sizes)))
    return out


def multiplicities(lam: Partition) -> dict[int, int]:
    """Map part -> how many times it occurs in lam."""
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    return mult


def sym_factor(lam: Partition) -> int:
    """Product of factorials of the part multiplicities."""
    out = 1
    for m in multiplicities(lam).values():
        out *= factorial(m)
    return out
