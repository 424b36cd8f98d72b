"""Integer partitions and tuples of partitions.

A partition is a tuple of weakly decreasing positive integers (English
notation); the empty tuple is the unique partition of 0.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterator

Partition = tuple[int, ...]


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


def _compositions(k: int, c: int) -> Iterator[tuple[int, ...]]:
    # ordered c-tuples of nonnegative integers summing to k, first entry largest first
    if c == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for tail in _compositions(k - first, c - 1):
            yield (first,) + tail


def multipartitions(k: int, c: int) -> list[tuple[Partition, ...]]:
    """All ordered c-tuples of partitions with total size k, grouped by their sizes."""
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


@lru_cache(maxsize=None)
def sym_factor(lam: Partition) -> int:
    """Product of factorials of the part multiplicities (cached, as the
    tables of every model and degree ask for the same few partitions)."""
    out = 1
    for m in multiplicities(lam).values():
        out *= factorial(m)
    return out
