"""Embedded reference table of Kummer-variety Chern numbers for n <= 8."""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, enumerate_partitions

REFERENCE_N_MAX = 8


@lru_cache(maxsize=None)
def load_reference_table() -> dict[tuple[int, Partition], int]:
    """Map (n, partition) -> exact Chern number, for 2 <= n <= 8.

    Member n has one entry per partition of 2(n-1) into even parts, the
    doubles of the partitions of n - 1 (44 entries in all).  The values
    live in the reference_data module, imported here on first use.
    """
    from . import reference_data

    table: dict[tuple[int, Partition], int] = {}
    for n, partition, value in reference_data.ENTRIES:
        key = (n, partition)
        if key in table:
            raise ValueError(f"duplicate reference entry {key}")
        table[key] = value
    shape = {
        (n, tuple(2 * part for part in lam))
        for n in range(2, REFERENCE_N_MAX + 1)
        for lam in enumerate_partitions(n - 1)
    }
    if table.keys() != shape:
        raise ValueError(f"reference table has wrong shape at {sorted(table.keys() ^ shape)}")
    return table


def reference_for(n: int) -> dict[Partition, int]:
    """Reference Chern numbers of the n-th member, keyed by partition."""
    if not 2 <= n <= REFERENCE_N_MAX:
        raise ValueError(f"reference table covers 2 <= n <= {REFERENCE_N_MAX}")
    return {mu: v for (m, mu), v in load_reference_table().items() if m == n}
