"""Embedded reference table of Kummer-variety Chern numbers for n <= 8."""

from __future__ import annotations

import json
from functools import lru_cache

from .partitions import Partition

REFERENCE_N_MAX = 8

# entries per n: 1, 2, 3, 5, 7, 11, 15 (44 in total)
EXPECTED_COUNTS = {2: 1, 3: 2, 4: 3, 5: 5, 6: 7, 7: 11, 8: 15}


def _resource_bytes() -> bytes:
    # imported here so that only the commands reading the table load it
    from importlib import resources

    return (
        resources.files("kummer_chern") / "data" / "kummer_chern_numbers.json"
    ).read_bytes()


@lru_cache(maxsize=None)
def load_reference_table() -> dict[tuple[int, Partition], int]:
    """Map (n, partition) -> exact Chern number, for 2 <= n <= 8."""
    payload = json.loads(_resource_bytes())
    table: dict[tuple[int, Partition], int] = {}
    for entry in payload["entries"]:
        key = (entry["n"], tuple(entry["partition"]))
        if key in table:
            raise ValueError(f"duplicate reference entry {key}")
        table[key] = int(entry["value"])
    counts: dict[int, int] = {}
    for n, _ in table:
        counts[n] = counts.get(n, 0) + 1
    if counts != EXPECTED_COUNTS:
        raise ValueError(f"reference table has wrong shape: {counts}")
    return table


def reference_for(n: int) -> dict[Partition, int]:
    """Reference Chern numbers of the n-th member, keyed by partition."""
    if not 2 <= n <= REFERENCE_N_MAX:
        raise ValueError(f"reference table covers 2 <= n <= {REFERENCE_N_MAX}")
    return {mu: v for (m, mu), v in load_reference_table().items() if m == n}
