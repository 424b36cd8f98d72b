import hashlib
import json

import pytest

from kummer_chern import reference
from kummer_chern.reference import (
    _resource_bytes,
    load_reference_table,
    reference_for,
)

from oracles import partitions_ascending

# guards the transcription against accidental edits
REFERENCE_SHA256 = "fd28dabfa62b0698506a113fbaa8ecfa0d6c73bec2a150c4679a092af7e00367"


def test_resource_checksum():
    assert hashlib.sha256(_resource_bytes()).hexdigest() == REFERENCE_SHA256


def test_shape_and_total():
    table = load_reference_table()
    assert len(table) == 44
    # member n has one entry per partition of n - 1, doubled
    assert set(table) == {
        (n, tuple(2 * part for part in lam))
        for n in range(2, 9)
        for lam in partitions_ascending(n - 1)
    }


def test_a_wrong_partition_with_the_right_counts_is_rejected(monkeypatch):
    payload = json.loads(_resource_bytes())
    (entry,) = [e for e in payload["entries"] if (e["n"], e["partition"]) == (3, [4])]
    entry["partition"] = [3, 1]  # a partition of 4, but not into even parts
    corrupted = json.dumps(payload).encode()
    monkeypatch.setattr(reference, "_resource_bytes", lambda: corrupted)
    load_reference_table.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"shape at \[\(3, \(3, 1\)\), \(3, \(4,\)\)\]"):
            load_reference_table()
    finally:
        load_reference_table.cache_clear()


def test_spot_values():
    table = load_reference_table()
    assert table[(2, (2,))] == 24
    assert table[(3, (2, 2))] == 756
    assert table[(3, (4,))] == 108
    assert table[(4, (2, 2, 2))] == 30208
    assert table[(7, (6, 6))] == 12976376
    assert table[(8, (2,) * 7)] == 421414305792
    assert table[(8, (14,))] == 7680


def test_partitions_are_even_and_of_the_right_size():
    for (n, mu) in load_reference_table():
        assert sum(mu) == 2 * (n - 1)
        assert all(part % 2 == 0 for part in mu)
        assert all(a >= b for a, b in zip(mu, mu[1:]))


def test_reference_for_slice():
    assert reference_for(2) == {(2,): 24}
    assert len(reference_for(8)) == 15
    with pytest.raises(ValueError):
        reference_for(9)
    with pytest.raises(ValueError):
        reference_for(1)
