import hashlib

import pytest

from kummer_chern import reference_data
from kummer_chern.reference import load_reference_table, reference_for

from oracles import partitions_ascending

# guards the transcription against accidental edits: the digest of the
# table's canonical form, its (key, value) pairs in sorted order
REFERENCE_SHA256 = "e5a2ef3db85afaa0659524469691721434881e9140f896c6f1d9904077f5507d"


def test_resource_checksum():
    canonical = repr(sorted(load_reference_table().items())).encode()
    assert hashlib.sha256(canonical).hexdigest() == REFERENCE_SHA256


def test_shape_and_total():
    table = load_reference_table()
    assert len(table) == 44
    # member n has one entry per partition of n - 1, doubled
    assert set(table) == {
        (n, tuple(2 * part for part in lam))
        for n in range(2, 9)
        for lam in partitions_ascending(n - 1)
    }


def _load_entries(monkeypatch, entries):
    monkeypatch.setattr(reference_data, "ENTRIES", tuple(entries))
    load_reference_table.cache_clear()
    try:
        return load_reference_table()
    finally:
        load_reference_table.cache_clear()


def test_a_wrong_partition_with_the_right_counts_is_rejected(monkeypatch):
    # (3, (3, 1)) is a partition of 4, but not into even parts
    entries = [(3, (3, 1), v) if (n, mu) == (3, (4,)) else (n, mu, v)
               for n, mu, v in reference_data.ENTRIES]
    with pytest.raises(ValueError, match=r"shape at \[\(3, \(3, 1\)\), \(3, \(4,\)\)\]"):
        _load_entries(monkeypatch, entries)


def test_a_duplicate_entry_is_rejected(monkeypatch):
    entries = [*reference_data.ENTRIES, (3, (4,), 108)]
    with pytest.raises(ValueError, match=r"duplicate reference entry \(3, \(4,\)\)"):
        _load_entries(monkeypatch, entries)


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
