import pytest

from kummer_chern.partitions import (
    enumerate_partitions,
    multipartitions,
    multiplicities,
    sym_factor,
)

from oracles import (
    cell_hooks,
    colored_partition_counts,
    conjugate,
    partitions_ascending,
)


def test_partitions_of_zero_and_three():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(3) == ((3,), (2, 1), (1, 1, 1))


def test_partitions_of_eight_has_22_entries():
    # frozen from the ascending-composition oracle
    assert len(enumerate_partitions(8)) == 22


def test_enumeration_matches_oracle_and_is_lex_decreasing():
    for k in range(13):
        listed = enumerate_partitions(k)
        assert set(listed) == partitions_ascending(k)
        assert len(set(listed)) == len(listed)
        assert list(listed) == sorted(listed, reverse=True)


def test_counts_match_generating_function_up_to_20():
    counts = colored_partition_counts(20, 1)
    for k in range(21):
        assert len(enumerate_partitions(k)) == counts[k]


def test_cell_hooks_single_cell():
    assert cell_hooks((1,)) == [(0, 0, 0, 0)]


def test_cell_hooks_row_of_two():
    assert cell_hooks((2,)) == [(0, 0, 1, 0), (0, 1, 0, 0)]


def test_cell_hooks_hook_shape():
    hooks = {(c.row, c.col): (c.arm, c.leg) for c in cell_hooks((2, 1))}
    assert hooks == {(0, 0): (1, 1), (0, 1): (0, 0), (1, 0): (0, 0)}


def test_arm_leg_agree_with_conjugate():
    for k in range(9):
        for lam in enumerate_partitions(k):
            mirror = {
                (c.col, c.row): (c.leg, c.arm) for c in cell_hooks(conjugate(lam))
            }
            for c in cell_hooks(lam):
                assert mirror[(c.row, c.col)] == (c.arm, c.leg)


def test_multipartitions_small_cases():
    assert multipartitions(0, 3) == [((), (), ())]
    assert len(multipartitions(2, 3)) == 9
    assert len(multipartitions(1, 4)) == 4


def test_multipartition_counts_match_generating_function():
    for colors in (3, 4):
        counts = colored_partition_counts(8, colors)
        for k in range(9):
            tuples = multipartitions(k, colors)
            assert len(tuples) == counts[k]
            assert len(set(tuples)) == len(tuples)


def test_multipartitions_rejects_bad_arguments():
    with pytest.raises(ValueError):
        multipartitions(-1, 3)
    with pytest.raises(ValueError):
        multipartitions(2, 0)


def test_multiplicities_and_sym_factor():
    assert multiplicities((4, 2, 2, 1)) == {4: 1, 2: 2, 1: 1}
    assert sym_factor((4, 2, 2, 1)) == 2
    assert sym_factor((2, 2, 2)) == 6
    assert sym_factor(()) == 1
