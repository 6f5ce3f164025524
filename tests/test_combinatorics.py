import math

import pytest

from overlap_lab.combinatorics import (
    binom,
    colex_rank,
    elements_of,
    ksets,
    mask_from_elements,
    shift_leq,
    validate_kset,
)


def test_binom_small_values():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(0, 0) == 1
    assert binom(10, 3) - binom(8, 3) == 64


def test_binom_matches_math_comb():
    for m in range(0, 36):
        for s in range(0, m + 2):
            assert binom(m, s) == math.comb(m, s) if s <= m else binom(m, s) == 0


def test_binom_pascal_rule():
    for m in range(1, 41):
        for s in range(1, m + 1):
            assert binom(m, s) == binom(m - 1, s) + binom(m - 1, s - 1)


def test_binom_rejects_negative():
    with pytest.raises(ValueError):
        binom(-1, 2)
    with pytest.raises(ValueError):
        binom(4, -2)


def test_mask_roundtrip():
    mask = mask_from_elements([3, 1, 5])
    assert elements_of(mask) == (1, 3, 5)
    with pytest.raises(ValueError):
        mask_from_elements([1, 1])
    with pytest.raises(ValueError):
        mask_from_elements([0])
    with pytest.raises(ValueError):
        mask_from_elements([5], n=4)


def test_validate_kset():
    validate_kset(0b101, 3, 2)
    with pytest.raises(ValueError):
        validate_kset(0b1000, 3, 1)
    with pytest.raises(ValueError):
        validate_kset(0b101, 3, 3)


def test_ksets_name_the_bound_they_break():
    assert ksets(0, 0) == (0,) and len(ksets(64, 1)) == 64
    with pytest.raises(ValueError, match=r"ground set size 65 outside 0\.\.64"):
        ksets(65, 2)
    with pytest.raises(ValueError, match=r"ground set size -1 outside 0\.\.64"):
        ksets(-1, 0)
    with pytest.raises(ValueError, match="k must be at least 0, got -1"):
        ksets(4, -1)


def test_ksets_agree_with_colex_comparator():
    # independent definition of colex: compare reversed sorted element tuples
    for n, k in [(5, 2), (6, 3), (7, 2), (4, 4), (6, 1)]:
        table = ksets(n, k)
        assert len(table) == binom(n, k)
        key = lambda m: tuple(reversed(elements_of(m)))
        assert list(table) == sorted(table, key=key)
        for rank, mask in enumerate(table):
            assert mask.bit_count() == k
            assert colex_rank(mask) == rank


def test_colex_examples():
    assert colex_rank(mask_from_elements([1, 2])) == 0


def test_shift_leq_examples():
    assert shift_leq(mask_from_elements([1, 2]), mask_from_elements([1, 3]))
    assert not shift_leq(mask_from_elements([1, 4]), mask_from_elements([2, 3]))
    for mask in ksets(6, 3):
        assert shift_leq(mask, mask)


def test_shift_leq_size_mismatch():
    with pytest.raises(ValueError):
        shift_leq(mask_from_elements([1]), mask_from_elements([1, 2]))


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 3), (8, 3)])
def test_shift_order_is_partial_order(n, k):
    table = ksets(n, k)
    for x in table:
        assert shift_leq(x, x)
    for x in table:
        for y in table:
            if shift_leq(x, y) and shift_leq(y, x):
                assert x == y
    for x in table:
        below_x = [y for y in table if shift_leq(y, x)]
        for y in below_x:
            for z in table:
                if shift_leq(z, y):
                    assert shift_leq(z, x)


@pytest.mark.parametrize("n,k", [(6, 2), (7, 3), (5, 4)])
def test_first_k_elements_unique_minimum(n, k):
    bottom = mask_from_elements(range(1, k + 1))
    table = ksets(n, k)
    assert all(shift_leq(bottom, y) for y in table)
    assert [y for y in table if shift_leq(y, bottom)] == [bottom]
