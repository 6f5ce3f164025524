"""Exact integer primitives: binomials, k-set bitmasks, colex ranking, the shift order.

A k-set over the ground set [n] = {1, ..., n} is stored as an int bitmask
with bit i-1 set for element i.  All arithmetic is exact; Python ints never
overflow, so counts of any desk-scale magnitude are safe.  Elements are
1-based in every public tuple interface and 0-based only inside masks.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator

MAX_GROUND_SET = 64


def binom(m: int, s: int) -> int:
    """C(m, s), exact (math.comb).

    Returns 0 when s > m.  Negative arguments are rejected.
    """
    if m < 0 or s < 0:
        raise ValueError(f"binom arguments must be nonnegative, got ({m}, {s})")
    return math.comb(m, s)


def mask_from_elements(elements: Iterable[int], n: int | None = None) -> int:
    """Bitmask of a set of 1-based elements, optionally validated against [n]."""
    mask = 0
    for e in elements:
        if e < 1 or e > MAX_GROUND_SET:
            raise ValueError(f"element {e} outside 1..{MAX_GROUND_SET}")
        if n is not None and e > n:
            raise ValueError(f"element {e} outside ground set [{n}]")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError(f"duplicate element {e}")
        mask |= bit
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def validate_kset(mask: int, n: int, k: int) -> int:
    """Check that mask is a well-formed k-subset of [n]."""
    if n < 1 or n > MAX_GROUND_SET:
        raise ValueError(f"ground set size {n} outside 1..{MAX_GROUND_SET}")
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#x} has bits outside ground set [{n}]")
    if mask.bit_count() != k:
        raise ValueError(f"mask has {mask.bit_count()} elements, expected {k}")
    return mask


@lru_cache(maxsize=None)
def ksets(n: int, k: int) -> tuple[int, ...]:
    """All k-subsets of [n] as masks, in colex order (index == colex rank)."""
    if n < 0 or n > MAX_GROUND_SET:
        raise ValueError(f"ground set size {n} outside 0..{MAX_GROUND_SET}")
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    out: list[int] = []

    def gen(top: int, kk: int, acc: int) -> None:
        if kk == 0:
            out.append(acc)
            return
        for hi in range(kk - 1, top):
            gen(hi, kk - 1, acc | (1 << hi))

    gen(n, k, 0)
    return tuple(out)


def colex_rank(mask: int) -> int:
    """Colex rank of a k-set: sum of C(e_j - 1, j) over its sorted elements e_1 < ... < e_k."""
    r = 0
    j = 0
    while mask:
        low = mask & -mask
        j += 1
        r += binom(low.bit_length() - 1, j)
        mask ^= low
    return r


def shift_leq(x: int, y: int) -> bool:
    """Coordinatewise order on equal-size sets: i-th smallest of x <= i-th smallest of y."""
    if x.bit_count() != y.bit_count():
        raise ValueError("shift_leq requires equal-size sets")
    while x:
        lx = x & -x
        ly = y & -y
        if lx.bit_length() > ly.bit_length():
            return False
        x ^= lx
        y ^= ly
    return True


def iter_bits(mask: int) -> Iterator[int]:
    """Yield 0-based bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
