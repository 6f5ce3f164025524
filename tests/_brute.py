"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: plain enumeration over subsets,
products, and index combinations, sharing no search code with the package.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from overlap_lab.combinatorics import ksets, shift_leq
from overlap_lab.family import Family, downset_bitsets
from overlap_lab.matching import BipartiteGraph


def pairwise_disjoint(masks) -> bool:
    acc = 0
    for m in masks:
        if acc & m:
            return False
        acc |= m
    return True


def brute_matching_number(fam: Family) -> int:
    members = list(fam.members())
    # pairwise disjoint k-sets of [n] number at most n // k
    top = min(len(members), fam.n // fam.k) if fam.k else len(members)
    for size in range(top, 0, -1):
        for combo in combinations(members, size):
            if pairwise_disjoint(combo):
                return size
    return 0


def brute_rainbow_number(fams) -> int:
    m = len(fams)
    member_lists = [list(f.members()) for f in fams]
    for size in range(m, 0, -1):
        for idxs in combinations(range(m), size):
            if any(not member_lists[i] for i in idxs):
                continue
            for choice in product(*(member_lists[i] for i in idxs)):
                if pairwise_disjoint(choice):
                    return size
    return 0


def brute_all_max_rainbow(fams) -> list[tuple[tuple[int, int], ...]]:
    """Every maximum rainbow matching as sorted (index, mask) tuples."""
    m = len(fams)
    member_lists = [list(f.members()) for f in fams]
    best = brute_rainbow_number(fams)
    out = []
    for idxs in combinations(range(m), best):
        for choice in product(*(member_lists[i] for i in idxs)):
            if pairwise_disjoint(choice):
                out.append(tuple(zip(idxs, choice)))
    return out


def brute_min_cover_size(g: BipartiteGraph) -> int:
    """Exact minimum vertex cover by enumerating left-side subsets."""
    nl = len(g.left)
    best = None
    for picks in range(1 << nl):
        uncovered_rights = 0
        for u in range(nl):
            if not picks >> u & 1:
                uncovered_rights |= g.adj[u]
        size = bin(picks).count("1") + uncovered_rights.bit_count()
        if best is None or size < best:
            best = size
    return best or 0


def is_downset_direct(bits: int, n: int, k: int) -> bool:
    """Downset test straight from the order definition, via shift_leq only."""
    table = ksets(n, k)
    members = [table[r] for r in range(len(table)) if bits >> r & 1]
    for y in members:
        for r, x in enumerate(table):
            if shift_leq(x, y) and not bits >> r & 1:
                return False
    return True


def brute_downset_count(n: int, k: int) -> int:
    capacity = len(ksets(n, k))
    return sum(is_downset_direct(bits, n, k) for bits in range(1 << capacity))


def brute_chain_optimum(n: int, k: int, s: int, weights) -> Fraction:
    """Raw maximum of sum w_i |B_i| over nested chains with no rainbow (s+1)-matching.

    Enumerates every map from k-sets to entry levels {0..s, never} with no
    pruning at all and evaluates the rainbow constraint by brute force.
    """
    table = ksets(n, k)
    capacity = len(table)
    best = Fraction(-1)
    for code in range((s + 2) ** capacity):
        levels = []
        rest = code
        for _ in range(capacity):
            rest, lvl = divmod(rest, s + 2)
            levels.append(lvl)
        fams = []
        for i in range(s + 1):
            masks = [table[r] for r in range(capacity) if levels[r] <= i]
            fams.append(Family.from_masks(n, k, masks))
        if brute_rainbow_number(fams) <= s:
            value = sum((Fraction(w) * len(f) for w, f in zip(weights, fams)), Fraction(0))
            best = max(best, value)
    return best


def brute_max_min_overlapping(n: int, k: int, s: int) -> tuple[int, int]:
    """First largest downset, in downset_bitsets order, with matching number at most s."""
    best_size, best_bits = -1, 0
    for bits in downset_bitsets(n, k):
        size = bits.bit_count()
        if size > best_size and brute_matching_number(Family(n, k, bits)) <= s:
            best_size, best_bits = size, bits
    return best_size, best_bits
