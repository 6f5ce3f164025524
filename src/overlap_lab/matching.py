"""Exact matching computations.

Every matching question here is one rainbow question, answered by one
kernel: given a sequence of candidate bitsets over colex ranks, pick one
member from each so that the picks are pairwise disjoint.  A disjointness
table (for each rank, the bitset of ranks whose k-sets miss it) turns that
into plain integer backtracking.  The Family functions take one path: t
disjoint members of one family are a rainbow matching of t copies of it
(the paper's case A_1 = ... = A_m, the Erdos Matching Conjecture).  It
builds the table over the members only, so its memory follows the
families rather than C(n, k)^2 bits, and first tries to settle a "no" by
a short certificate (_no_matching): too few elements in the members, or a
few elements that meet every member.  One augmenting-path pass gives the
bipartite maximum matching and the alternating-reachability minimum cover.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .combinatorics import binom, iter_bits, ksets
from .family import Chain, Family


@lru_cache(maxsize=None)
def _element_holders(n: int, k: int) -> tuple[int, ...]:
    """Entry e: the bitset of colex ranks whose k-subsets of [n] hold element e+1.

    In colex order the k-subsets of [n-1] come first, then those holding n
    in the order of their other k-1 elements, so the table is built from
    the tables of (n-1, k) and (n-1, k-1) with one shift per element.
    """
    if k == 0 or n < k:
        return (0,) * n
    low = binom(n - 1, k)
    rest = _element_holders(n - 1, k - 1)
    return tuple(h | r << low for h, r in zip(_element_holders(n - 1, k), rest)) + (
        ((1 << binom(n - 1, k - 1)) - 1) << low,
    )


def _disjoint_within(n: int, k: int, within: int) -> dict[int, int]:
    """For each rank r in `within`, the bitset of ranks in `within` whose k-sets miss rank r's."""
    table = ksets(n, k)
    holders = _element_holders(n, k)
    out = {}
    rest = within
    while rest:
        low = rest & -rest
        rest ^= low
        r = low.bit_length() - 1
        mask = table[r]
        hit = 0
        while mask:
            bit = mask & -mask
            mask ^= bit
            hit |= holders[bit.bit_length() - 1]
        out[r] = within & ~hit
    return out


@lru_cache(maxsize=None)
def disjointness(n: int, k: int) -> tuple[int, ...]:
    """Entry r: the bitset of colex ranks whose k-subsets of [n] miss the k-set of rank r.

    At k = 0 the only k-set is the empty set, which misses itself.
    """
    return tuple(_disjoint_within(n, k, (1 << binom(n, k)) - 1).values())


def rainbow(
    cands: Sequence[int],
    disj: Sequence[int] | Mapping[int, int],
    avail: int = -1,
    start: int = 0,
    floor: int = -1,
) -> tuple[int, ...] | None:
    """A rainbow matching of the bitsets cands in avail as its picked ranks, or None if there is none.

    picks[i] lies in cands[i] & avail and the picks are pairwise disjoint;
    an empty cands gives (), which is a success but falsy, so callers test
    `is None`.  disj[r] is the bitset of ranks disjoint from rank r.  Each
    index tries its ranks lowest first, so the picks are the
    lexicographically least matching the search admits.  Equal neighbours
    take non-decreasing ranks (at k = 0 the empty set misses itself); this
    floor only prunes, since sorting a run of equal candidates in any
    matching gives a matching no larger, so the least one meets every
    floor.  The last index, placed without a call, skips its floor: that
    admits more tuples but none below the least, so the answer, and None
    when there is none, stays the same.  start and floor carry the
    recursion: the index being placed and the ranks it may take.
    """
    last = len(cands) - 1
    if start > last:
        return ()
    cand = cands[start] & avail & floor
    if start == last:
        return ((cand & -cand).bit_length() - 1,) if cand else None
    if start + 1 == last:
        # the last pick needs no call: the lowest rank left in its candidates
        tail = cands[last] & avail
        while cand:
            low = cand & -cand
            r = low.bit_length() - 1
            hit = tail & disj[r]
            if hit:
                return (r, (hit & -hit).bit_length() - 1)
            cand ^= low
        return None
    same = cands[start + 1] == cands[start]
    while cand:
        low = cand & -cand
        r = low.bit_length() - 1
        picks = rainbow(cands, disj, avail & disj[r], start + 1, -low if same else -1)
        if picks is not None:
            return (r,) + picks
        cand ^= low
    return None


def _no_matching(n: int, k: int, bits: int, size: int) -> bool:
    """True only if it proves that the k-sets of the ranks in bits hold no `size` pairwise disjoint ones.

    Two proofs, neither complete, so False proves nothing.  Support: a
    matching of `size` k-sets covers size*k elements, so fewer elements
    occurring in the members rule it out.  Transversal: if size-1 elements
    meet every member, each member of a matching would hold its own one of
    them; the elements are picked greedily, each the one held by the most
    members not yet met.  Sound at k = 0 too, where both fail for a
    nonempty family: the empty set holds no element.
    """
    held = [h & bits for h in _element_holders(n, k)]
    if sum(1 for h in held if h) < size * k:
        return True
    left = bits
    for _ in range(size - 1):
        left &= ~max((h & left for h in held), key=int.bit_count, default=0)
    return not left


def matching_number(fam: Family) -> int:
    """Largest number of pairwise disjoint members of the family."""
    size = 0
    while has_matching_of_size(fam, size + 1):
        size += 1
    return size


def has_matching_of_size(fam: Family, size: int) -> bool:
    """True iff the family contains `size` pairwise disjoint members.

    This is the rainbow question on `size` copies of the family, so it
    takes has_rainbow_matching's path: the same certificates, one member
    table and one kernel call.  Only k = 0 differs: the empty set misses
    itself but is a single member.
    """
    if fam.k == 0:
        return size <= len(fam)
    return has_rainbow_matching((fam,) * size, size)


def _common_params(fams: Sequence[Family]) -> tuple[int, int]:
    if not fams:
        raise ValueError("need at least one family")
    n, k = fams[0].n, fams[0].k
    for f in fams[1:]:
        if (f.n, f.k) != (n, k):
            raise ValueError("families must share (n, k)")
    return n, k


def rainbow_matching_number(fams: Sequence[Family]) -> int:
    """Largest r such that r distinct indices admit pairwise disjoint representatives."""
    size = 0
    while has_rainbow_matching(fams, size + 1):
        size += 1
    return size


def has_rainbow_matching(fams: Sequence[Family], size: int) -> bool:
    """True iff `size` distinct indices admit pairwise disjoint representatives.

    Any `size` of the families have their members in the union of all, so
    a "no" that _no_matching proves on the union holds for every choice of
    indices and takes no kernel call; otherwise the kernel tries each choice.
    """
    if size <= 0:
        return True
    n, k = _common_params(fams)
    if size > len(fams):
        return False
    union = 0
    for f in fams:
        union |= f.bits
    if _no_matching(n, k, union, size):
        return False
    disj = _disjoint_within(n, k, union)
    # smallest families first: their representatives are the scarcest;
    # sorting also makes equal families neighbours
    bits = sorted((f.bits for f in fams), key=lambda b: (b.bit_count(), b))
    return any(rainbow(pick, disj) is not None for pick in combinations(bits, size))


def is_overlapping(chain: Chain) -> bool:
    """True iff the chain admits no rainbow matching of size s+1."""
    return not has_rainbow_matching(chain.families, chain.s + 1)


# ---------------------------------------------------------------------------
# bipartite matching and the minimum vertex cover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BipartiteGraph:
    """Left/right labeled vertices; adj[u] is the bitmask of right neighbors of left u."""

    left: tuple
    right: tuple
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.adj) != len(self.left):
            raise ValueError("adjacency list length must match left side")
        nr = len(self.right)
        for row in self.adj:
            if row < 0 or row >> nr:
                raise ValueError("edge endpoints outside right side")


def _augmenting_paths(g: BipartiteGraph) -> tuple[list[int], list[int]]:
    """A maximum matching as match_l, match_r: each vertex's partner index, -1 if unmatched."""
    nl, nr = len(g.left), len(g.right)
    match_l = [-1] * nl
    match_r = [-1] * nr

    def augment(u: int, visited: list[bool]) -> bool:
        for v in iter_bits(g.adj[u]):
            if not visited[v]:
                visited[v] = True
                if match_r[v] < 0 or augment(match_r[v], visited):
                    match_l[u] = v
                    match_r[v] = u
                    return True
        return False

    for u in range(nl):
        augment(u, [False] * nr)
    return match_l, match_r


def max_bipartite_matching(g: BipartiteGraph) -> tuple[tuple[int, int], ...]:
    """Maximum matching as (left index, right index) pairs, via augmenting paths."""
    return tuple((u, v) for u, v in enumerate(_augmenting_paths(g)[0]) if v >= 0)


def min_vertex_cover(g: BipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimum vertex cover as (left indices, right indices); |cover| = |max matching|.

    Alternating reachability from unmatched left vertices: the cover is the
    unreached left side plus the reached right side.
    """
    nl, nr = len(g.left), len(g.right)
    match_l, match_r = _augmenting_paths(g)

    reach_l = [match_l[u] < 0 for u in range(nl)]
    reach_r = [False] * nr
    frontier = [u for u in range(nl) if reach_l[u]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in iter_bits(g.adj[u]):
                if not reach_r[v]:
                    reach_r[v] = True
                    w = match_r[v]
                    if w >= 0 and not reach_l[w]:
                        reach_l[w] = True
                        nxt.append(w)
        frontier = nxt

    lefts = tuple(u for u in range(nl) if not reach_l[u])
    rights = tuple(v for v in range(nr) if reach_r[v])
    return lefts, rights


def cover_is_valid(g: BipartiteGraph, cover: tuple[tuple[int, ...], tuple[int, ...]]) -> bool:
    """Every edge has an endpoint in the cover."""
    lefts, rights = set(cover[0]), 0
    for v in cover[1]:
        rights |= 1 << v
    for u, row in enumerate(g.adj):
        if u not in lefts and row & ~rights:
            return False
    return True
