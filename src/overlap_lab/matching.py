"""Exact matching computations.

Every matching question here is one rainbow question, answered by one
kernel: given a sequence of candidate bitsets over colex ranks, pick one
member from each so that the picks are pairwise disjoint.  A disjointness
table (for each rank, the bitset of ranks whose k-sets miss it) turns that
into plain integer backtracking.  The Family functions are thin wrappers:
a matching of size t in one family is a rainbow matching of t copies of
it, and they build the table over their members only, so their memory
follows the families rather than C(n, k)^2 bits.  The bipartite solver is
plain augmenting paths with the alternating-reachability minimum cover.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .combinatorics import binom, iter_bits, ksets
from .family import Chain, Family


def _disjoint_within(n: int, k: int, within: int) -> dict[int, int]:
    """For each rank r in `within`, the bitset of ranks in `within` whose k-sets miss rank r's."""
    table = ksets(n, k)
    meets = [0] * n  # meets[e]: ranks in `within` whose k-set holds element e
    for r in iter_bits(within):
        for e in iter_bits(table[r]):
            meets[e] |= 1 << r
    out = {}
    for r in iter_bits(within):
        hit = 0
        for e in iter_bits(table[r]):
            hit |= meets[e]
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
) -> bool:
    """True iff one member of each bitset cands[i] can be chosen in avail, pairwise disjoint.

    An empty cands is vacuously true.  disj[r] is the bitset of ranks
    disjoint from rank r.  Equal neighbours
    may swap their picks, so the later one takes a rank no smaller than the
    earlier one's (not strictly larger: at k = 0 the empty set is disjoint
    from itself).  start and floor carry the recursion: the index being
    placed and the ranks it may take.
    """
    last = len(cands) - 1
    if start >= last:
        return start > last or cands[start] & avail & floor != 0
    cand = cands[start] & avail & floor
    same = cands[start + 1] == cands[start]
    while cand:
        low = cand & -cand
        if rainbow(cands, disj, avail & disj[low.bit_length() - 1], start + 1, -low if same else -1):
            return True
        cand ^= low
    return False


def _member_disjointness(fams: Sequence[Family]) -> dict[int, int]:
    """The disjointness table restricted to the members of the families (which share (n, k))."""
    union = 0
    for f in fams:
        union |= f.bits
    return _disjoint_within(fams[0].n, fams[0].k, union)


def matching_number(fam: Family) -> int:
    """Largest number of pairwise disjoint members of the family."""
    size = 0
    while has_matching_of_size(fam, size + 1):
        size += 1
    return size


def has_matching_of_size(fam: Family, size: int) -> bool:
    """True iff the family contains `size` pairwise disjoint members."""
    if size <= 0:
        return True
    if fam.k == 0:
        # the empty set misses itself but is a single member
        return size <= len(fam)
    if size > fam.n // fam.k:
        return False
    return rainbow((fam.bits,) * size, _member_disjointness((fam,)))


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
    """True iff `size` distinct indices admit pairwise disjoint representatives."""
    if size <= 0:
        return True
    n, k = _common_params(fams)
    if size > len(fams) or (k and size > n // k):
        return False
    disj = _member_disjointness(fams)
    # smallest families first: their representatives are the scarcest;
    # sorting also makes equal families neighbours
    bits = sorted((f.bits for f in fams), key=lambda b: (b.bit_count(), b))
    return any(rainbow(pick, disj) for pick in combinations(bits, size))


def rainbow_matching_witness(fams: Sequence[Family]) -> list[tuple[int, int]]:
    """A maximum rainbow matching as (family index, member mask) pairs.

    Among maximum matchings, returns the one whose (index, colex rank)
    pair sequence is lexicographically least, so results are reproducible:
    index by index, it takes the least member that leaves the rest
    completable.
    """
    n, k = _common_params(fams)
    need = rainbow_matching_number(fams)
    disj = _member_disjointness(fams)
    table = ksets(n, k)
    bits = [f.bits for f in fams]
    witness: list[tuple[int, int]] = []
    avail = -1
    for pos, b in enumerate(bits):
        if not need:
            break
        rest = bits[pos + 1 :]
        for r in iter_bits(b & avail):
            left = avail & disj[r]
            if any(rainbow(pick, disj, left) for pick in combinations(rest, need - 1)):
                witness.append((pos, table[r]))
                avail = left
                need -= 1
                break
    assert not need, "greedy witness fell short of the rainbow matching number"
    return witness


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


def max_bipartite_matching(g: BipartiteGraph) -> tuple[tuple[int, int], ...]:
    """Maximum matching as (left index, right index) pairs, via augmenting paths."""
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
    return tuple((u, match_l[u]) for u in range(nl) if match_l[u] >= 0)


def min_vertex_cover(g: BipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimum vertex cover as (left indices, right indices); |cover| = |max matching|.

    Alternating reachability from unmatched left vertices: the cover is the
    unreached left side plus the reached right side.
    """
    nl, nr = len(g.left), len(g.right)
    matching = max_bipartite_matching(g)
    match_l = [-1] * nl
    match_r = [-1] * nr
    for u, v in matching:
        match_l[u] = v
        match_r[v] = u

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
