"""Exact optimization of the weighted size sum over overlapping nested chains.

Two independent routes compute the same optimum:

* oracle_f enumerates entry-level maps (each k-set gets the first chain
  index containing it, or none), which is a bijection onto nested chains,
  with branch-and-bound pruning.  It forward-checks: each unassigned k-set
  keeps the lowest entry level at which it can still join, rechecked only
  when a disjoint set is placed, so a node tries its feasible levels with
  no rainbow call and bounds the value by every later set's own best level
  (183 795 nodes on the 23 cells of perfbench's oracle workload when only
  the starting incumbent pruned, 5 129 with forward checking).  The
  levels are kept as one bitset of sets per level, and a recheck lifts
  every set that misses one rainbow matching of a level's rivals with no
  call of its own.  The rivals' question does not depend on the level the
  placed set tries, so a node asks each rival set once and each (rival
  set, set) pair at most once (3 399 top-level rainbow calls on that
  workload, against 7 225 when every level asked again and 31 746 at one
  call per set and level).  Permuting [n] keeps value, cardinality and
  overlap, so a map that some transposition of [n] sends to a
  lex-smaller one is cut as soon as its prefix shows it (lex-leader
  symmetry breaking); the canonical witness is the lex-least map of its
  orbit and is never cut (890 nodes and 233 top-level rainbow calls on
  that workload).

* exact_f_shifted enumerates nested chains of shifted families top-down
  (B_s over all downsets of the shift order, each of B_{s-1}..B_1 over
  sub-downsets of its parent) and takes B_0 in closed form.  Each level
  is a reverse-search walk that peels one member per step, so no downset
  list is built, and since B_0 holds no s+1 disjoint sets, |B_0| is capped
  by the matching bound M(n,k,s) in a value bound that prunes a candidate
  together with every sub-downset below it.  Once a level B_{j+1} holds
  every k-set inside [(s+1)k], B_0 holds no j+1 disjoint sets, and the cap
  drops to M(n,k,j) (1 196 nodes on the 19 cells of perfbench's shifted
  workload, against 1 651 with M(n,k,s) at every level and 4 768 when
  every downset was listed and tested).  The members of B_1 that B_0 must
  exclude form an upset of the shift order, so one rainbow call excludes
  a whole upset.

Both ask the rainbow question through matching.rainbow over the cached
matching.disjointness table, and both open and close in _solver_frame
(weights, starting incumbent, revalidated record); they share nothing else.
Agreement of the two on every co-runnable instance is a tested invariant,
not an assumption.  This module builds no report: the conj1 and conj2
reports are built in suites from these solvers and max_min_overlapping.
Witness tie-breaking is deterministic: smallest total cardinality first,
then the lexicographically least entry-level sequence read in colex order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from . import bounds as _bounds
from . import family as _family
from . import matching as _matching
from .combinatorics import binom, iter_bits, ksets
from .family import (
    Chain,
    Family,
    NodeLimitError,
    chain_to_dict,
    is_shifted,
    poset_upsets,
    walk_downsets,
    walk_subdownsets,
)
from .matching import disjointness, has_matching_of_size, rainbow

# kept only because perfbench's frontier ladders catch this name
InstanceTooLargeError = NodeLimitError


@dataclass(frozen=True)
class ExtremalRecord:
    """Solver output: exact optimum, witness chain, and provenance."""

    n: int
    k: int
    s: int
    weights: tuple[Fraction, ...]
    optimum: Fraction
    witness: Chain
    solver: str
    nodes_explored: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "s": self.s,
            "weights": _bounds.json_safe(self.weights),
            "optimum": _bounds.json_safe(self.optimum),
            "witness": chain_to_dict(self.witness),
            "solver": self.solver,
            "nodes_explored": self.nodes_explored,
        }


def best_construction(n: int, k: int, s: int, iw: Sequence[int]) -> int:
    """L times the largest value among the paper's named chains, from the integer weights iw.

    Each named chain's level sizes have a closed form, so no chain is built:
    empty-then-full has 0 at level 0 and C(n,k) at every other level, cover
    C(n,k) - C(n - min(s,n), k) at every level (for s > n every k-set
    already meets the ground set), and clique C((s+1)k-1, k) at every level
    when n >= (s+1)k - 1.  Their maximum is the paper's conjectured optimum,
    and by its main theorem the optimum for n >= 4k^2 s; both solvers start
    from it.
    """
    full = binom(n, k)
    total = sum(iw)
    best = max((total - iw[0]) * full, total * (full - binom(n - min(s, n), k)))
    if n >= (s + 1) * k - 1:
        best = max(best, total * binom((s + 1) * k - 1, k))
    return best


def _solver_frame(
    solver: str, n: int, k: int, s: int, weights: Sequence, limit_nodes: int | None
) -> tuple[tuple[int, ...], int, int, int, Callable[..., ExtremalRecord]]:
    """The set-up and finish both solvers share: (iw, lead0, incumbent, budget, finish).

    Rejects k < 1 (at k = 0 the empty set misses itself, so one set can fill
    every index of a rainbow matching and the solvers' arguments fail) and
    invalid weights.  iw are the weights scaled to integers by L, lead0 is
    the first level of positive weight, and the incumbent is
    best_construction, L times the best named chain's value.  The budget is
    limit_nodes or, when that is None, family.WORK_LIMIT_DEFAULT as it
    stands at this call.
    finish(best_val, best_chain, nodes) returns the ExtremalRecord of
    optimum best_val / L, with the witness chain of bitsets revalidated:
    Chain checks the nesting, and matching's own kernel asks for a full
    rainbow matching over the cached disjointness table (a nested chain is
    already in the order has_rainbow_matching sorts to, and the kernel picks
    only members, so the table need not be cut to them).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    ws = _bounds.solver_weights(weights, s + 1)
    iw, scale = _bounds.integer_weights(ws)
    budget = _family.WORK_LIMIT_DEFAULT if limit_nodes is None else limit_nodes

    def finish(best_val: int, best_chain: Sequence[int] | None, nodes: int) -> ExtremalRecord:
        if best_chain is None:
            # cannot happen: the incumbent is the value of a feasible chain in the search space
            raise AssertionError("search completed without a witness")
        witness = Chain(tuple(Family(n, k, b) for b in best_chain))
        optimum = Fraction(best_val, scale)
        record = ExtremalRecord(n, k, s, ws, optimum, witness, solver, nodes)
        if _matching.rainbow(best_chain, _matching.disjointness(n, k)) is not None:
            raise AssertionError("solver returned a non-overlapping witness")
        if witness.weighted_value(ws) != optimum:
            raise AssertionError("witness value does not match reported optimum")
        return record

    return iw, next(j for j, w in enumerate(iw) if w), best_construction(n, k, s, iw), budget, finish


# ---------------------------------------------------------------------------
# oracle: entry-level maps over all nested chains
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _transposition_moves(n: int, k: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Entry t: the pairs (r, image) moved by each transposition that maps rank t's k-set to a lower rank.

    Those are the transpositions (a, b) with a < b, b in the k-set and a
    outside it.  Each one's pairs are the k-sets r that hold a but not b,
    with the rank of the image (r with b for a, a higher rank), in rank
    order.  Swapping a for b leaves the symmetric difference of two such
    sets as it was, so it keeps their colex order, and the images rise
    with the ranks.  Each tuple of pairs is shared by every entry that
    lists it.
    """
    sets = ksets(n, k)
    rank = {x: r for r, x in enumerate(sets)}
    moved: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for r, x in enumerate(sets):
        for a in iter_bits(x):
            for b in range(a + 1, n):
                if not x >> b & 1:
                    moved.setdefault((a, b), []).append((r, rank[x ^ (1 << a | 1 << b)]))
    pairs = {ab: tuple(p) for ab, p in moved.items()}
    return tuple(tuple(pairs[a, b] for b in iter_bits(x) for a in range(b) if not x >> a & 1) for x in sets)


def _lex_floor(moves: Sequence[Sequence[tuple[int, int]]], entry: Sequence[int], pos: int) -> int:
    """The least level of rank pos at which no transposition of moves maps entry[0..pos] to a lex-smaller sequence.

    moves is entry pos of _transposition_moves; entry[pos] is not read.
    Walking a transposition's pairs in rank order, the first pair whose
    rank and image hold different levels decides, and the image sequence
    is smaller when the image's level is lower.  The images rise, so the
    pairs before the one with image pos have both levels assigned, and
    the pairs after it do not.  If one before it differs, the
    transposition was decided at an earlier rank (and on a path explore
    keeps, its image was larger); if all tie, the level at pos must be at
    least the level of the rank that pos's k-set maps to.
    """
    floor = 0
    for pairs in moves:
        for r, t in pairs:
            if t == pos:
                if entry[r] > floor:
                    floor = entry[r]
                break
            if entry[t] != entry[r]:
                break
    return floor


def oracle_f(
    n: int,
    k: int,
    s: int,
    weights: Sequence,
    *,
    limit_nodes: int | None = None,
) -> ExtremalRecord:
    """Exact maximum of sum w_i |B_i| over all nested overlapping chains.

    Enumerates, with sound pruning, every map assigning each k-set the
    first index at which it enters the chain (or never).  Raises
    NodeLimitError after limit_nodes nodes (family.WORK_LIMIT_DEFAULT when
    None).

    The search forward-checks (Haralick and Elliott, "Increasing tree
    search efficiency for constraint satisfaction problems", 1980): the cap
    of an unassigned k-set r is the lowest entry level at which it can
    still join the chain (s+1 for never), and at[l] is the bitset of the
    ranks whose cap is l.  Entering later gives a pointwise subchain, so
    the feasible levels of r are exactly its cap..s, and a node tries them
    without a rainbow call.  Families only grow along a path, so caps only
    rise; after a placement only the later ranks disjoint from it are
    rechecked, since any new rainbow matching uses the new member.  The
    recheck sweeps the levels upwards, and the risen ranks join the next
    level's group.  At each level the rivals (the families a rising set
    must match around) are asked for a rainbow matching in disj[pos].
    Since k >= 1, pos is not in disj[pos], so pos's own bit, the only
    thing that differs between the levels tried at one node, is masked
    out: whether a rank rises depends on the rival indices alone.  A memo
    local to the node, keyed by those indices, keeps "no matching" or the
    ranks known to rise and to stay.  The first question on a rival set
    gives a matching M, and every later rank that misses all of M rises
    with no call; any other rank gets one call, once per node.  Asked at
    another level, the kernel could return another first M (its floor for
    equal neighbours sees pos's bit), which would change only which ranks
    take that shortcut, so every rise set is exact.  A plan built once
    per call lists, per level, each group level with its rival indices;
    it leaves out lvl = level = s, where pos would have to stand at s+1.
    The value bound is val + sum of contrib[cap] over the unassigned
    ranks, and a value tie is bounded by the least cardinality worth each
    cap.

    The search also cuts by lex-leader symmetry breaking (Crawford,
    Ginsberg, Luks and Roy, "Symmetry-breaking predicates for search
    problems", 1996), over transpositions of [n] only.  A permutation p of
    [n] maps a map sigma to sigma.p, which gives each k-set A the level
    sigma gives p(A); it keeps sizes and disjointness, so sigma.p is as
    overlapping as sigma and has its value and cardinality.  Maps are
    compared as level sequences in rank order (levels 0 < ... < s <
    never).  If sigma.t < sigma for a transposition t, the first rank
    where they differ decides, and once explore has assigned that rank and
    its image, every completion of the prefix has the same smaller image:
    the subtree holds no map that is least in its orbit.  _lex_floor gives
    the least level at pos that no transposition cuts; the transpositions
    that can first show a difference at pos are those that carry pos's
    k-set to a lower rank (_transposition_moves).  The floor bounds pos
    like its cap: the levels below it are never tried, so they cost no
    recheck and no node, and the value bound counts pos at it.  The
    witness is unchanged: the key-least optimum, of least cardinality and
    then least entry levels, is least in its own orbit, since every member
    has its value and cardinality, so no cut removes it, and explore still
    meets maps in lex order and takes it first.  The cut uses nothing of
    exact_f_shifted's reductions, no shifting, compression or matching
    cap, only that S_n acts on the k-sets, so the two solvers stay
    independent.

    It closes (7,2,1,(3,1)) in 74 nodes, (6,3,1,(1,1)) in 2 278 (772
    top-level rainbow calls) and (7,2,2,(1,1,1)) in 3 662, where forward
    checking alone took 435, 88 583 (29 524 calls) and 75 430, and the
    starting incumbent alone 453 974 and 12.1 M for the first two.
    (10,3,1,(1,1)) closes in 7 155 nodes and 0.02 s and (8,2,2,(3,1,1))
    in 14 496 and 0.06 s (1.76 M and 1.94 M nodes, 5 and 10 s, without
    the cut), and (10,2,2,(1,1,1)) in 9 404 and 0.04 s and
    (12,3,1,(1,1)) in 32 905 and 0.1 s, where without the cut both ran
    past 2*10^6 nodes (2-core host, Python 3.11).
    """
    iw, lead0, best_val, budget, finish = _solver_frame("oracle", n, k, s, weights, limit_nodes)
    capacity = binom(n, k)
    disj = disjointness(n, k)
    # contrib[lvl]: value of a set entering at lvl; s+1 is never
    contrib = [sum(iw[lvl:]) for lvl in range(s + 2)]
    # tie_card[lvl]: least cardinality of an entry level worth contrib[lvl]
    tie_card = [
        s + 1 - max(t for t in range(lvl, s + 2) if contrib[t] == contrib[lvl]) for lvl in range(s + 2)
    ]
    # entry levels below lead0 add cardinality but no value: dominated, skip;
    # at s = 0 the other indices match vacuously, so a lone family stays empty
    first = lead0 if s else s + 1
    # at[lvl]: the ranks whose cap is lvl (only the unassigned ones are read)
    at = [0] * (s + 2)
    at[first] = (1 << capacity) - 1

    # plan[level]: (lvl, rival indices) per group level; the rivals leave
    # out lvl and `stand`, the index pos stands at, which must be at most s
    plan: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(s + 1)]
    for level in range(first, s + 1):
        for lvl in range(first, s + 1):
            stand = level + (lvl == level)
            if stand <= s:
                plan[level].append((lvl, tuple(i for i in range(s + 1) if i != lvl and i != stand)))

    fam_bits = [0] * (s + 1)
    # entry[r]: the level rank r entered at (s+1 for never), for r < pos
    entry = [0] * capacity
    moves = _transposition_moves(n, k)
    best_card: int | None = None
    best_chain: tuple[int, ...] | None = None
    nodes = 0

    def explore(pos: int, val: int, card: int, rest_val: int, rest_card: int) -> None:
        # rest_val, rest_card: sums of contrib[cap] and tie_card[cap] over the ranks >= pos
        nonlocal best_val, best_card, best_chain, nodes
        nodes += 1
        if nodes > budget:
            raise NodeLimitError(f"oracle exceeded {budget} nodes")
        if pos == capacity:
            if val > best_val or (val == best_val and (best_card is None or card < best_card)):
                best_val, best_card, best_chain = val, card, tuple(fam_bits)
            return
        bit = 1 << pos
        low = first
        while not at[low] & bit:
            low += 1
        rest_val -= contrib[low]
        rest_card -= tie_card[low]
        # a level below the floor would give the prefix a lex-smaller image
        # under a transposition, so the floor bounds pos like its cap; it is
        # at most s+1, so never is always open
        low = max(low, _lex_floor(moves[pos], entry, pos))
        potential = val + contrib[low] + rest_val
        if potential < best_val:
            return
        if potential == best_val and best_card is not None and card + tie_card[low] + rest_card >= best_card:
            # a value tie gives every later set its cap's contribution at the
            # least cardinality, and cannot beat the incumbent; first-found
            # ties are key-least
            return
        avail = disj[pos]
        later = avail >> (pos + 1) << (pos + 1)
        # per rival index tuple: None (no matching) or [rise, stay], the later
        # ranks known to rise or to stay; fam_bits change between nodes, so
        # the memo lives for this node only
        memo: dict[tuple[int, ...], list[int] | None] = {}
        for level in range(low, s + 1):
            entry[pos] = level
            for i in range(level, s + 1):
                fam_bits[i] |= bit
            # Recheck the later sets disjoint from pos.  A set r may enter at
            # lvl while the indices other than lvl have no rainbow matching
            # that misses r: r need only stand at lvl, since where it stands
            # at t > lvl it can trade places with the member at lvl, which
            # lies in B_lvl, inside B_t.  No such matching existed before this
            # placement, so a new one uses pos, and by the same trade pos
            # stands at `level`, or at level + 1 when lvl is `level`.  So the
            # sets that rise from lvl are those with a matching of the other
            # families (the rivals) in disj[pos] that misses them.  Sweeping
            # the levels upwards carries the risen sets into the next group.
            # pos is not in disj[pos] (k >= 1), so the answer for a rank
            # depends on the rival indices alone, not on `level`.
            saved = at[:]
            lost_val = lost_card = 0
            for lvl, rivals in plan[level]:
                group = at[lvl] & later
                if not group:
                    continue
                if rivals in memo:
                    known = memo[rivals]
                else:
                    known = None
                    match = rainbow([fam_bits[i] for i in rivals], disj, avail)
                    if match is not None:
                        # the sets that miss every member of this one matching rise with no call
                        rise = later
                        for p in match:
                            rise &= disj[p]
                        known = [rise, 0]
                    memo[rivals] = known
                if known is None:
                    continue
                rise, stay = known
                unknown = group & ~rise & ~stay
                if unknown:
                    others = [fam_bits[i] for i in rivals]
                    for r in iter_bits(unknown):
                        if rainbow(others, disj, avail & disj[r]) is not None:
                            rise |= 1 << r
                        else:
                            stay |= 1 << r
                    known[0], known[1] = rise, stay
                risen = group & rise
                if risen:
                    at[lvl] &= ~risen
                    at[lvl + 1] |= risen
                    count = risen.bit_count()
                    lost_val += count * (contrib[lvl] - contrib[lvl + 1])
                    lost_card += count * (tie_card[lvl] - tie_card[lvl + 1])
            explore(
                pos + 1, val + contrib[level], card + (s + 1 - level), rest_val - lost_val, rest_card - lost_card
            )
            at[:] = saved
            for i in range(level, s + 1):
                fam_bits[i] &= ~bit
        entry[pos] = s + 1
        explore(pos + 1, val, card, rest_val, rest_card)

    explore(0, 0, 0, capacity * contrib[first], capacity * tie_card[first])
    return finish(best_val, best_chain, nodes)


# ---------------------------------------------------------------------------
# shifted solver: top-down nested downset chains
# ---------------------------------------------------------------------------

def _enters_earlier(chain: Sequence[int], other: Sequence[int]) -> bool:
    """Whether chain's entry levels, rank by rank, precede other's (the canonical witness order).

    Both are nested, so of the two, the chain that holds their lowest differing
    rank at the first level that tells them apart on it enters that rank first.
    """
    diff = 0
    for a, b in zip(chain, other):
        diff |= a ^ b
    low = diff & -diff
    for a, b in zip(chain, other):
        if (a ^ b) & low:
            return bool(a & low)
    return False


def _closed_form_head(rest: Sequence[int], disj: Sequence[int], ups: Sequence[int]) -> int:
    """B_0 for fixed shifted B_1..B_s (rest): the members of B_1 that no rainbow matching of rest misses.

    If a rainbow matching M misses a k-set A, and A' is A with one element
    e bumped up to e+1, then shifting e+1 down to e in M's member that holds
    it (B_1..B_s are shifted) gives a rainbow matching that misses A'.  So
    the excluded members form an upset of the shift order, ups[r] being the
    upset of rank r, and walking B_1 in colex order, a linear extension,
    takes one kernel call per minimal excluded rank and per member of B_0.
    At s = 0 a lone family must be empty.
    """
    todo = rest[0] if rest else 0
    head = 0
    while todo:
        low = todo & -todo
        r = low.bit_length() - 1
        if rainbow(rest, disj, disj[r]) is not None:
            todo &= ~ups[r]
        else:
            head |= low
            todo ^= low
    return head


@lru_cache(maxsize=None)
def _matching_cap(n: int, k: int, s: int, budget: int) -> int:
    """M(n,k,s), the most k-sets of [n] with no s+1 pairwise disjoint; C(n,k) if the hunt runs out.

    Below n = (s+1)k no s+1 k-sets are disjoint, and at s = 1 M is the
    Erdos-Ko-Rado value C(n-1,k-1).  Otherwise max_min_overlapping hunts it
    under the budget.  The answer is a function of the arguments alone, so
    it is cached per argument tuple, the budget included: a hunt that ran
    out under one budget does not stand for another.
    """
    if n < (s + 1) * k:
        return binom(n, k)
    if s == 1:
        return binom(n - 1, k - 1)
    try:
        return max_min_overlapping(n, k, s, limit_nodes=budget)[0]
    except NodeLimitError:
        return binom(n, k)


def exact_f_shifted(
    n: int,
    k: int,
    s: int,
    weights: Sequence,
    *,
    limit_nodes: int | None = None,
) -> ExtremalRecord:
    """Exact maximum of sum w_i |B_i| over nested chains of shifted families.

    B_s ranges over the downsets of the shift order, then each of
    B_{s-1}..B_1 over the sub-downsets of its parent, each level walked by
    family.walk_subdownsets, which peels one member at a time.  B_0 is then
    forced: a full rainbow matching uses exactly one member of B_0, so a
    member A of B_1 may join B_0 exactly when no rainbow matching of
    B_1..B_s misses A.  With w_0 > 0 the best B_0 holds every such A, and
    it is shifted whenever B_1..B_s are (Frankl, "The shifting technique in
    extremal set theory", 1987).  The excluded members form an upset, so
    _closed_form_head walks B_1 lowest rank first and drops the whole upset
    of each excluded rank.

    B_0 lies in every level, so it holds no s+1 pairwise disjoint sets and
    |B_0| <= M(n,k,s) (_matching_cap).  The cap tightens level by level:
    if n >= (s+1)k, 1 <= j < s and B_{j+1} holds the clique, every k-set
    inside [(s+1)k] (the colex prefix of C((s+1)k, k) ranks), then B_0
    holds no j+1 pairwise disjoint sets, so |B_0| <= M(n,k,j).  For j+1
    disjoint members of B_0 could stand at levels 0..j, since B_0 lies in
    every level, and their union leaves at least (s-j)k elements of
    [(s+1)k] free, as in the hunt's window; s-j disjoint k-sets of those
    are in the clique, so they could stand at levels j+1..s, and the chain
    would have a full rainbow matching.  At level j the families
    B_{j+1}..B_s are fixed, so the walk takes cap = min(M(n,k,s), M(n,k,i))
    for the lowest i >= j whose B_{i+1} holds the clique (the chain is
    nested, so every higher level holds it too, and M(n,k,i) grows with
    i), and M(n,k,s) when none does.  Taking i = j alone took
    (10,2,(1,1,1,1)) 2 083 nodes instead of 810 and (10,2,(4,1,1,1))
    710 177 instead of 555 096.  A candidate d at level j, of size z, bounds every
    completion by val + (w_j + ... + w_0) z - w_0 max(z - cap, 0).  That
    bound does not decrease with z, so a candidate below the incumbent
    prunes its whole subtree of the walk.  nodes_explored counts the
    candidates tested against the bound, refused ones included, and
    limit_nodes (family.WORK_LIMIT_DEFAULT when None) caps them
    (NodeLimitError) and the downsets each hunt for an M may visit; a
    hunt that runs out leaves its cap at C(n,k).  (20,2,(3,1)) closes in
    37 929 nodes and about 0.1 s, (10,3,(1,1)) in 18 827 and 0.06 s,
    (12,2,(1,1,1)) in 355 and (12,2,(3,1,1)) in 36 503 and 0.13 s, where
    M(n,k,s) at every level took 3 844 and 610 989 nodes (1.4-2.1 s);
    listing, sorting and testing every downset took the first three
    524 288, 252 586 and 566 543 nodes.  (16,2,(3,1,1)) closes in
    419 707 nodes (1.3-1.4 s), and (32,2,(1,1,1)), where the main
    theorem's range n >= 4k^2s starts, in 48 060 (0.35-0.55 s); with
    M(n,k,s) at every level both ran past 3*10^6 nodes (2-core host,
    Python 3.11).

    Equals oracle_f whenever both run (the compression and shifting
    reductions preserve the optimum); that equality is enforced by tests
    rather than assumed here.
    """
    iw, lead0, best_val, budget, finish = _solver_frame("shifted", n, k, s, weights, limit_nodes)
    disj = disjointness(n, k)
    ups = poset_upsets(n, k)
    prefix_w = [sum(iw[: j + 1]) for j in range(s + 1)]
    capacity = binom(n, k)
    # a zero w_0 leaves the caps out of every bound
    cap = _matching_cap(n, k, s, budget) if s and lead0 == 0 else capacity
    # level_cap[i]: the cap on |B_0| once B_{i+1} holds the clique, every
    # k-set inside [(s+1)k]
    level_cap = [cap] * (s + 1)
    if lead0 == 0 and n >= (s + 1) * k:
        for j in range(1, s):
            level_cap[j] = min(cap, _matching_cap(n, k, j, budget))
    clique = (1 << binom((s + 1) * k, k)) - 1
    w0 = iw[0]

    best_card: int | None = None
    best_chain: tuple[int, ...] | None = None
    nodes = 0
    chain_bits = [0] * (s + 1)

    def offer(val: int, card: int) -> None:
        nonlocal best_val, best_card, best_chain
        if val < best_val:
            return
        if val == best_val and best_card is not None:
            if card > best_card or card == best_card and not _enters_earlier(chain_bits, best_chain):
                return
        best_val, best_card, best_chain = val, card, tuple(chain_bits)

    def descend(j: int, val: int, card: int) -> None:
        nonlocal nodes
        if j < lead0 or j == 0:
            # zero-weight head: the empty family is uniquely optimal in
            # (value, cardinality) and always feasible; j = 0 here only at
            # s = 0, where a lone family must be empty
            for i in range(j + 1):
                chain_bits[i] = 0
            offer(val, card)
            return
        slope = prefix_w[j]
        wj = iw[j]
        # the lowest fixed level i >= j whose B_{i+1} holds the clique gives the least proven cap
        cap_j = next((level_cap[i] for i in range(j, s) if not clique & ~chain_bits[i + 1]), cap)

        def admit(d: int) -> bool:
            # the bound; it does not decrease with size, so a refusal prunes the subtree
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise NodeLimitError(f"shifted search exceeded {budget} nodes")
            size = d.bit_count()
            return val + slope * size - w0 * (size - cap_j if size > cap_j else 0) >= best_val

        top = chain_bits[j + 1] if j < s else (1 << capacity) - 1
        for d in walk_subdownsets(n, k, top, admit):
            size = d.bit_count()
            card2 = card + size
            if best_card is not None and val + slope * size - w0 * (size - cap_j if size > cap_j else 0) == best_val:
                # a value tie fills the first positive-weight level with
                # min(size, cap_j) members, so every level up to j holds as
                # many, and leaves each zero-weight head level empty
                if card2 + (j - lead0) * min(size, cap_j) > best_card:
                    continue
            chain_bits[j] = d
            if j > 1 or lead0:
                descend(j - 1, val + wj * size, card2)
            else:
                # B_0 in closed form
                head = _closed_form_head(chain_bits[1:], disj, ups)
                chain_bits[0] = head
                sz = head.bit_count()
                offer(val + wj * size + w0 * sz, card2 + sz)
        chain_bits[j] = 0

    descend(s, 0, 0)
    return finish(best_val, best_chain, nodes)


# ---------------------------------------------------------------------------
# conjecture hunts
# ---------------------------------------------------------------------------

def _matching_window(a: int, n: int, k: int, s: int) -> int:
    """The ranks of the k-sets inside {0..e}, e the (s*k)-th element of [n] outside the k-set a.

    When fewer than s*k elements lie outside a, the window is all of C([n],k).
    """
    e = s * k - 1
    # each element of a at or below e pushes e one step up
    while a and (a & -a).bit_length() <= e + 1:
        a &= a - 1
        e += 1
    return (1 << binom(min(e + 1, n), k)) - 1


def max_min_overlapping(n: int, k: int, s: int, *, limit_nodes: int | None = None) -> tuple[int, Family]:
    """Maximum of min_i |B_i| over overlapping nested chains, with witness family.

    For nested chains min_i |B_i| = |B_0|, and enlarging any family only
    tightens the rainbow constraint, so B_1 = ... = B_s = B_0 is the
    optimal completion: the hunt reduces to the largest shifted family
    whose matching number is at most s.  Ties go to the least bitset.

    The downset walk refuses a child D | r exactly when it holds s+1
    pairwise disjoint members.  Its parent D holds none, so such a matching
    uses r, and its other s members lie in D & disj[r].  A matching stays in
    every superset, so a refused subtree holds no feasible downset, and the
    walk visits exactly the feasible ones.  Raises NodeLimitError on
    visiting more than limit_nodes of them (family.WORK_LIMIT_DEFAULT as it
    stands at this call when None).

    The question needs only a window of D & disj[r] (Frankl, "The shifting
    technique in extremal set theory", 1987).  If F_1..F_s are disjoint
    members of D that miss A_r, the k-set of rank r, map their union, in
    order, onto the lowest s*k elements outside A_r.  Every element moves
    down, so each image lies below its F_i in the shift order and is in the
    downset D, and the images are disjoint and miss A_r.  With e the
    (s*k)-th element outside A_r, the k-sets inside {0..e} are the ranks
    below C(e+1,k), so the kernel is asked only on D & window[r], where
    window[r] is disj[r] cut to those ranks (_matching_window), built the
    first time the walk asks about r.  The answer depends on that set
    alone, so each distinct set is asked once: at s = 3 most refusals
    repeat one already seen.  Under a limit of 3*10^6 downsets (12,3,2)
    closes in about 1.1 s and (13,3,2) in 2.3 s, where the kernel on all of
    D & disj[r] took 3.9 and 11.9 s, and (11,3,3) and (12,3,3) reach the
    limit in 5-7 s instead of 111 and 71 s (2-core host, Python 3.11).

    The finished witness is rechecked as a whole, shifted and with no s+1
    pairwise disjoint members (has_matching_of_size).  For the cover
    witness, s elements meet every member, and the clique on (s+1)k-1
    elements has too few elements for s+1 disjoint k-sets, so matching's
    certificates give that "no" without a kernel call.  On the ten cells
    of perfbench's downsets workload the recheck took 2.2 ms of the 6.2 ms
    of the hunts as an exhaustive search, and now takes 0.11 ms; on
    (16,2,3) and (13,3,2) it fell from 1.7 and 1.8 ms to 0.02 and 0.01 ms
    (warm, in-process, 2-core host, Python 3.11).
    """
    budget = _family.WORK_LIMIT_DEFAULT if limit_nodes is None else limit_nodes
    disj = disjointness(n, k)
    sets = ksets(n, k)
    window: list[int | None] = [None] * len(sets)
    answers: dict[int, bool] = {}

    def refuse(d: int, r: int) -> bool:
        w = window[r]
        if w is None:
            w = window[r] = disj[r] & _matching_window(sets[r], n, k, s)
        cand = d & w
        found = answers.get(cand)
        if found is None:
            found = answers[cand] = rainbow((cand,) * s, disj) is not None
        return found

    best_size = -1
    best_bits = 0
    for visited, bits in enumerate(walk_downsets(n, k, refuse), 1):
        if visited > budget:
            raise NodeLimitError(f"conj2 hunt exceeded {budget} downsets for (n={n}, k={k}, s={s})")
        size = bits.bit_count()
        if size > best_size or (size == best_size and bits < best_bits):
            best_size, best_bits = size, bits
    fam = Family(n, k, best_bits)
    # recheck the finished family as a whole, not through the per-child prune above
    if not is_shifted(fam) or has_matching_of_size(fam, s + 1):
        raise AssertionError("conj2 witness is not a shifted family without an (s+1)-matching")
    return best_size, fam


def hunt_conjectures(name: str, grid: dict) -> dict:
    """suites.run_suite(name) on the cells grid["cells"]; kept for perfbench, which calls and traces this name."""
    from .suites import run_suite  # suites imports this module

    return run_suite(name, cells=grid["cells"])
