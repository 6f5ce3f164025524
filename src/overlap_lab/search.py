"""Exact optimization of the weighted size sum over overlapping nested chains.

Two independent routes compute the same optimum:

* oracle_f enumerates entry-level maps (each k-set gets the first chain
  index containing it, or none), which is a bijection onto nested chains,
  with branch-and-bound pruning.  It forward-checks: each unassigned k-set
  keeps the lowest entry level at which it can still join, rechecked only
  when a disjoint set is placed, so a node tries its feasible levels with
  no rainbow call and bounds the value by every later set's own best level.
  The levels are kept as one bitset of sets per level, and a recheck lifts
  every set that misses one rainbow matching of a level's rivals with no
  call of its own.  The rivals' question does not depend on the level the
  placed set tries, so a node asks each rival set once and each (rival
  set, set) pair at most once.  Permuting [n] keeps value, cardinality and
  overlap, so a map that some transposition of [n] sends to a
  lex-smaller one is cut as soon as its prefix shows it (lex-leader
  symmetry breaking); the canonical witness is the lex-least map of its
  orbit and is never cut.

* exact_f_shifted enumerates nested chains of shifted families top-down
  (B_s over all downsets of the shift order, each of B_{s-1}..B_1 over
  sub-downsets of its parent) and takes B_0 in closed form.  Each level
  is a reverse-search walk that peels one member per step, so no downset
  list is built, and each candidate comes with its maximal members, which
  start the walk of the level below, so no level scans its top for them.
  Since B_0 holds no s+1 disjoint sets, |B_0| is capped by the matching
  bound M(n,k,s) in a value bound that prunes a candidate together with
  every sub-downset below it.  Once a level B_j holds every
  k-set inside [(s+1)k], as it does iff it holds their top one T, B_0
  holds no j disjoint sets, and the cap drops to M(n,k,j-1), which is 0
  at j = 1.  A candidate that holds T bounds its sub-downsets that hold T
  with that cap, and the rest, which lie outside T's upset, with the cap
  of the levels above.  The members of B_1 that B_0 must exclude form an
  upset of the shift order, so one rainbow call excludes a whole upset.

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
    Chain checks the nesting, matching's own kernel asks for a full
    rainbow matching over the cached disjointness table (a nested chain is
    already in the order has_rainbow_matching sorts to, and the kernel picks
    only members, so the table need not be cut to them), and the value is
    checked in integers, sum iw_j |B_j| == best_val, from the bitsets.
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
        if sum(w * b.bit_count() for w, b in zip(iw, best_chain)) != best_val:
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

    Below n = (s+1)k no s+1 k-sets are disjoint, at s = 1 M is the
    Erdos-Ko-Rado value C(n-1,k-1), and at k = 1 it is s, since any s+1
    distinct singletons are pairwise disjoint.  Otherwise
    max_min_overlapping hunts it under the budget.  The answer is a
    function of the arguments alone, so it is cached per argument tuple,
    the budget included: a hunt that ran out under one budget does not
    stand for another.
    """
    if n < (s + 1) * k:
        return binom(n, k)
    if s == 1:
        return binom(n - 1, k - 1)
    if k == 1:
        return s
    try:
        return max_min_overlapping(n, k, s, limit_nodes=budget)[0]
    except NodeLimitError:
        return binom(n, k)


def _head_caps(n: int, k: int, s: int, lead0: int, budget: int) -> tuple[int, list[int], int | None]:
    """exact_f_shifted's caps on |B_0|: cap, head_cap[j] once B_j holds T, and T's rank (None if no clique rule)."""
    # a zero w_0 leaves the caps out of every bound
    cap = _matching_cap(n, k, s, budget) if s and lead0 == 0 else binom(n, k)
    # head_cap[j]: the cap on |B_0| once B_j holds the clique, every k-set
    # inside [(s+1)k], which a downset does iff it holds T, the top one
    head_cap = [cap] * (s + 1)
    t_rank = None
    if s and lead0 == 0 and n >= (s + 1) * k:
        head_cap[1] = 0
        for j in range(2, s + 1):
            head_cap[j] = min(cap, _matching_cap(n, k, j - 1, budget))
        t_rank = binom((s + 1) * k, k) - 1
    return cap, head_cap, t_rank


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
    family.walk_subdownsets, which peels one member at a time and yields
    each candidate with its maximal members.  Those start the walk of the
    level below, and B_s's walk starts from the top colex rank alone, the
    one maximal member of C([n],k), so no level scans its top.  B_0 is then
    forced: a full rainbow matching uses exactly one member of B_0, so a
    member A of B_1 may join B_0 exactly when no rainbow matching of
    B_1..B_s misses A.  With w_0 > 0 the best B_0 holds every such A, and
    it is shifted whenever B_1..B_s are (Frankl, "The shifting technique in
    extremal set theory", 1987).  The excluded members form an upset, so
    _closed_form_head walks B_1 lowest rank first and drops the whole upset
    of each excluded rank.

    B_0 lies in every level, so it holds no s+1 pairwise disjoint sets and
    |B_0| <= M(n,k,s) (_matching_cap).  The cap tightens with the clique,
    every k-set inside [(s+1)k] (the colex prefix of C((s+1)k, k) ranks):
    if n >= (s+1)k, 1 <= j <= s and B_j holds the clique, then B_0 holds
    no j pairwise disjoint sets, so |B_0| <= M(n,k,j-1), and at j = 1 B_0
    is empty.  For j disjoint members of B_0 could stand at levels 0..j-1,
    since B_0 lies in every level, and their union has jk elements, so at
    least (s+1)k - jk = (s-j+1)k elements of [(s+1)k] are free; s-j+1
    disjoint k-sets of those are in the clique, so they could stand at
    levels j..s, and the chain would have a full rainbow matching.  T, the
    top k-set of [(s+1)k] (rank C((s+1)k, k) - 1), lies above every k-set
    inside [(s+1)k] in the shift order, so a downset holds the clique iff
    it holds T.

    At level j the families B_{j+1}..B_s are fixed, and the cap they prove
    is cap_j = min(M(n,k,s), M(n,k,i-1)) for the lowest i > j whose B_i
    holds T (the chain is nested, so every higher level holds it too, and
    M(n,k,i-1) grows with i), or M(n,k,s) when none does.  A candidate d
    of size z, taken as B_j, bounds its completions by val + (w_j + ... +
    w_0) z - w_0 max(z - c, 0), where c is cap_j, or head_cap[j] =
    min(M(n,k,s), M(n,k,j-1)) (0 at j = 1; _head_caps) when d holds T.
    The walk's subtree of d holds only sub-downsets of d.  Those that hold
    T are bounded by d's bound with c = head_cap[j]; those without T lie
    outside the upset of T, so the bound at size |d & ~ups[T]| with
    c = cap_j covers them.  d is admitted when the larger of the two reaches the
    incumbent (for a d without T only the second counts, and it is d's own
    bound).  Both grow with d, so a refusal prunes d's whole subtree of
    the walk.  d's own descent is pruned by d's own bound, strictly below
    the incumbent, and a value tie by cardinality only, so no tie is cut
    on value alone.  nodes_explored counts the candidates tested against
    the bound, refused ones included, and limit_nodes
    (family.WORK_LIMIT_DEFAULT when None) caps them (NodeLimitError) and
    the downsets of C([min(n, (i+1)k)],k) each hunt for an M(n,k,i) may
    visit; a hunt that runs out leaves its cap at C(n,k).

    Equals oracle_f whenever both run (the compression and shifting
    reductions preserve the optimum); that equality is enforced by tests
    rather than assumed here.
    """
    iw, lead0, best_val, budget, finish = _solver_frame("shifted", n, k, s, weights, limit_nodes)
    disj = disjointness(n, k)
    ups = poset_upsets(n, k)
    prefix_w = [sum(iw[: j + 1]) for j in range(s + 1)]
    capacity = binom(n, k)
    cap, head_cap, t_rank = _head_caps(n, k, s, lead0, budget)
    t_bit = t_out = 0
    if t_rank is not None:
        t_bit, t_out = 1 << t_rank, ~ups[t_rank]
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

    def descend(j: int, val: int, card: int, cap_j: int, top_max: int) -> None:
        # cap_j: the cap on |B_0| that the fixed levels B_{j+1}..B_s prove;
        # top_max: the maximal members of B_{j+1}, or of C([n],k) at j = s
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
        hcap = head_cap[j]

        def admit(d: int) -> bool:
            # the bound; it does not decrease with d, so a refusal prunes the subtree
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise NodeLimitError(f"shifted search exceeded {budget} nodes")
            size = d.bit_count()
            if d & t_bit:
                # the sub-downsets that hold T are capped by hcap; the rest lie outside T's upset
                if val + slope * size - w0 * (size - hcap if size > hcap else 0) >= best_val:
                    return True
                size = (d & t_out).bit_count()
            return val + slope * size - w0 * (size - cap_j if size > cap_j else 0) >= best_val

        top = chain_bits[j + 1] if j < s else (1 << capacity) - 1
        for d, d_max in walk_subdownsets(n, k, top, top_max, admit):
            size = d.bit_count()
            card2 = card + size
            # with B_j = d, every level below holds at most size members and B_0 at most cap_d
            cap_d = hcap if d & t_bit else cap_j
            bound = val + slope * size - w0 * (size - cap_d if size > cap_d else 0)
            if bound < best_val:
                # d holds T: admit kept its subtree for the sub-downsets without T
                continue
            if bound == best_val and best_card is not None:
                # a value tie fills the first positive-weight level with
                # min(size, cap_d) members, so every level up to j holds as
                # many, and leaves each zero-weight head level empty
                if card2 + (j - lead0) * min(size, cap_d) > best_card:
                    continue
            chain_bits[j] = d
            if j > 1 or lead0:
                descend(j - 1, val + wj * size, card2, cap_d, d_max)
            else:
                # B_0 in closed form
                head = _closed_form_head(chain_bits[1:], disj, ups)
                chain_bits[0] = head
                sz = head.bit_count()
                offer(val + wj * size + w0 * sz, card2 + sz)
        chain_bits[j] = 0

    # the top colex rank lies above every k-set, so it alone is maximal in C([n],k)
    descend(s, 0, 0, cap, 1 << (capacity - 1))
    return finish(best_val, best_chain, nodes)


# ---------------------------------------------------------------------------
# conjecture hunts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fiber_weights(n: int, k: int, m: int) -> tuple[tuple[int, int], ...]:
    """The fiber sizes of pi onto C([m],k) as (low, extra) pairs: rank p's fiber holds 1 + the extras with low <= p.

    pi maps a k-set A of [n], a_1 < ... < a_k (0-based), to the k-set of
    [m] with i-th element min(a_i, m-k+i-1).  The capped positions, where
    a_i >= m-k+i-1, are a suffix, so p = pi(A) ends in m-c, ..., m-1 for
    its c capped positions, and its fiber fixes p's other k-c elements and
    takes any c elements of {m-c, ..., n-1}: C(n-m+c, c) k-sets.  The
    k-sets of [m] that end in m-c, ..., m-1 are the colex ranks from
    C(m-1,k) + C(m-2,k-1) + ... + C(m-c,k-c+1) up, and the fiber grows by
    C(n-m+c, c) - C(n-m+c-1, c-1) = C(n-m+c-1, c) at the c-th of these
    thresholds.  At m = n every extra is C(c-1, c) = 0, so the table is
    empty and every fiber is one k-set.
    """
    terms = []
    low = 0
    for c in range(1, k + 1):
        low += binom(m - c, k - c + 1)
        extra = binom(n - m + c - 1, c)
        if extra:
            terms.append((low, extra))
    return tuple(terms)


def _expand_fibers(bits: int, n: int, k: int, m: int) -> int:
    """The k-sets of [n] whose image under pi (_fiber_weights) lies in bits, a set of k-sets of [m].

    pi fixes the k-sets of [m], the ranks below C(m,k).  A k-set of [n]
    with top element e >= m is A' + {e}, rank C(e,k) + rank(A'), with A' a
    (k-1)-set of [e]; its own cap at position k is m-1 and its caps below
    are those of (k-1)-sets projected onto [m-1], so pi(A) is pi(A') +
    {m-1}, rank C(m-1,k) + rank(pi(A')).  So the block of top element e is
    the expansion of bits' block of top element m-1 from (k-1)-sets of
    [m-1] to (k-1)-sets of [e].  At m = n there is no such block, and bits
    is returned unchanged.
    """
    if not k:
        return bits
    top = bits >> binom(m - 1, k)
    if top:
        for e in range(m, n):
            bits |= _expand_fibers(top, e, k - 1, m - 1) << binom(e, k)
    return bits


def max_min_overlapping(n: int, k: int, s: int, *, limit_nodes: int | None = None) -> tuple[int, Family]:
    """Maximum of min_i |B_i| over overlapping nested chains, with witness family.

    For nested chains min_i |B_i| = |B_0|, and enlarging any family only
    tightens the rainbow constraint, so B_1 = ... = B_s = B_0 is the
    optimal completion: the hunt reduces to the largest shifted family
    whose matching number is at most s.  Ties go to the least bitset.

    The hunt walks only the k-sets of [m], m = min(n, (s+1)k), the colex
    ranks below C(m,k) (Frankl, "The shifting technique in extremal set
    theory", 1987).  A downset D of C([n],k) holds s+1 pairwise disjoint
    members iff D & C([m],k) does: map their union, in order, onto [m];
    every element moves down, so each image lies below its member in the
    shift order and is in D.  The k-sets of [m] below a k-set A of [n] are
    exactly those below pi(A), whose i-th element is min(a_i, m-k+i-1), so
    the largest downset of C([n],k) that meets C([m],k) in a given downset
    D' is the union of the fibers of pi over D' (_expand_fibers), and it is
    feasible with D'.  A largest feasible D is the largest over its own D',
    so M(n,k,s) is the largest weight of a feasible downset D' of C([m],k)
    where each member weighs the size of its fiber, read from
    _fiber_weights as the popcounts of D' above a few colex thresholds.
    The top rank of a fiber rises with its k-set of [m]: if p < q differ
    first, from the top, at position i, then p_i is below its cap, so the
    top member of p's fiber keeps p_i there, and that of q's holds at
    least q_i, with equal elements above.  Two expanded bitsets first
    differ, from the top, at the top of the highest fiber over which their
    D' differ, so they compare as their D' do, and the least D' of largest
    weight expands to the least largest feasible downset of C([n],k).

    The downset walk over C([m],k) refuses a child D | r exactly when it
    holds s+1 pairwise disjoint members.  Its parent D holds none, so such a
    matching uses r, and its other s members lie in D & disj[r].  A
    matching stays in every superset, so a refused subtree holds no
    feasible downset, and the walk visits exactly the feasible ones.
    Raises NodeLimitError on visiting more than limit_nodes of them
    (family.WORK_LIMIT_DEFAULT as it stands at this call when None), so
    limit_nodes counts downsets of C([m],k).

    No window of D & disj[r] narrows the question: s disjoint members that
    miss A_r, the k-set of rank r, shift down onto the lowest s*k elements
    outside A_r, but at most s*k elements of [m] lie outside A_r (exactly
    s*k at m = (s+1)k), so every member of disj[r] already lies among them.
    The answer depends on D & disj[r] alone, so each distinct set is asked
    once: at s = 3 most refusals repeat one already seen.

    The expanded witness is rechecked as a whole, of the reported size,
    shifted and with no s+1 pairwise disjoint members
    (has_matching_of_size).  For the cover witness, s elements meet every
    member, and the clique on (s+1)k-1 elements has too few elements for
    s+1 disjoint k-sets, so matching's certificates give that "no" without
    a kernel call.
    """
    budget = _family.WORK_LIMIT_DEFAULT if limit_nodes is None else limit_nodes
    Family.empty(n, k)  # refuse a bad (n, k) before the fiber tables meet it
    # at k = 0 the one k-set is the empty set for every n
    m = min(n, (s + 1) * k) if k else n
    disj = disjointness(m, k)
    terms = _fiber_weights(n, k, m)
    answers: dict[int, bool] = {}

    def refuse(d: int, r: int) -> bool:
        cand = d & disj[r]
        found = answers.get(cand)
        if found is None:
            found = answers[cand] = rainbow((cand,) * s, disj) is not None
        return found

    best_size = -1
    best_bits = 0
    for visited, bits in enumerate(walk_downsets(m, k, refuse), 1):
        if visited > budget:
            raise NodeLimitError(f"conj2 hunt exceeded {budget} downsets for (n={n}, k={k}, s={s})")
        size = bits.bit_count()
        # at m = n terms is empty; the test skips an empty loop's set-up,
        # about 4% of such a hunt's time
        if terms:
            for low, extra in terms:
                size += extra * (bits >> low).bit_count()
        if size > best_size or (size == best_size and bits < best_bits):
            best_size, best_bits = size, bits
    fam = Family(n, k, _expand_fibers(best_bits, n, k, m))
    # recheck the finished family as a whole, not through the per-child prune above
    if len(fam) != best_size or not is_shifted(fam) or has_matching_of_size(fam, s + 1):
        raise AssertionError("conj2 witness is not a shifted family without an (s+1)-matching")
    return best_size, fam


def hunt_conjectures(name: str, grid: dict) -> dict:
    """suites.run_suite(name) on the cells grid["cells"]; kept for perfbench, which calls and traces this name."""
    from .suites import run_suite  # suites imports this module

    return run_suite(name, cells=grid["cells"])
