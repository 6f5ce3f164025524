"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: plain enumeration over subsets,
products, and index combinations, sharing no search code with the package.
The sampled-harness replays draw through cyclic.random_matching, so that
they see the same seeded samples as the code they check; the stdlib_*
samplers draw through `randrange` and `shuffle`, as the package once did,
so the package's inline draws can be checked against them word for word.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product
from operator import or_

from overlap_lab.bounds import thm4_threshold
from overlap_lab.combinatorics import binom, colex_rank, iter_bits, ksets, shift_leq
from overlap_lab.cyclic import random_matching
from overlap_lab.family import Family, walk_downsets
from overlap_lab.matching import BipartiteGraph, rainbow


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


def brute_least_rainbow(cands, n: int, k: int, avail: int = -1) -> tuple[int, ...] | None:
    """The lexicographically least picks of the kernel's contract, or None if there are none.

    picks[i] is a rank in cands[i] & avail, the picked k-sets are pairwise
    disjoint, and equal neighbouring candidate sets take non-decreasing
    ranks; product yields the tuples in lexicographic order.
    """
    table = ksets(n, k)
    pools = [[r for r in range(len(table)) if (c & avail) >> r & 1] for c in cands]
    for picks in product(*pools):
        ordered = all(a <= b for a, b, x, y in zip(picks, picks[1:], cands, cands[1:]) if x == y)
        if ordered and pairwise_disjoint(table[r] for r in picks):
            return picks
    return None


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


def brute_downset_below(ranks, n: int, k: int) -> int:
    """The least downset holding the given ranks: every k-set below one of them, via shift_leq only."""
    table = ksets(n, k)
    return sum(1 << r for r, x in enumerate(table) if any(shift_leq(x, table[t]) for t in ranks))


def brute_maximal(bits: int, n: int, k: int) -> int:
    """The members of the rank bitset `bits` with no upper cover (one element bumped up by 1) in it."""
    table = ksets(n, k)
    rank = {x: r for r, x in enumerate(table)}
    out = 0
    for r in iter_bits(bits):
        x = table[r]
        # e in x and e+1 not: bump e up to e+1
        ups = [rank[x ^ (3 << e)] for e in range(n - 1) if (x >> e) & 3 == 1]
        if not any(bits >> u & 1 for u in ups):
            out |= 1 << r
    return out


def sorted_downsets(n: int, k: int) -> list[int]:
    """Every downset walk_downsets yields, sorted by (size, bitset); not a reference for the walk itself."""
    return sorted(walk_downsets(n, k, lambda d, r: False), key=lambda d: (d.bit_count(), d))


def brute_downset_count(n: int, k: int) -> int:
    capacity = len(ksets(n, k))
    return sum(is_downset_direct(bits, n, k) for bits in range(1 << capacity))


def brute_covers(n: int, k: int, step: int) -> list[int]:
    """Per colex rank, the ranks whose k-sets move one element of its own by step (-1 down, +1 up) onto a free one.

    The k-sets come from combinations and each moved set is ranked by
    colex_rank, so no table of the package is read.
    """
    out = [0] * binom(n, k)
    for combo in combinations(range(n), k):
        m = sum(1 << e for e in combo)
        for e in combo:
            t = e + step
            if 0 <= t < n and not m >> t & 1:
                out[colex_rank(m)] |= 1 << colex_rank(m ^ (1 << e) ^ (1 << t))
    return out


def brute_upsets(n: int, k: int) -> list[int]:
    """Per rank, every rank reachable through upper covers: the mask-level lower covers closed by iterating to a fixpoint."""
    preds = brute_covers(n, k, -1)
    ups = [1 << r for r in range(len(preds))]
    changed = True
    while changed:
        changed = False
        for q, pb in enumerate(preds):
            for r in iter_bits(pb):
                if ups[q] & ~ups[r]:
                    ups[r] |= ups[q]
                    changed = True
    return ups


def head_per_member(rest, disj) -> int:
    """The closed-form B_0 by one kernel call per member of B_1 (rest = B_1..B_s; empty at s = 0)."""
    return sum(1 << r for r in iter_bits(rest[0] if rest else 0) if rainbow(rest, disj, disj[r]) is None)


def chain_value(chain, weights) -> Fraction:
    """Sum of w_i |B_i| over the chain's levels, each weight read as a Fraction (an int or a string such as "3/2")."""
    return sum((Fraction(w) * len(f) for w, f in zip(weights, chain.families, strict=True)), Fraction(0))


def brute_chain_optimum(n: int, k: int, s: int, weights) -> tuple[Fraction, tuple[Family, ...]]:
    """Raw maximum of sum w_i |B_i| over nested chains with no rainbow (s+1)-matching, and its canonical witness.

    Enumerates every map from k-sets to entry levels {0..s, never} with no
    pruning at all and evaluates the rainbow constraint by brute force.
    The witness is the optimal chain of least total cardinality, and among
    those the least entry-level sequence read in colex order (never last).
    """
    table = ksets(n, k)
    capacity = len(table)
    best = None
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
            key = (-value, sum(map(len, fams)), levels)
            if best is None or key < best[0]:
                best = (key, tuple(fams))
    return -best[0][0], best[1]


def rank_permutations(n: int, k: int, *, transpositions: bool = False) -> list[tuple[int, ...]]:
    """For each permutation p of [n] (only the transpositions if asked), entry r: the colex rank of p's image of rank r's k-set."""
    table = ksets(n, k)
    rank = {x: r for r, x in enumerate(table)}
    perms = permutations(range(n))
    if transpositions:
        perms = (p for p in perms if sum(e != i for i, e in enumerate(p)) == 2)
    return [tuple(rank[sum(1 << p[e] for e in iter_bits(x))] for x in table) for p in perms]


def brute_max_min_overlapping(n: int, k: int, s: int) -> tuple[int, int]:
    """First largest downset, in sorted_downsets order, with matching number at most s."""
    best_size, best_bits = -1, 0
    for bits in sorted_downsets(n, k):
        size = bits.bit_count()
        if size > best_size and brute_matching_number(Family(n, k, bits)) <= s:
            best_size, best_bits = size, bits
    return best_size, best_bits


# ---------------------------------------------------------------------------
# the sampled harnesses, replayed trial by trial in Fractions
# ---------------------------------------------------------------------------

def _brute_mean_z(samples, expectation) -> tuple[Fraction, float]:
    """Sample mean and its z-score against expectation, by the formula the reports state."""
    trials = len(samples)
    if not trials:
        return Fraction(0), 0.0
    mean = sum(samples, Fraction(0)) / trials
    var = sum((x * x for x in samples), Fraction(0)) / trials - mean * mean
    sigma_mean = float(var) ** 0.5 / trials**0.5
    return mean, float(mean - expectation) / sigma_mean if sigma_mean else 0.0


def brute_partition_report(chain, weights, trials: int, seed: int) -> dict:
    """verify_partition_bound's report, from Fraction weights and `mask in fam` tests per trial.

    Draws the same seeded partitions through cyclic.random_matching and
    takes each trial's minimum cover by left-subset enumeration.
    """
    ws = [Fraction(w) for w in weights]
    n, k, s = chain.n, chain.k, chain.s
    cap = s * sum(ws)
    expectation = sum((w * len(f) for w, f in zip(ws, chain.families)), Fraction(0)) * Fraction(s + 1, binom(n, k))
    rng = random.Random(seed)
    samples, violations, cover_violations = [], [], 0
    for trial in range(trials):
        blocks = random_matching(n, k, rng)
        adj = tuple(sum(1 << j for j, fam in enumerate(chain.families) if mask in fam) for mask in blocks)
        weight = sum((ws[j] for mask in blocks for j, fam in enumerate(chain.families) if mask in fam), Fraction(0))
        if brute_min_cover_size(BipartiteGraph(tuple(blocks), tuple(range(s + 1)), adj)) > s:
            cover_violations += 1
        if weight > cap:
            violations.append({"trial": trial, "weight": str(weight)})
        samples.append(weight)
    mean, z = _brute_mean_z(samples, expectation)
    return {
        "seed": seed,
        "trials": trials,
        "violations": violations,
        "cover_size_violations": cover_violations,
        "per_partition_cap": str(cap),
        "mean": str(mean),
        "exact_expectation": str(expectation),
        "z_score": z,
        "max_observed": str(max(samples, default=Fraction(0))),
        "status": "pass" if not violations and not cover_violations and abs(z) <= 3 else "fail",
    }


def brute_random_matching_report(chain, weights, trials: int, seed: int) -> dict:
    """verify_random_matching_bound's report, from Fraction weights and `mask in fam` tests per trial."""
    ws = [Fraction(w) for w in weights]
    n, k, s = chain.n, chain.k, chain.s
    t = n // k
    threshold = thm4_threshold(k, ws)
    cap = t * sum(ws[1:], Fraction(0))
    total_sets = binom(n, k)
    expectation = sum((t * w * Fraction(len(f), total_sets) for w, f in zip(ws, chain.families)), Fraction(0))
    rng = random.Random(seed)
    samples, violations, hits = [], [], [0] * (s + 1)
    for trial in range(trials):
        blocks = random_matching(n, k, rng)
        weight = sum((ws[j] for j, fam in enumerate(chain.families) for mask in blocks if mask in fam), Fraction(0))
        for j, fam in enumerate(chain.families):
            hits[j] += blocks[0] in fam
        if n >= threshold and weight > cap:
            violations.append({"trial": trial, "weight": str(weight)})
        samples.append(weight)
    rows = []
    for j, fam in enumerate(chain.families):
        expected = Fraction(len(fam), total_sets)
        observed = Fraction(hits[j], trials) if trials else Fraction(0)
        p = float(expected)
        sigma = (p * (1 - p) / trials) ** 0.5 if trials and 0 < p < 1 else 0.0
        rows.append(
            {
                "family": j,
                "expected": str(expected),
                "observed": str(observed),
                "z_score": float(observed - expected) / sigma if sigma else 0.0,
            }
        )
    mean, mean_z = _brute_mean_z(samples, expectation)
    ok = not violations and all(abs(row["z_score"]) <= 3 for row in rows) and abs(mean_z) <= 3
    return {
        "seed": seed,
        "trials": trials,
        "bound_applies": n >= threshold,
        "threshold_n": threshold,
        "cap": str(cap),
        "violations": violations,
        "mean": str(mean),
        "exact_expectation": str(expectation),
        "mean_z_score": mean_z,
        "max_observed": str(max(samples, default=Fraction(0))),
        "membership": rows,
        "status": "pass" if ok else "fail",
    }


# ---------------------------------------------------------------------------
# the samplers on stdlib randrange and shuffle
# ---------------------------------------------------------------------------

def stdlib_random_overlapping_arc_chain(arc, s: int, rng: random.Random) -> tuple[int, ...]:
    n = arc.sigma.n
    head_disj = arc.head_disjointness
    draw, pick = rng.random, rng.randrange
    while True:
        density = draw()
        entering = [0] * (s + 1)  # the arcs whose entry level is j
        for i in range(n):
            if draw() < density:
                entering[pick(s + 1)] |= 1 << i
        arc_sets = tuple(accumulate(entering, or_))
        if rainbow(arc_sets, head_disj) is None:
            return arc_sets


def stdlib_random_matching(n: int, k: int, rng: random.Random) -> list[int]:
    pool = [1 << i for i in range(n)]  # element i + 1 as a one-bit mask
    rng.shuffle(pool)  # its draws depend only on len(pool)
    t = n // k
    # the bits of a block are distinct, so their sum is their union
    return [sum(pool[i * k : (i + 1) * k]) for i in range(t)]
