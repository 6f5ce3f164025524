"""Cyclic-order averaging and random-partition verification harnesses.

A cyclic order sigma on [n] induces n arcs (windows of k consecutive
positions).  The harnesses here replay three averaging arguments on
concrete instances: the arc-chain inequality with its exact head-average
identity, the random-partition cover bound at n = (s+1)k, and the random
t-matching bound.  Every randomized report carries its seed and trial
count; identical seeds reproduce identical reports.

An arc chain is checked on bitsets over head positions, in ints: the
tables it needs (the disjointness of the arcs' colex ranks and the heads
of each block matching) are cached once per `ArcFamily`, so a sampled
chain builds no `Chain`, `Family` or `Fraction`.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter, or_
from typing import Callable, Sequence

from .bounds import integer_weights, thm4_threshold, weight_vector
from .combinatorics import binom, colex_rank, iter_bits, mask_from_elements, validate_kset
from .family import Chain, Family
from .matching import BipartiteGraph, _disjoint_within, is_overlapping, min_vertex_cover, rainbow


@dataclass(frozen=True)
class CyclicOrder:
    """A cyclic permutation of [n], stored as the tuple (x_0, ..., x_{n-1})."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if n < 1 or sorted(self.order) != list(range(1, n + 1)):
            raise ValueError("order must be a permutation of 1..n")

    @classmethod
    def identity(cls, n: int) -> "CyclicOrder":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class ArcFamily:
    """The n arcs of length k on a cyclic order, indexed by head position."""

    sigma: CyclicOrder
    k: int
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Entry i: the colex rank of arc i among the k-subsets of [n]."""
        return tuple(colex_rank(validate_kset(mask, self.sigma.n, self.k)) for mask in self.masks)

    @cached_property
    def head_disjointness(self) -> tuple[int, ...]:
        """Entry i: the bitset of heads whose arcs miss arc i."""
        return tuple(
            sum(1 << j for j, other in enumerate(self.masks) if not mask & other) for mask in self.masks
        )

    @cached_property
    def rank_disjointness(self) -> dict[int, int]:
        """The disjointness table of the arcs' colex ranks, each entry restricted to those ranks."""
        return _disjoint_within(self.sigma.n, self.k, sum(1 << r for r in self.ranks))

    @cached_property
    def block_heads(self) -> tuple[int, ...]:
        """Entry h: the bitset of heads h, h+k, ..., h+(t-1)k (mod n), t = n // k, of the block matching at h."""
        n, k = self.sigma.n, self.k
        return tuple(sum(1 << (h + j * k) % n for j in range(n // k)) for h in range(n))


def arcs(sigma: CyclicOrder, k: int) -> ArcFamily:
    """All n windows of k consecutive positions (mod n) as k-set masks."""
    n = sigma.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    masks = []
    for head in range(n):
        masks.append(mask_from_elements(sigma.order[(head + j) % n] for j in range(k)))
    return ArcFamily(sigma, k, tuple(masks))


def block_matching(sigma: CyclicOrder, k: int, head: int) -> list[int]:
    """t = floor(n/k) pairwise disjoint arcs starting at head, stepping by k."""
    n = sigma.n
    if not 0 <= head < n:
        raise ValueError(f"head {head} outside 0..{n - 1}")
    arc = arcs(sigma, k)
    t = n // k
    return [arc.masks[(head + j * k) % n] for j in range(t)]


# ---------------------------------------------------------------------------
# arc chains
# ---------------------------------------------------------------------------

def arc_chain_families(arc: ArcFamily, arc_sets: Sequence[int]) -> Chain:
    """Build a Chain from bitsets over arc head positions (nested, ascending)."""
    ranks = arc.ranks
    fams = []
    for heads in arc_sets:
        bits = 0
        for i in iter_bits(heads):
            bits |= 1 << ranks[i]
        fams.append(Family(arc.sigma.n, arc.k, bits))
    return Chain(tuple(fams))


def _check_arc_chain(arc: ArcFamily, arc_sets: Sequence[int], p: int) -> tuple[int, int, list[int]]:
    """The arc-chain lemma on head bitsets, in ints: (lhs, rhs, block weight per head).

    Raises ValueError unless p is an int >= 1 (a bool is not), the chain
    has a level, every head lies in 0..n-1, the chain is nested,
    n >= (k+1)s and the chain is overlapping; the cheap checks run before
    the overlap recheck, which is the kernel on the arcs' colex ranks.
    The lhs p|B_0| + |B_1| + ... + |B_s| is also e(X, Y), the total degree.
    """
    n, k = arc.sigma.n, arc.k
    s = len(arc_sets) - 1
    if type(p) is not int or p < 1:
        raise ValueError(f"head multiplicity p must be a positive integer, got {p}")
    if s < 0:
        raise ValueError("arc chain needs at least one level")
    if any(heads < 0 or heads >> n for heads in arc_sets):
        raise ValueError(f"arc chain has a head outside 0..{n - 1}")
    for a, b in zip(arc_sets, arc_sets[1:]):
        if a & ~b:
            raise ValueError("arc chain is not nested")
    if n < (k + 1) * s:
        raise ValueError(f"need n >= (k+1)s, got n={n}, k={k}, s={s}")
    ranks = arc.ranks
    rank_sets = [sum(1 << ranks[i] for i in iter_bits(heads)) for heads in arc_sets]
    if rainbow(rank_sets, arc.rank_disjointness):
        raise ValueError("arc chain is not overlapping")

    head, *rest = arc_sets
    lhs = p * head.bit_count() + sum(bits.bit_count() for bits in rest)
    rhs = max(n * s, (p + s) * k * s)
    blocks = arc.block_heads
    per_head = [p * (head & block).bit_count() for block in blocks]
    for bits in rest:
        per_head = [w + (bits & block).bit_count() for w, block in zip(per_head, blocks)]
    return lhs, rhs, per_head


def verify_cyclic_lemma(
    arc: ArcFamily,
    arc_sets: Sequence[int],
    p: int,
    trials: int = 0,
    seed: int = 0,
) -> dict:
    """Check the arc-chain inequality and the exact head-average identity.

    arc_sets are bitsets over head positions forming a nested chain
    B_0 <= ... <= B_s of sub-families of the arcs; the chain must be
    overlapping (checked, not assumed).  The inequality is
    p|B_0| + |B_1| + ... + |B_s| <= max{ns, (p+s)ks}.  The head average of
    e(M, Y) over all n block matchings M is compared exactly with
    (t/n) * e(X, Y); `trials` extra random heads report the sampled mean
    and maximum.
    """
    n, k = arc.sigma.n, arc.k
    lhs, rhs, per_head = _check_arc_chain(arc, arc_sets, p)
    t = n // k
    sampled = []
    if trials > 0:
        rng = random.Random(seed)
        sampled = [per_head[rng.randrange(n)] for _ in range(trials)]
    head_average = Fraction(sum(per_head), n)
    return {
        "seed": seed,
        "trials": trials,
        "n": n,
        "k": k,
        "s": len(arc_sets) - 1,
        "p": p,
        "lhs": lhs,
        "rhs": rhs,
        "inequality_holds": lhs <= rhs,
        "edge_total": lhs,
        "exact_expectation": str(Fraction(t * lhs, n)),
        "head_average": str(head_average),
        # both sides are over n, so the identity is one of numerators
        "identity_holds": sum(per_head) == t * lhs,
        "violations": [] if lhs <= rhs else [{"lhs": lhs, "rhs": rhs}],
        "mean": str(Fraction(sum(sampled), len(sampled))) if sampled else str(head_average),
        "max_observed": max(sampled) if sampled else max(per_head),
    }


def random_overlapping_arc_chain(
    arc: ArcFamily, s: int, rng: random.Random
) -> tuple[int, ...]:
    """Rejection-sample a nested overlapping chain of arc sub-families.

    Each arc independently joins the chain at a random level (or never)
    with a per-trial random density, so sparse and near-critical instances
    both appear; non-overlapping draws are rejected and redrawn.  Each draw
    is tested on the head bitsets directly, so none builds a Family.
    """
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
        if not rainbow(arc_sets, head_disj):
            return arc_sets


def run_cyclic_suite(
    cells: Sequence[tuple[int, int, int, int]],
    trials: int,
    seed: int,
) -> dict:
    """Run the arc-chain harness on random chains, spreading trials over cells.

    cells are (n, k, s, p); each gets its own deterministic sub-seed.
    The per-cell count rounds up so at least `trials` chains run in total.
    """
    per_cell = max(1, -(-trials // max(1, len(cells))))
    rows = []
    total_violations = 0
    identity_failures = 0
    for idx, (n, k, s, p) in enumerate(cells):
        arc = arcs(CyclicOrder.identity(n), k)
        t = n // k
        rng = random.Random(seed * 1_000_003 + idx)
        worst = None
        failures_before = (total_violations, identity_failures)
        for _ in range(per_cell):
            lhs, rhs, per_head = _check_arc_chain(arc, random_overlapping_arc_chain(arc, s, rng), p)
            if lhs > rhs:
                total_violations += 1
            if sum(per_head) != t * lhs:
                identity_failures += 1
            margin = rhs - lhs
            if worst is None or margin < worst:
                worst = margin
        rows.append(
            {
                "n": n,
                "k": k,
                "s": s,
                "p": p,
                "trials": per_cell,
                "min_margin": worst,
                "status": "ok" if (total_violations, identity_failures) == failures_before else "VIOLATION",
            }
        )
    status = "pass" if total_violations == 0 and identity_failures == 0 else "fail"
    return {
        "suite": "cyclic",
        "seed": seed,
        "rows": rows,
        "summary": {
            "trials": per_cell * len(cells),
            "violations": total_violations,
            "identity_failures": identity_failures,
            "status": status,
        },
    }


# ---------------------------------------------------------------------------
# sampled bounds on random matchings
# ---------------------------------------------------------------------------

def random_matching(n: int, k: int, rng: random.Random) -> list[int]:
    """t = floor(n/k) disjoint k-sets: consecutive blocks of k of a shuffled [n].

    When k divides n the blocks are a uniform random ordered partition of [n].
    """
    pool = [1 << i for i in range(n)]  # element i + 1 as a one-bit mask
    rng.shuffle(pool)  # its draws depend only on len(pool)
    t = n // k
    # the bits of a block are distinct, so their sum is their union
    return [sum(pool[i * k : (i + 1) * k]) for i in range(t)]


def _sample_matchings(
    chain: Chain, ws: Sequence[Fraction], cap: Fraction | None, trials: int, seed: int, key: Callable
) -> tuple[list[dict], str, str, float, str, Counter]:
    """The trial loop of the sampled bounds: `trials` random matchings, drawn from `seed`.

    The caller has rechecked that the chain is overlapping, each harness in
    its own order of checks.  A trial weighs the sum over its t blocks of
    the weights of the families holding them; trials above cap (None for no
    cap) are listed as violations.  Each block is marginally uniform over
    the k-sets, so the mean is compared, with a z-score, against
    t * sum_j w_j |B_j| / C(n,k).  Returns the report's violations, mean,
    exact expectation, z-score and max_observed, and the number of trials
    per key(levels), levels being the blocks' entry levels (s+1 for none).
    """
    n, k, s = chain.n, chain.k, chain.s
    expectation = Fraction(n // k * sum(w * len(f) for w, f in zip(ws, chain.families)), binom(n, k))

    # in integers: every weight below is L times the true one.  The chain is
    # nested, so a k-set lies in B_j exactly when j is at least its entry
    # level; tail[j] = iw[j] + ... + iw[s] is the weight of a set entering at
    # j, and tail[s+1] = 0 that of a non-member
    level: dict[int, int] = {}
    for j, fam in enumerate(chain.families):
        for mask in fam.members():
            level.setdefault(mask, j)
    iw, scale = integer_weights(ws)
    tail = list(accumulate(reversed(iw)))[::-1] + [0]
    limit = math.inf if cap is None else int(cap * scale)
    absent = s + 1
    rng = random.Random(seed)
    violations = []
    counts: Counter = Counter()
    total = total_sq = max_weight = 0
    for trial in range(trials):
        levels = [level.get(mask, absent) for mask in random_matching(n, k, rng)]
        weight = sum([tail[j] for j in levels])  # a list sums faster than a generator
        if weight > limit:
            violations.append({"trial": trial, "weight": str(Fraction(weight, scale))})
        counts[key(levels)] += 1
        total += weight
        total_sq += weight * weight
        max_weight = max(max_weight, weight)

    mean = Fraction(total, scale * trials) if trials else Fraction(0)
    var = Fraction(total_sq, scale * scale * trials) - mean * mean if trials else Fraction(0)
    sigma_mean = float(var) ** 0.5 / trials**0.5 if trials else 0.0
    z = float(mean - expectation) / sigma_mean if sigma_mean else 0.0
    return violations, str(mean), str(expectation), z, str(Fraction(max_weight, scale)), counts


def verify_partition_bound(chain: Chain, weights: Sequence, trials: int, seed: int) -> dict:
    """Random-partition replay of the cover-counting bound at n = (s+1)k.

    Per partition: total edge weight of the block-vs-family incidence graph
    is at most s * sum(w), and the minimum vertex cover has size at most s.
    The sampled mean is compared against the exact expectation
    sum_j w_j |B_j| (s+1) / C(n,k) and reported with a z-score.
    """
    n, k, s = chain.n, chain.k, chain.s
    ws = weight_vector(weights, s + 1)
    if n != (s + 1) * k:
        raise ValueError(f"partition bound needs n = (s+1)k, got n={n}")
    if not is_overlapping(chain):
        raise ValueError("chain is not overlapping")
    cap = s * sum(ws)
    violations, mean, expectation, z, max_observed, patterns = _sample_matchings(
        chain, ws, cap, trials, seed, tuple
    )
    # block i meets exactly the families from its entry level up, so the
    # incidence graph, and hence its cover, depends on the levels alone
    full = (1 << (s + 1)) - 1
    cover_violations = 0
    for levels, count in patterns.items():
        adj = tuple(full >> j << j for j in levels)
        lefts, rights = min_vertex_cover(BipartiteGraph(levels, tuple(range(s + 1)), adj))
        if len(lefts) + len(rights) > s:
            cover_violations += count
    return {
        "seed": seed,
        "trials": trials,
        "violations": violations,
        "cover_size_violations": cover_violations,
        "per_partition_cap": str(cap),
        "mean": mean,
        "exact_expectation": expectation,
        "z_score": z,
        "max_observed": max_observed,
        "status": "pass" if not violations and not cover_violations and abs(z) <= 3 else "fail",
    }


def verify_random_matching_bound(chain: Chain, weights: Sequence, trials: int, seed: int) -> dict:
    """Random t-matching replay of the tail-weight bound.

    Per sample: the total edge weight is at most t * (w_1 + ... + w_s)
    whenever n is above the proven threshold (reported either way), and the
    frequency of the first block landing in each family is compared with
    |B_j| / C(n,k), with z-scores.
    """
    n, k, s = chain.n, chain.k, chain.s
    ws = weight_vector(weights, s + 1)
    if not is_overlapping(chain):
        raise ValueError("chain is not overlapping")
    if s < 1:
        raise ValueError(f"the random-matching bound needs s >= 1, got s={s}")
    threshold = thm4_threshold(k, ws)
    bound_applies = n >= threshold
    cap = n // k * sum(ws[1:], Fraction(0))
    violations, mean, expectation, mean_z, max_observed, first_levels = _sample_matchings(
        chain, ws, cap if bound_applies else None, trials, seed, itemgetter(0)
    )
    hits = list(accumulate(first_levels[j] for j in range(s + 1)))

    freq_rows = []
    for j, fam in enumerate(chain.families):
        expected = Fraction(len(fam), binom(n, k))
        observed = Fraction(hits[j], trials) if trials else Fraction(0)
        p = float(expected)
        sigma = (p * (1 - p) / trials) ** 0.5 if trials and 0 < p < 1 else 0.0
        z = float(observed - expected) / sigma if sigma else 0.0
        freq_rows.append(
            {
                "family": j,
                "expected": str(expected),
                "observed": str(observed),
                "z_score": z,
            }
        )
    freq_ok = all(abs(row["z_score"]) <= 3 for row in freq_rows)
    return {
        "seed": seed,
        "trials": trials,
        "bound_applies": bound_applies,
        "threshold_n": threshold,
        "cap": str(cap),
        "violations": violations,
        "mean": mean,
        "exact_expectation": expectation,
        "mean_z_score": mean_z,
        "max_observed": max_observed,
        "membership": freq_rows,
        "status": "pass" if not violations and freq_ok and abs(mean_z) <= 3 else "fail",
    }
