"""Cyclic-order averaging and random-partition verification harnesses.

A cyclic order sigma on [n] induces n arcs (windows of k consecutive
positions).  The harnesses here replay three averaging arguments on
concrete instances: the arc-chain inequality with its exact head-average
identity (Katona's cyclic method), the random-partition cover bound at
n = (s+1)k, and the random t-matching bound.  Each harness runs the
trials of one cell from the seed it is given; suites spreads the trials
over a suite's cells, derives each cell's seed and builds the report, so
identical seeds reproduce identical reports.

The arc-chain lemma has one check, `_check_arc_chain`, which
`arc_chain_trials` runs on the empty chain of a cell before its first
draw, so a cell that no chain can pass is refused at once, and then on
every sampled chain.  Around its one kernel call, the overlap recheck,
the check is one pass: the head range from the least and the largest
level, then one loop over the levels that checks the nesting and sums
both sides of the lemma.  An arc chain is only
ever a tuple of bitsets over head positions, checked in ints: the tables
the check needs (the arcs' disjointness derived from head positions alone,
and the block matchings laid out for one popcount per level) are cached
once per `ArcFamily`, and none depends on C(n,k), so any n up to 64 runs.
One identity `ArcFamily` is kept per (n, k), so a sampled chain builds no
`Chain`, `Family` or `Fraction`.  A sampled matching only finds its
pattern of entry levels; what depends on the pattern alone is computed
once per distinct pattern.

A number below m is drawn inline as `getrandbits(m.bit_length())`, drawn
again while it is >= m: the words `randrange(m)` and `shuffle` use on
Python 3.10 to 3.13, in their order.  So the reports depend only on
`Random.random` and `Random.getrandbits`.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterator, Sequence

from .bounds import integer_weights, thm4_threshold, weight_vector
from .combinatorics import binom, mask_from_elements
from .family import Chain
from .matching import BipartiteGraph, is_overlapping, min_vertex_cover, rainbow


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
    """The n arcs of length k on a cyclic order, indexed by head position.

    Arc h is the k-set of the elements at positions h..h+k-1 (mod n).  A
    sub-family of arcs is a bitset over heads; the sampler tests it on
    head_disjointness (from the masks), the recheck on
    position_disjointness (from the positions).
    """

    sigma: CyclicOrder
    k: int
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def head_disjointness(self) -> tuple[int, ...]:
        """Entry i: the bitset of heads whose arcs miss arc i."""
        return tuple(
            sum(1 << j for j, other in enumerate(self.masks) if not mask & other) for mask in self.masks
        )

    @cached_property
    def position_disjointness(self) -> tuple[int, ...]:
        """Entry h: the bitset of heads j whose arcs miss arc h, from positions alone.

        Arcs h and j miss each other iff (j - h) mod n >= k and
        (h - j) mod n >= k.  The masks are not read, so this table checks
        head_disjointness independently.
        """
        n, k = self.sigma.n, self.k
        return tuple(sum(1 << j for j in range(n) if (j - h) % n >= k and (h - j) % n >= k) for h in range(n))

    @cached_property
    def head_bits(self) -> tuple[int, ...]:
        """Entry i: the one-head bitset 1 << i."""
        return tuple(1 << i for i in range(len(self.masks)))

    @cached_property
    def block_heads(self) -> tuple[int, ...]:
        """Entry h: the bitset of heads h, h+k, ..., h+(t-1)k (mod n), t = n // k, of the block matching at h."""
        n, k = self.sigma.n, self.k
        return tuple(sum(1 << (h + j * k) % n for j in range(n // k)) for h in range(n))

    @cached_property
    def block_layout(self) -> tuple[int, int]:
        """(rep, blocks): heads * rep holds n copies of heads, n bits apart; copy h of blocks is block_heads[h].

        So (heads * rep & blocks).bit_count() is the sum over h of (heads & block_heads[h]).bit_count().
        """
        n = len(self.masks)
        rep = sum(1 << h * n for h in range(n))
        return rep, sum(block << h * n for h, block in enumerate(self.block_heads))


def arcs(sigma: CyclicOrder, k: int) -> ArcFamily:
    """All n windows of k consecutive positions (mod n) as k-set masks."""
    n = sigma.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    masks = []
    for head in range(n):
        masks.append(mask_from_elements(sigma.order[(head + j) % n] for j in range(k)))
    return ArcFamily(sigma, k, tuple(masks))


def check_trials(trials: int) -> int:
    """trials, unless it is not an int >= 1 (a bool is not): then ValueError."""
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    return trials


# ---------------------------------------------------------------------------
# arc chains
# ---------------------------------------------------------------------------

def _check_arc_chain(arc: ArcFamily, arc_sets: Sequence[int], p: int) -> tuple[int, int, int]:
    """The arc-chain lemma on head bitsets, in ints: (lhs, rhs, block weight summed over all n heads).

    Raises ValueError unless, checked in this order, p is an int >= 1 (a
    bool is not), the chain has a level, every head lies in 0..n-1 (the
    least and the largest level decide), the chain is nested, n >= (k+1)s
    and the chain is overlapping.  One pass over the levels checks the
    nesting and sums lhs and the block total as it goes; the overlap
    recheck comes last, one kernel call on the head bitsets over
    position_disjointness, a table derived apart from the sampler's.
    The lhs p|B_0| + |B_1| + ... + |B_s| is also e(X, Y), the total degree.
    The inequality is lhs <= rhs = max{ns, (p+s)ks}; the exact head-average
    identity, that e(M_h, Y) averages (t/n) e(X, Y) over the n block
    matchings M_h, t = n // k, is total == t * lhs.
    """
    if type(p) is not int or p < 1:
        raise ValueError(f"head multiplicity p must be a positive integer, got {p}")
    if not arc_sets:
        raise ValueError("arc chain needs at least one level")
    n = len(arc.masks)
    if min(arc_sets) < 0 or max(arc_sets) >> n:
        raise ValueError(f"arc chain has a head outside 0..{n - 1}")
    rep, blocks = arc.block_layout
    below = arc_sets[0]
    lhs = p * below.bit_count()
    total = p * (below * rep & blocks).bit_count()
    for bits in arc_sets[1:]:
        if below & ~bits:
            raise ValueError("arc chain is not nested")
        below = bits
        lhs += bits.bit_count()
        total += (bits * rep & blocks).bit_count()
    s = len(arc_sets) - 1
    k = arc.k
    if n < (k + 1) * s:
        raise ValueError(f"need n >= (k+1)s, got n={n}, k={k}, s={s}")
    if rainbow(arc_sets, arc.position_disjointness) is not None:
        raise ValueError("arc chain is not overlapping")
    return lhs, max(n * s, (p + s) * k * s), total


def _levels(s: int) -> int:
    """s + 1, the number of levels B_0..B_s; an s < 0 leaves none, so it is a ValueError."""
    if s < 0:
        raise ValueError(f"need s >= 0, got s={s}")
    return s + 1


def random_overlapping_arc_chain(
    arc: ArcFamily, s: int, rng: random.Random
) -> tuple[int, ...]:
    """Rejection-sample a nested overlapping chain of arc sub-families.

    Each arc independently joins the chain at a random level (or never)
    with a per-trial random density, so sparse and near-critical instances
    both appear; non-overlapping draws are rejected and redrawn.  Each draw
    is tested on the head bitsets directly, so none builds a Family.
    An s < 0 leaves no level to draw into, so it is a ValueError.
    """
    m = _levels(s)
    head_bits, head_disj = arc.head_bits, arc.head_disjointness
    draw, getrandbits, width = rng.random, rng.getrandbits, m.bit_length()
    above = range(1, m)
    while True:
        density = draw()
        levels = [0] * m  # first the arcs whose entry level is j, then B_j
        for bit in head_bits:
            if draw() < density:
                j = getrandbits(width)
                while j >= m:
                    j = getrandbits(width)
                levels[j] |= bit
        for j in above:
            levels[j] |= levels[j - 1]
        if rainbow(levels, head_disj) is None:
            return tuple(levels)


@lru_cache(maxsize=64)
def _identity_arcs(n: int, k: int) -> ArcFamily:
    """The arcs of the identity order, one object per (n, k), so their cached tables are built once."""
    return arcs(CyclicOrder.identity(n), k)


def arc_chain_trials(n: int, k: int, s: int, p: int, trials: int, seed: int) -> tuple[int, int, int]:
    """The arc-chain lemma on `trials` random chains of the identity order's arcs, drawn from `seed`.

    Returns (min_margin, violations, identity_failures): the least rhs - lhs,
    the chains with lhs > rhs, and the chains whose block weights miss
    t * lhs, t = n // k.  trials must be an int >= 1.  A cell that no chain
    can pass (s < 0, a bad p, n < (k+1)s) is refused before the first draw:
    the empty chain goes through the one check.
    """
    check_trials(trials)
    arc = _identity_arcs(n, k)
    _check_arc_chain(arc, (0,) * _levels(s), p)
    t = n // k
    rng = random.Random(seed)
    worst = math.inf
    violations = identity_failures = 0
    for _ in range(trials):
        lhs, rhs, total = _check_arc_chain(arc, random_overlapping_arc_chain(arc, s, rng), p)
        if lhs > rhs:
            violations += 1
        if total != t * lhs:
            identity_failures += 1
        if rhs - lhs < worst:
            worst = rhs - lhs
    return worst, violations, identity_failures


# ---------------------------------------------------------------------------
# sampled bounds on random matchings
# ---------------------------------------------------------------------------

def _shuffled_pools(n: int, rng: random.Random, trials: int) -> Iterator[list[int]]:
    """`trials` shuffles of [n], each element i + 1 as the one-bit mask 1 << i.

    Each is a fresh list, shuffled with the draws of `Random.shuffle`: for i
    from n-1 down to 1, j uniform in 0..i, then pool[i] and pool[j] swap.
    """
    base = [1 << i for i in range(n)]
    steps = [(i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    getrandbits = rng.getrandbits
    for _ in range(trials):
        pool = base[:]
        for i, m, width in steps:
            j = getrandbits(width)
            while j >= m:
                j = getrandbits(width)
            pool[i], pool[j] = pool[j], pool[i]
        yield pool


def random_matching(n: int, k: int, rng: random.Random) -> list[int]:
    """t = floor(n/k) disjoint k-sets: consecutive blocks of k of a shuffled [n].

    When k divides n the blocks are a uniform random ordered partition of [n].
    """
    (pool,) = _shuffled_pools(n, rng, 1)
    # the bits of a block are distinct, so their sum is their union
    return [sum(pool[b : b + k]) for b in range(0, n // k * k, k)]


def _sample_matchings(
    chain: Chain, ws: Sequence[Fraction], cap: Fraction | None, trials: int, seed: int
) -> tuple[list[dict], str, str, float, str, Counter]:
    """The trial loop of the sampled bounds: `trials` random matchings, drawn from `seed`.

    The caller has rechecked that the chain is overlapping, each harness in
    its own order of checks.  A trial weighs the sum over its t blocks of
    the weights of the families holding them; trials above cap (None for no
    cap) are listed as violations.  Each block is marginally uniform over
    the k-sets, so the mean is compared, with a z-score, against
    t * sum_j w_j |B_j| / C(n,k).  Returns the report's violations, mean,
    exact expectation, z-score and max_observed, and the number of trials
    per pattern: the tuple of the blocks' entry levels (s+1 for none).

    A trial only finds and counts its pattern.  The weight depends on the
    pattern alone, so it, the moments and the maximum are computed once per
    distinct pattern, and the trials are walked again, to list those above
    cap in order, only if some pattern is above it.
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
    get, starts = level.get, range(0, n // k * k, k)
    # the blocks of random_matching, each looked up as it is summed
    patterns = [
        tuple([get(sum(pool[b : b + k]), absent) for b in starts])
        for pool in _shuffled_pools(n, random.Random(seed), trials)
    ]
    counts = Counter(patterns)
    weights = {levels: sum(tail[j] for j in levels) for levels in counts}
    total = sum(weight * counts[levels] for levels, weight in weights.items())
    total_sq = sum(weight * weight * counts[levels] for levels, weight in weights.items())
    max_weight = max(weights.values())
    violations = [
        {"trial": trial, "weight": str(Fraction(weights[levels], scale))}
        for trial, levels in enumerate(patterns)
        if weights[levels] > limit
    ] if max_weight > limit else []

    mean = Fraction(total, scale * trials)
    var = Fraction(total_sq, scale * scale * trials) - mean * mean
    sigma_mean = float(var) ** 0.5 / trials**0.5
    z = float(mean - expectation) / sigma_mean if sigma_mean else 0.0
    return violations, str(mean), str(expectation), z, str(Fraction(max_weight, scale)), counts


def verify_partition_bound(chain: Chain, weights: Sequence, trials: int, seed: int) -> dict:
    """Random-partition replay of the cover-counting bound at n = (s+1)k.

    Per partition: total edge weight of the block-vs-family incidence graph
    is at most s * sum(w), and the minimum vertex cover has size at most s.
    The sampled mean is compared against the exact expectation
    sum_j w_j |B_j| (s+1) / C(n,k) and reported with a z-score.  trials
    must be an int >= 1.
    """
    n, k, s = chain.n, chain.k, chain.s
    ws = weight_vector(weights, s + 1)
    check_trials(trials)
    if n != (s + 1) * k:
        raise ValueError(f"partition bound needs n = (s+1)k, got n={n}")
    if not is_overlapping(chain):
        raise ValueError("chain is not overlapping")
    cap = s * sum(ws)
    violations, mean, expectation, z, max_observed, patterns = _sample_matchings(chain, ws, cap, trials, seed)
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
    |B_j| / C(n,k), with z-scores.  trials must be an int >= 1.
    """
    n, k, s = chain.n, chain.k, chain.s
    ws = weight_vector(weights, s + 1)
    check_trials(trials)
    if not is_overlapping(chain):
        raise ValueError("chain is not overlapping")
    if s < 1:
        raise ValueError(f"the random-matching bound needs s >= 1, got s={s}")
    threshold = thm4_threshold(k, ws)
    bound_applies = n >= threshold
    cap = n // k * sum(ws[1:], Fraction(0))
    violations, mean, expectation, mean_z, max_observed, patterns = _sample_matchings(
        chain, ws, cap if bound_applies else None, trials, seed
    )
    first_levels: Counter = Counter()
    for levels, count in patterns.items():
        first_levels[levels[0]] += count
    hits = list(accumulate(first_levels[j] for j in range(s + 1)))

    freq_rows = []
    for j, fam in enumerate(chain.families):
        expected = Fraction(len(fam), binom(n, k))
        observed = Fraction(hits[j], trials)
        p = float(expected)
        sigma = (p * (1 - p) / trials) ** 0.5 if 0 < p < 1 else 0.0
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
