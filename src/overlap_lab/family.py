"""Set-family algebra over a fixed (n, k).

A Family stores its members as one int used as a bitset indexed by colex
rank, so union/intersection/subset tests are single bitwise operations.
This module carries the compression and shifting operators, downset
(shifted-family) enumeration, and the named extremal chain constructions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .bounds import json_safe, solver_weights, weight_vector
from .combinatorics import (
    MAX_GROUND_SET,
    binom,
    colex_rank,
    elements_of,
    iter_bits,
    ksets,
    mask_from_elements,
    validate_kset,
)

# the default work budget: nodes a solver explores, downsets the conj2 hunt visits
WORK_LIMIT_DEFAULT = 10**7


class NodeLimitError(RuntimeError):
    """A search exceeded its work budget."""


# kept only because perfbench's frontier ladders catch this name
DownsetLimitError = NodeLimitError


@dataclass(frozen=True)
class Family:
    """An immutable family of k-subsets of [n]; bit r of `bits` marks colex rank r."""

    n: int
    k: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise ValueError(f"ground set size {self.n} outside 1..{MAX_GROUND_SET}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        cap = binom(self.n, self.k)
        if self.bits < 0 or self.bits >> cap:
            raise ValueError(f"member bitset outside capacity C({self.n},{self.k})={cap}")

    @classmethod
    def empty(cls, n: int, k: int) -> "Family":
        return cls(n, k, 0)

    @classmethod
    def full(cls, n: int, k: int) -> "Family":
        return cls(n, k, (1 << binom(n, k)) - 1)

    @classmethod
    def from_masks(cls, n: int, k: int, masks: Iterable[int]) -> "Family":
        bits = 0
        for m in masks:
            validate_kset(m, n, k)
            bits |= 1 << colex_rank(m)
        return cls(n, k, bits)

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "Family":
        return cls.from_masks(n, k, (mask_from_elements(s, n) for s in sets))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, mask: int) -> bool:
        return bool(self.bits >> colex_rank(validate_kset(mask, self.n, self.k)) & 1)

    def members(self) -> Iterator[int]:
        """Member masks in colex order."""
        table = ksets(self.n, self.k)
        return (table[r] for r in iter_bits(self.bits))

    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Members as sorted 1-based element tuples, in colex order."""
        return tuple(elements_of(m) for m in self.members())

    def _check_params(self, other: "Family") -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError(f"family parameter mismatch: ({self.n},{self.k}) vs ({other.n},{other.k})")

    def union(self, other: "Family") -> "Family":
        self._check_params(other)
        return Family(self.n, self.k, self.bits | other.bits)

    def intersection(self, other: "Family") -> "Family":
        self._check_params(other)
        return Family(self.n, self.k, self.bits & other.bits)

    __or__ = union
    __and__ = intersection

    def issubset(self, other: "Family") -> bool:
        self._check_params(other)
        return not (self.bits & ~other.bits)

    __le__ = issubset


@dataclass(frozen=True)
class Chain:
    """Nested families B_0 <= B_1 <= ... <= B_s, optionally with a weight vector.

    Supplied weights must pass bounds.weight_vector, one per family.
    """

    families: tuple[Family, ...]
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if not self.families:
            raise ValueError("chain needs at least one family")
        first = self.families[0]
        for a, b in zip(self.families, self.families[1:]):
            first._check_params(b)
            if not a.issubset(b):
                raise ValueError("chain families are not nested")
        if self.weights is not None:
            object.__setattr__(self, "weights", weight_vector(self.weights, len(self.families)))

    @property
    def n(self) -> int:
        return self.families[0].n

    @property
    def k(self) -> int:
        return self.families[0].k

    @property
    def s(self) -> int:
        return len(self.families) - 1

    def weighted_value(self, weights: Sequence[Fraction | int] | None = None) -> Fraction:
        """Sum of w_i * |B_i| under the given solver weights (or the stored ones)."""
        ws = self.weights if weights is None else solver_weights(weights, len(self.families))
        if ws is None:
            raise ValueError("no weights supplied")
        return sum((w * len(f) for w, f in zip(ws, self.families)), Fraction(0))

    def total_cardinality(self) -> int:
        return sum(len(f) for f in self.families)


# ---------------------------------------------------------------------------
# compression and the weighted reduction
# ---------------------------------------------------------------------------

def compress_pair(a: Family, b: Family) -> tuple[Family, Family]:
    """Replace (A, B) by (A&B, A|B); preserves |A| + |B|."""
    return a.intersection(b), a.union(b)


def nestify(seq: Sequence[Family]) -> list[Family]:
    """Compress adjacent pairs in sweeps until the sequence is nested.

    Each effective compression strictly increases sum(i * |A_i|), which is
    bounded, so the sweeps terminate.  Total size is conserved exactly.
    """
    fams = list(seq)
    for a, b in zip(fams, fams[1:]):
        a._check_params(b)
    changed = True
    while changed:
        changed = False
        for i in range(len(fams) - 1):
            lo, hi = compress_pair(fams[i], fams[i + 1])
            if (lo.bits, hi.bits) != (fams[i].bits, fams[i + 1].bits):
                fams[i], fams[i + 1] = lo, hi
                changed = True
    return fams


def reduce_to_weighted(m: int, s: int) -> tuple[int, ...]:
    """Weight vector (m-s, 1, ..., 1) of length s+1 for the m-family problem.

    m = s is allowed and yields a zero head weight: the extra families
    contribute nothing and the rainbow constraint is vacuous, matching the
    degenerate optimum m * C(n, k).
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if m < s:
        raise ValueError(f"need m >= s, got m={m}, s={s}")
    return (m - s,) + (1,) * s


# ---------------------------------------------------------------------------
# shifting
# ---------------------------------------------------------------------------

def shift_ij(fam: Family, i: int, j: int) -> Family:
    """Replace element j by i (i < j) in every member where the result is new."""
    if not (1 <= i < j <= fam.n):
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={fam.n}")
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    table = ksets(fam.n, fam.k)
    old_bits = fam.bits
    out = 0
    for r in iter_bits(old_bits):
        m = table[r]
        if (m & bj) and not (m & bi):
            target = (m ^ bj) | bi
            tr = colex_rank(target)
            out |= 1 << (tr if not (old_bits >> tr & 1) else r)
        else:
            out |= 1 << r
    return Family(fam.n, fam.k, out)


def shift_closure(fam: Family) -> Family:
    """Apply shifts for all i < j, restarting after any change, until stable."""
    cur = fam
    changed = True
    while changed:
        changed = False
        for j in range(2, cur.n + 1):
            for i in range(1, j):
                nxt = shift_ij(cur, i, j)
                if nxt.bits != cur.bits:
                    cur = nxt
                    changed = True
                    break
            if changed:
                break
    return cur


def is_shifted(fam: Family) -> bool:
    """True iff the family is a downset of the coordinatewise order."""
    preds = _poset_preds(fam.n, fam.k)
    bits = fam.bits
    for r in iter_bits(bits):
        if preds[r] & ~bits:
            return False
    return True


@lru_cache(maxsize=None)
def _poset_preds(n: int, k: int) -> tuple[int, ...]:
    """Per colex rank, the bitset of immediate lower covers (one element bumped down by 1)."""
    table = ksets(n, k)
    rank_of = {m: r for r, m in enumerate(table)}
    preds = []
    for m in table:
        pb = 0
        for e in iter_bits(m):
            if e == 0:
                continue
            below = 1 << (e - 1)
            if not (m & below):
                pb |= 1 << rank_of[(m ^ (1 << e)) | below]
        preds.append(pb)
    return tuple(preds)


@lru_cache(maxsize=None)
def _poset_succs(n: int, k: int) -> tuple[int, ...]:
    """Per colex rank, the bitset of immediate upper covers (one element bumped up by 1)."""
    preds = _poset_preds(n, k)
    succs = [0] * len(preds)
    for r, pb in enumerate(preds):
        for q in iter_bits(pb):
            succs[q] |= 1 << r
    return tuple(succs)


@lru_cache(maxsize=None)
def _lower_covers(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per colex rank, (upper covers, bit) of each of its lower covers."""
    preds = _poset_preds(n, k)
    succs = _poset_succs(n, k)
    return tuple(tuple((succs[q], 1 << q) for q in iter_bits(pb)) for pb in preds)


@lru_cache(maxsize=None)
def poset_upsets(n: int, k: int) -> tuple[int, ...]:
    """Per colex rank r, the bitset of ranks at or above r in the shift order.

    Upper covers have higher colex ranks, so one pass from the top rank down
    closes the cover relation.
    """
    succs = _poset_succs(n, k)
    ups = [0] * len(succs)
    for r in reversed(range(len(succs))):
        up = 1 << r
        for q in iter_bits(succs[r]):
            up |= ups[q]
        ups[r] = up
    return tuple(ups)


# ---------------------------------------------------------------------------
# downset (shifted-family) enumeration
# ---------------------------------------------------------------------------

def walk_downsets(n: int, k: int, refuse: Callable[[int, int], bool] | None = None) -> Iterator[int]:
    """Yield the downsets of (C([n],k), shift order) as rank bitsets, by reverse search.

    Colex rank is a linear extension of the shift order, so dropping the
    highest-rank member of a nonempty downset leaves a downset, its unique
    parent.  The children of D are D | 1<<r for each rank r above D's top
    whose lower covers lie in D; a depth-first walk of this tree from the
    empty downset reaches every downset exactly once, in no particular
    order.  When given, refuse(D, r) may reject the child D | 1<<r, and its
    whole subtree is skipped.  The walk sets no budget: a caller that
    needs one counts what it is given.
    """
    preds = _poset_preds(n, k)
    succs = _poset_succs(n, k)
    # each entry: a downset and the ranks above its top that may join it
    stack = [(0, sum(1 << r for r, pb in enumerate(preds) if not pb))]
    while stack:
        d, addable = stack.pop()
        yield d
        while addable:
            low = addable & -addable
            addable ^= low
            r = low.bit_length() - 1
            if refuse is not None and refuse(d, r):
                continue
            child = d | low
            outside = ~child
            grown = 0
            for q in iter_bits(succs[r]):
                if not preds[q] & outside:
                    grown |= 1 << q
            # addable now holds only ranks above r, as does succs[r]
            stack.append((child, addable | grown))


def walk_subdownsets(
    n: int, k: int, top: int, keep: Callable[[int], bool] | None = None
) -> Iterator[int]:
    """Yield the sub-downsets of the downset `top` as rank bitsets, by reverse search.

    The parent of a downset D inside top, D != top, is D | 1<<m for the
    lowest rank m of top outside D: m's lower covers rank below m, so they
    lie in D, and the parent is a downset.  The children of D are D minus
    r, for each rank r maximal in D (no upper cover in D) below every rank
    of top outside D.  A child's removable ranks are its parent's below r,
    plus the lower covers of r left with no upper cover in the child.  A
    depth-first walk of this tree from top reaches every sub-downset
    exactly once, and after its parent, so each step peels one member off
    (Avis and Fukuda, "Reverse search for enumeration", 1996).

    When given, keep(D) is asked as D is reached, after the caller has
    finished with every downset yielded before it; when it declines, D and
    its whole subtree are skipped.  The subtree holds only sub-downsets of
    D, so when keep declines every sub-downset of a downset it declines, as
    a size threshold does, the walk yields exactly the downsets it keeps.
    """
    succs = _poset_succs(n, k)
    removable = 0
    for r in iter_bits(top):
        if not succs[r] & top:
            removable |= 1 << r
    covers = _lower_covers(n, k)
    # each entry: a downset, its parent's removable ranks below the rank
    # peeled off to reach it, and the lower covers of that rank
    stack = [(top, removable, ())]
    while stack:
        d, removable, below = stack.pop()
        if keep is not None and not keep(d):
            continue
        for up, bit in below:
            if not up & d:
                removable |= bit
        yield d
        rest = removable
        while rest:
            low = rest & -rest
            rest ^= low
            stack.append((d ^ low, removable & (low - 1), covers[low.bit_length() - 1]))


def downset_bitsets(n: int, k: int) -> list[int]:
    """All downsets of (C([n],k), shift order) as rank bitsets.

    Ordered by nondecreasing cardinality, ties by ascending bitset value.
    """
    return sorted(walk_downsets(n, k), key=lambda d: (d.bit_count(), d))


def enumerate_shifted_families(n: int, k: int) -> Iterator[Family]:
    """Yield every shifted family over (n, k) exactly once, smallest first."""
    for bits in downset_bitsets(n, k):
        yield Family(n, k, bits)


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def cover_family(n: int, k: int, s: int) -> Family:
    """All k-sets meeting {1, ..., s}; size C(n,k) - C(n-s,k)."""
    if s < 0 or s > n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    head = (1 << s) - 1
    bits = 0
    for r, m in enumerate(ksets(n, k)):
        if m & head:
            bits |= 1 << r
    return Family(n, k, bits)


def _clique_family(n: int, k: int, universe: int) -> Family:
    window = (1 << universe) - 1
    bits = 0
    for r, m in enumerate(ksets(n, k)):
        if not (m & ~window):
            bits |= 1 << r
    return Family(n, k, bits)


CONSTRUCTION_KINDS = ("empty-then-full", "cover", "clique")


def construction_chain(
    kind: str,
    n: int,
    k: int,
    s: int,
    weights: Sequence[Fraction | int] | None = None,
) -> Chain:
    """One of the named extremal chains.

    empty-then-full: B_0 empty, B_1 = ... = B_s = C([n],k).
    cover:           every B_i = all k-sets meeting {1..s}.
    clique:          every B_i = all k-sets inside {1..(s+1)k-1}.
    """
    if kind == "empty-then-full":
        fams = (Family.empty(n, k),) + (Family.full(n, k),) * s
    elif kind == "cover":
        fams = (cover_family(n, k, s),) * (s + 1)
    elif kind == "clique":
        if n < (s + 1) * k - 1:
            raise ValueError(f"clique construction needs n >= (s+1)k-1 = {(s + 1) * k - 1}")
        fams = (_clique_family(n, k, (s + 1) * k - 1),) * (s + 1)
    else:
        raise ValueError(f"unknown construction kind {kind!r}; expected one of {CONSTRUCTION_KINDS}")
    return Chain(fams, weights)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def family_to_dict(fam: Family) -> dict:
    return {"n": fam.n, "k": fam.k, "sets": [list(t) for t in fam.sets()]}


def family_from_dict(data: dict) -> Family:
    return Family.from_sets(data["n"], data["k"], data["sets"])


def chain_to_dict(chain: Chain) -> dict:
    out = {
        "n": chain.n,
        "k": chain.k,
        "families": [[list(t) for t in f.sets()] for f in chain.families],
    }
    if chain.weights is not None:
        out["weights"] = json_safe(chain.weights)
    return out


def chain_from_dict(data: dict) -> Chain:
    n, k = data["n"], data["k"]
    fams = tuple(Family.from_sets(n, k, sets) for sets in data["families"])
    return Chain(fams, data.get("weights"))
