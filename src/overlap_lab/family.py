"""Set-family algebra over a fixed (n, k).

A Family stores its members as one int used as a bitset indexed by colex
rank, so union/intersection/subset tests are single bitwise operations.
This module carries the compression and shifting operators, downset
(shifted-family) enumeration, and the named extremal chain constructions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .bounds import weight_vector
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

    def issubset(self, other: "Family") -> bool:
        self._check_params(other)
        return not (self.bits & ~other.bits)


@dataclass(frozen=True)
class Chain:
    """Nested families B_0 <= B_1 <= ... <= B_s."""

    families: tuple[Family, ...]

    def __post_init__(self) -> None:
        if not self.families:
            raise ValueError("chain needs at least one family")
        first = self.families[0]
        for a, b in zip(self.families, self.families[1:]):
            first._check_params(b)
            if not a.issubset(b):
                raise ValueError("chain families are not nested")

    @property
    def n(self) -> int:
        return self.families[0].n

    @property
    def k(self) -> int:
        return self.families[0].k

    @property
    def s(self) -> int:
        return len(self.families) - 1


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
    """Per colex rank, the bitset of immediate lower covers (one element bumped down by 1).

    Colex rank is the sum of C(e, j) over the j-th smallest element e
    (0-based e, j counted from 1).  Lowering e to a free e-1 keeps it the
    j-th smallest and changes only its term, so the rank falls by
    C(e-1, j-1): each cover's rank is found by arithmetic, with no k-set
    ranked or looked up.
    """
    steps = [[binom(e, i) for i in range(k)] for e in range(n)]
    preds = []
    for r, m in enumerate(ksets(n, k)):
        # bit t: element t+1 of m may move down to the free t
        dest = (m >> 1) & ~m
        pb = 0
        while dest:
            low = dest & -dest
            dest ^= low
            pb |= 1 << (r - steps[low.bit_length() - 1][(m & (low - 1)).bit_count()])
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
def _upper_covers(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Per colex rank r, q - r for each upper cover q of r whose highest lower cover is r.

    walk_downsets reads this table: it adds ranks in increasing order, so
    a rank q can join only the child that adds q's highest lower cover.
    Every rank but 0 has lower covers, so each appears in exactly one row.
    The offsets repeat from rank to rank, and equal rows share one tuple,
    so the table costs about a pointer per rank.
    """
    rows: list[list[int]] = [[] for _ in range(binom(n, k))]
    for q, pb in enumerate(_poset_preds(n, k)):
        if pb:
            r = pb.bit_length() - 1
            rows[r].append(q - r)
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    return tuple(shared.setdefault(row, row) for row in map(tuple, rows))


@lru_cache(maxsize=None)
def _lower_covers(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per colex rank, (upper covers, bit) of each of its lower covers.

    Built with a plain bit loop, not a generator per rank: a fresh process
    builds this table for every (n, k) it solves, and on small cells the
    build is a sizeable share of the solve.
    """
    succs = _poset_succs(n, k)
    pairs = [(up, 1 << q) for q, up in enumerate(succs)]
    table = []
    for pb in _poset_preds(n, k):
        row = ()
        while pb:
            low = pb & -pb
            pb ^= low
            row += (pairs[low.bit_length() - 1],)
        table.append(row)
    return tuple(table)


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

def walk_downsets(n: int, k: int, refuse: Callable[[int, int], bool]) -> Iterator[int]:
    """Yield the downsets of (C([n],k), shift order) as rank bitsets, by reverse search.

    Colex rank is a linear extension of the shift order, so dropping the
    highest-rank member of a nonempty downset leaves a downset, its unique
    parent.  The children of D are D | 1<<r for each rank r above D's top
    whose lower covers lie in D; a depth-first walk of this tree from the
    empty downset reaches every downset exactly once, in no particular
    order.  refuse(D, r) may reject the child D | 1<<r, and then its whole
    subtree is skipped.  The walk sets no budget: a caller that needs one
    counts what it is given.

    The walk adds ranks in increasing order, so the child D | 1<<r gains
    an upper cover q of r only when r is q's highest lower cover and the
    others lie in D.  The walk reads those q from the cached table
    _upper_covers, and runs no generator per child.
    """
    preds = _poset_preds(n, k)
    covers = _upper_covers(n, k)
    # each entry: a downset and the ranks above its top that may join it;
    # rank 0, the k lowest elements, is the one rank with no lower cover
    stack = [(0, 1 if covers else 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        d, addable = pop()
        yield d
        while addable:
            low = addable & -addable
            addable ^= low
            r = low.bit_length() - 1
            if refuse(d, r):
                continue
            child = d | low
            grown = addable
            for step in covers[r]:
                q = r + step
                below = preds[q]
                if below & child == below:
                    grown |= 1 << q
            # addable holds only ranks above r, as do r's upper covers
            push((child, grown))


def walk_subdownsets(
    n: int, k: int, top: int, maximal: int, keep: Callable[[int], bool]
) -> Iterator[tuple[int, int]]:
    """Yield (D, maximal members of D) for the sub-downsets D of the downset `top`, by reverse search.

    maximal holds top's maximal members (no upper cover in top); the walk
    never scans a downset for them.  The parent of a downset D inside top,
    D != top, is D | 1<<m for the lowest rank m of top outside D: m's lower
    covers rank below m, so they lie in D, and the parent is a downset.
    The children of D are D minus r, for each rank r maximal in D below
    every rank of top outside D.  A depth-first walk of this tree from top
    reaches every sub-downset exactly once, and after its parent, so each
    step peels one member off (Avis and Fukuda, "Reverse search for
    enumeration", 1996).  The lowest rank of top outside D - r is r, so the
    child's removable ranks are its maximal members below r, and the walk
    keeps no other set for them.

    The maximal set moves by one step: max(D - r) is max(D) without r, plus
    the lower covers of r left with no upper cover in D - r.  Removing r
    gives no other member of D - r an upper cover, so every other maximal
    member of D stays maximal; and a member that was not maximal keeps an
    upper cover in D - r unless r was its only one, which makes it a lower
    cover of r.

    keep(D) is asked as D is reached, after the caller has finished with
    every downset yielded before it; when it declines, D and its whole
    subtree are skipped.  The subtree holds only sub-downsets of D, so when
    keep declines every sub-downset of a downset it declines, as a size
    threshold does, the walk yields exactly the downsets it keeps.
    """
    covers = _lower_covers(n, k)
    # each entry: a downset, its parent's maximal ranks less the rank
    # peeled off to reach it, that rank's bit (0 at top) and its lower covers
    stack = [(top, maximal, 0, ())]
    pop = stack.pop
    push = stack.append
    while stack:
        d, maxes, peeled, below = pop()
        if not keep(d):
            continue
        for up, bit in below:
            if not up & d:
                maxes |= bit
        yield d, maxes
        # peeled - 1 is -1 at top, where every maximal rank is removable
        rest = maxes & (peeled - 1)
        while rest:
            low = rest & -rest
            rest ^= low
            push((d ^ low, maxes ^ low, low, covers[low.bit_length() - 1]))


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


CONSTRUCTION_KINDS = ("empty-then-full", "cover", "clique")


def construction_chain(kind: str, n: int, k: int, s: int) -> Chain:
    """One of the named extremal chains.

    empty-then-full: B_0 empty, B_1 = ... = B_s = C([n],k).
    cover:           every B_i = all k-sets meeting {1..s}.
    clique:          every B_i = all k-sets inside {1..(s+1)k-1}, which
                     are the colex ranks below C((s+1)k-1, k).
    """
    if kind == "empty-then-full":
        fams = (Family.empty(n, k),) + (Family.full(n, k),) * s
    elif kind == "cover":
        fams = (cover_family(n, k, s),) * (s + 1)
    elif kind == "clique":
        if n < (s + 1) * k - 1:
            raise ValueError(f"clique construction needs n >= (s+1)k-1 = {(s + 1) * k - 1}")
        fams = (Family(n, k, (1 << binom((s + 1) * k - 1, k)) - 1),) * (s + 1)
    else:
        raise ValueError(f"unknown construction kind {kind!r}; expected one of {CONSTRUCTION_KINDS}")
    return Chain(fams)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def family_to_dict(fam: Family) -> dict:
    return {"n": fam.n, "k": fam.k, "sets": [list(t) for t in fam.sets()]}


def family_from_dict(data: dict) -> Family:
    return Family.from_sets(data["n"], data["k"], data["sets"])


def chain_to_dict(chain: Chain) -> dict:
    return {
        "n": chain.n,
        "k": chain.k,
        "families": [[list(t) for t in f.sets()] for f in chain.families],
    }


def chain_from_dict(data: dict) -> Chain:
    """The chain of a chain file; its optional weights are checked, then dropped."""
    n, k = data["n"], data["k"]
    chain = Chain(tuple(Family.from_sets(n, k, sets) for sets in data["families"]))
    if data.get("weights") is not None:
        weight_vector(data["weights"], len(chain.families))
    return chain
