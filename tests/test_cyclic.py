import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import (
    brute_partition_report,
    brute_random_matching_report,
    pairwise_disjoint,
    stdlib_random_matching,
    stdlib_random_overlapping_arc_chain,
)
from overlap_lab import cyclic
from overlap_lab.combinatorics import binom, elements_of, mask_from_elements
from overlap_lab.cyclic import (
    CyclicOrder,
    arcs,
    random_matching,
    random_overlapping_arc_chain,
    verify_partition_bound,
    verify_random_matching_bound,
)
from overlap_lab.family import Chain, Family, construction_chain
from overlap_lab.matching import is_overlapping, rainbow
from overlap_lab.suites import SUITES, run_suite


def test_cyclic_order_validation():
    CyclicOrder((2, 3, 1))
    with pytest.raises(ValueError):
        CyclicOrder((1, 1, 2))
    assert CyclicOrder.identity(5).order == (1, 2, 3, 4, 5)


def test_arcs_identity_example():
    arc = arcs(CyclicOrder.identity(6), 2)
    got = [elements_of(m) for m in arc.masks]
    assert got == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
    assert len(arc) == 6


def test_arcs_element_coverage():
    for n, k in [(6, 2), (7, 3), (9, 4)]:
        arc = arcs(CyclicOrder.identity(n), k)
        assert len(arc) == n
        for e in range(1, n + 1):
            bit = 1 << (e - 1)
            assert sum(bool(m & bit) for m in arc.masks) == k


def test_arcs_respect_permutation():
    sigma = CyclicOrder((3, 1, 4, 2, 5))
    arc = arcs(sigma, 2)
    assert elements_of(arc.masks[0]) == (1, 3)
    assert elements_of(arc.masks[4]) == (3, 5)  # wraps to the head


def test_arcs_rejects_bad_k():
    with pytest.raises(ValueError):
        arcs(CyclicOrder.identity(5), 5)
    with pytest.raises(ValueError):
        arcs(CyclicOrder.identity(5), 0)


def block_arcs(arc, head):
    """The arcs at the heads of block_heads[head]: the block matching M_head."""
    return [arc.masks[i] for i in range(len(arc)) if arc.block_heads[head] >> i & 1]


def test_block_matching_examples():
    got = [elements_of(m) for m in block_arcs(arcs(CyclicOrder.identity(6), 2), 0)]
    assert got == [(1, 2), (3, 4), (5, 6)]
    got7 = [elements_of(m) for m in block_arcs(arcs(CyclicOrder.identity(7), 2), 0)]
    assert got7 == [(1, 2), (3, 4), (5, 6)]  # t = 3, element 7 unused


def test_block_matching_disjoint_all_heads():
    for n in range(2, 21):
        for k in range(1, n):
            arc = arcs(CyclicOrder.identity(n), k)
            for head in range(n):
                blocks = block_arcs(arc, head)
                assert len(blocks) == n // k
                assert pairwise_disjoint(blocks)


def test_consecutive_arcs_pairwise_intersect():
    for n in range(4, 13):
        for k in range(2, n // 2 + 1):
            arc = arcs(CyclicOrder.identity(n), k)
            for i in range(n):
                window = [arc.masks[(i + d) % n] for d in range(k)]
                for a in range(k):
                    for b in range(a + 1, k):
                        assert window[a] & window[b], (n, k, i, a, b)


# ---------------------------------------------------------------------------
# the arc-chain inequality and exact head-average identity
# ---------------------------------------------------------------------------

def test_cyclic_lemma_all_arcs():
    # B_0 empty, every other level all arcs: the weighted count is n*s exactly
    n, k, s, p = 9, 2, 2, 3
    arc = arcs(CyclicOrder.identity(n), k)
    full = (1 << n) - 1
    lhs, rhs, total = cyclic._check_arc_chain(arc, (0, full, full), p)
    assert lhs == n * s <= rhs
    assert total == n // k * lhs


def test_cyclic_lemma_rejects_bad_chains():
    arc = arcs(CyclicOrder.identity(8), 2)
    with pytest.raises(ValueError):
        cyclic._check_arc_chain(arc, (0b11, 0b01), 1)  # not nested
    full = (1 << 8) - 1
    with pytest.raises(ValueError):
        cyclic._check_arc_chain(arc, (full, full), 1)  # rainbow pair exists
    for arc_sets in [(1 << 8,), (-1,), (0, 1 << 9)]:  # a head outside 0..7
        with pytest.raises(ValueError):
            cyclic._check_arc_chain(arc, arc_sets, 1)
    with pytest.raises(ValueError, match="at least one level"):
        cyclic._check_arc_chain(arc, (), 1)
    for p in (0, 1.5, True):
        with pytest.raises(ValueError, match="positive integer"):
            cyclic._check_arc_chain(arc, (0,), p)


def rejects(arc, arc_sets, p, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cyclic._check_arc_chain(arc, arc_sets, p)


def test_cyclic_lemma_rejects_in_order():
    # a chain that breaks two rules is refused for the first in the check's order
    arc = arcs(CyclicOrder.identity(8), 2)
    full = (1 << 8) - 1
    for p in (0, 1.5, True):
        rejects(arc, (), p, f"head multiplicity p must be a positive integer, got {p}")
    rejects(arc, (), 1, "arc chain needs at least one level")
    rejects(arc, (0b11, -1), 1, "arc chain has a head outside 0..7")
    rejects(arc, (0b11, 0b01, 1 << 8), 1, "arc chain has a head outside 0..7")
    rejects(arc, (0b11, 0b01, full, full), 1, "arc chain is not nested")
    rejects(arc, (full,) * 4, 1, "need n >= (k+1)s, got n=8, k=2, s=3")
    rejects(arc, (full, full), 1, "arc chain is not overlapping")


def test_cyclic_lemma_identity_exact_random():
    rng = random.Random(42)
    for n, k, s, p in [(9, 2, 2, 1), (8, 2, 1, 3), (12, 3, 1, 2)]:
        arc = arcs(CyclicOrder.identity(n), k)
        for _ in range(200):
            arc_sets = random_overlapping_arc_chain(arc, s, rng)
            lhs, rhs, total = cyclic._check_arc_chain(arc, arc_sets, p)
            assert total == n // k * lhs, (n, k, s, p, arc_sets)
            assert lhs <= rhs, (n, k, s, p, arc_sets)


@st.composite
def nested_arc_chains(draw):
    """(arc family, nested head bitsets, p): each arc enters at a drawn level or never; k need not divide n."""
    n = draw(st.integers(2, 13))
    k = draw(st.integers(1, n - 1))
    s = draw(st.integers(0, 3))
    # level s + 1 is "never"; weighting it keeps a share of the chains overlapping
    entry = draw(st.lists(st.sampled_from(range(s + 2)) | st.just(s + 1), min_size=n, max_size=n))
    arc_sets = tuple(sum(1 << i for i in range(n) if entry[i] <= j) for j in range(s + 1))
    return arcs(CyclicOrder.identity(n), k), arc_sets, draw(st.integers(1, 3))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(nested_arc_chains())
def test_arc_chains_against_naive_construction(drawn):
    arc, arc_sets, p = drawn
    n, k, s = arc.sigma.n, arc.k, len(arc_sets) - 1
    # the k-set chain the head bitsets stand for, checked by the Family-level reference
    chain = Chain(
        tuple(Family.from_masks(n, k, {arc.masks[i] for i in range(n) if bits >> i & 1}) for bits in arc_sets)
    )
    overlapping = is_overlapping(chain)
    assert overlapping == (rainbow(arc_sets, arc.position_disjointness) is None)
    if not overlapping or n < (k + 1) * s:
        with pytest.raises(ValueError):
            cyclic._check_arc_chain(arc, arc_sets, p)
        return
    deg = [p * (arc_sets[0] >> i & 1) + sum(bits >> i & 1 for bits in arc_sets[1:]) for i in range(n)]

    def block_weight(head):
        return sum(deg[(head + j * k) % n] for j in range(n // k))

    for h, block in enumerate(arc.block_heads):
        weight = p * (arc_sets[0] & block).bit_count() + sum((bits & block).bit_count() for bits in arc_sets[1:])
        assert weight == block_weight(h)

    lhs, _, total = cyclic._check_arc_chain(arc, arc_sets, p)
    assert lhs == sum(deg)
    assert total == sum(block_weight(h) for h in range(n))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.data(), st.integers(0, 2**64))
def test_inline_draws_replay_the_stdlib_stream(data, seed):
    # the same outputs from the same 32-bit words, and the same number of them
    n = data.draw(st.integers(2, 13))
    k = data.draw(st.integers(1, n - 1))
    s = data.draw(st.integers(0, 3))
    arc = arcs(CyclicOrder.identity(n), k)
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert random_matching(n, k, ours) == stdlib_random_matching(n, k, theirs)
        assert random_overlapping_arc_chain(arc, s, ours) == stdlib_random_overlapping_arc_chain(arc, s, theirs)
        assert ours.getstate() == theirs.getstate()


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.data())
def test_position_disjointness_is_head_disjointness(data):
    # two tables of the same n arcs: one from the positions, one from the masks of a permuted order
    n = data.draw(st.integers(2, 64))
    k = data.draw(st.integers(1, n - 1))
    arc = arcs(CyclicOrder(tuple(data.draw(st.permutations(range(1, n + 1))))), k)
    assert arc.position_disjointness == arc.head_disjointness


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.data())
def test_block_layout_sums_the_block_weights_of_every_head(data):
    n = data.draw(st.integers(2, 64))
    k = data.draw(st.integers(1, n - 1))
    arc = arcs(CyclicOrder(tuple(data.draw(st.permutations(range(1, n + 1))))), k)
    rep, blocks = arc.block_layout
    for heads in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8)):
        assert (heads * rep & blocks).bit_count() == sum((heads & b).bit_count() for b in arc.block_heads)
    s = data.draw(st.integers(0, min(3, n // (k + 1))))
    p = data.draw(st.integers(1, 4))
    arc_sets = random_overlapping_arc_chain(arc, s, random.Random(data.draw(st.integers(0, 2**32))))
    lhs, _, total = cyclic._check_arc_chain(arc, arc_sets, p)
    head, *rest = arc_sets
    per_head = [p * (head & b).bit_count() + sum((bits & b).bit_count() for bits in rest) for b in arc.block_heads]
    assert total == sum(per_head) == n // k * lhs


def test_cyclic_suite_reuses_one_arc_family_per_cell_shape(monkeypatch):
    seen = []
    check = cyclic._check_arc_chain

    def recording_check(arc, arc_sets, p):
        seen.append(arc)
        return check(arc, arc_sets, p)

    monkeypatch.setattr(cyclic, "_check_arc_chain", recording_check)
    for seed in (1, 2):
        run_suite("cyclic", cells=[(9, 2, 2, 1), (9, 2, 2, 3), (8, 2, 1, 1)], trials=6, seed=seed)
    assert {id(arc) for arc in seen} == {id(cyclic._identity_arcs(9, 2)), id(cyclic._identity_arcs(8, 2))}
    assert cyclic._identity_arcs(9, 2) == arcs(CyclicOrder.identity(9), 2)


def test_sampled_entry_points_refuse_bad_trial_counts():
    chain = construction_chain("clique", 4, 2, 1)
    cover = construction_chain("cover", 8, 2, 1)
    for trials in (0, -3, 1.5, True, None):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            verify_partition_bound(chain, (1, 1), trials, 0)
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            verify_random_matching_bound(cover, (1, 1), trials, 0)
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            cyclic.arc_chain_trials(8, 2, 1, 1, trials, 0)
    # the suite checks trials before spreading them over its cells, where
    # True would round up to 1 chain per cell; None stands for its default
    for trials in (0, -3, 1.5, True):
        with pytest.raises(ValueError, match=f"trials must be an integer >= 1, got {trials!r}"):
            run_suite("cyclic", cells=[(8, 2, 1, 1)], trials=trials, seed=0)
    # trials=0 reaches the sampler instead of standing for the default count
    for name in ("cyclic", "partition", "random-matching"):
        with pytest.raises(ValueError, match="trials must be an integer >= 1, got 0"):
            run_suite(name, trials=0)


def test_random_chain_sampler_output_contract():
    rng = random.Random(5)
    arc = arcs(CyclicOrder.identity(9), 2)
    for _ in range(100):
        arc_sets = random_overlapping_arc_chain(arc, 2, rng)
        assert len(arc_sets) == 3
        for a, b in zip(arc_sets, arc_sets[1:]):
            assert not a & ~b
        chain = Chain(
            tuple(Family.from_masks(9, 2, {arc.masks[i] for i in range(9) if bits >> i & 1}) for bits in arc_sets)
        )
        assert is_overlapping(chain)


class NoDraws(random.Random):
    def random(self):
        raise AssertionError("the sampler drew before refusing its cell")

    getrandbits = random


def test_sampler_refuses_negative_s_before_drawing():
    # s = -1 leaves no level: the level draw getrandbits(0) is always 0, so a
    # sampler that drew first would spin forever
    with pytest.raises(ValueError, match="need s >= 0, got s=-1"):
        random_overlapping_arc_chain(arcs(CyclicOrder.identity(9), 2), -1, NoDraws(1))
    with pytest.raises(ValueError, match="need s >= 0, got s=-1"):
        run_suite("cyclic", cells=[(9, 2, -1, 1)], trials=3, seed=1)


@pytest.mark.parametrize(
    "cell, message",
    [
        ((9, 2, -1, 1), "need s >= 0, got s=-1"),
        ((9, 2, -1, 0), "need s >= 0, got s=-1"),
        ((9, 2, 2, 0), "head multiplicity p must be a positive integer, got 0"),
        ((9, 2, 2, 1.5), "head multiplicity p must be a positive integer, got 1.5"),
        ((9, 2, 2, True), "head multiplicity p must be a positive integer, got True"),
        ((8, 2, 3, 1), "need n >= (k+1)s, got n=8, k=2, s=3"),
    ],
)
def test_arc_chain_trials_refuse_a_cell_no_chain_can_pass_before_drawing(monkeypatch, cell, message):
    monkeypatch.setattr(cyclic.random, "Random", NoDraws)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cyclic.arc_chain_trials(*cell, trials=3, seed=1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite("cyclic", cells=[cell], trials=3, seed=1)


def test_cyclic_suite_deterministic():
    cells = [(9, 2, 2, 1), (8, 2, 1, 2)]
    one = run_suite("cyclic", cells=cells, trials=60, seed=9)
    two = run_suite("cyclic", cells=cells, trials=60, seed=9)
    assert one == two
    assert one["summary"]["status"] == "pass"
    other = run_suite("cyclic", cells=cells, trials=60, seed=10)
    assert other["summary"]["status"] == "pass"


@pytest.mark.parametrize("seed", [3, 42])
def test_cyclic_suite_matches_public_replay(seed):
    cells = SUITES["cyclic"].cells
    rep = run_suite("cyclic", cells=cells, trials=300, seed=seed)
    per_cell = -(-300 // len(cells))
    margins, violations, identity_failures = [], 0, 0
    for idx, (n, k, s, p) in enumerate(cells):
        arc = arcs(CyclicOrder.identity(n), k)
        rng = random.Random(seed * 1_000_003 + idx)
        worst = None
        for _ in range(per_cell):
            lhs, rhs, total = cyclic._check_arc_chain(arc, random_overlapping_arc_chain(arc, s, rng), p)
            violations += lhs > rhs
            identity_failures += total != n // k * lhs
            margin = rhs - lhs
            worst = margin if worst is None else min(worst, margin)
        margins.append(worst)
    assert [row["min_margin"] for row in rep["rows"]] == margins
    assert rep["summary"]["violations"] == violations
    assert rep["summary"]["identity_failures"] == identity_failures


# k does not divide n in four of them, and s = 0 and s = 3 appear; the same
# cells are pinned in CI through run_suite
OFF_DEFAULT_CELLS = [(7, 2, 1, 2), (10, 3, 2, 1), (9, 4, 0, 2), (13, 3, 3, 1), (11, 2, 3, 3)]


@pytest.mark.parametrize("cell", OFF_DEFAULT_CELLS)
def test_arc_chain_trials_match_a_family_level_replay(cell):
    # stdlib draws and the degrees of the k-set chain each arc chain stands
    # for: nothing here calls _check_arc_chain or the inline sampler
    n, k, s, p = cell
    arc = arcs(CyclicOrder.identity(n), k)
    t = n // k
    rhs = max(n * s, (p + s) * k * s)
    for seed in (5, 2**40 + 7):
        rng = random.Random(seed)
        margins, violations, identity_failures = [], 0, 0
        for _ in range(40):
            arc_sets = stdlib_random_overlapping_arc_chain(arc, s, rng)
            chain = Chain(
                tuple(Family.from_masks(n, k, {arc.masks[i] for i in range(n) if bits >> i & 1}) for bits in arc_sets)
            )
            assert is_overlapping(chain)
            head, *rest = chain.families
            deg = [p * (mask in head) + sum(mask in fam for fam in rest) for mask in arc.masks]
            lhs = sum(deg)
            total = sum(deg[(h + j * k) % n] for h in range(n) for j in range(t))
            violations += lhs > rhs
            identity_failures += total != t * lhs
            margins.append(rhs - lhs)
        assert cyclic.arc_chain_trials(n, k, s, p, 40, seed) == (min(margins), violations, identity_failures)


@pytest.mark.parametrize("broken", ["inequality", "identity"])
def test_cyclic_suite_marks_each_failing_cell(monkeypatch, broken):
    check = cyclic._check_arc_chain

    def check_broken_on_one_cell(arc, arc_sets, p):
        lhs, rhs, total = check(arc, arc_sets, p)
        if (len(arc), len(arc_sets) - 1, p) == (8, 1, 1):
            if broken == "inequality":
                rhs = lhs - 1
            else:
                total += 1
        return lhs, rhs, total

    monkeypatch.setattr(cyclic, "_check_arc_chain", check_broken_on_one_cell)
    rep = run_suite("cyclic", cells=[(9, 2, 2, 1), (8, 2, 1, 1)], trials=60, seed=9)
    assert [row["status"] for row in rep["rows"]] == ["ok", "VIOLATION"]
    assert rep["summary"]["status"] == "fail"
    expected = (30, 0) if broken == "inequality" else (0, 30)  # 60 trials over two cells
    assert (rep["summary"]["violations"], rep["summary"]["identity_failures"]) == expected


# ---------------------------------------------------------------------------
# random partitions
# ---------------------------------------------------------------------------

def test_random_partition_covers_ground_set():
    rng = random.Random(31)
    for _ in range(100):
        blocks = random_matching(6, 2, rng)
        assert len(blocks) == 3
        union = 0
        for b in blocks:
            assert not union & b
            union |= b
        assert union == (1 << 6) - 1


def test_partition_bound_on_clique_chain():
    chain = construction_chain("clique", 4, 2, 1)
    rep = verify_partition_bound(chain, (3, 1), trials=20000, seed=12)
    assert rep["status"] == "pass"
    assert rep["violations"] == [] and rep["cover_size_violations"] == 0
    assert abs(rep["z_score"]) <= 3
    exact = Fraction(rep["exact_expectation"])
    sizes = [len(f) for f in chain.families]
    assert exact == (3 * sizes[0] + 1 * sizes[1]) * Fraction(2, binom(4, 2))


def test_partition_bound_empty_chain():
    chain = Chain((Family.empty(4, 2), Family.empty(4, 2)))
    rep = verify_partition_bound(chain, (1, 1), trials=50, seed=3)
    assert rep["status"] == "pass"
    assert Fraction(rep["mean"]) == 0 == Fraction(rep["exact_expectation"])


def test_partition_bound_requires_exact_n():
    chain = construction_chain("cover", 6, 2, 1)
    with pytest.raises(ValueError):
        verify_partition_bound(chain, (1, 1), trials=10, seed=0)


def test_partition_reports_reproducible():
    chain = construction_chain("clique", 4, 2, 1)
    a = verify_partition_bound(chain, (2, 1), trials=500, seed=77)
    b = verify_partition_bound(chain, (2, 1), trials=500, seed=77)
    assert a == b


# ---------------------------------------------------------------------------
# random matchings
# ---------------------------------------------------------------------------

def test_random_matching_sampler_uniform():
    # n=5, k=2: ordered pairs of disjoint 2-sets; 10 * 3 = 30 outcomes
    rng = random.Random(2025)
    outcomes = {}
    trials = 30000
    for _ in range(trials):
        blocks = tuple(random_matching(5, 2, rng))
        outcomes[blocks] = outcomes.get(blocks, 0) + 1
    # support equals the exhaustive enumeration of ordered disjoint tuples
    table = [mask_from_elements(c) for c in [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]]
    exhaustive = {
        (x, y) for x in table for y in table if not x & y
    }
    assert set(outcomes) == exhaustive and len(exhaustive) == 30
    expected = trials / 30
    chisq = sum((got - expected) ** 2 / expected for got in outcomes.values())
    # df = 29; the 0.999 quantile is ~58.3, far above any healthy seeded run
    assert chisq < 58.3, chisq


def test_random_matching_bound_empty_chain():
    chain = Chain((Family.empty(8, 2),) * 2)
    rep = verify_random_matching_bound(chain, (1, 1), trials=100, seed=5)
    assert rep["status"] == "pass"
    assert Fraction(rep["mean"]) == 0 and Fraction(rep["max_observed"]) == 0


def test_random_matching_bound_needs_s_at_least_one():
    with pytest.raises(ValueError, match="needs s >= 1, got s=0"):
        verify_random_matching_bound(Chain((Family.empty(6, 2),)), (1,), trials=10, seed=1)
    # the overlap recheck still comes first
    with pytest.raises(ValueError, match="not overlapping"):
        verify_random_matching_bound(Chain((Family(6, 2, 1),)), (1,), trials=10, seed=1)


def test_random_matching_bound_cover_chain():
    chain = construction_chain("cover", 8, 2, 1)
    rep = verify_random_matching_bound(chain, (1, 1), trials=20000, seed=6)
    assert rep["status"] == "pass"
    assert rep["bound_applies"] and rep["violations"] == []
    t = 8 // 2
    assert Fraction(rep["max_observed"]) <= t * 1
    for row in rep["membership"]:
        assert abs(row["z_score"]) <= 3
        assert Fraction(row["expected"]) == Fraction(len(chain.families[row["family"]]), binom(8, 2))


def test_random_matching_reports_reproducible():
    chain = construction_chain("cover", 9, 2, 2)
    a = verify_random_matching_bound(chain, (2, 1, 1), trials=400, seed=99)
    b = verify_random_matching_bound(chain, (2, 1, 1), trials=400, seed=99)
    assert a == b


# ---------------------------------------------------------------------------
# rational weights against a Fraction replay of each trial
# ---------------------------------------------------------------------------

W2 = (Fraction(5, 2), Fraction(1, 3))
W3 = (Fraction(7, 3), Fraction(3, 2), Fraction(1, 5))


def assert_same_report(got, want):
    assert list(got) == list(want)
    for field in want:
        assert got[field] == want[field], field


@pytest.mark.parametrize(
    "kind, n, k, s, ws",
    [
        ("clique", 4, 2, 1, W2),
        ("clique", 6, 2, 2, W3),
        ("clique", 3, 1, 2, W3),
        ("cover", 4, 2, 1, W2),
        ("cover", 6, 2, 2, W3),
        ("empty-then-full", 6, 2, 2, W3),
    ],
)
def test_partition_bound_matches_fraction_replay(kind, n, k, s, ws):
    chain = construction_chain(kind, n, k, s)
    for seed in (0, 17):
        assert_same_report(verify_partition_bound(chain, ws, 300, seed), brute_partition_report(chain, ws, 300, seed))


@pytest.mark.parametrize(
    "kind, n, k, s, ws",
    [
        ("cover", 8, 2, 1, W2),
        ("empty-then-full", 8, 2, 1, W2),
        ("cover", 9, 2, 2, W3),
        ("clique", 7, 2, 2, W3),
        ("empty-then-full", 18, 2, 1, W2),  # n above the threshold: the cap applies
    ],
)
def test_random_matching_bound_matches_fraction_replay(kind, n, k, s, ws):
    chain = construction_chain(kind, n, k, s)
    for seed in (0, 17):
        assert_same_report(
            verify_random_matching_bound(chain, ws, 300, seed), brute_random_matching_report(chain, ws, 300, seed)
        )


def test_violations_match_fraction_replay(monkeypatch):
    # No overlapping chain breaks either per-sample cap, so these chains are
    # not overlapping and the harnesses are told they are: the violation and
    # cover-size paths then run, and must agree with the replay.
    monkeypatch.setattr(cyclic, "is_overlapping", lambda chain: True)
    small = Chain((Family.from_sets(4, 2, [(1, 2)]), Family.from_sets(4, 2, [(1, 2), (3, 4), (1, 3)])))
    rep = verify_partition_bound(small, W2, 300, 5)
    assert rep["violations"] and rep["cover_size_violations"]
    assert_same_report(rep, brute_partition_report(small, W2, 300, 5))
    sets = [(a, b) for a in range(1, 19) for b in range(a + 1, 19) if a <= 3]
    wide = Chain((Family.from_sets(18, 2, [(1, 2)]), Family.from_sets(18, 2, sets)))
    rep = verify_random_matching_bound(wide, W2, 300, 5)
    assert rep["bound_applies"] and rep["violations"]
    assert_same_report(rep, brute_random_matching_report(wide, W2, 300, 5))
