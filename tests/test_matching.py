import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import (
    brute_all_max_rainbow,
    brute_matching_number,
    brute_min_cover_size,
    brute_rainbow_number,
)
from overlap_lab.combinatorics import binom, colex_rank, ksets
from overlap_lab.family import Chain, Family, construction_chain, cover_family
from overlap_lab.matching import (
    BipartiteGraph,
    cover_is_valid,
    disjointness,
    has_matching_of_size,
    has_rainbow_matching,
    is_overlapping,
    matching_number,
    max_bipartite_matching,
    min_vertex_cover,
    rainbow_matching_number,
    rainbow_matching_witness,
)


def fam(n, k, *sets):
    return Family.from_sets(n, k, sets)


def random_family(n, k, rng, density=0.4):
    bits = 0
    for r in range(binom(n, k)):
        if rng.random() < density:
            bits |= 1 << r
    return Family(n, k, bits)


# ---------------------------------------------------------------------------
# single-family matching number
# ---------------------------------------------------------------------------

def test_matching_number_examples():
    assert matching_number(Family.full(6, 2)) == 3
    assert matching_number(cover_family(6, 2, 2)) == 2
    assert matching_number(Family.empty(6, 2)) == 0


def test_cover_family_matching_witness():
    # {1,3} and {2,4} exhibit two disjoint members of the (6,2,2) cover family
    e = cover_family(6, 2, 2)
    assert fam(6, 2, [1, 3]).bits & e.bits
    assert fam(6, 2, [2, 4]).bits & e.bits
    assert has_matching_of_size(e, 2)
    assert not has_matching_of_size(e, 3)


def test_matching_number_against_brute():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randrange(4, 8)
        k = rng.randrange(2, 4)
        f = random_family(n, k, rng)
        assert matching_number(f) == brute_matching_number(f)


# ---------------------------------------------------------------------------
# rainbow matching number
# ---------------------------------------------------------------------------

def test_rainbow_examples():
    assert rainbow_matching_number([fam(6, 2, [1, 2]), fam(6, 2, [3, 4])]) == 2
    same = fam(6, 2, [1, 2])
    assert rainbow_matching_number([same, same]) == 1
    seq = [Family.empty(6, 2), Family.full(6, 2), Family.full(6, 2)]
    assert rainbow_matching_number(seq) == 2


def test_rainbow_against_brute():
    rng = random.Random(103)
    for _ in range(200):
        m = rng.randrange(1, 5)
        seq = [random_family(6, 2, rng, density=0.25) for _ in range(m)]
        assert rainbow_matching_number(seq) == brute_rainbow_number(seq)


def test_rainbow_constant_sequence_law():
    rng = random.Random(107)
    for _ in range(60):
        f = random_family(7, 2, rng)
        for m in (1, 2, 3, 4):
            assert rainbow_matching_number([f] * m) == min(m, matching_number(f))


def test_rainbow_monotone_under_enlargement():
    rng = random.Random(109)
    for _ in range(100):
        seq = [random_family(6, 2, rng, density=0.2) for _ in range(3)]
        base = rainbow_matching_number(seq)
        i = rng.randrange(3)
        enlarged = list(seq)
        enlarged[i] = enlarged[i].union(random_family(6, 2, rng, density=0.2))
        assert rainbow_matching_number(enlarged) >= base


def test_rainbow_order_independent():
    rng = random.Random(113)
    for _ in range(100):
        seq = [random_family(6, 2, rng, density=0.3) for _ in range(4)]
        perm = list(seq)
        rng.shuffle(perm)
        assert rainbow_matching_number(seq) == rainbow_matching_number(perm)


def test_has_rainbow_matching_thresholds():
    rng = random.Random(127)
    for _ in range(100):
        seq = [random_family(6, 2, rng, density=0.3) for _ in range(3)]
        value = rainbow_matching_number(seq)
        for size in range(0, 5):
            assert has_rainbow_matching(seq, size) == (size <= value)


def test_rainbow_witness_is_lex_least_maximum():
    rng = random.Random(131)
    for _ in range(80):
        seq = [random_family(5, 2, rng, density=0.35) for _ in range(3)]
        witness = rainbow_matching_witness(seq)
        assert len(witness) == rainbow_matching_number(seq)
        used = 0
        for idx, mask in witness:
            assert mask in seq[idx]
            assert not used & mask
            used |= mask
        all_max = brute_all_max_rainbow(seq)
        if all_max:
            key = lambda w: tuple((i, colex_rank(m)) for i, m in w)
            assert key(witness) == min(key(w) for w in all_max)


@st.composite
def family_sequences(draw):
    """1-4 families of k-subsets of [n], n <= 6, k <= 3, drawn from a pool of at most
    three so that equal families, and equal neighbours, occur."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, min(3, n)))
    cap = binom(n, k)
    pool = draw(st.lists(st.integers(0, (1 << cap) - 1), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))
    return [Family(n, k, pool[i]) for i in picks]


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(family_sequences())
def test_rainbow_kernel_against_brute(seq):
    value = brute_rainbow_number(seq)
    for t in range(len(seq) + 2):
        assert has_rainbow_matching(seq, t) == (value >= t)
    key = lambda w: tuple((i, colex_rank(m)) for i, m in w)
    assert key(rainbow_matching_witness(seq)) == min(map(key, brute_all_max_rainbow(seq)))


@pytest.mark.parametrize(
    "x, pair_number, pair_overlapping, triple_rainbow",
    [(Family(3, 0, 1), 2, False, True), (Family.full(3, 3), 1, True, False)],
    ids=["empty-set", "full-3-3"],
)
def test_single_member_families(x, pair_number, pair_overlapping, triple_rainbow):
    # the empty set misses itself: one member of one family, but it can
    # represent two families at once
    assert matching_number(x) == 1
    assert not has_matching_of_size(x, 2)
    assert rainbow_matching_number([x, x]) == pair_number
    assert is_overlapping(Chain((x, x))) == pair_overlapping
    assert has_rainbow_matching([x, x, x], 3) == triple_rainbow


def test_disjointness_table():
    for n in range(1, 8):
        for k in range(0, min(n, 3) + 1):
            table = ksets(n, k)
            expected = tuple(
                sum(1 << j for j, b in enumerate(table) if not a & b) for a in table
            )
            assert disjointness(n, k) == expected


# ---------------------------------------------------------------------------
# overlap predicate
# ---------------------------------------------------------------------------

def test_is_overlapping_examples():
    assert is_overlapping(construction_chain("empty-then-full", 6, 2, 2))
    cover_chain = construction_chain("cover", 8, 2, 2)  # n >= (k+1)s
    assert is_overlapping(cover_chain)
    assert brute_rainbow_number(cover_chain.families) <= 2
    full = Family.full(4, 2)
    assert not is_overlapping(Chain((full, full)))


# ---------------------------------------------------------------------------
# bipartite matching and cover
# ---------------------------------------------------------------------------

def complete_bipartite(a, b):
    return BipartiteGraph(tuple(range(a)), tuple(range(b)), tuple([(1 << b) - 1] * a))


def test_bipartite_examples():
    assert len(max_bipartite_matching(complete_bipartite(3, 3))) == 3
    star = BipartiteGraph((0,), tuple(range(5)), (0b11111,))
    assert len(max_bipartite_matching(star)) == 1
    empty = BipartiteGraph(tuple(range(3)), tuple(range(3)), (0, 0, 0))
    assert max_bipartite_matching(empty) == ()
    assert min_vertex_cover(empty) == ((), ())


def test_cover_on_k33():
    g = complete_bipartite(3, 3)
    lefts, rights = min_vertex_cover(g)
    assert len(lefts) + len(rights) == 3
    assert cover_is_valid(g, (lefts, rights))


def test_block_vs_families_graph():
    # three pairwise disjoint blocks, each belonging to every one of four
    # families: the matching saturates the blocks
    g = BipartiteGraph(tuple(range(3)), tuple(range(4)), (0b1111,) * 3)
    assert len(max_bipartite_matching(g)) == 3


def random_graph(rng, max_side=12):
    nl = rng.randrange(1, max_side + 1)
    nr = rng.randrange(1, max_side + 1)
    density = rng.random()
    adj = tuple(
        sum(1 << v for v in range(nr) if rng.random() < density) for _ in range(nl)
    )
    return BipartiteGraph(tuple(range(nl)), tuple(range(nr)), adj)


def test_konig_duality_random():
    rng = random.Random(137)
    for _ in range(1000):
        g = random_graph(rng)
        matching = max_bipartite_matching(g)
        cover = min_vertex_cover(g)
        assert len(cover[0]) + len(cover[1]) == len(matching)
        assert cover_is_valid(g, cover)


def test_min_cover_against_brute():
    rng = random.Random(139)
    for _ in range(300):
        g = random_graph(rng, max_side=8)
        cover = min_vertex_cover(g)
        assert len(cover[0]) + len(cover[1]) == brute_min_cover_size(g)


def test_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph((0,), (0,), (0b10,))
