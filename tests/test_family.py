import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import brute_downset_count, brute_rainbow_number, brute_upsets, is_downset_direct
from overlap_lab.combinatorics import binom
from overlap_lab.family import (
    Chain,
    Family,
    chain_from_dict,
    chain_to_dict,
    compress_pair,
    construction_chain,
    cover_family,
    downset_bitsets,
    enumerate_shifted_families,
    family_from_dict,
    family_to_dict,
    is_shifted,
    nestify,
    poset_upsets,
    reduce_to_weighted,
    shift_closure,
    shift_ij,
    walk_subdownsets,
)
from overlap_lab.matching import rainbow_matching_number


def fam(n, k, *sets):
    return Family.from_sets(n, k, sets)


def random_family(n, k, rng, density=0.4):
    cap = binom(n, k)
    bits = 0
    for r in range(cap):
        if rng.random() < density:
            bits |= 1 << r
    return Family(n, k, bits)


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def test_compress_pair_disjoint():
    a, b = fam(6, 2, [1, 2]), fam(6, 2, [3, 4])
    lo, hi = compress_pair(a, b)
    assert len(lo) == 0
    assert sorted(hi.sets()) == [(1, 2), (3, 4)]


def test_compress_pair_idempotent_on_equal():
    a = fam(6, 2, [1, 2], [2, 3])
    assert compress_pair(a, a) == (a, a)


def test_compress_pair_set_algebra():
    a = fam(4, 2, [1, 2], [1, 3])
    b = fam(4, 2, [1, 2], [2, 3])
    lo, hi = compress_pair(a, b)
    assert lo.sets() == ((1, 2),)
    assert sorted(hi.sets()) == [(1, 2), (1, 3), (2, 3)]
    assert len(lo) + len(hi) == len(a) + len(b)


def test_compress_pair_param_mismatch():
    with pytest.raises(ValueError):
        compress_pair(fam(6, 2, [1, 2]), fam(6, 3, [1, 2, 3]))


def test_nestify_single_step():
    out = nestify([fam(6, 2, [1, 2]), fam(6, 2, [3, 4])])
    assert len(out[0]) == 0
    assert sorted(out[1].sets()) == [(1, 2), (3, 4)]


def test_nestify_fixpoint_on_nested():
    seq = [fam(6, 2, [1, 2]), fam(6, 2, [1, 2], [1, 3]), Family.full(6, 2)]
    assert nestify(seq) == seq


def test_nestify_properties_random():
    rng = random.Random(2024)
    for _ in range(200):
        seq = [random_family(6, 2, rng) for _ in range(3)]
        out = nestify(seq)
        for a, b in zip(out, out[1:]):
            assert a.issubset(b)
        assert sum(len(f) for f in out) == sum(len(f) for f in seq)
        assert rainbow_matching_number(out) <= rainbow_matching_number(seq)


def test_nestify_rainbow_check_against_brute():
    rng = random.Random(7)
    for _ in range(40):
        seq = [random_family(6, 2, rng, density=0.3) for _ in range(3)]
        out = nestify(seq)
        assert brute_rainbow_number(out) <= brute_rainbow_number(seq)


# ---------------------------------------------------------------------------
# the weighted reduction
# ---------------------------------------------------------------------------

def test_reduce_to_weighted():
    assert reduce_to_weighted(3, 1) == (2, 1)
    assert reduce_to_weighted(4, 3) == (1, 1, 1, 1)
    assert reduce_to_weighted(7, 3) == (4, 1, 1, 1)
    # degenerate m = s keeps the head at weight zero
    assert reduce_to_weighted(2, 2) == (0, 1, 1)
    with pytest.raises(ValueError):
        reduce_to_weighted(1, 2)


# ---------------------------------------------------------------------------
# shifting
# ---------------------------------------------------------------------------

def test_shift_ij_examples():
    assert shift_ij(fam(3, 2, [2, 3]), 1, 2).sets() == ((1, 3),)
    occupied = fam(3, 2, [1, 3], [2, 3])
    assert shift_ij(occupied, 1, 2) == occupied
    with pytest.raises(ValueError):
        shift_ij(fam(3, 2, [1, 2]), 2, 2)


def test_shift_ij_preserves_size_random():
    rng = random.Random(11)
    for _ in range(1000):
        f = random_family(7, 3, rng)
        i = rng.randrange(1, 7)
        j = rng.randrange(i + 1, 8)
        assert len(shift_ij(f, i, j)) == len(f)


def test_shift_closure_examples():
    assert shift_closure(fam(3, 2, [2, 3])).sets() == ((1, 2),)
    star = fam(5, 2, [1, 2], [1, 3], [1, 4], [1, 5])
    assert shift_closure(star) == star
    assert is_shifted(shift_closure(fam(6, 3, [2, 4, 6], [3, 5, 6])))


def test_shift_closure_rainbow_non_increasing():
    rng = random.Random(13)
    for _ in range(150):
        seq = [random_family(6, 2, rng) for _ in range(3)]
        shifted = [shift_closure(f) for f in seq]
        assert all(len(a) == len(b) for a, b in zip(seq, shifted))
        assert rainbow_matching_number(shifted) <= rainbow_matching_number(seq)


@st.composite
def family_sequences(draw):
    """2-4 families of k-subsets of [n], n <= 7, 1 <= k <= 3, equal neighbours allowed."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, min(3, n)))
    masks = st.integers(0, (1 << binom(n, k)) - 1)
    return [Family(n, k, bits) for bits in draw(st.lists(masks, min_size=2, max_size=4))]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(family_sequences())
def test_reductions_never_raise_rainbow_number(seq):
    before = rainbow_matching_number(seq)
    assert rainbow_matching_number(nestify(seq)) <= before
    assert rainbow_matching_number([shift_closure(f) for f in seq]) <= before


def test_is_shifted_examples():
    assert is_shifted(fam(4, 2, [1, 2], [1, 3]))
    assert not is_shifted(fam(4, 2, [1, 3]))
    assert is_shifted(Family.empty(5, 3))
    assert is_shifted(Family.full(5, 3))


def test_is_shifted_matches_direct_definition():
    rng = random.Random(17)
    for _ in range(300):
        f = random_family(5, 2, rng)
        assert is_shifted(f) == is_downset_direct(f.bits, 5, 2)


# ---------------------------------------------------------------------------
# downset enumeration
# ---------------------------------------------------------------------------

def test_enumerate_shifted_families_small():
    fams = list(enumerate_shifted_families(3, 2))
    assert [sorted(f.sets()) for f in fams] == [
        [],
        [(1, 2)],
        [(1, 2), (1, 3)],
        [(1, 2), (1, 3), (2, 3)],
    ]


def test_enumerate_shifted_families_full_ground():
    assert len(list(enumerate_shifted_families(4, 4))) == 2


@pytest.mark.parametrize("n,k,count", [(4, 2, 8), (5, 2, 16), (5, 3, 16), (6, 2, 32)])
def test_downset_counts_against_brute(n, k, count):
    bitsets = downset_bitsets(n, k)
    assert len(bitsets) == count == brute_downset_count(n, k)
    assert len(set(bitsets)) == len(bitsets)
    assert bitsets == sorted(bitsets, key=lambda b: (b.bit_count(), b))
    for b in bitsets:
        assert is_downset_direct(b, n, k)


@pytest.mark.parametrize("n, k", [(1, 1), (4, 1), (5, 2), (6, 3), (7, 2), (8, 4)])
def test_poset_upsets_close_the_cover_relation(n, k):
    assert list(poset_upsets(n, k)) == brute_upsets(n, k)


def test_downset_count_larger_grid():
    # 2-uniform downsets double with each new point
    for n in range(3, 9):
        assert len(downset_bitsets(n, 2)) == 2 ** (n - 1)


def test_downset_count_at_capacity_twenty():
    # the largest brute-checkable poset: all 2^20 subsets of C([6],3)
    from overlap_lab.combinatorics import ksets, shift_leq

    table = ksets(6, 3)
    below = []
    for y in table:
        bits = 0
        for r, x in enumerate(table):
            if shift_leq(x, y):
                bits |= 1 << r
        below.append(bits)
    members_of = [below[r] for r in range(20)]
    count = 0
    for subset in range(1 << 20):
        probe = subset
        good = True
        while probe:
            low = probe & -probe
            if members_of[low.bit_length() - 1] & ~subset:
                good = False
                break
            probe ^= low
        count += good
    assert count == len(downset_bitsets(6, 3))


@pytest.mark.parametrize("n, k", [(6, 2), (7, 2), (8, 2), (6, 3), (7, 3)])
def test_peel_walk_yields_each_large_sub_downset_once(n, k):
    # brute filter: every downset inside top with at least t members
    downs = downset_bitsets(n, k)
    rng = random.Random(f"peel:{n}:{k}")
    tops = [downs[-1], downs[0]] + rng.sample(downs, 6)
    for top in tops:
        inside = [d for d in downs if not d & ~top]
        assert sorted(walk_subdownsets(n, k, top)) == sorted(inside)
        for t in range(top.bit_count() + 2):
            walked = list(walk_subdownsets(n, k, top, lambda d: d.bit_count() >= t))
            assert sorted(walked) == sorted(d for d in inside if d.bit_count() >= t), (top, t)


def test_peel_walk_asks_keep_once_the_caller_is_done():
    # a threshold raised while the caller handles a downset already prunes its children
    top = (1 << binom(6, 2)) - 1
    floor = 0
    asked = []

    def keep(d):
        asked.append(d)
        return d.bit_count() >= floor

    walked = []
    for d in walk_subdownsets(6, 2, top, keep):
        walked.append(d)
        floor = d.bit_count()
    # {5,6} is the one maximal pair, so top has one child, asked and refused
    assert walked == [top]
    assert asked == [top, top ^ 1 << 14]


@pytest.mark.parametrize("corruption", ["half", "list"])
def test_corrupt_downset_cache_is_ignored(tmp_path, monkeypatch, corruption):
    # Downsets were once memoized on disk under OVERLAP_LAB_CACHE and trusted
    # unchecked: half of the (6,2) list made the shifted solver return 10 for
    # 15, and a bare JSON list raised AttributeError.  Enumeration is always
    # fresh now, so a planted file is neither read nor rewritten.
    from overlap_lab.search import exact_f_shifted

    full = downset_bitsets(6, 2)
    planted = (
        {"n": 6, "k": 2, "bitsets": full[: len(full) // 2]} if corruption == "half" else full
    )
    cache_file = tmp_path / "downsets-n6-k2.json"
    cache_file.write_text(json.dumps(planted))
    monkeypatch.setenv("OVERLAP_LAB_CACHE", str(tmp_path))
    assert downset_bitsets(6, 2) == full
    for warm in (True, False):
        assert exact_f_shifted(6, 2, 1, (1, 1), warm_start=warm).optimum == 15
        assert exact_f_shifted(6, 2, 2, (1, 1, 1), warm_start=warm).optimum == 30
    assert json.loads(cache_file.read_text()) == planted
    assert [p.name for p in tmp_path.iterdir()] == [cache_file.name]


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_cover_family_sizes():
    assert len(cover_family(6, 2, 2)) == 15 - 6 == binom(6, 2) - binom(4, 2)
    assert cover_family(5, 2, 5) == Family.full(5, 2)
    assert len(cover_family(5, 2, 0)) == 0
    for n, k, s in [(6, 2, 1), (7, 3, 2), (8, 2, 3)]:
        assert len(cover_family(n, k, s)) == binom(n, k) - binom(n - s, k)


def test_construction_chain_values():
    c1 = construction_chain("empty-then-full", 6, 2, 2, (1, 1, 1))
    assert c1.weighted_value() == 30
    c2 = construction_chain("cover", 6, 2, 2, (1, 1, 1))
    assert c2.weighted_value() == 27
    c3 = construction_chain("clique", 6, 2, 1, (1, 1))
    assert c3.weighted_value() == 6
    assert all(f.sets() == ((1, 2), (1, 3), (2, 3)) for f in c3.families)


def test_construction_chain_errors():
    with pytest.raises(ValueError):
        construction_chain("bogus", 6, 2, 1)
    with pytest.raises(ValueError):
        construction_chain("clique", 4, 2, 2)  # needs n >= (s+1)k-1 = 5


def test_constructions_are_overlapping():
    from overlap_lab.matching import is_overlapping

    for n in range(4, 9):
        for k in (2, 3):
            for s in (1, 2):
                if n < (s + 1) * k - 1:
                    continue
                for kind in ("empty-then-full", "cover", "clique"):
                    if kind != "clique" and n < s:
                        continue
                    chain = construction_chain(kind, n, k, s)
                    assert is_overlapping(chain), (kind, n, k, s)
                    assert brute_rainbow_number(chain.families) <= s


# ---------------------------------------------------------------------------
# Chain invariants and JSON interchange
# ---------------------------------------------------------------------------

def test_chain_validates_nesting_and_weights():
    with pytest.raises(ValueError):
        Chain((fam(4, 2, [1, 2]), fam(4, 2, [3, 4])))
    with pytest.raises(ValueError):
        Chain((fam(4, 2, [1, 2]), Family.full(4, 2)), (1, 2))
    with pytest.raises(ValueError):
        Chain((fam(4, 2, [1, 2]), Family.full(4, 2)), (1, 0))
    chain = Chain((fam(4, 2, [1, 2]), Family.full(4, 2)), (Fraction(3, 2), 1))
    assert chain.weighted_value() == Fraction(3, 2) + 6


def test_family_json_roundtrip():
    f = fam(6, 2, [2, 5], [1, 2], [3, 6])
    data = family_to_dict(f)
    assert data["sets"] == [[1, 2], [2, 5], [3, 6]]  # colex order, 1-based
    assert family_from_dict(json.loads(json.dumps(data))) == f


def test_chain_json_roundtrip_exact_rationals():
    chain = Chain(
        (fam(5, 2, [1, 2]), fam(5, 2, [1, 2], [1, 3])),
        (Fraction(7, 3), Fraction(1, 3)),
    )
    data = json.loads(json.dumps(chain_to_dict(chain)))
    assert data["weights"] == ["7/3", "1/3"]
    back = chain_from_dict(data)
    assert back == chain
    assert back.weights == (Fraction(7, 3), Fraction(1, 3))
