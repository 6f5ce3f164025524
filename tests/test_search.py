import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import (
    brute_max_min_overlapping,
    brute_rainbow_number,
    head_per_member,
    rank_permutations,
    sorted_downsets,
)
from overlap_lab import family, matching, search
from overlap_lab.bounds import (
    conj1_value,
    conj2_bound,
    integer_weights,
    solver_weights,
    thm2_value,
    thm3_value,
    thm4_value,
)
from overlap_lab.combinatorics import binom, ksets
from overlap_lab.family import (
    Chain,
    construction_chain,
    cover_family,
    poset_upsets,
    reduce_to_weighted,
)
from overlap_lab.matching import disjointness, is_overlapping, matching_number, rainbow
from overlap_lab.search import (
    NodeLimitError,
    _closed_form_head,
    _matching_cap,
    best_construction,
    exact_f_shifted,
    hunt_conjectures,
    max_min_overlapping,
    oracle_f,
)
from overlap_lab.suites import run_suite


def check_record(rec):
    assert is_overlapping(rec.witness)
    for a, b in zip(rec.witness.families, rec.witness.families[1:]):
        assert a.issubset(b)
    assert rec.witness.weighted_value(rec.weights) == rec.optimum
    return rec


def test_oracle_tiny_singletons():
    rec = check_record(oracle_f(2, 1, 1, (1, 1)))
    assert rec.optimum == 2
    assert [f.sets() for f in rec.witness.families] == [((1,),), ((1,),)]


def test_oracle_weighted_singletons():
    rec = check_record(oracle_f(3, 1, 1, (2, 1)))
    assert rec.optimum == 3 == thm4_value(3, 1, (2, 1))


def test_oracle_matches_pair_bound():
    rec = check_record(oracle_f(4, 2, 1, reduce_to_weighted(3, 1)))
    assert rec.optimum == 9
    assert rec.nodes_explored > 0


def test_zero_head_weight_degenerate():
    # m = s: the constraint is vacuous, every family can be everything
    for solver in (oracle_f, exact_f_shifted):
        rec = check_record(solver(4, 2, 1, (0, 1)))
        assert rec.optimum == binom(4, 2)


def test_single_family_chain():
    for solver in (oracle_f, exact_f_shifted):
        rec = check_record(solver(5, 2, 0, (3,)))
        assert rec.optimum == 0
        assert len(rec.witness.families[0]) == 0


def test_solvers_reject_k_zero():
    # at k = 0 the empty set misses itself, which both solvers' arguments exclude
    for solver in (oracle_f, exact_f_shifted):
        with pytest.raises(ValueError, match="k must be at least 1"):
            solver(3, 0, 1, (3, 1))


@pytest.mark.parametrize("solver", [oracle_f, exact_f_shifted])
def test_solvers_revalidate_witness(solver, monkeypatch):
    # a kernel that never finds a rainbow matching lets a search keep every
    # k-set; the witness recheck runs through matching's own kernel and refuses it
    monkeypatch.setattr(search, "rainbow", lambda *args: None)
    with pytest.raises(AssertionError, match="non-overlapping witness"):
        solver(4, 2, 1, (1, 1))


def test_solvers_match_raw_enumeration():
    # third route: no-pruning enumeration of every level map, brute rainbow check,
    # which also picks the tie-broken witness the solvers must return
    from _brute import brute_chain_optimum

    cases = [
        (3, 1, 1, (1, 1)),
        (3, 1, 1, (2, 1)),
        (4, 1, 2, (3, 1, 1)),
        (4, 2, 1, (2, 1)),
        (3, 1, 2, (4, 2, 1)),
        (4, 2, 1, (0, 1)),
        (4, 1, 1, (5, 2)),
        (4, 2, 1, (1, 0)),  # a trailing zero
        (4, 1, 2, (2, 1, 0)),
        # s = 3: six rival sets share one node's recheck
        (4, 1, 3, (1, 1, 1, 1)),
        (5, 1, 3, (1, 1, 1, 1)),
        (5, 1, 3, (4, 1, 1, 1)),
        (5, 1, 3, (0, 1, 1, 1)),
        (5, 1, 3, (0, 0, 2, 1)),
        (5, 1, 3, (Fraction(7, 3), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))),
        (4, 1, 3, (3, 1, 1, 0)),
    ]
    for n, k, s, ws in cases:
        raw, witness = brute_chain_optimum(n, k, s, ws)
        for solver in (oracle_f, exact_f_shifted):
            rec = solver(n, k, s, ws)
            # the canonical witness: least total cardinality, then least entry levels
            assert (rec.optimum, rec.witness.families) == (raw, witness), (solver.__name__, n, k, s, ws)


def test_solvers_agree_small_grid():
    vectors = {1: [(1, 1), (2, 1)], 2: [(1, 1, 1), (3, 1, 1)]}
    for s, ws_list in vectors.items():
        for ws in ws_list:
            for n, k in [(4, 1), (6, 1), (8, 1), (4, 2), (5, 2), (5, 3)]:
                if n < (s + 1) * k:
                    continue
                a = check_record(oracle_f(n, k, s, ws))
                b = check_record(exact_f_shifted(n, k, s, ws))
                assert a.optimum == b.optimum, (n, k, s, ws)


_PRIMES = (2, 3, 5, 7, 11, 13, 17)


@st.composite
def rational_instances(draw):
    """(n, k, s, weights): a zero prefix, then nonincreasing positive rationals.

    The positive weights have distinct prime denominators, so the scale L
    the solvers search under is the product of up to three primes.
    """
    k = draw(st.integers(1, 2))
    s = draw(st.integers(1, 2))
    zeros = draw(st.integers(0, s))
    # below n = (s+1)k - 1 the constraint is vacuous; with a positive head,
    # (6,2,2) costs the oracle seconds, so it stops at n = 5
    n = draw(st.integers((s + 1) * k - 1, 5 if (k, s, zeros) == (2, 2, 0) else 6))
    size = s + 1 - zeros
    dens = draw(st.lists(st.sampled_from(_PRIMES), min_size=size, max_size=size, unique=True))
    nums = draw(st.lists(st.integers(1, 40), min_size=size, max_size=size))
    positive = sorted((Fraction(a, b) for a, b in zip(nums, dens)), reverse=True)
    return n, k, s, (Fraction(0),) * zeros + tuple(positive)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(rational_instances())
def test_integer_objective_agrees_across_solvers(instance):
    n, k, s, ws = instance
    a = check_record(oracle_f(n, k, s, ws))
    b = check_record(exact_f_shifted(n, k, s, ws))
    assert (a.optimum, a.witness) == (b.optimum, b.witness)
    for rec in (a, b):
        assert isinstance(rec.optimum, Fraction)
        assert rec.optimum == rec.witness.weighted_value(ws)


@st.composite
def s3_instances(draw):
    """(n, k, 3, weights) with C(n, k) <= 8: a zero prefix, then nonincreasing positive integers or rationals."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 8).filter(lambda n: binom(n, k) <= 8))
    zeros = draw(st.integers(0, 3))
    dens = draw(st.lists(st.sampled_from((1,) + _PRIMES), min_size=4 - zeros, max_size=4 - zeros))
    nums = draw(st.lists(st.integers(1, 40), min_size=4 - zeros, max_size=4 - zeros))
    positive = sorted((Fraction(a, b) for a, b in zip(nums, dens)), reverse=True)
    return n, k, 3, (Fraction(0),) * zeros + tuple(positive)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(s3_instances())
def test_solvers_agree_at_s3(instance):
    # at s = 3 each node of the oracle asks up to six rival sets, each once
    n, k, s, ws = instance
    a = check_record(oracle_f(n, k, s, ws))
    b = check_record(exact_f_shifted(n, k, s, ws))
    assert (a.optimum, a.witness) == (b.optimum, b.witness)


@st.composite
def small_instances(draw):
    """(n, k, s, weights) with C(n, k) <= 10: a zero prefix, then nonincreasing positive integers."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 6).filter(lambda n: binom(n, k) <= 10))
    s = draw(st.integers(0, 2))
    zeros = draw(st.integers(0, s))
    positive = draw(st.lists(st.integers(1, 9), min_size=s + 1 - zeros, max_size=s + 1 - zeros))
    return n, k, s, (0,) * zeros + tuple(sorted(positive, reverse=True))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(small_instances())
def test_witnesses_are_nested_overlapping_and_optimal(instance):
    n, k, s, ws = instance
    for solver in (oracle_f, exact_f_shifted):
        rec = solver(n, k, s, ws)
        fams = rec.witness.families
        assert len(fams) == s + 1
        assert all(a.issubset(b) for a, b in zip(fams, fams[1:]))
        # overlapping: no rainbow matching uses all s+1 families (brute force, not the kernel)
        assert brute_rainbow_number(fams) <= s
        assert sum(w * len(f) for w, f in zip(ws, fams)) == rec.optimum


def test_rational_weights():
    a = oracle_f(5, 2, 1, (Fraction(5, 2), Fraction(1, 2)))
    b = exact_f_shifted(5, 2, 1, (Fraction(5, 2), Fraction(1, 2)))
    assert a.optimum == b.optimum
    assert a.optimum * 2 == oracle_f(5, 2, 1, (5, 1)).optimum


def test_shifted_witness_is_shifted():
    from overlap_lab.family import is_shifted

    for n, k, s, ws in [(6, 2, 1, (2, 1)), (7, 2, 2, (1, 1, 1))]:
        rec = exact_f_shifted(n, k, s, ws)
        assert all(is_shifted(f) for f in rec.witness.families)


@pytest.mark.parametrize("n, k", [(3, 1), (5, 1), (4, 2), (5, 2), (6, 2), (5, 3), (6, 3)])
def test_closed_form_head_matches_per_member_rule(n, k):
    # every chain B_1 <= ... <= B_s of downsets, s = 0..3
    disj, ups = disjointness(n, k), poset_upsets(n, k)
    downs = sorted_downsets(n, k)
    chains = [()]
    for s in range(4):
        for rest in chains:
            assert _closed_form_head(rest, disj, ups) == head_per_member(rest, disj), (n, k, rest)
        chains = [(d,) + rest for rest in chains for d in downs if not rest or not d & ~rest[0]]


def test_monotone_in_n_and_weights():
    prev = None
    for n in range(4, 9):
        cur = exact_f_shifted(n, 2, 1, (2, 1)).optimum
        if prev is not None:
            assert cur >= prev
        prev = cur
    base = exact_f_shifted(6, 2, 2, (2, 1, 1)).optimum
    assert exact_f_shifted(6, 2, 2, (3, 1, 1)).optimum >= base
    assert exact_f_shifted(6, 2, 2, (2, 2, 1)).optimum >= base


def _built_best_construction(n, k, s, ws):
    # the starting incumbent as it was computed from whole chains
    chains = [construction_chain("empty-then-full", n, k, s), Chain((cover_family(n, k, min(s, n)),) * (s + 1))]
    if n >= (s + 1) * k - 1:
        chains.append(construction_chain("clique", n, k, s))
    return max(chain.weighted_value(ws) for chain in chains)


def test_best_construction_closed_form_matches_built_chains():
    # the grid holds s > n, n < (s+1)k - 1 (no clique), zero heads and rationals
    for n in range(1, 9):
        for k in range(1, n + 1):
            for s in range(0, n + 3):
                shapes = [(1,) * (s + 1), (s + 2,) + (1,) * s, (Fraction(7, 3),) + (Fraction(1, 2),) * s]
                if s:
                    shapes += [(0,) + (1,) * s, (Fraction(5, 2),) + (0,) * s, (9,) + (Fraction(2, 5),) * (s - 1) + (0,)]
                for ws in shapes:
                    iw, scale = integer_weights(solver_weights(ws, s + 1))
                    built = _built_best_construction(n, k, s, ws) * scale
                    assert best_construction(n, k, s, iw) == built, (n, k, s, ws)


def test_matching_cap_closed_forms_equal_the_hunt():
    _matching_cap.cache_clear()
    for k in range(1, 9):
        for n in range(k, 57):
            if binom(n, k) > 56:
                break
            for s in range(1, 4):
                assert _matching_cap(n, k, s, 10**6) == max_min_overlapping(n, k, s)[0], (n, k, s)


def test_matching_cap_falls_back_when_the_hunt_runs_out(monkeypatch):
    # M(7,2,2) = 11 takes a hunt over 29 downsets; one fewer leaves the cap at
    # C(7,2), and a larger budget afterwards still finds M
    _matching_cap.cache_clear()
    assert _matching_cap(7, 2, 2, 28) == 21
    assert _matching_cap(7, 2, 2, 1000) == 11
    assert _matching_cap(7, 2, 2, 28) == 21
    assert _matching_cap(7, 2, 2, 29) == 11
    # a repeated (n, k, s, budget) makes no hunt
    monkeypatch.setattr(search, "max_min_overlapping", None)
    assert _matching_cap(7, 2, 2, 29) == 11
    assert _matching_cap(7, 2, 2, 28) == 21


def test_construction_lower_bound_sandwich():
    for n, k, s, ws in [(6, 2, 1, (1, 1)), (6, 2, 2, (2, 1, 1)), (9, 1, 2, (4, 1, 1))]:
        iw, scale = integer_weights(solver_weights(ws, s + 1))
        assert best_construction(n, k, s, iw) <= exact_f_shifted(n, k, s, ws).optimum * scale


def test_thm3_equality_points():
    rec = exact_f_shifted(4, 2, 1, (2, 1))
    assert rec.optimum == 9 == thm3_value(2, 1, (2, 1))
    rec = exact_f_shifted(3, 1, 2, (4, 2, 1))
    assert rec.optimum == thm3_value(1, 2, (4, 2, 1))


def test_thm2_k1_equality_point():
    rec = exact_f_shifted(8, 1, 2, (5, 1, 1))
    assert rec.optimum == 16 == thm2_value(8, 1, 5, 2)


@pytest.mark.parametrize(
    "n,k,s,ws",
    [
        (8, 2, 1, (2, 1)),
        (9, 2, 1, (3, 1)),
        (7, 2, 2, (1, 1, 1)),
        # without the lex-leader floor the oracle took 120 738, 151 495,
        # 1 764 878, 1 894 131 and 1 944 438 nodes on the next five, and
        # ran past 2*10^6 on the last
        (7, 3, 1, (1, 1)),
        (8, 2, 2, (1, 1, 1)),
        (10, 3, 1, (1, 1)),
        (9, 3, 1, (3, 1)),
        (8, 2, 2, (3, 1, 1)),
        (10, 2, 2, (1, 1, 1)),
    ],
)
def test_solvers_agree_where_the_raw_space_is_large(n, k, s, ws):
    # (s+2)^C(n,k) > 2^36 on each cell, yet the oracle closes it in under 15 000 nodes
    a = check_record(oracle_f(n, k, s, ws))
    b = check_record(exact_f_shifted(n, k, s, ws))
    assert (a.optimum, a.witness.families) == (b.optimum, b.witness.families)


def _conj2_hunt(n, k, s, **budget):
    return run_suite("conj2", cells=[(n, k, s)], **budget)


@pytest.mark.parametrize(
    "search_fn, args, work",
    [
        (oracle_f, (6, 2, 1, (2, 1)), 55),
        (exact_f_shifted, (6, 2, 1, (2, 1)), 27),
        # (8,2,2) has 37 downsets of matching number at most 2
        (max_min_overlapping, (8, 2, 2), 37),
        (_conj2_hunt, (8, 2, 2), 37),
    ],
    ids=["oracle_f", "exact_f_shifted", "max_min_overlapping", "conj2_suite"],
)
def test_default_budget_is_read_at_each_call(search_fn, args, work, monkeypatch):
    closed = search_fn(*args)
    monkeypatch.setattr(family, "WORK_LIMIT_DEFAULT", 5)
    with pytest.raises(NodeLimitError):
        search_fn(*args)
    assert search_fn(*args, limit_nodes=work) == closed
    with pytest.raises(NodeLimitError):
        search_fn(*args, limit_nodes=work - 1)


@pytest.mark.parametrize(
    "n,k,s,ws,nodes",
    [(7, 2, 1, (3, 1), 74), (12, 1, 3, (1, 1, 1, 1), 115), (6, 3, 1, (1, 1), 2278), (7, 2, 2, (1, 1, 1), 3662)],
)
def test_oracle_node_counts(n, k, s, ws, nodes):
    # the caps set the value bound, so a cap that rises too early or too late
    # moves the count, and so does a lex-leader floor that cuts too little;
    # without the floor the cells took 435, 1 237, 88 583 and 75 430 nodes
    assert oracle_f(n, k, s, ws).nodes_explored == nodes


@pytest.mark.parametrize("n,k,s,ws,calls", [(12, 1, 3, (1, 1, 1, 1), 69), (6, 3, 1, (1, 1), 772)])
def test_oracle_kernel_calls(n, k, s, ws, calls, monkeypatch):
    # a node asks each rival set once, and each (rival set, rank) at most once,
    # whatever level it tries, and a level below the lex-leader floor asks
    # nothing; without the floor the same cells took 1 161 and 29 524
    # top-level calls, and asked again at every level 2 361 and 88 572
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return rainbow(*args)

    monkeypatch.setattr(search, "rainbow", counting)
    oracle_f(n, k, s, ws)
    assert count == calls


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (7, 2), (7, 4)])
def test_transposition_moves_match_the_permutations(n, k):
    # entry t lists each transposition that maps rank t's k-set lower, with
    # the pairs (r, image) it moves, r < image, in rank order; the images
    # rise, so the pair with image t ends the pairs _lex_floor can read
    size = binom(n, k)
    moves = search._transposition_moves(n, k)
    swaps = rank_permutations(n, k, transpositions=True)
    for t in range(size):
        want = sorted(tuple((r, q[r]) for r in range(size) if r < q[r]) for q in swaps if q[t] < t)
        assert sorted(moves[t]) == want
        for pairs in moves[t]:
            assert [b for _, b in pairs] == sorted(b for _, b in pairs)


@pytest.mark.parametrize(
    "n,k,s", [(n, 1, s) for n in range(2, 7) for s in (1, 2)] + [(3, 2, 1), (3, 2, 2), (4, 2, 1), (4, 2, 2), (5, 2, 1)]
)
def test_lex_floor_cuts_exactly_the_maps_a_transposition_makes_smaller(n, k, s):
    # every map of the k-sets to levels 0..s+1, read rank by rank as explore
    # reads it: a map is cut at the first rank whose level is below the floor
    size = binom(n, k)
    moves = search._transposition_moves(n, k)
    perms = rank_permutations(n, k)
    swaps = rank_permutations(n, k, transpositions=True)
    seen = set()
    leaders = survivors = 0
    for sigma in product(range(s + 2), repeat=size):
        # maps come in lex order, so the first one met of each orbit under S_n is its least
        leader = sigma not in seen
        if leader:
            leaders += 1
            seen.update(tuple(sigma[r] for r in q) for q in perms)
        cut = any(sigma[pos] < search._lex_floor(moves[pos], sigma, pos) for pos in range(size))
        # a map is cut exactly when some transposition gives it a lex-smaller image
        assert cut == any(tuple(sigma[r] for r in q) < sigma for q in swaps), sigma
        if cut:
            assert not leader, sigma
        else:
            survivors += 1
    assert survivors < (s + 2) ** size
    if k == 1:
        # at k = 1 the transpositions keep exactly one map per orbit, the nondecreasing one
        assert survivors == leaders


@pytest.mark.parametrize(
    "n,k,s,ws,nodes",
    [
        (12, 2, 2, (1, 1, 1), 355),
        (9, 3, 1, (2, 1), 19509),
        (8, 2, 2, (5, 0, 0), 633),
        (8, 2, 3, (2, 1, 1, 0), 1113),
        (10, 2, 3, (1, 1, 1, 1), 810),
    ],
)
def test_shifted_node_counts(n, k, s, ws, nodes):
    # the capped bound sets where each walk stops, and with trailing zero
    # weights a value tie is pruned by cardinality, so a looser bound or a
    # lost tie prune moves the count; with M(n,k,s) at every level, the
    # s >= 2 cells took 3 844, 1 698 and 1 399 nodes, and with the clique
    # read on B_{j+1} alone (10,2,3,(1,1,1,1)) took 2 083
    assert exact_f_shifted(n, k, s, ws).nodes_explored == nodes


def test_node_limits():
    with pytest.raises(NodeLimitError):
        oracle_f(6, 2, 1, (2, 1), limit_nodes=10)
    # (7,2,2,(1,1,1)) tests 105 candidates; no downset list is built, so even
    # a budget too small for the hunt of M stops at the node count
    for limit in (5, 100, 104):
        with pytest.raises(NodeLimitError):
            exact_f_shifted(7, 2, 2, (1, 1, 1), limit_nodes=limit)
    assert exact_f_shifted(7, 2, 2, (1, 1, 1), limit_nodes=105).nodes_explored == 105
    # at s = 0 B_0 comes in closed form and no candidate is tested
    rec = exact_f_shifted(6, 2, 0, (1,), limit_nodes=5)
    assert (rec.optimum, rec.nodes_explored) == (0, 0)


def _level_cap_weights(s):
    # all-ones, head-heavy, rational and trailing-zero
    return [
        (1,) * (s + 1),
        (5,) + (1,) * s,
        (Fraction(7, 3),) + (Fraction(1, 2),) * (s - 1) + (Fraction(1, 3),),
        (3,) + (1,) * (s - 1) + (0,),
    ]


@pytest.mark.parametrize(
    "n,k,s,ws",
    [
        (n, k, s, ws)
        for n, k, s in [(6, 1, 2), (7, 1, 2), (6, 2, 2), (6, 1, 3), (7, 1, 3), (8, 1, 3)]
        for ws in _level_cap_weights(s)
    ]
    + [(7, 2, 2, (3, 1, 0)), (5, 1, 4, (1, 1, 1, 1, 1)), (6, 1, 4, (2, 1, 1, 1, 1)), (9, 1, 4, (5, 1, 1, 1, 1))],
)
def test_level_cap_agrees_with_oracle(n, k, s, ws):
    # n >= (s+1)k, so once B_{j+1} holds every k-set inside [(s+1)k] the
    # shifted solver caps |B_0| by M(n,k,j), j < s; the oracle has no cap.
    # On these cells a clique one k-set short, or the cap taken without the
    # clique test, loses the optimum or the witness
    a = check_record(oracle_f(n, k, s, ws))
    b = check_record(exact_f_shifted(n, k, s, ws))
    assert (a.optimum, a.witness) == (b.optimum, b.witness)


@pytest.mark.parametrize("ws", [(1, 1, 1, 1), (2, 1, 1, 1)])
def test_level_cap_from_a_higher_level_meets_thm3(ws):
    # at (8,2,3) the cap at level j comes from the lowest B_{i+1}, i >= j,
    # that holds the clique; the oracle does not close these cells within
    # 10^7 nodes, so the optimum is checked against the exact value at
    # n = (s+1)k
    rec = check_record(exact_f_shifted(8, 2, 3, ws))
    assert rec.optimum == thm3_value(2, 3, ws)


def test_level_cap_closes_the_thm2_range_start():
    # n = 4k^2s starts the range of the main theorem; with M(n,k,s) at every
    # level the cell ran past 3*10^6 nodes
    rec = check_record(exact_f_shifted(32, 2, 2, (1, 1, 1), limit_nodes=100_000))
    assert rec.optimum == thm2_value(32, 2, 1, 2) == 992


@pytest.mark.parametrize("solver, args", [(oracle_f, (6, 2, 1, (2, 1))), (exact_f_shifted, (7, 2, 2, (1, 1, 1)))])
def test_witness_recheck_builds_no_table(solver, args, monkeypatch):
    # the recheck asks the kernel over the cached disjointness table, so a
    # call whose (n, k) table and matching cap are known builds none
    closed = solver(*args)
    built = []
    monkeypatch.setattr(matching, "_disjoint_within", lambda *a: built.append(a))
    assert solver(*args) == closed
    assert built == []


@pytest.mark.parametrize("n,k,s,ws,calls", [(12, 2, 2, (3, 1, 1), 29763), (12, 2, 1, (3, 1), 1059)])
def test_shifted_kernel_calls(n, k, s, ws, calls, monkeypatch):
    # top-level rainbow calls of the closed-form head, with M memoized by a
    # first call; with M(n,k,s) at every level (12,2,2,(3,1,1)) took 575 894
    _matching_cap.cache_clear()
    exact_f_shifted(n, k, s, ws)
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return rainbow(*args)

    monkeypatch.setattr(search, "rainbow", counting)
    exact_f_shifted(n, k, s, ws)
    assert count == calls


@pytest.mark.parametrize(
    "n,k,s,p,value",
    [
        (12, 2, 1, 1, 66),
        (8, 3, 1, 1, 56),
        (9, 3, 1, 1, 84),
        (10, 2, 2, 1, 90),
        (13, 2, 1, 3, 78),
        (20, 2, 1, 3, 190),
        (10, 3, 1, 1, 120),
        (12, 2, 2, 1, 132),
    ],
)
def test_shifted_frontier_within_small_budget(n, k, s, p, value):
    # the matching cap on |B_0| prunes whole subtrees of the peel walks, so
    # each of these cells closes in at most 37 929 nodes ((20,2,1,3) listed
    # and tested all 524 288 downsets of (20,2) before)
    rec = check_record(exact_f_shifted(n, k, s, (p,) + (1,) * s, limit_nodes=50_000))
    assert rec.optimum == value == conj1_value(n, k, p, s)


def test_record_serialization():
    rec = exact_f_shifted(4, 2, 1, (2, 1))
    data = rec.to_dict()
    assert data["optimum"] == 9
    assert data["solver"] == "shifted"
    assert "wall_time" not in data
    assert data["witness"]["families"][0] == [[1, 2], [1, 3], [2, 3]]


def test_weight_validation_errors():
    with pytest.raises(ValueError):
        oracle_f(4, 2, 1, (1, 2))
    with pytest.raises(ValueError):
        exact_f_shifted(4, 2, 1, (1, 1, 1))  # length mismatch


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

def test_verify_hilton_subgrid():
    cells = [(4, 2, 1), (4, 2, 2), (4, 2, 3), (5, 2, 1), (5, 2, 2), (5, 2, 3)]
    report = run_suite("hilton", cells=cells)
    assert report["summary"] == {"rows": 6, "violations": 0, "status": "pass"}
    assert all(r["relation"] == "equal" for r in report["rows"])


def test_verify_thm1_subgrid():
    cells = [(4, 2, 1, 1), (4, 2, 1, 2), (5, 2, 1, 1), (5, 2, 1, 2), (6, 2, 1, 1), (6, 2, 1, 2)]
    report = run_suite("thm1", cells=cells)
    assert report["summary"]["violations"] == 0


def test_verify_bde_grid_row_names_the_cells():
    assert run_suite("bde", cells=[(10, 3, 2)])["rows"] == [{"grid": "cells: 1", "status": "ok"}]
    assert run_suite("bde", cells=[(2, 1, 0)])["rows"] == [{"grid": "m<=2, 1<=s<m, 0<=l<m-s", "status": "ok"}]
    triangle = [(3, 1, 1), (3, 2, 0), (2, 1, 0), (3, 1, 0)]
    assert run_suite("bde", cells=triangle)["rows"][-1]["grid"] == "m<=3, 1<=s<m, 0<=l<m-s"
    assert run_suite("bde", cells=triangle[:-1])["rows"][-1]["grid"] == "cells: 3"
    assert run_suite("bde")["rows"] == [{"grid": "m<=30, 1<=s<m, 0<=l<m-s", "status": "ok"}]


def test_suite_rows_write_rational_weights_as_json():
    ws = (Fraction(7, 2), Fraction(1, 3))
    thm3 = run_suite("thm3", cells=[(2, 1, 1, ws)])
    partition = run_suite("partition", cells=[(4, 2, 1, ws, "clique")], trials=20, seed=1)
    for report in (thm3, partition):
        (row,) = json.loads(json.dumps(report["rows"]))
        assert row["weights"] == ["7/2", "1/3"]
    assert thm3["rows"][0]["solver_value"] == "23/6"


def test_verify_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_max_min_overlapping_is_emc_value():
    # largest intersecting 2-family on 6 points is the 5-set star
    value, fam = max_min_overlapping(6, 2, 1)
    assert value == 5 == conj2_bound(6, 2, 1)
    assert matching_number(fam) == 1
    # two blocks of C([4],2) can miss only one pair
    value, fam = max_min_overlapping(4, 2, 1)
    assert value == 3 == conj2_bound(4, 2, 1)


@pytest.mark.parametrize("n,k", [(n, k) for k in range(4) for n in range(max(k, 1), 10)])
def test_max_min_overlapping_against_brute(n, k):
    # value and witness equal the first largest feasible downset in
    # sorted_downsets order; (9,3) at s <= 2 is too slow for the brute force
    for s in range(4):
        if (n, k) == (9, 3) and s < 3:
            continue
        value, fam = max_min_overlapping(n, k, s)
        assert (value, fam.bits) == brute_max_min_overlapping(n, k, s)


def test_hunt_witness_recheck_takes_no_kernel_call(monkeypatch):
    # the (13,2,3) witness is the cover by three elements, so the recheck's
    # "no 4 disjoint members" is settled by the transversal certificate
    calls = []
    kernel = matching.rainbow

    def spy(cands, disj, avail=-1, start=0, floor=-1):
        # the refusals call search's own binding, whose recursion (start > 0) lands here
        if start == 0:
            calls.append(cands)
        return kernel(cands, disj, avail, start, floor)

    monkeypatch.setattr(matching, "rainbow", spy)
    value, fam = max_min_overlapping(13, 2, 3)
    assert (value, fam) == (conj2_bound(13, 2, 3), cover_family(13, 2, 3))
    assert calls == []


def test_max_min_overlapping_visits_only_feasible_downsets():
    # (14,2,1): the walk stops at the 15 intersecting downsets of 8192
    assert max_min_overlapping(14, 2, 1, limit_nodes=15)[0] == 13
    with pytest.raises(NodeLimitError):
        max_min_overlapping(14, 2, 1, limit_nodes=14)
    with pytest.raises(NodeLimitError):
        max_min_overlapping(8, 2, 2, limit_nodes=3)


@pytest.mark.parametrize("planted", [0b111111, 0b100000], ids=["matching", "not-shifted"])
def test_max_min_overlapping_rechecks_witness(monkeypatch, planted):
    # a walk that yields a family with a 2-matching, or one that is not a
    # downset, must not slip through as the (4,2,1) witness
    import overlap_lab.search as search_mod

    monkeypatch.setattr(search_mod, "walk_downsets", lambda n, k, refuse: iter([0, planted]))
    with pytest.raises(AssertionError):
        max_min_overlapping(4, 2, 1)


def _hunt_cells(most):
    # every (n, k, s) with k >= 1, C(n, k) <= most, n <= 64 (the widest ground set) and s <= 3
    return [(n, k, s) for n in range(1, 65) for k in range(1, n + 1) if binom(n, k) <= most for s in range(4)]


def test_matching_window_keeps_every_refusal():
    # random downsets D (the downward closures of a few random k-sets): s
    # disjoint members of D miss the k-set of rank r exactly when s such
    # members lie in the window of rank r
    rng = random.Random(20)
    for n, k, s in _hunt_cells(84):
        if k > 3 or s == 0:
            continue
        disj = disjointness(n, k)
        ups = poset_upsets(n, k)
        sets = ksets(n, k)
        for _ in range(6):
            gens = sum(1 << rng.randrange(len(sets)) for _ in range(rng.randint(1, 4)))
            d = sum(1 << q for q, up in enumerate(ups) if up & gens)
            for r, a in enumerate(sets):
                cand = d & disj[r] & search._matching_window(a, n, k, s)
                full = rainbow((d,) * s, disj, disj[r]) is None
                assert (rainbow((cand,) * s, disj) is None) == full, (n, k, s, d, r)


def test_max_min_overlapping_walks_like_the_full_refusal(monkeypatch):
    # the windowed, memoised refusal yields the same downsets, in the same
    # order, as a walk that asks the kernel on all of D & disj[r]
    seen = []

    def spy(n, k, refuse):
        for d in family.walk_downsets(n, k, refuse):
            seen.append(d)
            yield d

    monkeypatch.setattr(search, "walk_downsets", spy)
    for n, k, s in _hunt_cells(84):
        disj = disjointness(n, k)
        plain = list(family.walk_downsets(n, k, lambda d, r: rainbow((d,) * s, disj, disj[r]) is not None))
        seen.clear()
        max_min_overlapping(n, k, s)
        assert seen == plain, (n, k, s)


def test_hunt_conjectures_subgrids():
    rep = run_suite("conj1", cells=[(4, 2, 1, 2), (6, 2, 2, 1), (5, 1, 1, 3)])
    assert rep["summary"]["violations"] == 0
    assert all("witness" not in r for r in rep["rows"])
    grid = {"cells": [(6, 2, 1), (6, 2, 2), (9, 3, 2)]}
    rep = run_suite("conj2", cells=grid["cells"])
    assert rep["summary"]["violations"] == 0
    # the name perfbench calls and traces is run_suite on the cells of a grid
    assert hunt_conjectures("conj2", grid) == rep


def test_run_suite_hands_limit_nodes_to_both_hunts():
    # conj1 gives it to each solver call, conj2 to each hunt (test_default_budget_is_read_at_each_call)
    assert run_suite("conj1", cells=[(4, 2, 1, 2)], limit_nodes=10**5)["summary"]["violations"] == 0
    # a suite run hands the budget to either hunt, as verify --suite all does
    for name, cell in (("conj1", (4, 2, 1, 2)), ("conj2", (14, 2, 1))):
        with pytest.raises(NodeLimitError):
            run_suite(name, cells=[cell], limit_nodes=5)


def test_oracle_witness_minimizes_cardinality_then_levels():
    # at (6,2,1,(3,1)) the star value 4*5 = 20 beats the full chain's 15;
    # the minimum-cardinality witness is the doubled star
    rec = oracle_f(6, 2, 1, (3, 1))
    assert rec.optimum == 20
    assert sum(len(f) for f in rec.witness.families) == 10
    assert len(rec.witness.families[0]) == 5
    assert all(len(t) == 2 and 1 in t for t in rec.witness.families[0].sets())
