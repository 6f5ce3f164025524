"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints one `[acceptance NN] name: PASS/FAIL` line (visible with
`pytest -s` or in captured output) and asserts both the exact checks and
the stated wall-clock budget.
"""
import random
import time

from _brute import brute_min_cover_size
from overlap_lab.bounds import (
    bde_check,
    g_argmax,
    hilton_bound,
    thm1_bound,
    thm2_value,
    thm3_value,
    thm4_threshold,
    thm4_value,
)
from overlap_lab.combinatorics import binom
from overlap_lab.family import Family, nestify, reduce_to_weighted, shift_closure
from overlap_lab.matching import (
    BipartiteGraph,
    cover_is_valid,
    max_bipartite_matching,
    min_vertex_cover,
    rainbow_matching_number,
)
from overlap_lab.search import exact_f_shifted, oracle_f
from overlap_lab.suites import SUITES, run_suite

SEED = 20240


def report(num, name, ok, elapsed, budget, details=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {details}")
    assert ok, f"criterion {num} ({name}) failed: {details}"
    assert elapsed < budget, f"criterion {num} ({name}) blew the budget: {elapsed:.1f}s"


def suite_cells(name, count):
    """The suite's cells from the registry; the pinned count keeps a grid from shrinking."""
    cells = SUITES[name].cells
    assert len(cells) == count, f"suite {name!r} has {len(cells)} cells, expected {count}"
    return cells


def test_01_hilton_equality():
    t0 = time.perf_counter()
    bad = []
    for n, k, m in suite_cells("hilton", 16):
        rec = oracle_f(n, k, 1, reduce_to_weighted(m, 1))
        if rec.optimum != hilton_bound(n, k, m):
            bad.append((n, k, m, rec.optimum))
    report(1, "pair-bound equality", not bad, time.perf_counter() - t0, 60, f"bad={bad}")


def test_02_head_weight_upper_bound():
    t0 = time.perf_counter()
    bad = []
    cells = suite_cells("thm1", 63)
    for n, k, s, p in cells:
        rec = exact_f_shifted(n, k, s, (p,) + (1,) * s)
        if n < (s + 1) * k or rec.optimum > thm1_bound(n, k, p, s):
            bad.append((n, k, s, p, rec.optimum))
    report(2, "weighted sum upper bound", not bad, time.perf_counter() - t0, 600, f"{len(cells)} cells, bad={bad}")


def test_03_exact_value_k1():
    t0 = time.perf_counter()
    bad = []
    cells = suite_cells("thm2", 234)
    for n, k, s, p in cells:
        rec = exact_f_shifted(n, k, s, (p,) + (1,) * s)
        if n < 4 * k * k * s or rec.optimum != thm2_value(n, k, p, s):
            bad.append((n, k, s, p, rec.optimum))
    elapsed = time.perf_counter() - t0
    report(3, "exact value in Theorem 2's range", not bad, elapsed, 300, f"{len(cells)} cells, bad={bad}")


def test_04_tight_ground_set_equality():
    t0 = time.perf_counter()
    bad = []
    cells = suite_cells("thm3", 8)
    for n, k, s, w in cells:
        rec = exact_f_shifted(n, k, s, w)
        if n != (s + 1) * k or rec.optimum != thm3_value(k, s, w):
            bad.append((k, s, w, rec.optimum))
    report(4, "tight ground set equality", not bad, time.perf_counter() - t0, 600, f"{len(cells)} cells, bad={bad}")


def test_05_tail_weight_equality():
    t0 = time.perf_counter()
    bad = []
    cells = suite_cells("thm4", 53)
    for n, k, s, w in cells:
        rec = exact_f_shifted(n, k, s, w)
        if n < thm4_threshold(k, w) or rec.optimum != thm4_value(n, k, w):
            bad.append((n, k, w, rec.optimum))
    report(5, "tail weight equality", not bad, time.perf_counter() - t0, 600, f"{len(cells)} cells, bad={bad}")


def test_06_binomial_difference_inequalities():
    t0 = time.perf_counter()
    bad = []
    cells = suite_cells("bde", 4495)
    for m, s, l in cells:
        if bde_check(m, s, l) != (True, True):
            bad.append((m, s, l))
    report(6, "binomial difference chains", not bad, time.perf_counter() - t0, 60, f"{len(cells)} triples, bad={bad}")


def test_07_arc_chain_harness():
    t0 = time.perf_counter()
    assert SUITES["cyclic"].trials == 100_000
    rep = run_suite("cyclic", cells=suite_cells("cyclic", 9), trials=100_000, seed=SEED)
    ok = (
        rep["summary"]["violations"] == 0
        and rep["summary"]["identity_failures"] == 0
        and rep["summary"]["trials"] >= 100_000
    )
    report(7, "arc chain harness", ok, time.perf_counter() - t0, 600, str(rep["summary"]))


def test_08_matching_cover_duality():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    bad = 0
    for _ in range(10_000):
        nl, nr = rng.randrange(1, 13), rng.randrange(1, 13)
        density = rng.random()
        adj = tuple(sum(1 << v for v in range(nr) if rng.random() < density) for _ in range(nl))
        g = BipartiteGraph(tuple(range(nl)), tuple(range(nr)), adj)
        cover = min_vertex_cover(g)
        if len(cover[0]) + len(cover[1]) != len(max_bipartite_matching(g)):
            bad += 1
        if not cover_is_valid(g, cover):
            bad += 1
    brute_bad = 0
    for _ in range(10_000):
        nl, nr = rng.randrange(1, 9), rng.randrange(1, 9)
        density = rng.random()
        adj = tuple(sum(1 << v for v in range(nr) if rng.random() < density) for _ in range(nl))
        g = BipartiteGraph(tuple(range(nl)), tuple(range(nr)), adj)
        cover = min_vertex_cover(g)
        if len(cover[0]) + len(cover[1]) != brute_min_cover_size(g):
            brute_bad += 1
    report(
        8,
        "matching/cover duality",
        bad == 0 and brute_bad == 0,
        time.perf_counter() - t0,
        120,
        f"duality_bad={bad} brute_bad={brute_bad}",
    )


def _corunnable_instances():
    vectors = {1: ((1, 1), (2, 1)), 2: ((1, 1, 1), (3, 1, 1))}
    for k in range(1, 6):
        for n in range(k, 16):
            if binom(n, k) > 15:
                continue
            for s, ws_list in vectors.items():
                for ws in ws_list:
                    yield n, k, s, ws


def test_09_reduction_soundness():
    t0 = time.perf_counter()
    mismatches = []
    cells = 0
    for n, k, s, ws in _corunnable_instances():
        a = oracle_f(n, k, s, ws)
        b = exact_f_shifted(n, k, s, ws)
        cells += 1
        if a.optimum != b.optimum:
            mismatches.append((n, k, s, ws, a.optimum, b.optimum))
    rng = random.Random(SEED + 1)
    increases = 0
    for _ in range(10_000):
        n = rng.randrange(4, 8)
        k = rng.randrange(1, 4)
        count = rng.randrange(2, 5)
        seq = []
        for _ in range(count):
            bits = 0
            density = rng.random() * 0.6
            for r in range(binom(n, k)):
                if rng.random() < density:
                    bits |= 1 << r
            seq.append(Family(n, k, bits))
        before = rainbow_matching_number(seq)
        if rainbow_matching_number(nestify(seq)) > before:
            increases += 1
        if rainbow_matching_number([shift_closure(f) for f in seq]) > before:
            increases += 1
    ok = not mismatches and increases == 0
    report(
        9,
        "reduction soundness",
        ok,
        time.perf_counter() - t0,
        600,
        f"{cells} solver pairs, mismatches={mismatches[:3]}, nu_increases={increases}",
    )


def test_10_mixed_construction_endpoint():
    t0 = time.perf_counter()
    interior = []
    cells = 0
    for k in (1, 2, 3):
        for s in range(1, 6):
            for p in range(1, 11):
                base = 4 * k * k * s
                for n in range(base, base + 51):
                    i_star, at_end = g_argmax(n, k, p, s)
                    cells += 1
                    if not at_end:
                        interior.append((n, k, p, s, i_star))
    report(10, "depth scan endpoint property", not interior, time.perf_counter() - t0, 60, f"{cells} scans, interior={interior[:3]}")


def test_11_conjecture_hunts():
    t0 = time.perf_counter()
    rep1 = run_suite("conj1", cells=suite_cells("conj1", 159))
    rep2 = run_suite("conj2", cells=suite_cells("conj2", 62))
    ok = rep1["summary"]["violations"] == 0 and rep2["summary"]["violations"] == 0
    details = f"conj1 {rep1['summary']} conj2 {rep2['summary']}"
    report(11, "conjecture hunts", ok, time.perf_counter() - t0, 1800, details)
