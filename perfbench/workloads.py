"""Workload batches and their exact references.

A batch is a list of ops built from the workload name and the seed; the
program under test only ever sees the generated inputs.  Every op carries
its own exact check, so a batch reports how many ops failed.  An op fails
if it raises, hits a limit, or disagrees with its reference.

Why these workloads:

* oracle:   entry-level branch-and-bound (``search.oracle_f``) and its
            Fraction objective do almost all the work; no downsets, no sampling.
* shifted:  the shifted solver's ``descend`` loop and rainbow check dominate;
            downset enumeration is under 2%, so a family-layer change must
            leave this workload unmoved.
* downsets: ``hunt_conjectures("conj2")``: downset enumeration plus
            matching-number scans, no solver search and no Fraction.  Each
            (n, k) appears once per s, so work a memo could share is there.
* harness:  ``cli.main verify`` over the three randomized suites: the cyclic
            rejection sampler, colex ranking, many tiny overlap checks,
            min vertex cover and the report writer; no solver.

Solver weights are multiplied by a seed-drawn positive rational (integral
for about half the cells).  Scaling leaves every comparison, hence every
node count, unchanged, so seeds vary the inputs but not the amount of work.
The conj2 cells are fixed and the seed only orders them, because the cost
of a cell depends strongly on s.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from overlap_lab import bounds, cli, search
from overlap_lab.family import reduce_to_weighted

# (suite, seed offset, trials, report rows); cyclic is split into three
# calls so that no single op runs much longer than the others
HARNESS_CALLS = (
    ("cyclic", 0, 1_000, 9),
    ("cyclic", 1, 1_000, 9),
    ("cyclic", 2, 1_000, 9),
    ("partition", 0, 800, 5),
    ("random-matching", 0, 800, 4),
)


@dataclass
class Op:
    """One call into the program: `run` returns its result, `check` maps it to outcomes.

    Each outcome is one counted op (a solver cell, a conj2 cell, a harness
    row).  `rows` is how many outcomes a correct result yields; all of them
    count as failed when the call raises or yields another number of outcomes.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[tuple[str, bool]]]
    rows: int = 1


def _seed_rng(workload: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _scale(rng: random.Random) -> Fraction:
    if rng.random() < 0.5:
        return Fraction(rng.randint(2, 60))
    return Fraction(rng.randint(1, 97), rng.randint(2, 97))


# Every op stays under about half a second, so a batch takes 1-2 s and a run
# holds a dozen or more fresh-process batches: on a shared machine only a
# median over many short batches is steady.

# (n, k, s, unscaled weights, reference value at scale 1)
def _oracle_cells() -> list[tuple]:
    cells = []
    for n, ms in ((4, range(1, 5)), (5, range(1, 5)), (6, range(1, 5)), (7, (1, 2))):
        for m in ms:
            cells.append((n, 2, 1, reduce_to_weighted(m, 1), bounds.hilton_bound(n, 2, m)))
    for n, s, p in ((10, 2, 3), (11, 2, 3), (13, 2, 1), (12, 3, 1)):
        cells.append((n, 1, s, (p,) + (1,) * s, bounds.thm2_value(n, 1, p, s)))
    for k, s, w in ((1, 1, (2, 1)), (1, 2, (4, 2, 1)), (1, 3, (1, 1, 1, 1)), (2, 1, (3, 1)), (2, 1, (1, 1))):
        cells.append(((s + 1) * k, k, s, w, bounds.thm3_value(k, s, w)))
    return cells


def _shifted_cells() -> list[tuple]:
    cells = []
    for n in (8, 9):
        for m in (2, 3, 4):
            cells.append((n, 2, 1, reduce_to_weighted(m, 1), bounds.hilton_bound(n, 2, m)))
    for n in (8, 10):  # zero head weight
        cells.append((n, 2, 1, reduce_to_weighted(1, 1), bounds.hilton_bound(n, 2, 1)))
    for n, s, p in ((9, 1, 3), (12, 2, 3), (13, 2, 7), (12, 3, 7), (13, 3, 3)):
        cells.append((n, 1, s, (p,) + (1,) * s, bounds.thm2_value(n, 1, p, s)))
    for k, s, w in ((2, 1, (3, 1)), (2, 2, (4, 2, 1)), (2, 2, (1, 1, 1)), (3, 1, (2, 1))):
        cells.append(((s + 1) * k, k, s, w, bounds.thm3_value(k, s, w)))
    for n, w in ((6, (1, 1, 1)), (7, (1, 1, 1))):
        if n < bounds.thm4_threshold(2, w):
            raise AssertionError(f"thm4 cell ({n}, 2, {w}) is below its proven range")
        cells.append((n, 2, len(w) - 1, w, bounds.thm4_value(n, 2, w)))
    return cells


# (n, k, s) conj2 cells: (n, k) repeats across s, so a downset memo has work to share
CONJ2_CELLS = tuple(
    [(n, 2, s) for n in (12, 13) for s in (1, 2, 3)] + [(14, 2, 1), (14, 2, 2), (7, 3, 1), (8, 3, 1)]
)


def _solver_ops(solver: str, cells, rng) -> list[Op]:
    # the solver is looked up at call time, so a traced run sees its wrapper
    ops = []
    for n, k, s, w, ref in cells:
        scale = _scale(rng)
        weights = tuple(Fraction(x) * scale for x in w)
        expected = Fraction(ref) * scale

        def run(n=n, k=k, s=s, weights=weights):
            return getattr(search, solver)(n, k, s, weights)

        def check(rec, expected=expected):
            return [("optimum", rec.optimum == expected)]

        ops.append(Op(f"{solver}({n},{k},{s},{[str(x) for x in weights]})", run, check))
    return ops


def _conj2_ops(rng) -> list[Op]:
    cells = list(CONJ2_CELLS)
    rng.shuffle(cells)
    ops = []
    for n, k, s in cells:
        # the Erdos Matching Conjecture is proven for k <= 3, so the cap is the exact value
        expected = bounds.conj2_bound(n, k, s)

        def run(n=n, k=k, s=s):
            return search.hunt_conjectures("conj2", grid={"cells": [(n, k, s)]})

        def check(report, expected=expected):
            (row,) = report["rows"]
            return [("max_min_size", row["max_min_size"] == expected)]

        ops.append(Op(f"conj2({n},{k},{s})", run, check))
    return ops


def _check_harness_rows(suite: str, report: dict) -> list[tuple[str, bool]]:
    """Exact fields only; the z-score status is advisory."""
    (entry,) = report["rows"]
    summary = entry["summary"]
    outcomes = []
    if suite == "cyclic":
        exact = summary["violations"] == 0 and summary["identity_failures"] == 0
        for row in entry["rows"]:
            outcomes.append((f"cyclic{row['n'], row['k'], row['s'], row['p']}", exact and row["min_margin"] >= 0))
    else:
        for row in entry["rows"]:
            ok = row["violations"] == [] and row.get("cover_size_violations", 0) == 0
            outcomes.append((f"{suite}{row['n'], row['k'], row['s'], tuple(row['weights'])}", ok))
    return outcomes


def _harness_ops(seed: int, workdir: str) -> list[Op]:
    ops = []
    for suite, offset, trials, rows in HARNESS_CALLS:
        out = os.path.join(workdir, f"report-{suite}.json")
        cli_seed = str(3 * seed + offset)
        argv = ["verify", "--suite", suite, "--seed", cli_seed, "--trials", str(trials), "--out", out]

        def run(argv=argv, out=out):
            code = cli.main(argv)
            with open(out, "rb") as fh:
                payload = fh.read()
            os.remove(out)
            return code, payload

        def check(result, suite=suite):
            code, payload = result
            if code not in (cli.EXIT_PASS, cli.EXIT_VIOLATION):
                return [(f"{suite} exit code {code}", False)]
            return _check_harness_rows(suite, json.loads(payload))

        ops.append(Op(f"verify --suite {suite} --seed {cli_seed}", run, check, rows))
    return ops


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The batch for one workload and seed; reference values are computed here."""
    rng = _seed_rng(workload, seed)
    if workload == "oracle":
        return _solver_ops("oracle_f", _oracle_cells(), rng)
    if workload == "shifted":
        return _solver_ops("exact_f_shifted", _shifted_cells(), rng)
    if workload == "downsets":
        return _conj2_ops(rng)
    if workload == "harness":
        return _harness_ops(seed, workdir)
    raise KeyError(workload)


def fingerprint(result) -> object:
    """A deterministic summary of an op's result, compared across processes."""
    if isinstance(result, search.ExtremalRecord):
        return result.nodes_explored
    if isinstance(result, tuple):  # harness: (exit code, report bytes)
        return hashlib.sha256(result[1]).hexdigest()[:16]
    return json.dumps(result["rows"], sort_keys=True)
