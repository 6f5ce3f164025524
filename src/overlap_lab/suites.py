"""The verification suites: one table of named cell lists and their reports.

Each suite replays one result of the paper on a fixed list of cells and
returns the report {"suite", "rows", "summary"}.  SUITES is the only place
a suite's name, cells, default trial count and report builder are written
down; the CLI, search.hunt_conjectures and the acceptance tests read it.
Every report is built here, through _report, which alone sets a report's
status; a randomized suite seeds each cell through _cell_seed, and the
harnesses in cyclic only run the trials of one cell.  Its order is the
order `verify --suite all` runs.

A report builder looks up the solver, sampler or hunt it calls through its
module at call time, so a function rebound on that module (by a tracer,
say) is the one that runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import bounds as _bounds
from . import cyclic as _cyclic
from . import search as _search
from .family import Chain, chain_to_dict, construction_chain, reduce_to_weighted

# report(name, cells, trials, seed, limit_nodes) -> {"suite", "rows", "summary"}
Report = Callable[..., dict]


@dataclass(frozen=True)
class Suite:
    """A suite's cells, the builder of its report, its default trial count, and whether it searches.

    trials is None for a deterministic suite; a randomized suite draws from
    a seed and runs `trials` samples unless told otherwise.  searches marks
    a suite whose rows come from an exact solver or the conj2 hunt, the
    only kind that a work budget limits.
    """

    cells: tuple[tuple, ...]
    report: Report
    trials: int | None = None
    searches: bool = False


def run_suite(name: str, *, cells=None, trials=None, seed=0, limit_nodes=None) -> dict:
    """The report of a named suite, on its own cells unless a list of `cells` is given.

    trials and seed matter to a randomized suite only, limit_nodes to a search.
    """
    suite = SUITES[name]
    cells = suite.cells if cells is None else cells
    return suite.report(name, cells, suite.trials if trials is None else trials, seed, limit_nodes)


def _report(name: str, rows: list[dict], violations: int, /, **counts) -> dict:
    """The report of a suite: it passes iff every row's status is "ok" or "pass"."""
    status = "pass" if all(row["status"] in ("ok", "pass") for row in rows) else "fail"
    return {"suite": name, "rows": rows, "summary": {**counts, "violations": violations, "status": status}}


# ---------------------------------------------------------------------------
# report builders
# ---------------------------------------------------------------------------

# A theorem cell becomes (row parameters, s, weights).
def _pair(n: int, k: int, m: int) -> tuple[dict, int, tuple]:
    """m families reduced to a pair with weights (m-1, 1)."""
    w = reduce_to_weighted(m, 1)
    return {"n": n, "k": k, "m": m, "weights": list(w)}, 1, w


def _head(n: int, k: int, s: int, p: int) -> tuple[dict, int, tuple]:
    """Head weight p: weights (p, 1, ..., 1)."""
    return {"n": n, "k": k, "s": s, "p": p}, s, (p,) + (1,) * s


def _weighted(n: int, k: int, s: int, w: tuple) -> tuple[dict, int, tuple]:
    """An explicit weight vector of length s+1."""
    return {"n": n, "k": k, "s": s, "weights": _bounds.json_safe(w)}, s, w


def _theorem(instance: Callable, solver: str, formula: str, relation: str) -> Report:
    """Solver optimum on each cell against a closed form: "equal" or "le".

    `formula` names an entry of bounds.FORMULAS; it takes its arguments
    from the row parameters by name.  Violations are rows, not errors.
    """

    def report(name, cells, trials, seed, limit_nodes):
        closed_form = _bounds.FORMULAS[formula]
        rows = []
        for cell in cells:
            params, s, w = instance(*cell)
            solve = getattr(_search, solver)
            rec = solve(params["n"], params["k"], s, w, limit_nodes=limit_nodes)
            value = Fraction(closed_form.evaluate(**{p: params[p] for p in closed_form.params}))
            ok = rec.optimum == value if relation == "equal" else rec.optimum <= value
            rows.append(
                {
                    **params,
                    "solver_value": _bounds.json_safe(rec.optimum),
                    "formula_value": _bounds.json_safe(value),
                    "relation": relation,
                    "status": "ok" if ok else "VIOLATION",
                }
            )
        bad = sum(r["status"] != "ok" for r in rows)
        return _report(name, rows, bad, rows=len(rows))

    return report


def _bde_triangle(top: int) -> tuple[tuple[int, int, int], ...]:
    """Every (m, s, l) with 2 <= m <= top, 1 <= s < m and 0 <= l < m - s."""
    return tuple((m, s, l) for m in range(2, top + 1) for s in range(1, m) for l in range(0, m - s))


def _bde(name, cells, trials, seed, limit_nodes):
    """Binomial-difference chains: a row per failing (m, s, l), then one row naming the cells checked.

    That row spells out the triangle when the cells are all of it up to
    their largest m, and gives the number of cells otherwise.
    """
    cells = [tuple(cell) for cell in cells]
    failing = [(m, s, l) for m, s, l in cells if not all(_bounds.bde_check(m, s, l))]
    rows = [{"m": m, "s": s, "l": l, "status": "VIOLATION"} for m, s, l in failing]
    failures = len(rows)
    top = max((m for m, _, _ in cells), default=0)
    if cells and sorted(cells) == sorted(_bde_triangle(top)):
        grid = f"m<={top}, 1<=s<m, 0<=l<m-s"
    else:
        grid = f"cells: {len(cells)}"
    rows.append({"grid": grid, "status": "ok" if failures == 0 else "fail"})
    return _report(name, rows, failures)


def _cell_seed(seed: int, idx: int) -> int:
    """The seed of cell idx of a randomized suite run from `seed`."""
    return seed * 1_000_003 + idx


def _arc_chains(name, cells, trials, seed, limit_nodes):
    """The arc-chain lemma on random chains of each cell (n, k, s, p).

    The trials are spread over the cells, rounded up so that at least
    `trials` (an int >= 1) chains run in total.  A row not "ok" had a chain
    above the bound or off the head-average identity.
    """
    per_cell = -(-_cyclic.check_trials(trials) // max(1, len(cells)))
    rows = []
    violations = identity_failures = 0
    for idx, (n, k, s, p) in enumerate(cells):
        worst, above, off = _cyclic.arc_chain_trials(n, k, s, p, per_cell, _cell_seed(seed, idx))
        violations += above
        identity_failures += off
        status = "ok" if above == off == 0 else "VIOLATION"
        rows.append({"n": n, "k": k, "s": s, "p": p, "trials": per_cell, "min_margin": worst, "status": status})
    return _report(name, rows, violations, trials=per_cell * len(cells), identity_failures=identity_failures)


def _sampled(sampler: str, show_construction: bool) -> Report:
    """A sampled bound on the named construction chain of each cell (n, k, s, weights, construction)."""

    def report(name, cells, trials, seed, limit_nodes):
        rows = []
        failures = 0
        for idx, (n, k, s, ws, kind) in enumerate(cells):
            chain = construction_chain(kind, n, k, s)
            rep = getattr(_cyclic, sampler)(chain, ws, trials, _cell_seed(seed, idx))
            failures += rep["status"] != "pass"
            label = {"construction": kind} if show_construction else {}
            rows.append({"n": n, "k": k, "s": s, "weights": _bounds.json_safe(ws), **label, **rep})
        return _report(name, rows, failures)

    return report


def _conj1(name, cells, trials, seed, limit_nodes):
    """The optimum for weights (p,1,...,1) against the three-term maximum; a row not "ok" carries its witness."""
    rows = []
    for n, k, s, p in cells:
        rec = _search.exact_f_shifted(n, k, s, (p,) + (1,) * s, limit_nodes=limit_nodes)
        expected = _bounds.conj1_value(n, k, p, s)
        if rec.optimum == expected:
            status = "ok"
        elif rec.optimum > expected:
            status = "COUNTEREXAMPLE"
        else:
            status = "BELOW-CONSTRUCTION"  # would indicate a solver defect
        row = {
            "n": n,
            "k": k,
            "s": s,
            "p": p,
            "solver_value": _bounds.json_safe(rec.optimum),
            "conjectured": _bounds.json_safe(expected),
            "status": status,
        }
        if status != "ok":
            row["witness"] = chain_to_dict(rec.witness)
        rows.append(row)
    bad = sum(r["status"] != "ok" for r in rows)
    return _report(name, rows, bad, rows=len(rows))


def _conj2(name, cells, trials, seed, limit_nodes):
    """The maximum of min_i |B_i| against its conjectured cap; a row not "ok" carries its witness."""
    rows = []
    for n, k, s in cells:
        value, fam = _search.max_min_overlapping(n, k, s, limit_nodes=limit_nodes)
        cap = _bounds.conj2_bound(n, k, s)
        status = "ok" if value <= cap else "COUNTEREXAMPLE"
        row = {
            "n": n,
            "k": k,
            "s": s,
            "max_min_size": value,
            "conjectured_cap": cap,
            "status": status,
        }
        if status != "ok":
            row["witness"] = chain_to_dict(Chain((fam,) * (s + 1)))
        rows.append(row)
    bad = sum(r["status"] != "ok" for r in rows)
    return _report(name, rows, bad, rows=len(rows))


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

_THM34_WEIGHTS = ((1, 1), (2, 1), (3, 1), (1, 1, 1), (4, 2, 1))

# (k, s, last n, largest p) blocks, each from n = 4k^2 s, where Theorem 2's
# range starts.  At (k, s) = (2, 2) p stops at 2: each p = 2 cell takes at
# most 16 281 nodes, but each p = 3 cell 39 806 to 169 606, past the 20 000
# under which a limited `verify --suite all` stops in conj2 and nowhere else
_THM2_BLOCKS = ((1, 1, 12, 12), (1, 2, 12, 12), (2, 1, 24, 3), (2, 2, 40, 2), (3, 1, 42, 3))

# (k, s, first n, last n) blocks; conj1 repeats its blocks for p = 1, 2, 3
_CONJ1_BLOCKS = ((1, 1, 2, 12), (1, 2, 3, 12), (2, 1, 4, 24), (2, 2, 6, 16))
_CONJ2_BLOCKS = (
    (1, 1, 2, 12), (2, 1, 4, 16), (1, 2, 3, 12), (2, 2, 6, 16),
    (2, 3, 8, 16), (3, 1, 6, 10), (3, 2, 9, 10), (4, 1, 9, 9),
)

SUITES: dict[str, Suite] = {
    # (n, k, m)
    "hilton": Suite(
        tuple((n, 2, m) for n in range(4, 8) for m in range(1, 5)),
        _theorem(_pair, "oracle_f", "hilton", "equal"),
        searches=True,
    ),
    # (n, k, s, p)
    "thm1": Suite(
        tuple((n, k, s, p) for k in (1, 2) for s in (1, 2) for n in range((s + 1) * k, 9) for p in (1, 2, 3)),
        _theorem(_head, "exact_f_shifted", "thm1", "le"),
        searches=True,
    ),
    "thm2": Suite(
        tuple(
            (n, k, s, p)
            for k, s, last, top_p in _THM2_BLOCKS
            for n in range(4 * k * k * s, last + 1)
            for p in range(1, top_p + 1)
        ),
        _theorem(_head, "exact_f_shifted", "thm2", "equal"),
        searches=True,
    ),
    # (n, k, s, weights)
    "thm3": Suite(
        tuple(
            ((s + 1) * k, k, s, w)
            for k, s in ((1, 1), (1, 2), (2, 1))
            for w in _THM34_WEIGHTS
            if len(w) == s + 1
        ),
        _theorem(_weighted, "exact_f_shifted", "thm3", "equal"),
        searches=True,
    ),
    "thm4": Suite(
        tuple(
            (n, k, len(w) - 1, w)
            for k, last in ((1, 12), (2, 6))
            for w in _THM34_WEIGHTS
            for n in range(_bounds.thm4_threshold(k, w), last + 1)
        ),
        _theorem(_weighted, "exact_f_shifted", "thm4", "equal"),
        searches=True,
    ),
    # (m, s, l)
    "bde": Suite(_bde_triangle(30), _bde),
    # (n, k, s, p)
    "cyclic": Suite(
        tuple((n, k, s, p) for n, k, s in ((9, 2, 2), (8, 2, 1), (12, 3, 1)) for p in (1, 2, 3)),
        _arc_chains,
        trials=100_000,
    ),
    # (n, k, s, weights, construction)
    "partition": Suite(
        (
            (2, 1, 1, (1, 1), "clique"),
            (3, 1, 2, (2, 1, 1), "clique"),
            (4, 2, 1, (1, 1), "clique"),
            (4, 2, 1, (3, 1), "clique"),
            (6, 2, 2, (2, 1, 1), "clique"),
        ),
        _sampled("verify_partition_bound", show_construction=False),
        trials=20_000,
    ),
    "random-matching": Suite(
        (
            (8, 2, 1, (1, 1), "cover"),
            (8, 2, 1, (2, 1), "empty-then-full"),
            (9, 2, 2, (1, 1, 1), "cover"),
            (12, 3, 1, (2, 1), "cover"),
        ),
        _sampled("verify_random_matching_bound", show_construction=True),
        trials=20_000,
    ),
    # (n, k, s, p)
    "conj1": Suite(
        tuple(
            (n, k, s, p)
            for p in (1, 2, 3)
            for k, s, first, last in _CONJ1_BLOCKS
            for n in range(first, last + 1)
        ),
        _conj1,
        searches=True,
    ),
    # (n, k, s)
    "conj2": Suite(
        tuple((n, k, s) for k, s, first, last in _CONJ2_BLOCKS for n in range(first, last + 1)),
        _conj2,
        searches=True,
    ),
}
