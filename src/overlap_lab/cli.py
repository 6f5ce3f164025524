"""Command-line front end: formula sweeps, extremal search, verification suites.

Exit codes: 0 pass, 1 violation found, 2 usage error, 3 resource limit.
Reports are deterministic: the same configuration (including seed) yields
byte-identical output files.  While a sweep runs, finished rows stream to
the output path as JSON lines; on completion the path is rewritten as a
single JSON document {tool_version, config, rows, summary} (or kept as CSV
with a fixed header).  --resume <file> reuses its finished rows and computes
incomplete ones again; for verify a row is one suite of suites.SUITES.  A
resume file written under another configuration is a usage error; only the
grid (bounds and search cells, the verify suite) and the limits may differ;
a verify row is reused only if it keeps its suite's rows exactly when this
selection would, so a resume across selections writes the same bytes.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction
from itertools import product

from . import __version__
from . import bounds as _bounds
from . import search as _search
from .family import NodeLimitError, reduce_to_weighted
from .suites import SUITES, run_suite

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

# the grid axes of `bounds`; a formula reads those among them in its params
BOUNDS_AXES = ("n", "k", "m", "p", "s", "i", "l")

# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def parse_range(spec: str) -> list[int]:
    """Inclusive ranges `a..b` and comma lists `a,b,c` (mixable)."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise ValueError(f"empty grid spec {spec!r}")
    return out


def parse_weights(spec: str) -> tuple[Fraction, ...]:
    """Comma-separated integers or a/b rationals."""
    ws = tuple(_bounds.parse_weight(part) for part in spec.split(",") if part.strip())
    if not ws:
        raise ValueError(f"empty weight spec {spec!r}")
    return ws


def _arg(parse):
    """An argparse type that reports parse's ValueError as a usage error, message unchanged."""

    def convert(spec: str):
        try:
            return parse(spec)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="overlap-lab",
        description="Exact solver and verification suites for overlapping-chain extremal values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--resume", metavar="FILE", help="skip rows already present in FILE (json only)")

    p_bounds = sub.add_parser("bounds", help="evaluate a named formula over a grid")
    add_report(p_bounds)
    p_bounds.add_argument("--name", required=True, choices=sorted(_bounds.FORMULAS))
    for axis in BOUNDS_AXES:
        p_bounds.add_argument(f"--{axis}", type=_arg(parse_range))
    p_bounds.add_argument("--weights", type=_arg(parse_weights))

    p_search = sub.add_parser("search", help="exact extremal search over a grid")
    add_report(p_search)
    p_search.add_argument("--n", type=_arg(parse_range), required=True)
    p_search.add_argument("--k", type=_arg(parse_range), required=True)
    p_search.add_argument("--s", type=_arg(parse_range))
    p_search.add_argument("--weights", type=_arg(parse_weights))
    p_search.add_argument("--m", type=_arg(parse_range), help="use weights (m-s, 1, ..., 1)")
    p_search.add_argument("--solver", choices=("oracle", "shifted", "both"), default="shifted")
    p_search.add_argument("--jobs", type=int, default=1, help="parallel workers for grid cells")
    p_search.add_argument("--limit-nodes", type=int, default=None, help="work budget per solver call")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    add_report(p_verify)
    p_verify.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    p_verify.add_argument("--seed", type=int, default=None, help="RNG seed for randomized suites")
    p_verify.add_argument("--ci", action="store_true", help="require an explicit --seed for randomized suites")
    p_verify.add_argument("--limit-nodes", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None, help="trial count for randomized suites")

    p_match = sub.add_parser("matching", help="matching numbers of a family or chain file")
    p_match.add_argument("--family", metavar="FILE", help="family JSON file")
    p_match.add_argument("--chain", metavar="FILE", help="chain JSON file")

    return parser


# ---------------------------------------------------------------------------
# deterministic report writing with row streaming and resume
# ---------------------------------------------------------------------------

def _canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ReportWriter:
    """Streams rows; finalizes to a canonical JSON document or CSV table.

    Use it in a with statement: a run that fails closes the stream and
    leaves the rows written so far on disk for --resume.  fill opens a JSON
    --out only once every resumed row has passed; finalize writes --out
    through a temporary file and a rename (a CSV --out only then), else stdout.
    """

    def __init__(self, fmt: str, out: str | None, config: dict, resume: str | None):
        self.fmt = fmt
        self.out = out
        self.config = config
        self.rows: list[dict] = []
        self._done: dict[str, dict] = {}
        self._stream = None
        if resume:
            self._load_resume(resume)

    def __enter__(self) -> "ReportWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._stream:
            self._stream.close()

    def _load_resume(self, path: str) -> None:
        if not os.path.exists(path):
            return
        text = _read_text(path, "resume")
        rows: list = []
        config = {}
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated tail line
                if isinstance(obj, dict) and "cell" in obj:
                    rows.append(obj)
                elif isinstance(obj, dict) and "config" in obj:
                    config = obj["config"]
        else:
            rows = doc.get("rows", []) if isinstance(doc, dict) else None
            if not isinstance(rows, list):
                raise ValueError(f"resume file {path!r} is not a report with a list of rows")
            config = doc.get("config", {})
        if not isinstance(config, dict):
            raise ValueError(f"resume file {path!r} holds a config that is not an object")
        # only the grid (rows are found by cell) and the node limit, on which no finished row depends, may differ
        for key in sorted(config.keys() & self.config.keys() - {"cells", "suite", "limit_nodes"}):
            theirs, mine = config[key], self.config[key]
            if theirs != mine:
                raise ValueError(f"resume file {path!r} was written with {key} = {theirs!r}, not {mine!r}")
        for row in rows:
            if not isinstance(row, dict):
                raise ValueError(f"resume file {path!r} holds a row that is not an object")
            if "cell" in row:
                if not isinstance(row["cell"], str):
                    raise ValueError(f"resume file {path!r} holds a row whose cell is not a string")
                self._done[row["cell"]] = row

    def fill(self, cells, key, compute, valid, jobs: int = 1, reusable=None):
        """Emit and yield each cell's row in order: its finished resumed row, else compute(cell).

        A finished resumed row that valid rejects is a usage error, not computed
        again; one that reusable (if given) rejects is computed again.
        """
        reused = {}
        for cell in cells:
            row = self._done.get(key(cell))
            if row is not None and row.get("status") != "incomplete":
                if not valid(row):
                    raise ValueError(f"resume file holds a malformed row for cell {key(cell)}")
                if reusable is None or reusable(row):
                    reused[key(cell)] = row
        if self.out and self.fmt == "json":
            self._stream = open(self.out, "w", encoding="utf-8")
            self._stream.write(_canon({"tool_version": __version__, "config": self.config}) + "\n")
        computed = _run_cells([cell for cell in cells if key(cell) not in reused], compute, jobs)
        for cell in cells:
            row = reused.get(key(cell)) or next(computed)
            self.rows.append(row)
            if self._stream:
                self._stream.write(_canon(row) + "\n")
                self._stream.flush()
            yield row

    def finalize(self, summary: dict) -> None:
        if self.fmt == "json":
            doc = {
                "tool_version": __version__,
                "config": self.config,
                "rows": self.rows,
                "summary": summary,
            }
            payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        else:
            header: list[str] = []
            for row in self.rows:
                for key in row:
                    if key not in header:
                        header.append(key)
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            for row in self.rows:
                writer.writerow([_csv_cell(row.get(h)) for h in header])
            payload = buf.getvalue()
        if self.out:
            if self._stream:
                self._stream.close()
            tmp = self.out + ".tmp"
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(payload)
                os.replace(tmp, self.out)
            except OSError as exc:
                if os.path.isfile(tmp):
                    os.remove(tmp)
                # the error names --out, not the temporary file beside it
                raise OSError(exc.errno, exc.strerror, self.out) from exc
        else:
            sys.stdout.write(payload)
        if self.fmt == "csv":
            print(f"# summary: {_canon(summary)}", file=sys.stderr)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return _canon(value)
    return value


def _run_cells(cells, worker, jobs: int):
    """Map worker over cells, preserving order; optional process pool."""
    if jobs > 1:
        # imported here, so that runs without a pool skip its import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(worker, cells)
    else:
        yield from map(worker, cells)


# ---------------------------------------------------------------------------
# bounds subcommand
# ---------------------------------------------------------------------------

def _bounds_cells(args) -> list[dict]:
    spec = _bounds.FORMULAS[args.name]
    cells = [{}]
    for pname in spec.params:
        values = getattr(args, pname)
        if values is None:
            raise ValueError(f"formula {args.name!r} needs --{pname}")
        if pname == "weights":
            values = [[str(w) for w in values]]  # one vector, not an axis
        cells = [dict(c, **{pname: v}) for c in cells for v in values]
    if "s" in spec.params and "weights" in spec.params and set(args.s) != {len(args.weights) - 1}:
        raise ValueError(f"--weights fix s = {len(args.weights) - 1}, got --s {args.s}")
    return cells


def cmd_bounds(args) -> int:
    cells = _bounds_cells(args)
    config = {"command": "bounds", "name": args.name, "cells": len(cells)}

    def compute(cell: dict) -> dict:
        params = dict(cell, weights=args.weights) if "weights" in cell else cell
        return {"cell": _canon(cell), **_bounds.evaluate_bound(args.name, **params)}

    with ReportWriter(args.format, args.out, config, args.resume) as writer:
        # a closed form is cheap, so a resumed row is checked by computing it again
        rows = list(writer.fill(cells, _canon, compute, lambda row: row == compute(json.loads(row["cell"]))))
        writer.finalize({"rows": len(rows), "status": "pass"})
    return EXIT_PASS


# ---------------------------------------------------------------------------
# search subcommand
# ---------------------------------------------------------------------------

def _search_one(cell: dict) -> dict:
    n, k, s, weights = cell["n"], cell["k"], cell["s"], cell["weights"]
    out = {"cell": cell["key"], "n": n, "k": k, "s": s, "weights": weights}
    if cell["m"] is not None:
        out["m"] = cell["m"]
    try:
        if cell["solver"] in ("oracle", "both"):
            out["oracle"] = _search.oracle_f(n, k, s, weights, limit_nodes=cell["limit_nodes"]).to_dict()
        if cell["solver"] in ("shifted", "both"):
            out["shifted"] = _search.exact_f_shifted(n, k, s, weights, limit_nodes=cell["limit_nodes"]).to_dict()
        if cell["solver"] == "both":
            out["solvers_agree"] = out["oracle"]["optimum"] == out["shifted"]["optimum"]
        out["status"] = "ok" if out.get("solvers_agree", True) else "VIOLATION"
        out["optimum"] = (out.get("shifted") or out["oracle"])["optimum"]
    except NodeLimitError as exc:
        out["status"] = "incomplete"
        out["error"] = str(exc)
    return out


def cmd_search(args) -> int:
    if args.weights is None and args.m is None:
        raise ValueError("search needs --weights or --m")
    if args.weights is not None and args.m is not None:
        raise ValueError("--weights and --m are mutually exclusive")
    if args.m is not None:
        vectors = [(s, m, reduce_to_weighted(m, s)) for s in args.s or [1] for m in args.m]
    else:
        s = len(args.weights) - 1
        if args.s and args.s != [s]:
            raise ValueError("--s must match the weight vector length minus one")
        vectors = [(s, None, args.weights)]
    run = {"solver": args.solver, "limit_nodes": args.limit_nodes}
    cells = []
    for n, k, (s, m, ws) in product(args.n, args.k, vectors):
        grid = {"n": n, "k": k, "s": s, "m": m, "weights": [str(w) for w in ws]}
        cells.append({**grid, "key": _canon(grid), **run})
    config = {
        "command": "search",
        "solver": args.solver,
        "cells": [c["key"] for c in cells],
        "limit_nodes": args.limit_nodes,
    }
    with ReportWriter(args.format, args.out, config, args.resume) as writer:
        done = ("ok", "VIOLATION")
        rows = writer.fill(cells, lambda c: c["key"], _search_one, lambda r: r.get("status") in done, args.jobs)
        statuses = [row["status"] for row in rows]
        bad = len(statuses) - statuses.count("ok")
        writer.finalize({"rows": len(statuses), "violations": bad, "status": "pass" if bad == 0 else "fail"})
    return EXIT_LIMIT if "incomplete" in statuses else EXIT_VIOLATION if bad else EXIT_PASS


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    needs_seed = any(SUITES[name].trials is not None for name in names)
    if args.ci and needs_seed and args.seed is None:
        raise ValueError("--ci requires an explicit --seed for randomized suites")
    seed = args.seed if args.seed is not None else 0
    config = {
        "command": "verify",
        "suite": args.suite,
        "seed": seed if needs_seed else None,
        "trials": args.trials,
    }

    def keeps_rows(summary: dict) -> bool:
        # under --suite all a passing suite keeps only its summary
        return summary["status"] != "pass" or args.suite != "all"

    def compute(name: str) -> dict:
        report = run_suite(name, trials=args.trials, seed=seed, limit_nodes=args.limit_nodes)
        summary = report["summary"]
        row = {"cell": _canon({"suite": name}), "suite": name, "summary": summary, "status": summary["status"]}
        if keeps_rows(summary):
            row["rows"] = report["rows"]
        return row

    def valid(row: dict) -> bool:
        summary = row.get("summary")
        return isinstance(summary, dict) and "status" in summary and _is_int(summary.get("violations", 0))

    def reusable(row: dict) -> bool:
        # a row written under another selection may keep rows where this one drops them, or the reverse
        return ("rows" in row) == keeps_rows(row["summary"])

    total_viol = 0
    with ReportWriter(args.format, args.out, config, args.resume) as writer:
        suite_rows = writer.fill(names, lambda name: _canon({"suite": name}), compute, valid, reusable=reusable)
        for name, row in zip(names, suite_rows):
            summary = row["summary"]
            total_viol += summary.get("violations", 0)
            print(f"[verify] {name}: {summary['status']} ({_canon(summary)})", file=sys.stderr)
        # a suite can fail with no violations (cyclic on its identity), so each suite's status counts
        status = "fail" if total_viol or any(row["summary"]["status"] != "pass" for row in writer.rows) else "pass"
        writer.finalize({"suites": len(names), "violations": total_viol, "status": status})
    return EXIT_PASS if status == "pass" else EXIT_VIOLATION


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path!r}: {exc.strerror}") from exc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_sets(sets) -> bool:
    return isinstance(sets, list) and all(isinstance(t, list) and all(map(_is_int, t)) for t in sets)


_FILE_SHAPES = {
    "family": '{"n": int, "k": int, "sets": [[int, ...], ...]}',
    "chain": (
        '{"n": int, "k": int, "families": [sets, ...], '
        '"weights": [int | float | "a/b", ...] (optional)}'
    ),
}


def _load_input(path: str, what: str) -> dict:
    """The JSON object of a family or chain file, rejected unless it has that shape."""
    try:
        doc = json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path!r} is not JSON: {exc}") from exc
    ok = isinstance(doc, dict) and _is_int(doc.get("n")) and _is_int(doc.get("k"))
    if ok and what == "family":
        ok = _is_sets(doc.get("sets"))
    elif ok:
        families, weights = doc.get("families"), doc.get("weights")
        # the weights themselves are checked by bounds.parse_weight as the chain is built
        ok = (
            isinstance(families, list)
            and all(map(_is_sets, families))
            and (weights is None or isinstance(weights, list))
        )
    if not ok:
        raise ValueError(f"{what} file {path!r} is not of the form {_FILE_SHAPES[what]}")
    return doc


def cmd_matching(args) -> int:
    from .family import chain_from_dict, family_from_dict
    from .matching import is_overlapping, matching_number, rainbow_matching_number

    if bool(args.family) == bool(args.chain):
        raise ValueError("matching needs exactly one of --family or --chain")
    if args.family:
        fam = family_from_dict(_load_input(args.family, "family"))
        out = {
            "n": fam.n,
            "k": fam.k,
            "size": len(fam),
            "matching_number": matching_number(fam),
        }
    else:
        chain = chain_from_dict(_load_input(args.chain, "chain"))
        out = {
            "n": chain.n,
            "k": chain.k,
            "s": chain.s,
            "sizes": [len(f) for f in chain.families],
            "rainbow_matching_number": rainbow_matching_number(chain.families),
            "is_overlapping": is_overlapping(chain),
        }
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_PASS


def _validate_limits(args) -> None:
    """Refuse a count flag below 1."""
    for name in ("jobs", "limit_nodes", "trials"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be positive")


def _unread_flag(args) -> str | None:
    """The first flag given that the selection does not read, as a message.

    verify's --trials and --seed are read by randomized suites and
    --limit-nodes by suites that search; bounds reads the axes its formula
    takes.  search reads each of its flags under every selection.
    """
    if args.command == "verify":
        suites = list(SUITES.values()) if args.suite == "all" else [SUITES[args.suite]]
        randomized = any(suite.trials is not None for suite in suites)
        searches = any(suite.searches for suite in suites)
        reads = {"trials": randomized, "seed": randomized, "limit_nodes": searches}
        selection = f"suite {args.suite!r}"
    elif args.command == "bounds":
        params = _bounds.FORMULAS[args.name].params
        reads = {flag: flag in params for flag in (*BOUNDS_AXES, "weights")}
        selection = f"formula {args.name!r}"
    else:
        return None
    for flag, read in reads.items():
        if getattr(args, flag) is not None and not read:
            return f"--{flag.replace('_', '-')} is not read by {selection}"
    return None


COMMANDS = {"bounds": cmd_bounds, "search": cmd_search, "verify": cmd_verify, "matching": cmd_matching}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", None) and args.format == "csv":
        parser.error("--resume reads the json stream; it cannot be combined with --format csv")
    try:
        _validate_limits(args)
        problem = _unread_flag(args)
        if problem:
            parser.error(problem)
        return COMMANDS[args.command](args)
    except NodeLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
