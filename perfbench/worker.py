"""One benchmark process: set up a workload batch, run it once, report JSON.

Run by run.py, never directly.  Protocol on stdout:

1. the line ``ready`` once the package is imported and the inputs and
   reference values are built (run.py timestamps it for ``setup_s``);
2. one JSON object with the batch's wall time, each op's time, the
   calibration loop times taken before the first op and after every op, op
   outcomes, deterministic fingerprints, peak RSS and, in a traced process,
   the layer figures.

``frontier`` mode instead climbs node-budget ladders and prints one JSON
object per finished ladder.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

FRONTIER_NODE_BUDGET = 2_000_000
FRONTIER_MAX_N = 40


def _batch(args) -> dict:
    import workloads  # imports overlap_lab
    from calibration import calibrate

    ops = workloads.build(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    # the first loop also gives the host speed during set-up
    cal_s = [calibrate(args.workload)]
    if args.setup_only:
        return {"cal_s": cal_s}

    tracer, untraced = None, []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        untraced = tracing.install(tracer)

    results, op_s = [], []
    clock = time.perf_counter
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op = idx
        t0 = clock()
        try:
            results.append(op.run())
        except Exception as exc:  # an op that raises counts as failed
            results.append(exc)
        op_s.append(clock() - t0)
        cal_s.append(calibrate(args.workload))

    from overlap_lab.search import ExtremalRecord

    attempted = failed = 0
    failures, fingerprints = [], []
    nodes = {"oracle": 0, "shifted": 0}
    report_bytes = 0
    for op, result in zip(ops, results):
        attempted += op.rows
        if isinstance(result, Exception):
            failed += op.rows
            failures.append(f"{op.label}: {type(result).__name__}: {result}")
            fingerprints.append(None)
            continue
        try:
            outcomes = op.check(result)
        except Exception as exc:  # a malformed result fails every row of the op
            outcomes = [(f"check raised {type(exc).__name__}: {exc}", False)] * op.rows
        if len(outcomes) != op.rows:
            failed += op.rows
            failures.append(f"{op.label}: {len(outcomes)} outcomes, expected {op.rows}")
        else:
            bad = [name for name, ok in outcomes if not ok]
            failed += len(bad)
            failures += [f"{op.label}: {name}" for name in bad]
        fingerprints.append(workloads.fingerprint(result))
        if isinstance(result, ExtremalRecord):
            nodes[result.solver] += result.nodes_explored
        if isinstance(result, tuple):
            report_bytes += len(result[1])

    out = {
        "wall_s": sum(op_s),
        "op_s": op_s,
        "cal_s": cal_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "fingerprints": fingerprints,
        "nodes": nodes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        total, self_s = tracer.span_totals()
        out["trace"] = {
            "span_s": total,
            "span_self_s": self_s,
            "calls": dict(tracer.calls),
            "seconds": dict(tracer.seconds),
            "downset_keys": tracer.downset_keys,
            "downsets": tracer.downsets,
            "report_bytes": report_bytes,
            "untraced": untraced,
            "spans": tracer.spans,
        }
    return out


def _frontier(args) -> None:
    """Print one JSON object per ladder as it finishes, so a deadline keeps the finished ones."""
    from overlap_lab import search
    from overlap_lab.family import DownsetLimitError

    solver = {"oracle": search.oracle_f, "shifted": search.exact_f_shifted}[args.solver]
    for ladder in args.ladders.split(","):
        k, s = int(ladder[1]), int(ladder[3])
        closed, closed_nodes = 0, 0
        for n in range(k + 1, FRONTIER_MAX_N + 1):
            try:
                rec = solver(n, k, s, (1,) * (s + 1), limit_nodes=FRONTIER_NODE_BUDGET)
            except (search.NodeLimitError, search.InstanceTooLargeError, DownsetLimitError):
                break  # not closed within the budget: the ladder ends here
            closed, closed_nodes = n, rec.nodes_explored
        name = f"search.frontier.{args.solver}.{ladder}"
        print(json.dumps({name: closed, f"{name}.nodes": closed_nodes}), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_batch = sub.add_parser("batch")
    p_batch.add_argument("--workload", required=True)
    p_batch.add_argument("--seed", type=int, required=True)
    p_batch.add_argument("--workdir", required=True)
    p_batch.add_argument("--trace", action="store_true")
    p_batch.add_argument("--setup-only", action="store_true")
    p_front = sub.add_parser("frontier")
    p_front.add_argument("--solver", choices=("oracle", "shifted"), required=True)
    p_front.add_argument("--ladders", required=True, help="comma list such as k2s1,k3s2")
    args = parser.parse_args()
    if args.mode == "batch":
        print(json.dumps(_batch(args)), flush=True)
    else:
        _frontier(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
