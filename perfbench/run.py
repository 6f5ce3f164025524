"""overlap-lab benchmark: one command, four workloads, exact checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0

Each batch runs in a fresh worker process (``perfbench/worker.py``) with
``src`` on PYTHONPATH and OVERLAP_LAB_CACHE removed, so the on-disk
downset cache can neither speed up nor corrupt a run.  Workers run one at
a time; the program itself runs with one job and no pool.

--trace 0 reports the end-to-end metrics: the batch wall time
(``wall_s``) and the set-up time from process spawn to the first timed call
(``setup_s``), both rescaled to a fixed host speed (see
``normalised_batch_s``), and the median peak RSS of the batch processes
(``peak_rss_mb``).  --trace 1
alternates plain and traced workers and reports the per-layer metrics; the
frontier ladders of the workload's solver run afterwards.  The last stdout line is the JSON result; a record
with the environment, the deterministic counts and the spans goes to
``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oracle", "shifted", "downsets", "harness")
MIN_BATCHES = 3
MIN_TRACED_BATCHES = 2
SETUP_SAMPLES = 9
# a run must end within 180 s: no new batch starts after RUN_BUDGET_S, the
# frontier ladders are cut off at FRONTIER_DEADLINE_S and any worker still
# running at RUN_DEADLINE_S is killed
RUN_BUDGET_S = 110
FRONTIER_DEADLINE_S = 165
RUN_DEADLINE_S = 170
# frontier ladders per solver, split over two processes of similar length
FRONTIER_SPLIT = {
    "oracle": ("k2s2,k2s1", "k3s1,k3s2"),
    "shifted": ("k2s1,k2s2", "k3s1,k3s2"),
}
FRONTIER_LADDERS = ("k2s1", "k2s2", "k3s1", "k3s2")


class BenchError(RuntimeError):
    pass


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


class Runner:
    def __init__(self, root: str, workload: str, seed: int, workdir: str, started: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = started
        env = dict(os.environ)
        env.pop("OVERLAP_LAB_CACHE", None)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env

    def _spawn(self, argv: list[str]) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )

    def _collect(self, proc: subprocess.Popen, timeout: float) -> tuple[list[str], bool]:
        """Stdout lines of a worker, and whether it exited cleanly within `timeout`."""
        # a timer kills an overrunning worker, which ends the blocking read at EOF
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
        return stdout.splitlines(), proc.returncode == 0

    def batch(self, trace: bool = False, setup_only: bool = False) -> tuple[float, dict]:
        """Run one worker; returns (set-up seconds, worker result)."""
        argv = ["batch", "--workload", self.workload, "--seed", str(self.seed), "--workdir", self.workdir]
        if trace:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        t0 = time.perf_counter()
        proc = self._spawn(argv)
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if line.strip() != "ready":
                raise BenchError("worker failed during set-up")
            lines, ok = self._collect(proc, self.started + RUN_DEADLINE_S - time.perf_counter())
            if not ok or not lines:
                raise BenchError(f"batch worker failed or was still running {RUN_DEADLINE_S} s into the run")
            return setup, json.loads(lines[-1])
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def frontier(self) -> tuple[dict, bool]:
        """Frontier table from two ladder workers; False if the deadline cut a ladder off."""
        procs = [
            self._spawn(["frontier", "--solver", self.workload, "--ladders", part])
            for part in FRONTIER_SPLIT[self.workload]
        ]
        deadline = self.started + FRONTIER_DEADLINE_S
        out, complete = {}, True
        try:
            for proc in procs:
                lines, ok = self._collect(proc, deadline - time.perf_counter())
                complete = complete and ok
                for line in lines:  # one JSON object per finished ladder
                    out.update(json.loads(line))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return out, complete


def _run_batches(runner: Runner, seconds: float, trace: bool) -> tuple[list, list]:
    """Batches until `seconds` of measuring are used; traced runs alternate plain and traced."""
    plain, traced = [], []
    durations = []
    while True:
        want_trace = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        setup, result = runner.batch(trace=want_trace)
        durations.append(time.perf_counter() - t0)
        (traced if want_trace else plain).append((setup, result))
        enough = len(plain) >= (MIN_TRACED_BATCHES if trace else MIN_BATCHES) and (
            not trace or len(traced) >= MIN_TRACED_BATCHES
        )
        elapsed = time.perf_counter() - runner.started
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        if elapsed > RUN_BUDGET_S:
            break
    return plain, traced


def normalised_batch_s(results: list[dict], reference: float) -> float:
    """Batch time at the reference speed: each op's median normalised time, summed.

    An op's normalised time is its wall time divided by the mean of the
    calibration loop times taken just before and just after it, times
    `reference`, the loops' time at full speed (see calibration.py).  Every
    process of a run gets the same inputs, so op i is the same call in each,
    and the median over processes drops outliers.
    """
    per_process = [
        [t / ((c0 + c1) / 2) for t, c0, c1 in zip(r["op_s"], r["cal_s"], r["cal_s"][1:])] for r in results
    ]
    return reference * sum(statistics.median(ratios) for ratios in zip(*per_process))


def normalised_setup_s(setups: list[tuple[float, dict]], reference: float) -> float:
    """Median set-up time at the reference speed, from each worker's first calibration."""
    return reference * statistics.median(s / r["cal_s"][0] for s, r in setups)


def _deterministic(results: list[dict], key: str) -> bool:
    return all(r[key] == results[0][key] for r in results[1:])


def _layer_metrics(traced: list[dict], plain_wall: float, reference: float, frontier: dict) -> tuple[dict, list[dict]]:
    """Per-layer metrics (medians over traced workers) and each worker's deterministic counts."""
    per_worker, counts = [], []
    for res in traced:
        tr = res["trace"]
        span, self_s, calls, secs = tr["span_s"], tr["span_self_s"], tr["calls"], tr["seconds"]
        keys = [tuple(k) for k in tr["downset_keys"]]
        ds_calls = len(keys)
        draws = calls.get("cyclic.sampler.draws", 0)
        accepted = calls.get("cyclic.random_overlapping_arc_chain", 0)
        o_s, f_s = span.get("search.oracle_f", 0.0), span.get("search.exact_f_shifted", 0.0)
        o_n, f_n = res["nodes"]["oracle"], res["nodes"]["shifted"]
        m = {
            "search.oracle_f.s": o_s,
            "search.oracle_f.nodes": o_n,
            "search.oracle_f.nodes_per_s": o_n / o_s if o_s else 0.0,
            "search.exact_f_shifted.s": f_s,
            "search.exact_f_shifted.self_s": self_s.get("search.exact_f_shifted", 0.0),
            "search.exact_f_shifted.nodes": f_n,
            "search.exact_f_shifted.nodes_per_s": f_n / f_s if f_s else 0.0,
            "search.best_construction.s": span.get("search.best_construction", 0.0),
            "search.hunt_conjectures.s": span.get("search.hunt_conjectures", 0.0),
            "family.downset_bitsets.s": span.get("family.downset_bitsets", 0.0),
            "family.downset_bitsets.calls": ds_calls,
            "family.downset_bitsets.downsets": tr["downsets"],
            "family.downset_bitsets.repeat_share": (ds_calls - len(set(keys))) / ds_calls if ds_calls else 0.0,
            "family.construction_chain.s": span.get("family.construction_chain", 0.0),
            "cyclic.run_cyclic_suite.s": span.get("cyclic.run_cyclic_suite", 0.0),
            "cyclic.verify_partition_bound.s": span.get("cyclic.verify_partition_bound", 0.0),
            "cyclic.verify_random_matching_bound.s": span.get("cyclic.verify_random_matching_bound", 0.0),
            "cyclic.random_overlapping_arc_chain.s": secs.get("cyclic.random_overlapping_arc_chain", 0.0),
            "cyclic.sampler.draws": draws,
            "cyclic.sampler.acceptance": accepted / draws if draws else 0.0,
            "bounds.s": secs.get("bounds", 0.0),
            "bounds.calls": calls.get("bounds", 0),
            "cli.main.s": span.get("cli.main", 0.0),
            "cli.self_s": self_s.get("cli.main", 0.0),
            "cli.report_bytes": tr["report_bytes"],
        }
        for name in (
            "family.Family.from_masks",
            "matching.is_overlapping",
            "matching.has_matching_of_size",
            "matching.min_vertex_cover",
            "combinatorics.binom",
            "combinatorics.colex_rank",
        ):
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.s"] = secs.get(name, 0.0)
        per_worker.append(m)
        counts.append({k: v for k, v in m.items() if isinstance(v, int)})
    metrics = {}
    for name in per_worker[0]:
        values = [m[name] for m in per_worker]
        metrics[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
    # layer times are medians over traced batches, so their shares are taken of the median
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_share"] = normalised_batch_s(traced, reference) / plain_wall - 1.0
    # frontier rows are measured only in the traced run of their own solver's workload
    for solver in FRONTIER_SPLIT:
        for ladder in FRONTIER_LADDERS:
            for suffix in ("", ".nodes"):
                name = f"search.frontier.{solver}.{ladder}{suffix}"
                metrics[name] = frontier.get(name, 0)
    return metrics, counts


def _print_layer_table(metrics: dict) -> None:
    wall = metrics["trace.wall_s"]
    print(f"traced batch wall {wall:.3f} s; share of it per layer (inclusive):")
    for name in (
        "search.oracle_f.s",
        "search.exact_f_shifted.s",
        "search.hunt_conjectures.s",
        "family.downset_bitsets.s",
        "matching.has_matching_of_size.s",
        "cli.main.s",
        "cyclic.run_cyclic_suite.s",
        "cyclic.verify_partition_bound.s",
        "cyclic.verify_random_matching_bound.s",
        "combinatorics.binom.s",
        "matching.is_overlapping.s",
    ):
        print(f"  {name:42s} {metrics[name]:9.3f} s  {metrics[name] / wall if wall else 0.0:6.1%}")


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "overlap_lab", "__init__.py")):
        raise BenchError("run from the root of an overlap-lab checkout (src/overlap_lab not found)")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    started = time.perf_counter()
    workdir = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    runner = Runner(root, args.workload, args.seed, workdir, started)
    env = _environment()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        plain, traced = _run_batches(runner, args.seconds, bool(args.trace))
        setups = list(plain)
        if not args.trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.batch(setup_only=True))
        frontier, frontier_complete = {}, True
        if args.trace and args.workload in FRONTIER_SPLIT:
            frontier, frontier_complete = runner.frontier()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    results = [r for _, r in plain + traced]
    failures = sorted({f for r in results for f in r["failures"]})
    # the same inputs must give the same node counts, optima and report bytes in every process
    for key in ("fingerprints", "nodes"):
        if not _deterministic(results, key):
            failures.append(f"{key} differ between processes with the same inputs")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    reference = calibration.reference_s(args.workload)
    plain_wall = normalised_batch_s([r for _, r in plain], reference)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "batches": len(plain),
        "traced_batches": len(traced),
        "batch_wall_s": [r["wall_s"] for _, r in plain],
        "op_s": [r["op_s"] for _, r in plain],
        "cal_s": [r["cal_s"] for _, r in plain],
        "setup_s": [s for s, _ in setups],
        "maxrss_kb": [r["maxrss_kb"] for _, r in plain],
        "nodes": results[0]["nodes"],
        "failures": failures,
    }
    if args.trace:
        metrics, counts = _layer_metrics([r for _, r in traced], plain_wall, reference, frontier)
        if any(c != counts[0] for c in counts):
            failures.append("deterministic counts differ between traced processes with the same inputs")
        counts = counts[0]
        record["counts"] = counts
        record["frontier"] = frontier
        record["frontier_complete"] = frontier_complete
        if not frontier_complete:
            print("frontier: deadline reached; unfinished ladders read 0")
        record["spans"] = [r["trace"]["spans"] for _, r in traced]
        untraced = traced[0][1]["trace"]["untraced"]
        if untraced:
            print("trace: not found in the program, reading 0: " + ", ".join(untraced))
        _print_layer_table(metrics)
        print("counts " + json.dumps(counts, sort_keys=True))
    else:
        metrics = {
            "wall_s": plain_wall,
            "setup_s": normalised_setup_s(setups, reference),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for _, r in plain) / 1024,
        }
        print("counts " + json.dumps({"nodes": record["nodes"]}, sort_keys=True))
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    walls = sorted(record["batch_wall_s"])
    print(
        f"batches {len(walls)}: batch wall median {statistics.median(walls):.3f} s, "
        f"max {walls[-1]:.3f} s, at reference speed {plain_wall:.3f} s; "
        f"set-up median {statistics.median(record['setup_s']):.3f} s over {len(record['setup_s'])}"
    )
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} ops failed)")
    for line in failures[:10]:
        print(f"FAILED {line}")
    return {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
