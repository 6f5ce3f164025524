"""Traced runs: wrap overlap_lab's public functions at every import site.

Each wrapped function is rebound in every overlap_lab module namespace that
holds it (``search.downset_bitsets``, ``cyclic.binom``, ...), so calls made
through module globals, including intra-module ones, go through the wrapper.
Nothing inside ``src/`` is edited.

Two kinds of wrapper:

* span: records (name, start, end, parent span, op id) per call; kept in
  memory and written out when the worker ends.  Used at layer boundaries
  that are called at most a few thousand times per batch.
* counter: a call count and a cumulative inclusive timer per name, for hot
  primitives (``binom`` is called millions of times per harness batch).
  Re-entrant calls of one name add to the count but not twice to the time.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Qualified names are "<module>.<attr>" or "<module>.<Class>.<method>"
# relative to the overlap_lab package.
SPANS = (
    "search.oracle_f",
    "search.exact_f_shifted",
    "search.best_construction",
    "search.hunt_conjectures",
    "search.max_min_overlapping",
    "family.downset_bitsets",
    "family.construction_chain",
    "cyclic.run_cyclic_suite",
    "cyclic.verify_partition_bound",
    "cyclic.verify_random_matching_bound",
    "cli.main",
)
COUNTERS = (
    "combinatorics.binom",
    "combinatorics.colex_rank",
    "family.Family.from_masks",
    "matching.is_overlapping",
    "matching.has_matching_of_size",
    "matching.min_vertex_cover",
    "cyclic.random_overlapping_arc_chain",
)
# every public function of the bounds module shares one counter
BOUNDS_GROUP = "bounds"
# rejection-sampler draws: overlap checks made while the sampler is active
SAMPLER = "cyclic.random_overlapping_arc_chain"
SAMPLER_DRAWS = "cyclic.sampler.draws"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._open: list[int] = []
        self.op: int | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.downset_keys: list[tuple[int, int]] = []
        self.downsets = 0

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)

        return wrapper

    def counter(self, name: str, fn, extra=None):
        calls, seconds, depth, clock = self.calls, self.seconds, self.depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if extra is not None:
                extra()
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                depth[name] = 0

        return wrapper

    def _count_draw(self) -> None:
        if self.depth[SAMPLER]:
            self.calls[SAMPLER_DRAWS] += 1

    def downset_span(self, fn):
        """Span around downset_bitsets that also records (n, k) and the count returned."""
        inner = self.span("family.downset_bitsets", fn)

        @functools.wraps(fn)
        def wrapper(n, k, *args, **kwargs):
            out = inner(n, k, *args, **kwargs)
            self.downset_keys.append((n, k))
            self.downsets += len(out)
            return out

        return wrapper

    # -- aggregation ---------------------------------------------------------

    def span_totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for idx, (name, t0, t1, _parent, _op) in enumerate(self.spans):
            total[name] += t1 - t0
            self_s[name] += (t1 - t0) - child_time[idx]
        return total, self_s


def _modules(package: str = "overlap_lab") -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]


def _rebind(original, replacement, modules) -> int:
    """Replace every module-global binding of `original`; returns the number of sites."""
    sites = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                sites += 1
    return sites


def install(tracer: Tracer) -> list[str]:
    """Wrap the functions named above in every imported overlap_lab module.

    Returns the names that no longer exist or have no import site; their
    metrics then read 0 instead of failing the run.
    """
    import overlap_lab  # noqa: F401  (imports every submodule)
    from overlap_lab import bounds

    modules = _modules()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    missing = []

    for qualified in SPANS + COUNTERS:
        mod_name, attr = qualified.split(".", 1)
        owner = by_name.get(mod_name)
        if "." in attr:  # a classmethod such as Family.from_masks
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not isinstance(original, classmethod):
                missing.append(qualified)
                continue
            setattr(owner, attr, classmethod(tracer.counter(qualified, original.__func__)))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(qualified)
            continue
        if qualified == "family.downset_bitsets":
            wrapper = tracer.downset_span(original)
        elif qualified in SPANS:
            wrapper = tracer.span(qualified, original)
        else:
            extra = tracer._count_draw if qualified == "matching.is_overlapping" else None
            wrapper = tracer.counter(qualified, original, extra)
        if not _rebind(original, wrapper, modules):
            missing.append(qualified)

    for attr, value in list(vars(bounds).items()):
        if (
            callable(value)
            and not isinstance(value, type)
            and not attr.startswith("_")
            and getattr(value, "__module__", None) == bounds.__name__
        ):
            _rebind(value, tracer.counter(BOUNDS_GROUP, value), modules)
    return missing
