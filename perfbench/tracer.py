"""In-process tracing of the tcherry modules, from outside the program.

``Tracer`` wraps every public function of the six layer modules and the
public methods of ``MarginalCache``, in every ``tcherry`` module
namespace that holds them, and restores the originals on exit. The
functions in ``SPANNED`` record a span (name, start, end, parent span,
operation); the rest only count calls. ``SPANNED`` lists each layer's
entry points and the inner operations the benchmark reports on;
functions a layer only calls internally (``io.read_samples_csv`` inside
``io.load_table``) stay unspanned, so their time is the caller's self
time. Spans and counts stay in memory; the caller writes them out.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from typing import NamedTuple

import numpy as np

LAYERS = ("cli", "io", "distribution", "learner", "junction_tree", "scoring")

SPANNED = {
    "cli.main",
    "io.load_table", "io.write_counts_csv",
    "distribution.from_counts", "distribution.marginalize", "distribution.entropy",
    "learner.enumerate_candidates", "learner.fit_sk", "learner.fit_malvestuto",
    "learner.fit_chow_liu", "learner.fit_exhaustive", "learner.fit_to_dict",
    "learner.generate_tcherry_distribution",
    "junction_tree.add_hypercherry", "junction_tree.tree_from_dict",
    "junction_tree.puzzle_numbering", "junction_tree.graham_reduce",
    "junction_tree.first_rip_violation", "junction_tree.tree_to_json",
    "scoring.tree_weight", "scoring.check_recovery_conditions", "scoring.score_to_dict",
}

#: Span groups reported under one name.
GROUPS = {
    "learner.fit": ("learner.fit_sk", "learner.fit_malvestuto",
                    "learner.fit_chow_liu", "learner.fit_exhaustive"),
    "learner.generate": ("learner.generate_tcherry_distribution",),
    "junction_tree.validate": ("junction_tree.tree_from_dict", "junction_tree.puzzle_numbering",
                               "junction_tree.graham_reduce",
                               "junction_tree.first_rip_violation"),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """Context manager that patches the ``tcherry`` modules while active.

    One tracer covers one operation, numbered ``op``. ``calls`` counts
    calls per function; ``probes`` sums quantities read off arguments
    and results (cells reduced, candidates, comparisons, table bytes).
    """

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.probes: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"tcherry.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "tcherry" or name.startswith("tcherry."))]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._patch(ns, attr, wrappers[id(value)])
        cache_cls = sys.modules["tcherry.distribution"].MarginalCache
        for attr in ("marginal", "h", "info", "point"):
            self._patch(cache_cls, attr,
                        self._wrap(f"distribution.MarginalCache.{attr}", vars(cache_cls)[attr]))
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        return False

    def _patch(self, ns, attr, wrapper):
        self._patched.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, wrapper)

    def _wrap(self, name, fn):
        calls = self.calls
        if name not in SPANNED:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        probe = _PROBES.get(name)
        spans, stack, probes, clock = self.spans, self._stack, self.probes, time.perf_counter

        def spanned(*args, **kwargs):
            calls[name] += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.op)
            if probe is not None:
                key, value = probe(args, result)
                probes[key] = max(probes[key], value) if key in PEAK_PROBES \
                    else probes[key] + value
            return result
        return spanned


#: Quantities read per call: name -> (arguments, result) -> (key, amount).
#: An operation's amounts are summed, or for keys in PEAK_PROBES, maxed.
_PROBES = {
    "distribution.marginalize": lambda args, r: ("cells_reduced", args[0].probs.size),
    "io.load_table": lambda args, r: ("table_bytes", r.probs.nbytes),
    "learner.generate_tcherry_distribution": lambda args, r: ("table_bytes", r[0].probs.nbytes),
    "learner.enumerate_candidates": lambda args, r: ("candidates", len(r)),
    "scoring.check_recovery_conditions": lambda args, r: ("comparisons", r.checked),
}
PEAK_PROBES = {"table_bytes"}


#: Per-layer metrics and their units: ``layer_metrics`` gives all but the
#: last three, which the benchmark measures around the operation.
UNITS = {
    "cli.main.self_share": "ratio",
    "io.load_table.self_share": "ratio",
    "io.rows_per_s": "1/s",
    "io.write_counts_csv.share": "ratio",
    "distribution.from_counts.share": "ratio",
    "distribution.marginalize.calls": "count",
    "distribution.marginalize.share": "ratio",
    "distribution.marginalize.call_ms.p50": "ms",
    "distribution.marginalize.call_ms.p99": "ms",
    "distribution.marginalize.cells_reduced": "count",
    "distribution.entropy.calls": "count",
    "distribution.entropy.share": "ratio",
    "distribution.cache.marginal_hit_ratio": "ratio",
    "distribution.cache.h_hit_ratio": "ratio",
    "distribution.canonical_subset.calls": "count",
    "distribution.table_mib": "MiB",
    "learner.enumerate_candidates.self_share": "ratio",
    "learner.candidates": "count",
    "learner.fit.self_share": "ratio",
    "learner.generate.share": "ratio",
    "junction_tree.add_hypercherry.calls": "count",
    "junction_tree.add_hypercherry.share": "ratio",
    "junction_tree.validate.share": "ratio",
    "scoring.tree_weight.share": "ratio",
    "scoring.check_recovery_conditions.self_share": "ratio",
    "scoring.recovery.comparisons": "count",
    "op.traced_s": "s",
    "trace.overhead_s": "s",
    "process.cpu_s": "s",
}


def layer_metrics(tracer: Tracer, op_s: float, rows_loaded: int) -> dict:
    """Per-layer metrics of one traced operation lasting ``op_s`` seconds.

    Span times are reported as shares of the operation, so a layer the
    workload never enters reads 0 rather than a constant zero time.
    ``.share`` is the time covered by the spans, ``.self_share`` their
    self time; ``distribution.table_mib`` is the largest joint table
    that ``io.load_table`` or ``learner.generate_tcherry_distribution``
    returned; ``io.rows_per_s`` divides the data rows the operation
    loads by the time spent in ``io.load_table``.
    """
    spans, calls, probes = tracer.spans, tracer.calls, tracer.probes
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def members(name):
        return [i for n in GROUPS.get(name, (name,)) for i in by_name.get(n, ())]

    def share(name):
        return ratio(covered((spans[i].start, spans[i].end) for i in members(name)), op_s)

    def self_share(name):
        return ratio(sum(selfs[i] for i in members(name)), op_s)

    marg_ms = [1e3 * (spans[i].end - spans[i].start) for i in members("distribution.marginalize")]
    marg_p50, marg_p99 = np.percentile(marg_ms, [50, 99]) if marg_ms else (0.0, 0.0)
    load_s = covered((spans[i].start, spans[i].end) for i in members("io.load_table"))
    cache_marginal = calls["distribution.MarginalCache.marginal"]
    cache_h = calls["distribution.MarginalCache.h"]
    return {
        "cli.main.self_share": self_share("cli.main"),
        "io.load_table.self_share": self_share("io.load_table"),
        "io.rows_per_s": ratio(rows_loaded, load_s),
        "io.write_counts_csv.share": share("io.write_counts_csv"),
        "distribution.from_counts.share": share("distribution.from_counts"),
        "distribution.marginalize.calls": calls["distribution.marginalize"],
        "distribution.marginalize.share": share("distribution.marginalize"),
        "distribution.marginalize.call_ms.p50": float(marg_p50),
        "distribution.marginalize.call_ms.p99": float(marg_p99),
        "distribution.marginalize.cells_reduced": probes["cells_reduced"],
        "distribution.entropy.calls": calls["distribution.entropy"],
        "distribution.entropy.share": share("distribution.entropy"),
        "distribution.cache.marginal_hit_ratio":
            ratio(cache_marginal - calls["distribution.marginalize"], cache_marginal),
        "distribution.cache.h_hit_ratio": ratio(cache_h - calls["distribution.entropy"], cache_h),
        "distribution.canonical_subset.calls": calls["distribution.canonical_subset"],
        "distribution.table_mib": probes["table_bytes"] / 2**20,
        "learner.enumerate_candidates.self_share": self_share("learner.enumerate_candidates"),
        "learner.candidates": probes["candidates"],
        "learner.fit.self_share": self_share("learner.fit"),
        "learner.generate.share": share("learner.generate"),
        "junction_tree.add_hypercherry.calls": calls["junction_tree.add_hypercherry"],
        "junction_tree.add_hypercherry.share": share("junction_tree.add_hypercherry"),
        "junction_tree.validate.share": share("junction_tree.validate"),
        "scoring.tree_weight.share": share("scoring.tree_weight"),
        "scoring.check_recovery_conditions.self_share":
            self_share("scoring.check_recovery_conditions"),
        "scoring.recovery.comparisons": probes["comparisons"],
    }


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0
