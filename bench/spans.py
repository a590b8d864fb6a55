"""Spans around the calls ``affinestop.cli`` makes into each layer.

``installed`` rebinds the layer functions in the ``affinestop.cli`` namespace
to timing wrappers, so a traced solve runs the same code as an untraced one
and nothing under ``src/`` changes.  A span records its name, start, end,
the span open when it started (its parent), the solve it belongs to, and
counts read from the returned objects after the clock has stopped.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

import affinestop.cli as cli
import affinestop.oracle as oracle

# Function as bound in affinestop.cli -> span name (layer.operation).
SPAN_NAMES = {
    "check_hypotheses": "model.screen",
    "payoff": "model.payoff",
    "build_chain": "lattice.build_chain",
    "value_iteration": "lattice.solve",
    "extract_threshold": "lattice.extract",
    "hitting_value_mc_curve": "threshold.mc",
    "hitting_value_mc": "threshold.mc",
    "optimize_threshold": "threshold.search",
    "optimal_threshold_closed": "threshold.closed",
    "count_rules": "oracle.count",
    "best_rule_exhaustive": "oracle.enumerate",
    "smallest_optimal_rule": "oracle.smallest_rule",
    "snell_value": "oracle.backward",
    "threshold_form_check": "oracle.backward",
    "recombined_values": "oracle.backward",
    "check_convexity": "verify.check",
    "check_monotone_bounds": "verify.check",
    "check_limit_at_zero": "verify.check",
    "check_contact_downset": "verify.check",
    "check_put_equivalence": "verify.check",
}


def _chain_counts(ch, args, kwargs) -> dict:
    return {"nnz": int(np.count_nonzero(ch.kernel)), "n": len(ch.states)}


def _snell_counts(res, args, kwargs) -> dict:
    return {"iterations": res.iterations, "residual": res.residual}


def _mc_counts(est, args, kwargs) -> dict:
    # Paths run until they cross the lowest level (first estimate) or
    # reach t_max; the ones reaching t_max are its truncated fraction.
    low = est[0] if isinstance(est, list) else est
    return {"paths": low.n_paths,
            "truncated_paths": low.truncated_frac * low.n_paths}


def _enumerate_counts(out, args, kwargs) -> dict:
    tree = args[0]
    return {"rules": oracle.count_rules(tree.depth, tree.branching)}


COUNTS = {
    "build_chain": _chain_counts,
    "value_iteration": _snell_counts,
    "hitting_value_mc_curve": _mc_counts,
    "hitting_value_mc": _mc_counts,
    "best_rule_exhaustive": _enumerate_counts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    solve: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``solve`` is the id stamped on new spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.solve = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields the new span."""
        parent = self._open[-1] if self._open else None
        s = Span(name, 0.0, 0.0, parent, self.solve)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if counts is not None:
                s.counts.update(counts(out, args, kwargs))
            return out

        return traced

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def installed(tracer: Tracer):
    """Route the layer calls of affinestop.cli through the tracer's wrappers."""
    originals = {attr: getattr(cli, attr) for attr in SPAN_NAMES}
    for attr, name in SPAN_NAMES.items():
        setattr(cli, attr, tracer.wrap(name, originals[attr], COUNTS.get(attr)))
    try:
        yield
    finally:
        for attr, fn in originals.items():
            setattr(cli, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_totals(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per solve id: self seconds and calls per span name and per layer
    (``lattice.solve.self_s``, ``lattice.self_s``, ...), plus the counts the
    spans carried, summed over calls where they add up."""
    selfs = self_times(spans)
    per_solve: dict[int, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        out = per_solve.setdefault(s.solve, {})
        layer = s.name.split(".")[0]
        for key, value in ((f"{s.name}.self_s", own), (f"{s.name}.calls", 1),
                           (f"{layer}.self_s", own), (f"{layer}.calls", 1)):
            out[key] = out.get(key, 0) + value
        for key, value in s.counts.items():
            key = f"{s.name}.{key}"
            if key.endswith(".residual"):
                out[key] = max(out.get(key, 0.0), value)
            elif key.endswith((".n", ".nnz", ".rules")):
                out[key] = value
            else:
                out[key] = out.get(key, 0) + value
    return per_solve
