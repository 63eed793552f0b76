"""Spans and counts around the package's public functions.

The tracer replaces a function at the name its caller looks it up by (for
example ``groupprox.solver.loss_value``, which ``Problem.smooth`` reads
from the solver module's globals) with a wrapper that records a span, and
puts the original back on exit. Nothing in the package changes, and an
untraced run wraps nothing.

Spans are aggregated in memory as they close: per metric, the call
count, the total time, and the self time (total minus the time covered
by spans that opened while it was open). Per-call durations are kept only
for metrics that ask for a percentile.

A hook whose target no longer exists, after a refactor renames or removes
it, does not stop the run: its metric is listed in ``missing`` and left
out of the report.
"""

import importlib
import time
from dataclasses import dataclass, field

# (metric, module, attribute, kind). "span" times the call; "count" only
# counts it, for hot constructors whose timing would cost more than the
# work. Several hooks may feed one metric.
HOOKS = (
    ("solver.solve", "groupprox.solver", "solve", "span"),
    ("losses.value", "groupprox.solver", "loss_value", "span"),
    ("losses.gradient", "groupprox.solver", "loss_gradient", "span"),
    ("grouped.norms", "groupprox.solver", "mixed_norm", "span"),
    ("grouped.norms", "groupprox.prox", "group_norms", "span"),
    ("prox.grouped", "groupprox.solver", "prox_grouped", "span"),
    ("prox.linf", "groupprox.prox", "prox_linf", "span"),
    ("rootfind.l1_threshold", "groupprox.prox", "l1_ball_threshold", "span"),
    ("grouped.vectors_built", "groupprox.grouped:GroupedVector", "__post_init__", "count"),
)

# Metrics whose per-call durations are kept for percentiles.
KEEP_DURATIONS = ("prox.grouped",)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


def _resolve(target):
    """Module, or class inside a module for 'module:Class'."""
    module_name, _, class_name = target.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Installs HOOKS for the duration of a ``with`` block."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.stats = {}
        self.missing = set()
        self._stack = []
        self._installed = []

    def _span(self, metric, fn):
        stats = self.stats.setdefault(metric, SpanStats())
        keep = metric in KEEP_DURATIONS
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child
                if keep:
                    stats.durations.append(dt)

        return wrapper

    def _count(self, metric, fn):
        stats = self.stats.setdefault(metric, SpanStats())

        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        for metric, target, attr, kind in self.hooks:
            try:
                owner = _resolve(target)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.add(metric)
                continue
            make = self._span if kind == "span" else self._count
            setattr(owner, attr, make(metric, original))
            self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        return False

    def get(self, metric):
        """Stats of a metric, or None when one of its hooks is missing."""
        if metric in self.missing:
            return None
        return self.stats.get(metric, SpanStats())
