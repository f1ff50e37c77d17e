"""Per-layer attribution for the traced run, recorded from the outside.

Spans are opened only here, in the benchmark, around calls into the
program's public functions and around the callables the benchmark hands
to the program (``predict_fn``, the explainer, the pool, the sensors, the
telemetry pipeline, the rollup ``on_finalize`` hook).  The program's own
code is not edited and gains no clock read: the repo's ``Tracer`` gets
``time.perf_counter`` injected here, as its clock-injection contract
allows.

Each timed segment (one op, or one stretch of serving requests) is one
trace rooted at a ``bench.*`` span.  When the root ends, the trace's
critical path from :func:`repro.tracing.analysis.critical_path` splits
its duration among the spans in it; the harness is single-threaded, so
children never overlap and each span's share is exactly its duration
minus its children's coverage - its self time.  The shares add up to the
root's duration, which :attr:`Layers.residual_s` checks.
"""

import cProfile
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.tracing import TraceTree, Tracer, critical_path

#: Span names of the harness's own work; everything else is a layer.
HARNESS_PREFIX = "bench."
_HERE = os.path.dirname(os.path.abspath(__file__))


class Layers:
    """Tracer plus the self-time / inclusive-time / count ledgers."""

    def __init__(self, seed: int = 0) -> None:
        self.tracer = Tracer(clock=time.perf_counter, collector=self, seed=seed)
        self._stack = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. during set-up)."""
        self._spans = defaultdict(list)
        #: Un-normalised seconds of the open segment, by span name.
        self._segment_self = defaultdict(float)
        self._segment_inclusive = defaultdict(float)
        #: Normalised totals over closed segments.
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        #: Un-normalised inclusive seconds, for the cProfile comparison.
        self.raw_inclusive_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.residual_s = 0.0

    # -- collector protocol (Tracer calls on_end for every finished span) --

    def on_end(self, span) -> None:
        trace = self._spans[span.context.trace_id]
        trace.append(span)
        self._segment_inclusive[span.name] += span.duration
        self.raw_inclusive_s[span.name] += span.duration
        if span.parent_span_id is not None:
            return
        del self._spans[span.context.trace_id]
        tree = TraceTree(span.context.trace_id, trace)
        covered = 0.0
        for segment in critical_path(tree):
            self._segment_self[segment.span.name] += segment.seconds
            covered += segment.seconds
        self.residual_s = max(self.residual_s, abs(covered - tree.duration))

    def close_segment(self, factor: float) -> None:
        """Fold the open segment's self times in, scaled by its probe."""
        for name, seconds in self._segment_self.items():
            self.self_s[name] += seconds * factor
        for name, seconds in self._segment_inclusive.items():
            self.inclusive_s[name] += seconds * factor
        self._segment_self.clear()
        self._segment_inclusive.clear()

    # -- span helpers --------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = self.tracer.start_span(name, parent=parent)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end()

    def wrap(self, name: str, fn, rows=None):
        """``fn`` inside a ``name`` span; ``rows(args)`` adds to a count.

        Kept lean: whatever runs between the span's two clock reads is
        charged to the span, so the wrapper does no more than it must.
        """
        stack, start = self._stack, self.tracer.start_span
        key = name + ".rows"

        def traced(*args, **kwargs):
            if rows is not None:
                self.counts[key] += rows(args)
            span = start(name, parent=stack[-1] if stack else None)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end()

        return traced

    # -- read side -----------------------------------------------------------

    def self_ms(self, *names: str) -> float:
        return 1000.0 * sum(self.self_s.get(name, 0.0) for name in names)

    def inclusive_ms(self, *names: str) -> float:
        return 1000.0 * sum(self.inclusive_s.get(name, 0.0) for name in names)

    def harness_self_s(self) -> float:
        return sum(
            seconds
            for name, seconds in self.self_s.items()
            if name.startswith(HARNESS_PREFIX)
        )

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class Proxy:
    """Delegates every attribute, except the methods given as wrapped."""

    def __init__(self, inner, **wrapped) -> None:
        self._inner = inner
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def cprofile_crosscheck(layers: Layers, run, functions):
    """Compare span time with cProfile cumulative time, layer by layer.

    ``run`` executes a few traced segments; ``functions`` maps a label to
    ``(span names or None for the label itself, [(file suffix, function
    name), ...])`` - the spans and the public functions they wrap.  cProfile's cumulative time is summed over
    calls made from this directory's files, i.e. the calls the spans
    wrap; calls the program makes internally (a forest predict inside
    Kernel SHAP) belong to the enclosing layer.  Returns
    ``{layer: (span_s, cprofile_s)}`` over the same calls, both timed
    under the profiler.
    """
    before = dict(layers.raw_inclusive_s)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    rows = {}
    for layer, (names, targets) in functions.items():
        cumulative = 0.0
        for (path, _line, func), entry in stats.items():
            if not any(
                path.endswith(suffix) and func == name for suffix, name in targets
            ):
                continue
            for (caller_path, _l, _f), call in entry[4].items():
                if os.path.dirname(os.path.abspath(caller_path)) == _HERE:
                    cumulative += call[3]
        spans = sum(
            layers.raw_inclusive_s.get(name, 0.0) - before.get(name, 0.0)
            for name in (names or (layer,))
        )
        rows[layer] = (spans, cumulative)
    return rows
