"""In-memory spans recorded around calls into the package.

A span has a name, a start and end time (perf_counter seconds), the index of
its parent span and the identifier of the operation it belongs to.  Spans
are kept in a list while the benchmark runs and written out once at the
end.  With tracing off, ``span`` returns one shared no-op context manager,
so the untraced run pays one attribute lookup and one call per boundary.
"""

import json
import statistics
import time
from contextlib import nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent, op, phase]
        self._stack = []
        self._op = 0
        self.phase = "warmup"

    def new_op(self) -> None:
        """Start a new operation; later spans share its identifier."""
        self._op += 1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _phase in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_n, start, end, *_rest) in enumerate(self.spans)]

    def medians_ms(self, scale, self_time: bool = True) -> dict:
        """Median self time (or duration) in ms per span name, each scaled by
        scale(start, end); a name recorded in the workload loop ignores its
        spans from other phases."""
        by_phase = {}
        times = self.self_times() if self_time else [e - s for _n, s, e, *_r in self.spans]
        for (name, start, end, *_r, phase), self_s in zip(self.spans, times):
            by_phase.setdefault(name, {}).setdefault(phase, []).append(
                self_s * scale(start, end))
        return {name: 1e3 * statistics.median(phases.get("loop") or
                                                next(iter(phases.values())))
                for name, phases in by_phase.items()}

    def write(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o,
                 "phase": ph, "self": st}
                for (n, s, e, p, o, ph), st in zip(self.spans, self.self_times())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr._op, tr.phase])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one empty span, in seconds."""
    tr = Tracer(True)
    start = time.perf_counter()
    for _ in range(samples):
        with tr.span("probe"):
            pass
    return (time.perf_counter() - start) / samples
