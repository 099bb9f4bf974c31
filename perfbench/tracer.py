"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: explicit
``with tracer.span(name)`` blocks around the calls the benchmark makes,
plus wrappers the benchmark installs over public module functions for
the duration of a traced replay (:meth:`Tracer.install`), so calls made
*inside* the program (the kernels under an ``analyse`` request, the
ingest under a ``monitor`` request) are timed without editing it.

Each span records its name, start, end, parent span and request id.
Spans stay in per-thread lists until the run ends; a thread's spans
nest properly, so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: The layers spans are attributed to (by longest dotted-name prefix).
LAYERS = (
    "service",
    "perf.cache",
    "api",
    "profibus.serialization",
    "profibus.network",
    "profibus.ttr",
    "profibus.timing",
    "perf.kernels",
    "profibus.sweep",
    "core.sensitivity",
    "perf.batch",
    "perf.vector",
    "sim.token",
    "monitor.trace_io",
    "monitor.engine",
)


def layer_of(name: str) -> str:
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    if not best:
        raise ValueError(f"span {name!r} belongs to no layer")
    return best


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def set_request(self, rid: Any) -> None:
        pass


NULL = NullTracer()


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "child_time")

    def __init__(self, name: str, start: float, parent: int, rid: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans; installs and removes function wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[List[Span]] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack, local.rid = [], [], None
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def set_request(self, rid: Any) -> None:
        """Tag the spans this thread opens from now on with ``rid``."""
        self._state()
        self._local.rid = rid

    def _open(self, name: str) -> Span:
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        span = Span(name, perf_counter(), parent, self._local.rid)
        stack.append(len(spans))
        spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        spans, stack = self._local.spans, self._local.stack
        stack.pop()
        if span.parent >= 0:
            spans[span.parent].child_time += span.end - span.start

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def spans(self) -> List[Span]:
        with self._lock:
            return [s for thread in self._threads for s in thread]

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: Sequence[Tuple[Any, str, str]]) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper for every
        ``(owner, attr, span_name)``; :meth:`uninstall` restores them."""
        for owner, attr, name in targets:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: Sequence[Tuple[Any, str, str]]):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


# ------------------------------------------------------------- summaries

def by_name(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    out: Dict[str, List[Span]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def path_shares(spans: Sequence[Span], wall: float) -> Dict[str, float]:
    """Self-time share of each layer, plus ``residual`` — the share of
    ``wall`` no top-level span covers.  ``spans`` must come from one
    thread whose top-level spans ran inside ``wall``."""
    shares = {layer: 0.0 for layer in LAYERS}
    covered = 0.0
    for s in spans:
        shares[layer_of(s.name)] += s.self_time
        if s.parent < 0:
            covered += s.duration
    out = {layer: t / wall for layer, t in shares.items()}
    out["residual"] = 1.0 - covered / wall
    return out
