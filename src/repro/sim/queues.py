"""Outgoing-queue disciplines.

Three queue types cover the paper's design space:

* :class:`FCFSQueue` — the stock PROFIBUS outgoing queue (§3.2);
* :class:`DMQueue` — AP-level queue ordered by relative deadline (§4);
* :class:`EDFQueue` — AP-level queue ordered by absolute deadline (§4.2,
  "earliness of the absolute deadline of the message's generating task").

All are priority queues over :class:`Request` with policy-specific keys;
ties break by enqueue sequence (FIFO), making simulations deterministic.
The AP queue is *re-ordered only when a new request arrives* (the paper's
note in §4.2) — true by construction for a heap keyed on static values.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional


@dataclass(frozen=True)
class Request:
    """One queued message request (an instance of a stream)."""

    stream_name: str
    master: str
    release: Any  # release time (arrival at the AP queue)
    deadline: Any  # absolute deadline = release + D
    rel_deadline: Any  # the stream's relative deadline D
    cycle_bits: int  # transmission length of this cycle
    high_priority: bool = True
    seq: int = 0  # global arrival sequence (FIFO tiebreak)


class _HeapQueue:
    """Shared heap machinery; subclasses provide the ordering key."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        #: the list holding the queued entries (heap order): truthy
        #: while a request is queued, testable without a Python-level
        #: ``__bool__`` call
        self.queued = self._heap
        self._count = itertools.count()

    def key(self, req: Request):  # pragma: no cover - abstract
        raise NotImplementedError

    def push(self, req: Request) -> None:
        heapq.heappush(self._heap, (self.key(req), next(self._count), req))

    def pop(self) -> Request:
        if not self._heap:
            raise IndexError("pop from empty queue")
        return heapq.heappop(self._heap)[2]

    def peek(self) -> Optional[Request]:
        return self._heap[0][2] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain(self) -> Iterator[Request]:
        while self._heap:
            yield self.pop()

    def items(self) -> Iterator[Request]:
        """Non-destructive iteration (heap order, not priority order) —
        used by the end-of-run pending-work scan."""
        for _key, _seq, req in self._heap:
            yield req


class FCFSQueue(_HeapQueue):
    """First-come-first-served: ordered by arrival (release, seq)."""

    def key(self, req: Request):
        return (req.release, req.seq)


class DMQueue(_HeapQueue):
    """Deadline-monotonic: ordered by the stream's *relative* deadline."""

    def key(self, req: Request):
        return (req.rel_deadline, req.seq)


class EDFQueue(_HeapQueue):
    """Earliest (absolute) deadline first."""

    def key(self, req: Request):
        return (req.deadline, req.seq)


def make_queue(policy: str) -> _HeapQueue:
    """Factory: ``"fcfs" | "dm" | "edf"`` → queue instance."""
    try:
        return {"fcfs": FCFSQueue, "dm": DMQueue, "edf": EDFQueue}[policy]()
    except KeyError:
        raise ValueError(f"unknown queue policy {policy!r}")


class StackQueue:
    """The communication-stack outgoing queue, limited to ``depth``.

    The §4 architecture sets ``depth=1``: the AP dispatcher stages at
    most one request, so the FCFS stack can never invert priorities by
    more than one message.  ``depth>1`` is kept for the ablation bench
    (showing why 1 is the right choice); staged order is FIFO as in the
    stock stack.
    """

    def __init__(self, depth: int = 1):
        if depth < 1:
            raise ValueError("stack depth must be >= 1")
        self.depth = depth
        self._fifo: List[Request] = []
        #: the list of staged requests (FIFO order): truthy while one is
        #: staged, testable without a Python-level ``__bool__`` call
        self.queued = self._fifo

    @property
    def free(self) -> int:
        return self.depth - len(self._fifo)

    def push(self, req: Request) -> None:
        if not self.free:
            raise OverflowError("communication stack queue is full")
        self._fifo.append(req)

    def pop(self) -> Request:
        if not self._fifo:
            raise IndexError("pop from empty stack queue")
        return self._fifo.pop(0)

    def peek(self) -> Optional[Request]:
        return self._fifo[0] if self._fifo else None

    def items(self) -> Iterator[Request]:
        """Non-destructive iteration in staged (FIFO) order."""
        return iter(self._fifo)

    def __len__(self) -> int:
        return len(self._fifo)

    def __bool__(self) -> bool:
        return bool(self._fifo)
