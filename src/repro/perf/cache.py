"""Value-keyed shared result cache.

The analyses cache nothing on the model objects: a caller that repeats
work inside one call hoists the shared input itself (the TTR sweep
derives ``Tdel`` once).  Across calls, two value-equal networks built
from two different requests would share nothing — and at service
traffic (many clients posting the same plant document, near-duplicate
admission probes, repeated sweep rows) that repetition *is* the
workload.

:class:`ResultCache` serves it.  It memoises **finished
analysis results** under a value key derived from the canonical network
fingerprint (:func:`repro.profibus.serialization.network_fingerprint`)
plus the analysis coordinates (operation, policy, TTR override, grid,
…), so identical and repeated requests hit instead of recompute, no
matter which client or process parsed the document: this cache
decides whether a computation runs at all.

Properties:

* **LRU, bounded.**  ``capacity`` entries; inserting past it evicts the
  least recently used (an unbounded dict would grow with every distinct
  network a resident daemon ever sees).
* **Counted.**  ``hits`` / ``misses`` / ``evictions`` counters and a
  :meth:`snapshot` dict — surfaced verbatim in the service's session
  statistics, asserted by the service tests.
* **Thread-safe.**  One lock around the ordered dict: the asyncio server
  runs computations on executor threads, and sync clients embed the
  cache in multi-threaded scripts.

The differential oracles (fuzz, corpus check) and the uncached
perfbench workloads (``batch``, ``api-request``) never consult a
``ResultCache`` — their whole point is recomputation — so benchmarks
stay honest: caching is opt-in at the
:mod:`repro.api` boundary and in the daemon, not ambient in the
analysis layer.  (perfbench's ``daemon`` workload measures the daemon's
cache on purpose.)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

DEFAULT_CAPACITY = 4096


class ResultCache:
    """A bounded, counted, thread-safe LRU map from value keys to
    finished results."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """``(hit, value)`` — a tuple, because ``None`` is a legal
        cached value (e.g. an infeasible max-TTR)."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return True, self._data[key]
            self.misses += 1
            return False, None

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], Any]) -> Tuple[bool, Any]:
        """``(hit, value)``; on a miss, ``compute()`` runs *outside* the
        lock (analyses take milliseconds to seconds — holding the lock
        would serialise every concurrent client on one computation) and
        the result is stored.  Two racing misses on the same key both
        compute; results are deterministic, so last-write-wins is safe.
        """
        hit, value = self.get(key)
        if hit:
            return True, value
        value = compute()
        self.put(key, value)
        return False, value

    def clear(self) -> None:
        """Drop entries; counters survive (they describe the session)."""
        with self._lock:
            self._data.clear()

    def snapshot(self) -> Dict[str, int]:
        """Counters + occupancy, in the shape the service's session
        statistics embed (``cache`` block of the ``stats`` op)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
