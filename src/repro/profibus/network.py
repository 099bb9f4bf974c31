"""Network model: masters, slaves and the logical ring.

A PROFIBUS network is a set of **master** stations forming a logical
token ring (token passes in ascending ring order, wrapping around) and
**slave** stations that only answer.  Each master owns its message
streams.  The :class:`Network` object carries the PHY parameter set and
the configured target token-rotation time ``TTR`` and is the single
input to every analysis in :mod:`repro.profibus` and to the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import inf
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..perf.config import analysis_mode
from .cycle import token_pass_time
from .phy import PhyParameters
from .stream import MessageStream


# The model's rules, one copy each: the dataclasses below, the document
# scan (:mod:`repro.profibus.serialization`) and an admission candidate's
# join (:mod:`repro.api`) all call these.

def check_address(address: int) -> None:
    if not 0 <= address <= 126:
        raise ValueError("PROFIBUS addresses are 0..126")


def check_master(address: int, names: Sequence[str]) -> None:
    check_address(address)
    if len(names) != len(set(names)):
        raise ValueError(f"master {address}: duplicate stream names")


def check_network(masters: Sequence[int], slaves: Sequence[int],
                  ttr: Optional[int]) -> None:
    """The :class:`Network` rules over its station addresses and TTR."""
    if not masters:
        raise ValueError("a network needs at least one master")
    addrs = [*masters, *slaves]
    if len(addrs) != len(set(addrs)):
        raise ValueError("duplicate station addresses")
    if ttr is not None:
        if type(ttr) is not int and not -inf < ttr < inf:
            raise ValueError(f"ttr must be finite, got {ttr!r}")
        if ttr <= 0:
            raise ValueError("ttr must be positive")


@dataclass(frozen=True)
class Master:
    """A master station and its message streams."""

    address: int
    streams: Tuple[MessageStream, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        streams = tuple(self.streams)
        object.__setattr__(self, "streams", streams)
        check_master(self.address, [s.name for s in streams])
        if not self.name:
            object.__setattr__(self, "name", f"M{self.address}")

    def __getstate__(self):
        # Cached stream partitions (leading underscore) are rebuilt on
        # first use after unpickling.
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    @property
    def high_streams(self) -> Tuple[MessageStream, ...]:
        try:
            return self._high_streams
        except AttributeError:
            high = tuple(s for s in self.streams if s.high_priority)
            object.__setattr__(self, "_high_streams", high)
            return high

    @property
    def low_streams(self) -> Tuple[MessageStream, ...]:
        try:
            return self._low_streams
        except AttributeError:
            low = tuple(s for s in self.streams if not s.high_priority)
            object.__setattr__(self, "_low_streams", low)
            return low

    @property
    def nh(self) -> int:
        """Number of high-priority message streams (the paper's ``nh^k``)."""
        return len(self.high_streams)

    def stream(self, name: str) -> MessageStream:
        for s in self.streams:
            if s.name == name:
                return s
        raise KeyError(name)

    def with_streams(self, streams: Iterable[MessageStream]) -> "Master":
        return replace(self, streams=tuple(streams))


@dataclass(frozen=True)
class Slave:
    """A slave station (responder only)."""

    address: int
    name: str = ""

    def __post_init__(self) -> None:
        check_address(self.address)
        if not self.name:
            object.__setattr__(self, "name", f"S{self.address}")


@dataclass(frozen=True)
class Network:
    """A complete network configuration.

    ``masters`` are listed in logical-ring order (the token travels
    ``masters[0] → masters[1] → … → masters[0]``).  ``ttr`` is the target
    token-rotation time in bit times; it may be left ``None`` while using
    :mod:`repro.profibus.ttr` to derive it.
    """

    masters: Tuple[Master, ...]
    slaves: Tuple[Slave, ...] = ()
    phy: PhyParameters = PhyParameters()
    ttr: Optional[int] = None

    def __post_init__(self) -> None:
        masters = tuple(self.masters)
        slaves = tuple(self.slaves)
        object.__setattr__(self, "masters", masters)
        object.__setattr__(self, "slaves", slaves)
        check_network([m.address for m in masters],
                      [s.address for s in slaves], self.ttr)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    # -- lookups ---------------------------------------------------------
    @property
    def n_masters(self) -> int:
        return len(self.masters)

    def master(self, address: int) -> Master:
        for m in self.masters:
            if m.address == address:
                return m
        raise KeyError(address)

    def master_named(self, name: str) -> Master:
        for m in self.masters:
            if m.name == name:
                return m
        raise KeyError(name)

    def all_streams(self) -> List[Tuple[Master, MessageStream]]:
        return [(m, s) for m in self.masters for s in m.streams]

    def high_stream_count(self) -> int:
        return sum(m.nh for m in self.masters)

    # -- derived timing --------------------------------------------------
    def ring_latency(self) -> int:
        """No-load token rotation time: one token pass per master.

        The analyses require ``TTR`` to be at least this (otherwise the
        token is *structurally* late every rotation and the late-token
        rule throttles every master to one message per visit).  Memoised:
        the network is immutable and sweeps query this per row.
        """
        try:
            return self._ring_latency
        except AttributeError:
            latency = self.n_masters * token_pass_time(self.phy)
            object.__setattr__(self, "_ring_latency", latency)
            return latency

    def fingerprint(self) -> str:
        """Canonical content hash (see
        :func:`repro.profibus.serialization.network_fingerprint`):
        equal for value-equal networks however they were built, distinct
        on any semantic change.  Memoised on the instance; the memo is
        process-local and dropped on pickling like every other derived
        attribute."""
        try:
            return self._fingerprint
        except AttributeError:
            from .serialization import network_fingerprint

            value = network_fingerprint(self)
            object.__setattr__(self, "_fingerprint", value)
            return value

    def with_ttr(self, ttr: int) -> "Network":
        return replace(self, ttr=ttr)

    def require_ttr(self) -> int:
        return require_ttr(self.ttr)


def require_ttr(ttr: Optional[int]) -> int:
    """``ttr``, or the canonical error for a network without one."""
    if ttr is None:
        raise ValueError(
            "network.ttr is not set; call with_ttr() or derive one via repro.profibus.ttr"
        )
    return ttr


def kernels_enabled() -> bool:
    """``False`` under the ``generic`` reference, which calls no kernel:
    the one place :mod:`repro.profibus` reads the analysis mode."""
    return analysis_mode() != "generic"


def stream_specs(master: Master) -> Optional[tuple]:
    """``(T, D, J)`` per high-priority stream when all are plain ints —
    the whole-master kernel input (see :mod:`repro.perf.kernels`) —
    else ``None``; always ``None`` under the ``generic`` reference
    (:func:`kernels_enabled`), so that reference calls no kernel."""
    if not kernels_enabled():
        return None
    specs = tuple((s.T, s.D, s.J) for s in master.high_streams)
    for t, d, j in specs:
        if type(t) is not int or type(d) is not int or type(j) is not int:
            return None
    return specs
