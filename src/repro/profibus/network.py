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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._memo import master_memo, stream_specs  # noqa: F401 (re-export)
from .cycle import token_pass_time
from .phy import PhyParameters
from .stream import MessageStream


@dataclass(frozen=True)
class Master:
    """A master station and its message streams."""

    address: int
    streams: Tuple[MessageStream, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.address <= 126:
            raise ValueError("PROFIBUS addresses are 0..126")
        streams = tuple(self.streams)
        object.__setattr__(self, "streams", streams)
        names = [s.name for s in streams]
        if len(names) != len(set(names)):
            raise ValueError(f"master {self.address}: duplicate stream names")
        if not self.name:
            object.__setattr__(self, "name", f"M{self.address}")

    def __getstate__(self):
        # Memoised derivations (leading underscore) are process-local:
        # the analysis memo can hold identity-keyed caches.
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


def master_pack_columns(master: Master, phy) -> Optional[tuple]:
    """One fused extraction pass for the SoA packer
    (:func:`repro.perf.vector.pack_networks`): ``(Ts, Ds, Js, maxval,
    longest_cycle)`` from a single walk of ``master.streams`` — the
    high-priority ``(T, D, J)`` specs transposed into columns, their
    magnitude ceiling, and the eq. (13) ``C_M^k`` term — or ``None``
    when any high-priority attribute is not a plain int.  Memoised per
    (master, PHY): packing is per-network-constant-cost bound, and the
    batch drivers pack the same master against one PHY thousands of
    times."""
    memo = master_memo(master)
    entry = memo.get("pack_cols")
    if entry is not None and entry[0] is phy:
        return entry[1]
    ts: list = []
    ds: list = []
    js: list = []
    mx = 0
    cm = 0
    ok = True
    for s in master.streams:
        cb = s.C_bits
        if cb is None:
            cb = s.cycle_bits(phy)
        if cb > cm:
            cm = cb
        if not s.high_priority:
            continue
        t = s.T
        d = s.D
        j = s.J
        if type(t) is int and type(d) is int and type(j) is int:
            if t > mx:
                mx = t
            if d > mx:
                mx = d
            if j > mx:
                mx = j
            ts.append(t)
            ds.append(d)
            js.append(j)
        else:
            ok = False
            break
    cols = (tuple(ts), tuple(ds), tuple(js), mx, cm) if ok else None
    memo["pack_cols"] = (phy, cols)
    return cols


@dataclass(frozen=True)
class Slave:
    """A slave station (responder only)."""

    address: int
    name: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.address <= 126:
            raise ValueError("PROFIBUS addresses are 0..126")
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
        if not masters:
            raise ValueError("a network needs at least one master")
        addrs = [m.address for m in masters] + [s.address for s in slaves]
        if len(addrs) != len(set(addrs)):
            raise ValueError("duplicate station addresses")
        if self.ttr is not None and self.ttr <= 0:
            raise ValueError("ttr must be positive")

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
        if self.ttr is None:
            raise ValueError(
                "network.ttr is not set; call with_ttr() or derive one via repro.profibus.ttr"
            )
        return self.ttr
