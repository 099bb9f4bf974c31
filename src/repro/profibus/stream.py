"""Message streams — the paper's ``Sh_i^k`` (footnote 6).

A *message stream* is a temporal sequence of message cycles related to
one control variable (reading a sensor, updating an actuator).  Each
stream has the usual real-time attributes — period ``T``, relative
deadline ``D``, release jitter ``J`` (all in bit times) — plus the
logical description of its message cycle, from which the exact cycle
length ``Ch`` is derived for a given PHY parameter set.

Streams are either **high priority** (the real-time traffic the paper
analyses) or **low priority** (background traffic which matters only
through the blocking terms of eq. (13)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..core.task import Task
from ._memo import stream_memo
from .cycle import MessageCycleSpec, cycle_time
from .phy import PhyParameters


@dataclass(frozen=True)
class MessageStream:
    """One message stream of a master station."""

    name: str
    T: int
    D: Optional[int] = None
    J: int = 0
    high_priority: bool = True
    spec: MessageCycleSpec = MessageCycleSpec()
    #: Explicit cycle length in bit times; overrides ``spec`` when set
    #: (handy for abstract scenarios where only ``Ch`` matters).
    C_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.T <= 0:
            raise ValueError(f"stream {self.name!r}: T must be > 0")
        if self.D is None:
            object.__setattr__(self, "D", self.T)
        if self.D <= 0:
            raise ValueError(f"stream {self.name!r}: D must be > 0")
        if self.J < 0:
            raise ValueError(f"stream {self.name!r}: J must be >= 0")
        if self.C_bits is not None and self.C_bits <= 0:
            raise ValueError(f"stream {self.name!r}: C_bits must be > 0")

    def __getstate__(self):
        # Keep memoised derivations (leading underscore) out of pickles;
        # workers rebuild them locally.
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    def cycle_bits(self, phy: PhyParameters) -> int:
        """Worst-case message-cycle length ``Ch`` in bit times.

        Memoised per PHY parameter set: streams are immutable and the
        sweep/batch drivers evaluate the same stream against the same
        PHY thousands of times.
        """
        if self.C_bits is not None:
            return self.C_bits
        # Single-slot identity cache: a stream is evaluated against one
        # PHY in practice, and identity comparison avoids hashing the
        # parameter set on every lookup.
        memo = stream_memo(self)
        entry = memo.get("_cycle_memo")
        if entry is not None and entry[0] is phy:
            return entry[1]
        bits = cycle_time(self.spec, phy)
        memo["_cycle_memo"] = (phy, bits)
        return bits

    def as_task(self, phy: PhyParameters) -> Task:
        """View this stream as a core :class:`~repro.core.task.Task`
        with ``C = Ch`` (used by FCFS reasoning and the simulator)."""
        return Task(
            C=self.cycle_bits(phy), T=self.T, D=self.D, J=self.J, name=self.name
        )

    def as_token_task(self, tcycle: int) -> Task:
        """The §4.3 substitution: ``C → Tcycle`` (eqs. (16)–(18)).

        Built by direct field assignment — the stream's attributes are
        already validated and this runs once per stream per sweep row;
        only the one input the stream does not own is checked.
        """
        if tcycle <= 0:
            raise ValueError(f"stream {self.name!r}: Tcycle must be > 0")
        task = object.__new__(Task)
        task.__dict__.update(
            C=tcycle, T=self.T, D=self.D, J=self.J, priority=None,
            name=self.name,
        )
        return task

    def with_jitter(self, J: int) -> "MessageStream":
        return replace(self, J=J)

    def with_deadline(self, D: int) -> "MessageStream":
        return replace(self, D=D)
