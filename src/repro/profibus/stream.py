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
from math import inf
from typing import Optional

from ..core.task import Task
from .cycle import MessageCycleSpec, cycle_time
from .phy import PhyParameters


def check_stream(name: str, T, D, J, C_bits) -> None:
    """The :class:`MessageStream` rules over its finite attributes
    (``D`` already defaulted to ``T``): the model, the document scan and
    an admission candidate all apply this one copy."""
    if T <= 0:
        raise ValueError(f"stream {name!r}: T must be > 0")
    if D <= 0:
        raise ValueError(f"stream {name!r}: D must be > 0")
    if J < 0:
        raise ValueError(f"stream {name!r}: J must be >= 0")
    if C_bits is not None and C_bits <= 0:
        raise ValueError(f"stream {name!r}: C_bits must be > 0")


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
        for field_name in ("T", "D", "J", "C_bits"):
            value = getattr(self, field_name)
            # NaN fails both comparisons
            if type(value) is not int and value is not None and not (
                    -inf < value < inf):
                raise ValueError(f"stream {self.name!r}: {field_name} "
                                 f"must be finite, got {value!r}")
        if self.D is None:
            object.__setattr__(self, "D", self.T)
        check_stream(self.name, self.T, self.D, self.J, self.C_bits)

    def cycle_bits(self, phy: PhyParameters) -> int:
        """Worst-case message-cycle length ``Ch`` in bit times."""
        if self.C_bits is not None:
            return self.C_bits
        return cycle_time(self.spec, phy)

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
