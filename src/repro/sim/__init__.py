"""Discrete-event simulators: the PROFIBUS token bus (§3.1 pseudocode)
and a uniprocessor scheduler used to validate the §2 analyses."""

from .engine import Simulator
from .queues import DMQueue, EDFQueue, FCFSQueue, Request, StackQueue, make_queue
from .trace import (
    CYCLE_END,
    CYCLE_START,
    EVENT_KINDS,
    RELEASE,
    TOKEN_ARRIVAL,
    BusEvent,
    BusTrace,
    render_timeline,
)
from .token import (
    MasterStats,
    StreamStats,
    TokenBusConfig,
    TokenBusResult,
    simulate_token_bus,
)
from .traffic import (
    ReleasePattern,
    TrafficConfig,
    staggered_offsets,
    synchronous_offsets,
)
from .uniproc import UniprocStats, simulate_uniproc
from .validate import (
    VERDICT_DEGRADED,
    VERDICT_INCOMPLETE,
    VERDICT_MISSING,
    VERDICT_SOUND,
    VERDICT_UNSOUND,
    ValidationReport,
    ValidationRow,
    validate_network,
    validate_uniproc,
)

__all__ = [
    "BusEvent",
    "BusTrace",
    "CYCLE_END",
    "CYCLE_START",
    "DMQueue",
    "EVENT_KINDS",
    "RELEASE",
    "TOKEN_ARRIVAL",
    "render_timeline",
    "EDFQueue",
    "FCFSQueue",
    "MasterStats",
    "ReleasePattern",
    "Request",
    "Simulator",
    "StackQueue",
    "StreamStats",
    "TokenBusConfig",
    "TokenBusResult",
    "TrafficConfig",
    "UniprocStats",
    "VERDICT_DEGRADED",
    "VERDICT_INCOMPLETE",
    "VERDICT_MISSING",
    "VERDICT_SOUND",
    "VERDICT_UNSOUND",
    "ValidationReport",
    "ValidationRow",
    "make_queue",
    "simulate_token_bus",
    "simulate_uniproc",
    "staggered_offsets",
    "synchronous_offsets",
    "validate_network",
    "validate_uniproc",
]
