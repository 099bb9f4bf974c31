"""Discrete-event simulators: the PROFIBUS token bus (§3.1 pseudocode)
and a uniprocessor scheduler used to validate the §2 analyses."""

from .._lazy import lazy_exports

_EXPORTS = {
    "Simulator": "engine",
    "DMQueue": "queues",
    "EDFQueue": "queues",
    "FCFSQueue": "queues",
    "Request": "queues",
    "StackQueue": "queues",
    "make_queue": "queues",
    "CYCLE_END": "trace",
    "CYCLE_START": "trace",
    "EVENT_KINDS": "trace",
    "RELEASE": "trace",
    "TOKEN_ARRIVAL": "trace",
    "BusEvent": "trace",
    "BusTrace": "trace",
    "render_timeline": "trace",
    "MasterStats": "token",
    "StreamStats": "token",
    "TokenBusConfig": "token",
    "TokenBusResult": "token",
    "simulate_token_bus": "token",
    "ReleasePattern": "traffic",
    "TrafficConfig": "traffic",
    "staggered_offsets": "traffic",
    "synchronous_offsets": "traffic",
    "UniprocStats": "uniproc",
    "simulate_uniproc": "uniproc",
    "VERDICT_DEGRADED": "validate",
    "VERDICT_INCOMPLETE": "validate",
    "VERDICT_MISSING": "validate",
    "VERDICT_SOUND": "validate",
    "VERDICT_UNSOUND": "validate",
    "ValidationReport": "validate",
    "ValidationRow": "validate",
    "validate_network": "validate",
    "validate_uniproc": "validate",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
