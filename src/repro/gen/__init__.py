"""Workload generators: UUniFast task sets and random PROFIBUS scenarios."""

from .._lazy import lazy_exports

_EXPORTS = {
    "network_with_ttr_headroom": "network_gen",
    "random_network": "network_gen",
    "random_stream": "network_gen",
    "log_uniform_period": "taskset",
    "random_taskset": "taskset",
    "scale_to_utilization": "taskset",
    "uunifast": "uunifast",
    "uunifast_discard": "uunifast",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
