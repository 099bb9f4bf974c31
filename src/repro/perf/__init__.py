"""High-throughput analysis engine.

The schedulability questions of the paper all reduce to monotone
fixed-point iterations, and the experiment drivers evaluate thousands of
generated networks/tasksets.  This subpackage makes that layer fast
without changing a single reported number:

* :mod:`repro.perf.config` — a global fast-path switch so benchmarks and
  property tests can compare the specialised kernels against the generic
  exact path on identical inputs;
* :mod:`repro.perf.kernels` — monomorphic integer fixed-point kernels
  (all-``int`` tasksets take these automatically; results are
  bit-identical to the generic :func:`repro.core.timeops.fixed_point`
  path, property-tested in ``tests/test_perf_kernels.py``);
* :mod:`repro.perf.batch` — batch drivers: the in-process analysis
  grid drivers (``analyse_many``, ``acceptance_curve``) plus a reusable
  chunked process-pool map (``pooled_map``/``pooled_imap``, the engine
  under the fuzzing campaigns' per-instance oracles and the corpus
  check);
* :mod:`repro.perf.bench` — the ``bench`` CLI backend emitting
  machine-readable ``BENCH_*.json`` throughput artefacts.

Submodules are imported lazily: the core analyses import
``repro.perf.config`` for the fast-path switch, while ``batch``/``bench``
import the analyses — eager re-exports here would make that a cycle.
"""

from .config import fast_path_disabled, fast_path_enabled, set_fast_path

__all__ = [
    "BatchResult",
    "acceptance_curve",
    "analyse_many",
    "generate_networks",
    "pooled_imap",
    "pooled_map",
    "run_benchmark",
    "write_benchmark",
    "fast_path_disabled",
    "fast_path_enabled",
    "set_fast_path",
]

_LAZY = {
    "BatchResult": "batch",
    "acceptance_curve": "batch",
    "analyse_many": "batch",
    "generate_networks": "batch",
    "pooled_imap": "batch",
    "pooled_map": "batch",
    "run_benchmark": "bench",
    "write_benchmark": "bench",
}


def __getattr__(name):
    try:
        modname = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{modname}", __name__), name)
