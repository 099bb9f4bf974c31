"""High-throughput analysis engine.

The schedulability questions of the paper all reduce to monotone
fixed-point iterations, and the experiment drivers evaluate thousands of
generated networks/tasksets.  This subpackage makes that layer fast
without changing a single reported number:

* :mod:`repro.perf.config` — the analysis-mode switch (``generic`` /
  ``fast`` / ``vectorized``) so benchmarks and property tests can
  compare the accelerated engines against the generic reference on
  identical inputs;
* :mod:`repro.perf.kernels` — the whole-master integer kernels of
  eqs. (16)–(18) (all-``int`` masters take these automatically; results
  are bit-identical to the generic :mod:`repro.core` analyses,
  property-tested in ``tests/test_perf_kernels.py``);
* :mod:`repro.perf.batch` — batch drivers: the in-process analysis
  grid drivers (``analyse_many``, ``acceptance_curve``) plus a reusable
  chunked process-pool map (``pooled_map``/``pooled_imap``, the engine
  under the fuzzing campaigns' per-instance oracles and the corpus
  check);
* :mod:`repro.perf.bench` — the ``bench`` CLI backend emitting
  machine-readable ``BENCH_*.json`` throughput artefacts.

Submodules are imported lazily: ``repro.core`` imports
``repro.perf.stats`` for the iteration tallies, while ``batch``/``bench``
import the analyses — eager re-exports here would make that a cycle.
"""

__all__ = [
    "BatchResult",
    "acceptance_curve",
    "analyse_many",
    "generate_networks",
    "pooled_imap",
    "pooled_map",
    "run_benchmark",
    "write_benchmark",
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
