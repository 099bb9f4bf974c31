"""High-throughput analysis engine.

The schedulability questions of the paper all reduce to monotone
fixed-point iterations, and the experiment drivers evaluate thousands of
generated networks/tasksets.  This subpackage makes that layer fast
without changing a single reported number:

* :mod:`repro.perf.config` — the internal analysis-mode seam
  (``generic`` / ``fast``) through which the corpus goldens, the fuzz
  oracles and perfbench compare the accelerated engines against the
  generic reference on identical inputs;
* :mod:`repro.perf.kernels` — the whole-master integer kernels of
  eqs. (16)–(18) (all-``int`` masters take these automatically; results
  are bit-identical to the generic :mod:`repro.core` analyses,
  property-tested in ``tests/test_perf_kernels.py``);
* :mod:`repro.perf.vector` — the structure-of-arrays lanes that
  ``analyse_many`` runs a large grid on;
* :mod:`repro.perf.batch` — batch drivers: the in-process analysis
  grid drivers (``analyse_many``, which picks its engine from the grid
  size, and ``acceptance_curve``) plus a reusable
  chunked process-pool map (``pooled_map``/``pooled_imap``, the engine
  under the fuzzing campaigns' per-instance oracles).

Submodules are imported lazily: ``repro.core`` imports
``repro.perf.stats`` for the iteration tallies, while ``batch``
imports the analyses — eager re-exports here would make that a cycle.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "BatchResult": "batch",
    "acceptance_curve": "batch",
    "analyse_many": "batch",
    "generate_networks": "batch",
    "pooled_imap": "batch",
    "pooled_map": "batch",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
