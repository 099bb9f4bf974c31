"""Global analysis-mode selection (generic / fast / vectorized).

Three modes drive the same analyses to bit-identical values:

``generic``
    The exact reference path — generic fixed-point drivers over the
    object model.  Always available, never cached.
``fast``
    The monomorphic all-int kernels of :mod:`repro.perf.kernels` plus
    the instance-keyed caches.  Bit-identical to ``generic``
    (property-tested), so **on by default**.  Inside
    :func:`repro.perf.batch.analyse_many` called without a ``mode``, a
    grid of at least :data:`repro.perf.batch.VECTOR_MIN_STREAMS` streams
    runs on the ``vectorized`` engine instead (same rows bit for bit);
    smaller grids stay on the scalar kernels, so they never pay for
    ``import numpy``.
``vectorized``
    The structure-of-arrays batch kernels of
    :mod:`repro.perf.vector`: whole batches of networks advance their
    fixed-point recurrences together, one instruction stream per sweep.
    Scalar (non-batch) entry points under this mode use the fast
    kernels — the vector engine engages at the batch driver
    (:func:`repro.perf.batch.analyse_many`), at every grid size.

The switch exists for three consumers: the benchmark driver (measures
every mode on the same workload), the property tests / fuzz oracle /
corpus check (assert cross-mode bit-equality), and the API ``mode``
request field.

Environment overrides: ``REPRO_DISABLE_FASTPATH`` (any non-empty value)
forces ``generic`` process-wide — handy for bisecting a suspected
fast-path discrepancy without touching code.  ``REPRO_ANALYSIS_MODE``
picks any of the three modes by name (``REPRO_DISABLE_FASTPATH``
wins).  Without numpy, ``vectorized`` runs the scalar kernels over the
SoA pack of :mod:`repro.perf.vector`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: The recognised analysis modes, in baseline-first order.
ANALYSIS_MODES = ("generic", "fast", "vectorized")


def _initial_mode() -> str:
    if os.environ.get("REPRO_DISABLE_FASTPATH"):
        return "generic"
    env = os.environ.get("REPRO_ANALYSIS_MODE", "")
    if env in ANALYSIS_MODES:
        return env
    return "fast"


_mode: str = _initial_mode()


def analysis_mode() -> str:
    """The active analysis mode (``generic``/``fast``/``vectorized``)."""
    return _mode


def set_analysis_mode(mode: str) -> str:
    """Select the analysis mode; returns the previous mode."""
    if mode not in ANALYSIS_MODES:
        raise ValueError(
            f"unknown analysis mode {mode!r} (expected one of {ANALYSIS_MODES})"
        )
    global _mode
    previous = _mode
    # lint: disable=REP011 — this *is* the mode-switch API; callers on
    # determinism-critical paths save/restore via analysis_mode_set()
    _mode = mode
    return previous


@contextmanager
def analysis_mode_set(mode: str):
    """Run a block under ``mode``, restoring the previous mode after."""
    previous = set_analysis_mode(mode)
    try:
        yield
    finally:
        set_analysis_mode(previous)


def fast_path_enabled() -> bool:
    """Are the specialised integer kernels active?

    True under both accelerated modes: the vectorized mode uses the
    fast scalar kernels wherever the vector engine does not apply
    (single-network entry points, unpackable networks).
    """
    return _mode != "generic"


def set_fast_path(enabled: bool) -> bool:
    """Enable/disable the fast paths; returns the previous setting.

    Boolean view of the mode switch, kept for the established
    callers/tests: ``True`` selects ``fast``, ``False`` selects
    ``generic``.  Code that must preserve a ``vectorized`` selection
    across a scope should use :func:`set_analysis_mode` /
    :func:`analysis_mode_set` instead.
    """
    previous = set_analysis_mode("fast" if enabled else "generic")
    return previous != "generic"


@contextmanager
def fast_path_disabled():
    """Run a block on the generic exact path (baseline measurement)."""
    previous = set_analysis_mode("generic")
    try:
        yield
    finally:
        set_analysis_mode(previous)
