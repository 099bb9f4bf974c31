"""Analysis-mode selection (generic / fast / vectorized).

Three modes drive the same analyses to bit-identical values:

``generic``
    The exact reference path: the generic fixed-point drivers of
    :mod:`repro.core` over the object model.  Always available; it
    calls no kernel.
``fast``
    The whole-master integer kernels of :mod:`repro.perf.kernels`; no
    analysis result is cached on the model objects.  Bit-identical to
    ``generic``
    (property-tested), so **on by default**.  Outside every
    :func:`analysis_mode_set` scope, :func:`repro.perf.batch.analyse_many`
    runs a grid of at least :data:`repro.perf.batch.VECTOR_MIN_STREAMS`
    streams on the ``vectorized`` engine instead (same rows bit for
    bit); smaller grids stay on the scalar kernels, so they never pay
    for ``import numpy``.  A scoped ``fast`` keeps every grid scalar.
``vectorized``
    The structure-of-arrays batch kernels of
    :mod:`repro.perf.vector`: whole batches of networks advance their
    fixed-point recurrences together, one instruction stream per sweep.
    Scalar (non-batch) entry points under this mode use the fast
    kernels — the vector engine engages at the batch driver
    (:func:`repro.perf.batch.analyse_many`), at every grid size.  It
    needs numpy: without it, and for every network the lanes cannot
    take, the batch driver runs the fast kernels network by network.

The switch is an internal oracle seam, not a user knob: the corpus
goldens, the fuzz oracles and perfbench's generic reference run the
accelerated engines against the generic one on identical inputs.  On
the analysis side one seam reads it,
:func:`repro.profibus.network.kernels_enabled`: ``stream_specs`` and
the column reader ``timing.read_columns`` decline under ``generic``, so
no kernel runs; :mod:`repro.core` never reads it.

The process default is ``fast``.  A scoped override
(:func:`analysis_mode_set`) lives in a context variable, so overlapping
overrides on different threads — the daemon's executor runs requests
concurrently — never see or restore each other's mode.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

#: The recognised analysis modes, in baseline-first order.
ANALYSIS_MODES = ("generic", "fast", "vectorized")

#: The innermost :func:`analysis_mode_set` scope of the current context.
_override: ContextVar[Optional[str]] = ContextVar("analysis_mode",
                                                  default=None)


def analysis_mode() -> str:
    """The active analysis mode (``generic``/``fast``/``vectorized``)."""
    return _override.get() or "fast"


def scoped_analysis_mode() -> Optional[str]:
    """The mode of the innermost :func:`analysis_mode_set` scope
    (``None`` outside every scope, where the ``fast`` default holds)."""
    return _override.get()


@contextmanager
def analysis_mode_set(mode: str):
    """Run a block under ``mode`` in this context only."""
    if mode not in ANALYSIS_MODES:
        raise ValueError(
            f"unknown analysis mode {mode!r} (expected one of {ANALYSIS_MODES})"
        )
    token = _override.set(mode)
    try:
        yield
    finally:
        _override.reset(token)
