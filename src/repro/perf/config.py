"""Analysis-mode switch (generic / fast).

Two modes drive the same analyses to bit-identical values:

``generic``
    The exact reference path: the generic fixed-point drivers of
    :mod:`repro.core` over the object model.  Always available; it
    calls no kernel.
``fast``
    The accelerated engines, **on by default**: the whole-master
    integer kernels of :mod:`repro.perf.kernels` (no analysis result is
    cached on the model objects) and, for a batch grid of at least
    :data:`repro.perf.batch.VECTOR_MIN_STREAMS` streams, the numpy
    lanes of :mod:`repro.perf.vector`.  The mode does not pick between
    those two: :func:`repro.perf.batch.analyse_many` does, from the
    grid size alone.

The switch is an internal oracle seam, not a user knob: the corpus
goldens, the fuzz oracles and perfbench's generic reference run the
accelerated engines against the generic one on identical inputs
(:func:`repro.perf.batch.engine_rows` runs a grid on all three).  On
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

#: The recognised analysis modes, in baseline-first order.
ANALYSIS_MODES = ("generic", "fast")

#: The mode of the innermost :func:`analysis_mode_set` scope.
_mode: ContextVar[str] = ContextVar("analysis_mode", default="fast")


def analysis_mode() -> str:
    """The active analysis mode (``generic``/``fast``)."""
    return _mode.get()


@contextmanager
def analysis_mode_set(mode: str):
    """Run a block under ``mode`` in this context only."""
    if mode not in ANALYSIS_MODES:
        raise ValueError(
            f"unknown analysis mode {mode!r} (expected one of {ANALYSIS_MODES})"
        )
    token = _mode.set(mode)
    try:
        yield
    finally:
        _mode.reset(token)
