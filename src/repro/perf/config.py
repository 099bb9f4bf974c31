"""Analysis-mode selection (generic / fast / vectorized).

Three modes drive the same analyses to bit-identical values:

``generic``
    The exact reference path: the generic fixed-point drivers of
    :mod:`repro.core` over the object model.  Always available; it reads
    no memo and calls no kernel.
``fast``
    The whole-master integer kernels of :mod:`repro.perf.kernels` plus
    the instance-keyed memos.  Bit-identical to ``generic``
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
request field.  On the analysis side one private seam,
:mod:`repro.profibus._memo`, reads it; :mod:`repro.core` never does.

The process default is a plain module value (:func:`set_analysis_mode`,
seeded from ``REPRO_ANALYSIS_MODE`` when that names a mode).  A scoped
override (:func:`analysis_mode_set`) lives in a context variable, so
overlapping overrides on different threads — the daemon's executor runs
requests concurrently — never see or restore each other's mode.
Without numpy, ``vectorized`` runs the scalar kernels over the SoA pack
of :mod:`repro.perf.vector`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

#: The recognised analysis modes, in baseline-first order.
ANALYSIS_MODES = ("generic", "fast", "vectorized")


def _check(mode: str) -> str:
    if mode not in ANALYSIS_MODES:
        raise ValueError(
            f"unknown analysis mode {mode!r} (expected one of {ANALYSIS_MODES})"
        )
    return mode


def _initial_mode() -> str:
    env = os.environ.get("REPRO_ANALYSIS_MODE", "")
    return env if env in ANALYSIS_MODES else "fast"


_mode: str = _initial_mode()
#: The innermost :func:`analysis_mode_set` scope of the current context.
_override: ContextVar[Optional[str]] = ContextVar("analysis_mode",
                                                  default=None)


def analysis_mode() -> str:
    """The active analysis mode (``generic``/``fast``/``vectorized``)."""
    return _override.get() or _mode


def set_analysis_mode(mode: str) -> str:
    """Select the process default mode; returns the previous default.

    An enclosing :func:`analysis_mode_set` scope still wins inside its
    own context.
    """
    global _mode
    previous = _mode
    # lint: disable=REP011 — this *is* the mode-switch API; callers on
    # determinism-critical paths scope their mode via analysis_mode_set()
    _mode = _check(mode)
    return previous


@contextmanager
def analysis_mode_set(mode: str):
    """Run a block under ``mode`` in this context only."""
    token = _override.set(_check(mode))
    try:
        yield
    finally:
        _override.reset(token)
