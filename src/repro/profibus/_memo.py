"""Instance memos of the analyses — the one place ``profibus`` reads the
analysis mode.

Streams, masters and networks are immutable, so derived analysis
artefacts (cycle lengths, longest cycles, ``Tdel``, kernel specs, staged
rows) are cached on the instances themselves, keyed by the remaining
analysis inputs (``Tcycle``, PHY).  Instance-keyed (not value-keyed) on
purpose: sweeps re-analyse the *same* master objects thousands of
times, while benchmark baselines on freshly generated but value-equal
networks must not get accidental hits.  The memos live in underscore
attributes, which the models drop on pickling; worker processes rebuild
them locally.

Under the ``generic`` reference every accessor hands out a fresh
throwaway dict and :func:`stream_specs` returns ``None``, so the
reference reads no memo and calls no kernel while each analysis keeps
one body for every mode.
"""

from __future__ import annotations

from typing import Optional

from ..perf.config import analysis_mode


def _memo(obj, attr: str) -> dict:
    if analysis_mode() == "generic":
        return {}
    slots = obj.__dict__
    memo = slots.get(attr)
    if memo is None:
        # frozen dataclass: the memo bypasses __setattr__ like every
        # other derived attribute of the models
        memo = slots[attr] = {}
    return memo


def stream_memo(stream) -> dict:
    """Per-stream memo: the stream's own attribute dict, so the one
    PHY-keyed cycle length costs no dict per stream (batch grids hold
    tens of thousands).  Keys must start with ``_`` to stay out of
    pickles."""
    if analysis_mode() == "generic":
        return {}
    return stream.__dict__


def master_memo(master) -> dict:
    """Per-master memo: staged rows, longest cycles, kernel specs and
    SoA pack columns."""
    return _memo(master, "_analysis_memo")


def network_memo(network) -> dict:
    """Per-network memo: the eq. (13) lateness bounds."""
    return _memo(network, "_timing_memo")


def stream_specs(master) -> Optional[tuple]:
    """``(T, D, J)`` per high-priority stream when all are plain ints —
    the whole-master kernel input (see :mod:`repro.perf.kernels`) —
    else ``None``; always ``None`` under ``generic``.  Memoised on the
    master."""
    if analysis_mode() == "generic":
        return None
    memo = master_memo(master)
    specs = memo.get("specs", False)
    if specs is False:
        specs = tuple((s.T, s.D, s.J) for s in master.high_streams)
        if not all(
            type(t) is int and type(d) is int and type(j) is int
            for t, d, j in specs
        ):
            specs = None
        memo["specs"] = specs
    return specs
