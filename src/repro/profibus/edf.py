"""EDF message analysis for the AP-level priority queue — eqs. (17)–(18).

The §4.3 transfer for EDF dispatching: apply the non-preemptive EDF
response-time analysis of eqs. (9)–(10) with every message cycle costing
one token cycle (``C → Tcycle``, all cycles assumed equal)::

    R_i(a) = max( Tcycle, Tcycle + L_i(a) − a )                 (17)
    L_i(a) = T*cycle(a) + W_i(a, L_i(a)) + ⌊a/T_i⌋·Tcycle       (18)
    W_i(a,t) = Σ_{j≠i, D_j ≤ a+D_i}
               min( 1+⌊(t+J_j)/T_j⌋, 1+⌊(a+D_i−D_j+J_j)/T_j⌋ ) · Tcycle

with ``T*cycle(a) = Tcycle`` when some other stream has
``D_j > a + D_i`` (one staged later-deadline request blocks a full token
cycle — no ``−1`` here: requests can be staged "marginally before" the
token passes) and 0 otherwise.  Implemented by building a core task set
with ``C = Tcycle`` and calling
:func:`repro.core.edf_rta.edf_response_time` with
``blocking_subtract_one=False``.  As with DM, only same-master streams
interfere; the rest of the network lives inside ``Tcycle``.
"""

from __future__ import annotations

from typing import List, Optional

from ..perf import kernels
from ..core.edf_rta import edf_response_time
from ..core.task import TaskSet
from ._memo import master_memo, stream_specs
from .network import Master, Network
from .results import NetworkAnalysis, StreamResponse
from .timing import tcycle as compute_tcycle


def edf_response_times(master: Master, tc: int) -> List[StreamResponse]:
    """Eqs. (17)–(18) for every high-priority stream of one master
    (memoised per master instance and Tcycle)."""
    streams = master.high_streams
    if not streams:
        return []
    memo = master_memo(master)
    entry = memo.get("edf_rows")  # single slot: bounded under TTR sweeps
    if entry is not None and entry[0] == tc:
        return list(entry[1])  # callers own their copy

    specs = stream_specs(master)
    if specs is not None and type(tc) is int:
        values = kernels.edf_master_response_times(specs, tc)
    else:
        ts = TaskSet(s.as_token_task(tc) for s in streams)
        values = [
            (rt.value, rt.critical_a)
            for rt in (
                # lint: disable=REP010 — int-domain call: the EDF RTA's
                # float branch is its generic-Number utilisation guard;
                # all-int tasksets take the exact path
                edf_response_time(
                    ts, ts[idx], preemptive=False,
                    blocking_subtract_one=False,
                )
                for idx in range(len(streams))
            )
        ]
    out = [
        StreamResponse(
            master=master.name,
            stream=s,
            R=r,
            Q=None if r is None else r - tc,
            critical_a=a,
        )
        for s, (r, a) in zip(streams, values)
    ]
    memo["edf_rows"] = (tc, list(out))  # private copy
    return out


def edf_analysis(
    network: Network, ttr: Optional[int] = None, refined: bool = False
) -> NetworkAnalysis:
    """Whole-network eqs. (17)–(18) analysis."""
    if ttr is None:
        ttr = network.require_ttr()
    tc = compute_tcycle(network, ttr, refined=refined)
    per_stream = []
    for master in network.masters:
        per_stream.extend(edf_response_times(master, tc))
    return NetworkAnalysis(
        policy="edf",
        ttr=ttr,
        tcycle=tc,
        per_stream=tuple(per_stream),
        detail={"refined": refined},
    )
