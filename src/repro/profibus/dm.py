"""DM message analysis for the AP-level priority queue — eq. (16) (§4.3).

With the §4 architecture — a deadline-monotonic priority queue at the
application-process level feeding a communication-stack queue limited to
**one** pending request — each token visit transmits the one staged
request, so a message effectively "executes" for one token cycle.  The
paper's transfer is therefore literal: take the non-preemptive
fixed-priority response-time analysis of eq. (1)–(2) and substitute
``C → Tcycle``::

    w_i = B_i + Σ_{j∈hp(i)} ⌈(w_i + J_j)/T_j⌉ · Tcycle
    R_i = w_i + Tcycle
    B_i = Tcycle  if lp(i) ≠ ∅  (a just-staged lower-priority request)
        = 0       otherwise     (the printed "T*cycle = 0" case)

Only streams **within the same master** interfere here — other masters'
traffic is already inside ``Tcycle``.  We implement the substitution by
building a core :class:`~repro.core.task.TaskSet` with ``C = Tcycle``
per stream and running :func:`repro.core.rta_fixed.nonpreemptive_rta`;
``paper_form=True`` instead iterates the equation exactly as printed
(non-strict ceiling, blocking merged into the base term) for the
ablation bench — see DESIGN.md §2 for why the Tindell form is primary.
"""

from __future__ import annotations

from typing import List, Optional

from ..perf import kernels
from ..core.priority import assign_deadline_monotonic
from ..core.rta_fixed import nonpreemptive_response_time
from ..core.task import TaskSet
from ..core.timeops import ceil_div, fixed_point
from ._memo import master_memo, stream_specs
from .network import Master, Network
from .results import NetworkAnalysis, StreamResponse
from .timing import tcycle as compute_tcycle


def _master_taskset(master: Master, tc: int) -> Optional[TaskSet]:
    streams = master.high_streams
    if not streams:
        return None
    return assign_deadline_monotonic(
        TaskSet(s.as_token_task(tc) for s in streams)
    )


def dm_response_times(master: Master, tc: int) -> List[StreamResponse]:
    """Eq. (16) for every high-priority stream of one master (memoised
    per master instance and Tcycle)."""
    streams = master.high_streams
    if not streams:
        return []
    # Single slot per master: bounded memory under fine-grained TTR
    # sweeps/bisections that probe many distinct Tcycle values.
    memo = master_memo(master)
    entry = memo.get("dm_rows")
    if entry is not None and entry[0] == tc:
        return list(entry[1])  # callers own their copy

    specs = stream_specs(master)
    if specs is not None and type(tc) is int:
        values = kernels.dm_master_response_times(specs, tc)
    else:
        ts = _master_taskset(master, tc)
        values = [
            # lint: disable=REP010 — int-domain call: the RTA helper's
            # float branch is its generic-Number API; all-int tasksets
            # take the exact path (proven by the cross-mode oracles)
            nonpreemptive_response_time(ts, ts[idx]).value
            for idx in range(len(streams))
        ]
    out = [
        StreamResponse(
            master=master.name,
            stream=s,
            R=r,
            Q=None if r is None else r - tc,
        )
        for s, r in zip(streams, values)
    ]
    memo["dm_rows"] = (tc, list(out))  # private copy
    return out


def dm_response_time_paper_form(
    master: Master, tc: int, stream_name: str
) -> Optional[int]:
    """The eq. (16) recursion exactly as printed.

    ``R_i = T*cycle + Σ_{j∈hp(i)} ⌈(R_i + J_j)/T_j⌉·Tcycle`` with
    ``T*cycle = Tcycle`` except 0 for the lowest-priority stream.
    Kept verbatim for the ablation; see the module docstring.
    """
    ts = _master_taskset(master, tc)
    if ts is None:
        raise KeyError(stream_name)
    task = ts.by_name(stream_name)
    hp = ts.hp(task)
    lowest = not ts.lp(task)
    base = 0 if lowest else tc

    def step(r):
        total = base
        for j in hp:
            # lint: disable=REP010 — int-domain call: ceil_div's float
            # branch is its generic-Number API; int args stay exact
            total = total + ceil_div(r + j.J, j.T) * tc
        return total

    limit = 64 * (task.D + task.J) + tc
    # lint: disable=REP010 — int-domain call: fixed_point's almost_equal
    # is its generic-Number convergence test; int iterates compare exactly
    value, _its, converged = fixed_point(step, 0, limit=limit)
    return value if converged else None


def dm_analysis(
    network: Network, ttr: Optional[int] = None, refined: bool = False
) -> NetworkAnalysis:
    """Whole-network eq. (16) analysis (per-master independence)."""
    if ttr is None:
        ttr = network.require_ttr()
    tc = compute_tcycle(network, ttr, refined=refined)
    per_stream = []
    for master in network.masters:
        per_stream.extend(dm_response_times(master, tc))
    return NetworkAnalysis(
        policy="dm",
        ttr=ttr,
        tcycle=tc,
        per_stream=tuple(per_stream),
        detail={"refined": refined},
    )
