"""Generalised fixed-priority message analysis and message-level OPA.

Eq. (16) is DM-specific only through the priority order; the underlying
transfer (``C → Tcycle`` into the non-preemptive RTA) works for *any*
fixed-priority assignment of the AP queue.  This module exposes that
generality:

* :func:`fp_analysis` — eq. (16) under a caller-chosen assignment
  (``assign`` maps a core TaskSet to a prioritised one), e.g.
  ``assign_dj_monotonic`` when streams carry release jitter (DM is not
  optimal then);
* :func:`opa_analysis` — Audsley's optimal priority assignment run
  per master on the token-task sets: finds a feasible order whenever
  one exists for the eq. (16) test, strictly dominating any fixed rule.

Both are extensions beyond the paper (its §4 fixes DM or EDF), ablated
in bench E9.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.priority import (
    assign_audsley,
    assign_deadline_monotonic,
    assign_dj_monotonic,
)
from ..core.rta_fixed import (
    feasible_at_lowest_nonpreemptive,
    nonpreemptive_response_time,
)
from ..core.task import TaskSet
from .network import Master, Network
from .results import NetworkAnalysis, StreamResponse
from .timing import tcycle as compute_tcycle


def fp_response_times(
    master: Master,
    tc: int,
    assign: Callable[[TaskSet], Optional[TaskSet]],
) -> Optional[List[StreamResponse]]:
    """Eq. (16) under ``assign``; None when ``assign`` yields no order."""
    streams = master.high_streams
    if not streams:
        return []
    ts = assign(TaskSet(s.as_token_task(tc) for s in streams))
    if ts is None:
        return None
    out = []
    for idx, s in enumerate(streams):
        # lint: disable=REP010 — int-domain call: the RTA helper's float
        # branch is its generic-Number API; all-int tasksets stay exact
        rt = nonpreemptive_response_time(ts, ts[idx])
        out.append(
            StreamResponse(
                master=master.name,
                stream=s,
                R=rt.value,
                Q=None if rt.value is None else rt.value - tc,
            )
        )
    return out


def fp_analysis(
    network: Network,
    assign: Callable[[TaskSet], Optional[TaskSet]] = assign_deadline_monotonic,
    ttr: Optional[int] = None,
    refined: bool = False,
    policy_name: str = "fp",
) -> NetworkAnalysis:
    """Whole-network eq. (16) under an arbitrary priority assignment."""
    if ttr is None:
        ttr = network.require_ttr()
    tc = compute_tcycle(network, ttr, refined=refined)
    per_stream: List[StreamResponse] = []
    for master in network.masters:
        rows = fp_response_times(master, tc, assign)
        if rows is None:
            # assignment failed for this master: mark all its streams
            rows = [
                StreamResponse(master=master.name, stream=s, R=None)
                for s in master.high_streams
            ]
        per_stream.extend(rows)
    return NetworkAnalysis(
        policy=policy_name,
        ttr=ttr,
        tcycle=tc,
        per_stream=tuple(per_stream),
        detail={"refined": refined},
    )


def djm_analysis(
    network: Network, ttr: Optional[int] = None, refined: bool = False
) -> NetworkAnalysis:
    """(D − J)-monotonic AP queue — the right rule under release jitter."""
    return fp_analysis(
        network, assign_dj_monotonic, ttr, refined, policy_name="djm"
    )


def opa_analysis(
    network: Network, ttr: Optional[int] = None, refined: bool = False
) -> NetworkAnalysis:
    """Audsley-optimal AP priorities per master (eq. (16) oracle)."""

    def assign(ts: TaskSet) -> Optional[TaskSet]:
        return assign_audsley(ts, feasible_at_lowest_nonpreemptive)

    return fp_analysis(network, assign, ttr, refined, policy_name="opa")


def stack_depth_analysis(
    network: Network,
    depth: int,
    ttr: Optional[int] = None,
    refined: bool = False,
) -> NetworkAnalysis:
    """Eq. (16) generalised to a ``depth``-deep FCFS stack queue.

    The §4 architecture limits the communication-stack queue to one
    pending request precisely because the stack is FCFS: with ``depth``
    staged requests, a newly arrived urgent message can sit behind up to
    ``min(depth, |lp(i)|)`` lower-priority requests it cannot overtake —
    the blocking term grows to that many token cycles::

        wᵢ = min(depth, |lp(i)|)·Tcycle
             + Σ_{j∈hp(i)} ⌈(wᵢ+Jⱼ)/Tⱼ⌉·Tcycle
        Rᵢ = wᵢ + Tcycle

    ``depth=1`` coincides with :func:`~repro.profibus.dm.dm_analysis`.
    This is the analytical counterpart of the E4.b simulator ablation —
    the quantitative argument for the paper's one-deep choice.
    """
    if depth < 1:
        raise ValueError("stack depth must be >= 1")
    if ttr is None:
        ttr = network.require_ttr()
    tc = compute_tcycle(network, ttr, refined=refined)
    per_stream: List[StreamResponse] = []
    from ..core.timeops import fixed_point, floor_div

    for master in network.masters:
        streams = master.high_streams
        if not streams:
            continue
        base = assign_deadline_monotonic(
            TaskSet(s.as_token_task(tc) for s in streams)
        )
        for idx, s in enumerate(streams):
            task = base[idx]
            n_lp = len(base.lp(task))
            B = min(depth, n_lp) * tc if n_lp else 0
            hp = base.hp(task)

            def step(w):
                total = B
                for j in hp:
                    total = total + (floor_div(w + j.J, j.T) + 1) * tc
                return total

            limit = 64 * (task.D + task.J) + (depth + 1) * tc
            value, _its, converged = fixed_point(step, step(0), limit=limit)
            r = value + tc + task.J if converged else None
            per_stream.append(
                StreamResponse(
                    master=master.name,
                    stream=s,
                    R=r,
                    Q=None if r is None else r - tc,
                )
            )
    return NetworkAnalysis(
        policy=f"dm-stack{depth}",
        ttr=ttr,
        tcycle=tc,
        per_stream=tuple(per_stream),
        detail={"stack_depth": depth, "refined": refined},
    )
