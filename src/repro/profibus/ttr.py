"""TTR parameter derivation (§3.4) and its priority-based generalisation.

For FCFS, eq. (15) gives the admissible TTR in closed form
(:func:`repro.profibus.fcfs.max_feasible_ttr`).  For the §4 priority
architectures no closed form exists, but every response-time bound in
eqs. (16)–(18) is **monotone non-decreasing in Tcycle** and hence in
TTR, so the largest feasible TTR can be found by binary search — that is
what :func:`max_feasible_ttr` does for any policy.

A *larger* TTR is desirable in practice (more budget per rotation for
low-priority/background traffic); the benches therefore report the
maximum feasible TTR per policy as a second figure of merit next to
response times.
"""

from __future__ import annotations

from typing import Optional

from .dm import dm_analysis
from .edf import edf_analysis
from .fcfs import fcfs_analysis
from .fcfs import max_feasible_ttr as fcfs_max_ttr
from .network import Network
from .results import NetworkAnalysis

_POLICIES: dict = {
    "fcfs": fcfs_analysis,
    "dm": dm_analysis,
    "edf": edf_analysis,
}


def check_policy(policy: str) -> None:
    """Raise the canonical ``ValueError`` for a policy name no analysis
    knows."""
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}; pick from {sorted(_POLICIES)}")


def analyse(
    network: Network,
    policy: str,
    ttr: Optional[int] = None,
    refined: bool = False,
) -> NetworkAnalysis:
    """Dispatch to the FCFS / DM / EDF analysis by name."""
    check_policy(policy)
    return _POLICIES[policy](network, ttr, refined=refined)


def schedulable_with_ttr(
    network: Network, policy: str, ttr: int, refined: bool = False
) -> bool:
    """Is the network schedulable under ``policy`` with this TTR?"""
    if ttr < network.ring_latency():
        return False
    return analyse(network, policy, ttr, refined=refined).schedulable


def max_feasible_ttr(
    network: Network,
    policy: str = "fcfs",
    refined: bool = False,
    hi: Optional[int] = None,
) -> Optional[int]:
    """Largest TTR (≥ ring latency) keeping ``policy`` schedulable.

    Uses eq. (15) directly for FCFS; binary search on the monotone
    feasibility predicate for DM/EDF.  Returns ``None`` when even the
    minimum TTR fails.

    ``Tdel`` and the ``(T, D, J)`` columns do not move with the TTR, so
    the search reads them once (:func:`repro.perf.batch.spec_columns`
    at the ring latency) and each probe runs the kernels at
    ``Tcycle = TTR + Tdel``; networks the column path declines are
    analysed in full per probe.
    """
    ring = lo = network.ring_latency()
    if policy == "fcfs":
        closed = fcfs_max_ttr(network, refined=refined)
        if closed is None or closed < ring:
            return None
        # eq. (15) is exact for FCFS, but keep the contract honest:
        return closed
    check_policy(policy)
    # perf.batch imports this module: bind its column evaluator late
    from ..perf.batch import spec_columns, summarise_columns

    base = spec_columns(network, ring, refined=refined)
    lateness = None if base is None else base[0] - ring

    def feasible(t: int) -> bool:
        if t < ring:
            return False
        if base is None:
            return analyse(network, policy, t, refined=refined).schedulable
        return summarise_columns(policy, t + lateness, base[1]).schedulable

    if not feasible(lo):
        return None
    if hi is None:
        hi = max(
            (s.D for m in network.masters for s in m.high_streams),
            default=lo,
        )
        hi = max(hi, lo)
    # Invariant: lo feasible. Grow hi until infeasible or proven maximal.
    if feasible(hi):
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def ttr_advantage(network: Network, refined: bool = False) -> dict:
    """Per-policy maximum feasible TTR — the §5 claim as one table row."""
    return {
        policy: max_feasible_ttr(network, policy, refined=refined)
        for policy in ("fcfs", "dm", "edf")
    }
