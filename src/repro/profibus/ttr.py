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

    Uses eq. (15) directly for FCFS; a search on the monotone
    feasibility predicate for DM/EDF (:func:`max_feasible_ttr_on`).
    Returns ``None`` when even the minimum TTR fails.

    ``Tdel`` and the ``(T, D, J)`` columns do not move with the TTR, so
    the search reads them once (:func:`repro.perf.batch.spec_columns`
    at the ring latency) and each probe runs the kernels at
    ``Tcycle = TTR + Tdel``; networks the column path declines are
    analysed in full per probe.
    """
    base = None
    if policy != "fcfs":
        check_policy(policy)
        # perf.batch imports this module: bind its column reader late
        from ..perf.batch import spec_columns

        base = spec_columns(network, network.ring_latency(),
                            refined=refined)
    return max_feasible_ttr_on(network, policy, refined, base, hi)


def max_feasible_ttr_on(
    network: Network,
    policy: str,
    refined: bool,
    base: Optional[tuple],
    hi: Optional[int] = None,
) -> Optional[int]:
    """:func:`max_feasible_ttr` over ``base``, the network's
    ``spec_columns(network, ring latency, refined)`` read (``None``:
    declined, a full analysis per probe; FCFS reads neither) — the
    entry point for callers that read the columns for more than this
    search.

    On the column path the search runs **master by master**.  Every
    master is checked at the ring latency ``lo`` (the network is
    rejected as before if one fails).  Then each master in turn costs
    one probe when it is feasible at the current ``hi``; otherwise that
    master alone is bisected in ``[lo, hi]`` and ``hi`` becomes its
    largest feasible TTR.  The master likeliest to bind goes first
    (:func:`_binding_guess`), so the later ones mostly cost one probe.
    The result is the network bisection's: each
    master's verdict is monotone in ``tc``, so the largest TTR feasible
    for all of them is the minimum of their largest feasible TTRs
    (capped at ``hi``), and a conjunction of monotone predicates is
    the monotone predicate the network bisection searches.

    Why each verdict is monotone in ``tc``: with ``C = tc`` the
    blocking ``B``, every interference term, the busy period and hence
    the instance count, and every fixed point of eqs. (16)–(18) are
    non-decreasing in ``tc``, and so is the float utilisation guard's
    sum ``Σ tc/T``.  DM responses are those fixed points, or ``None``
    once a limit or the guard trips, so a stream infeasible at ``tc``
    stays infeasible above it.  An EDF offset whose iteration escapes
    its limit reports the overshoot, which need not grow with ``tc``;
    but any escaped value exceeds ``limit = 4·(L + D + J) + tc`` minus
    the offset, which is above ``D``, so the stream's verdict is
    "infeasible" either way and the verdict stays monotone.
    """
    ring = lo = network.ring_latency()
    if policy == "fcfs":
        closed = fcfs_max_ttr(network, refined=refined)
        if closed is None or closed < ring:
            return None
        # eq. (15) is exact for FCFS, but keep the contract honest:
        return closed
    # perf.batch imports this module: bind its column evaluator late
    from ..perf.batch import master_partial

    if hi is None:
        hi = max(
            (s.D for m in network.masters for s in m.high_streams),
            default=lo,
        )
        hi = max(hi, lo)
    if base is None:
        def feasible(t: int) -> bool:
            return t >= ring and analyse(network, policy, t,
                                         refined=refined).schedulable

        if not feasible(lo):
            return None
        # Invariant: lo feasible. Grow hi until infeasible or proven
        # maximal.
        if feasible(hi):
            return hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        return lo
    lateness = base[0] - ring
    # Any visiting order gives the same result.  Visit first the master
    # likeliest to bind, so the masters after it tend to pass at the
    # lowered hi in one probe.
    columns = sorted((specs for specs in base[1] if specs),
                     key=_binding_guess)

    def master_feasible(specs: tuple, t: int) -> bool:
        return master_partial(policy, specs, t + lateness)[0]

    for specs in columns:
        if not master_feasible(specs, lo):
            return None
    if hi <= lo:
        # the network search returns lo for any hi below it
        return lo
    for specs in columns:
        if hi == lo:
            break  # every master is feasible at lo
        if master_feasible(specs, hi):
            continue
        # Invariant: this master is feasible at a, infeasible at b.
        a, b = lo, hi
        while b - a > 1:
            mid = (a + b) // 2
            if master_feasible(specs, mid):
                a = mid
            else:
                b = mid
        hi = a
    return hi


def _binding_guess(specs: tuple) -> int:
    """A rough Tcycle above which the master stops being schedulable —
    only an ordering key for :func:`max_feasible_ttr_on`: a stream of
    DM rank ``k`` waits about ``k + 2`` token cycles (blocking, ``k``
    higher-priority messages, its own)."""
    deadlines = sorted(d for _t, d, _j in specs)
    return min(d // (k + 2) for k, d in enumerate(deadlines))


def ttr_advantage(network: Network, refined: bool = False) -> dict:
    """Per-policy maximum feasible TTR — the §5 claim as one table row."""
    return {
        policy: max_feasible_ttr(network, policy, refined=refined)
        for policy in ("fcfs", "dm", "edf")
    }
