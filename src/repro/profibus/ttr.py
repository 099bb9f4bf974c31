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
from .timing import columns_or_network

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
    network,
    policy: str = "fcfs",
    refined: bool = False,
    hi: Optional[int] = None,
) -> Optional[int]:
    """Largest TTR (≥ ring latency) keeping ``policy`` schedulable.

    ``network`` is a :class:`Network`, its scan or the
    :class:`~repro.profibus.timing.Columns` already read from either
    (:func:`~repro.profibus.timing.columns_or_network`; columns carry
    their ``Tdel``, so ``refined`` then goes unread).  Returns ``None``
    when even the minimum TTR fails.  FCFS is eq. (15) in closed form,
    ``⌊min D / nh⌋ − Tdel``; DM/EDF search the monotone feasibility
    predicate.  Over columns, each probe runs the kernels at
    ``Tcycle = TTR + Tdel``; over a network the reader declines, each
    probe is a full analysis (FCFS:
    :func:`repro.profibus.fcfs.max_feasible_ttr`).

    Over columns the search runs **master by master**.  Every master is
    checked at the ring latency ``lo`` (the network is rejected if one
    fails).  Then each master in turn costs one probe when it is
    feasible at the current ``hi``; otherwise that master alone is
    bisected in ``[lo, hi]`` and ``hi`` becomes its largest feasible
    TTR.  The master likeliest to bind goes first
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
    check_policy(policy)
    source = columns_or_network(network, refined)
    if isinstance(source, Network):
        ring = lo = source.ring_latency()
        if policy == "fcfs":
            closed = fcfs_max_ttr(source, refined=refined)
            return None if closed is None or closed < ring else closed
        deadlines = [s.D for m in source.masters for s in m.high_streams]
        predicates = [lambda t: t >= ring and analyse(
            source, policy, t, refined=refined).schedulable]
    else:
        ring = lo = source.ring
        if policy == "fcfs":
            best = min((d // len(specs) for specs in source.specs
                        for _t, d, _j in specs), default=None)
            if best is None or best - source.lateness < ring:
                return None
            return best - source.lateness
        deadlines = [d for specs in source.specs for _t, d, _j in specs]
        # perf.batch imports this module: bind its column evaluator late
        from ..perf.batch import master_partial

        predicates = [
            lambda t, specs=specs: master_partial(
                policy, specs, t + source.lateness)[0]
            for specs in sorted(source.specs, key=_binding_guess)]
    if hi is None:
        hi = max(max(deadlines, default=lo), lo)
    for feasible in predicates:
        if not feasible(lo):
            return None
    if hi <= lo:
        # the network search returns lo for any hi below it
        return lo
    for feasible in predicates:
        if hi == lo:
            break  # feasible at lo
        if feasible(hi):
            continue
        # Invariant: feasible at a, infeasible at b.
        a, b = lo, hi
        while b - a > 1:
            mid = (a + b) // 2
            if feasible(mid):
                a = mid
            else:
                b = mid
        hi = a
    return hi


def _binding_guess(specs: tuple) -> int:
    """A rough Tcycle above which the master stops being schedulable —
    only an ordering key for :func:`max_feasible_ttr`: a stream of
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
