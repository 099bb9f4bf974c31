"""FCFS message analysis — eqs. (11), (12) and (15) of the paper (§3.2/§3.4).

With the stock PROFIBUS outgoing queue (first-come-first-served), a
master ``k`` with ``nh^k`` high-priority streams can have at most
``nh^k`` pending requests (one per stream — two from the same stream
would already imply a missed deadline), and one of them is served per
token visit.  Hence

    Q_i^k = nh^k · Tcycle − Ch_i^k            (queuing delay)
    R_i^k = Q_i^k + Ch_i^k = nh^k · Tcycle    (eq. (11))

and the stream set is schedulable iff ``Dh_i^k ≥ R_i^k`` for every
stream of every master (eq. (12)).  Since ``R`` grows with ``TTR``
through ``Tcycle = TTR + Tdel``, eq. (15) yields the largest admissible
target rotation time:

    TTR ≤ min_{k,i} ( Dh_i^k / nh^k ) − Tdel
"""

from __future__ import annotations

from typing import Optional

from ..core.timeops import floor_div
from .network import Network
from .results import NetworkAnalysis, StreamResponse
from .timing import tcycle as compute_tcycle
from .timing import tdel as compute_tdel


def fcfs_analysis(
    network: Network, ttr: Optional[int] = None, refined: bool = False
) -> NetworkAnalysis:
    """Eq. (11)/(12) for every high-priority stream of the network."""
    if ttr is None:
        ttr = network.require_ttr()
    tc = compute_tcycle(network, ttr, refined=refined)
    per_stream = []
    phy = network.phy
    for master in network.masters:
        nh = master.nh
        per_stream.extend(
            StreamResponse(
                master=master.name, stream=s, R=nh * tc,
                Q=nh * tc - s.cycle_bits(phy),
            )
            for s in master.high_streams
        )
    return NetworkAnalysis(
        policy="fcfs",
        ttr=ttr,
        tcycle=tc,
        per_stream=tuple(per_stream),
        detail={"refined": refined},
    )


def max_feasible_ttr(network: Network, refined: bool = False) -> Optional[int]:
    """Eq. (15): largest TTR for which FCFS meets every deadline.

    Returns ``None`` when no TTR at or above the ring latency works
    (i.e. even the most aggressive setting cannot schedule the set).
    Integer bit times: the bound is ``⌊min D/nh⌋ − Tdel``.
    """
    if refined:
        from .timing import tdel_refined

        lateness = tdel_refined(network)
    else:
        lateness = compute_tdel(network)
    best: Optional[int] = None
    for master in network.masters:
        nh = master.nh
        for s in master.high_streams:
            # lint: disable=REP010 — int-domain call: floor_div's float
            # branch is its generic-Number API; int args stay exact
            cand = floor_div(s.D, nh) - lateness
            if best is None or cand < best:
                best = cand
    if best is None:
        # No high-priority streams: any TTR ≥ ring latency is fine.
        return None
    if best < network.ring_latency():
        return None
    return best
