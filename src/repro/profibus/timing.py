"""Token-cycle analysis — eqs. (13) and (14) of the paper (§3.3).

The token can only be late because a master overruns its token-holding
time ``TTH`` by (at most) one message cycle, after which every following
master that receives the late token may still transmit one high-priority
message.  With

    C_M^k = max( max_i Ch_i^k , Cl^k )        (longest cycle of master k)

the aggregate lateness bound is (eq. (13))

    Tdel = Σ_k C_M^k

and the upper bound on the time between consecutive token arrivals at a
given master is (eq. (14))

    Tcycle = TTR + Tdel.

We also implement the *refined* bound sketched in [14] (and in the
paper's own illustrative scenario): exactly **one** master plays the
overrunner — contributing its longest cycle of either priority — while
each other master, holding a late token, contributes at most its longest
**high-priority** cycle (a master with no high-priority stream passes the
token straight on)::

    Tdel_refined = max_k ( C_M^k + Σ_{j≠k} ChM^j )

which never exceeds eq. (13) and is validated against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from .network import Master, Network


def longest_cycle(master: Master, phy) -> int:
    """``C_M^k``: longest message cycle of either priority; 0 if no streams."""
    return max((s.cycle_bits(phy) for s in master.streams), default=0)


def longest_high_cycle(master: Master, phy) -> int:
    """``ChM^k``: longest *high-priority* cycle; 0 if none."""
    return max((s.cycle_bits(phy) for s in master.high_streams), default=0)


def tdel(network: Network) -> int:
    """Eq. (13): ``Tdel = Σ_k C_M^k``.

    Derived on every call.  Callers that probe many TTRs of one network
    (:func:`repro.profibus.ttr.max_feasible_ttr`,
    :func:`repro.profibus.sweep.ttr_sweep`) take it once from
    :func:`repro.perf.batch.spec_columns` and add it per probe."""
    return sum(longest_cycle(m, network.phy) for m in network.masters)


def tdel_refined(network: Network) -> int:
    """Refined lateness bound (one overrunner + one high-prio cycle each).

    Falls back to the single master's longest cycle for a one-master
    network.  Never exceeds :func:`tdel`.
    """
    phy = network.phy
    return refined_lateness(
        [longest_cycle(m, phy) for m in network.masters],
        [longest_high_cycle(m, phy) for m in network.masters],
    )


def refined_lateness(cm: Sequence[int], chm: Sequence[int]) -> int:
    """The refined ``Tdel`` from each master's ``C_M^k`` and ``ChM^k``."""
    total_high = sum(chm)
    best = 0
    for k in range(len(cm)):
        cand = cm[k] + (total_high - chm[k])
        if cand > best:
            best = cand
    return best


def check_ring_latency(ttr: int, ring: int) -> None:
    """Raise the canonical ``ValueError`` for a TTR below the no-load
    ring latency ``ring``, where the Tcycle bound does not apply."""
    if ttr < ring:
        raise ValueError(
            f"TTR={ttr} is below the no-load ring latency "
            f"{ring}; the Tcycle bound does not apply"
        )


def tcycle(network: Network, ttr: int = None, refined: bool = False) -> int:
    """Eq. (14): ``Tcycle = TTR + Tdel`` (refined Tdel on request)."""
    if ttr is None:
        ttr = network.require_ttr()
    check_ring_latency(ttr, network.ring_latency())
    lateness = tdel_refined(network) if refined else tdel(network)
    return ttr + lateness


def tcycle_of_cycles(ttr: int, ring: int, cm: Sequence[int],
                     chm: Sequence[int], refined: bool = False) -> int:
    """Eq. (14) from each master's ``C_M^k`` and ``ChM^k``, for callers
    holding cycle lengths rather than a :class:`Network` (the analysis
    service's column path); ``ring`` is the no-load ring latency."""
    check_ring_latency(ttr, ring)
    return ttr + (refined_lateness(cm, chm) if refined else sum(cm))


@dataclass(frozen=True)
class TokenCycleReport:
    """Breakdown of the token-cycle bound for reporting/benches."""

    ttr: int
    tdel_aggregate: int
    tdel_refined: int
    ring_latency: int
    per_master_cm: Dict[str, int]
    per_master_chm: Dict[str, int]

    @property
    def tcycle_aggregate(self) -> int:
        return self.ttr + self.tdel_aggregate

    @property
    def tcycle_refined(self) -> int:
        return self.ttr + self.tdel_refined


def token_cycle_report(network: Network, ttr: int = None) -> TokenCycleReport:
    """Full eq. (13)/(14) breakdown for one network."""
    if ttr is None:
        ttr = network.require_ttr()
    phy = network.phy
    return TokenCycleReport(
        ttr=ttr,
        tdel_aggregate=tdel(network),
        tdel_refined=tdel_refined(network),
        ring_latency=network.ring_latency(),
        per_master_cm={m.name: longest_cycle(m, phy) for m in network.masters},
        per_master_chm={
            m.name: longest_high_cycle(m, phy) for m in network.masters
        },
    )
