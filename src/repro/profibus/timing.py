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
from typing import Dict, Tuple

from ._memo import master_memo, network_memo
from .network import Master, Network


def longest_cycle(master: Master, phy) -> int:
    """``C_M^k``: longest message cycle of either priority; 0 if no streams."""
    # Single-slot identity cache per master (one PHY per network).
    memo = master_memo(master)
    entry = memo.get("cm")
    if entry is not None and entry[0] is phy:
        return entry[1]
    lengths = [s.cycle_bits(phy) for s in master.streams]
    value = max(lengths) if lengths else 0
    memo["cm"] = (phy, value)
    return value


def longest_high_cycle(master: Master, phy) -> int:
    """``ChM^k``: longest *high-priority* cycle; 0 if none."""
    memo = master_memo(master)
    entry = memo.get("chm")
    if entry is not None and entry[0] is phy:
        return entry[1]
    lengths = [s.cycle_bits(phy) for s in master.high_streams]
    value = max(lengths) if lengths else 0
    memo["chm"] = (phy, value)
    return value


def tdel(network: Network) -> int:
    """Eq. (13): ``Tdel = Σ_k C_M^k`` (memoised per network)."""
    memo = network_memo(network)
    value = memo.get("tdel")
    if value is None:
        value = sum(longest_cycle(m, network.phy) for m in network.masters)
        memo["tdel"] = value
    return value


def tdel_refined(network: Network) -> int:
    """Refined lateness bound (one overrunner + one high-prio cycle each).

    Falls back to the single master's longest cycle for a one-master
    network.  Never exceeds :func:`tdel`.  Memoised per network.
    """
    memo = network_memo(network)
    value = memo.get("tdel_refined")
    if value is not None:
        return value
    phy = network.phy
    cm = [longest_cycle(m, phy) for m in network.masters]
    chm = [longest_high_cycle(m, phy) for m in network.masters]
    total_high = sum(chm)
    best = 0
    for k in range(len(cm)):
        cand = cm[k] + (total_high - chm[k])
        if cand > best:
            best = cand
    memo["tdel_refined"] = best
    return best


def tcycle(network: Network, ttr: int = None, refined: bool = False) -> int:
    """Eq. (14): ``Tcycle = TTR + Tdel`` (refined Tdel on request)."""
    if ttr is None:
        ttr = network.require_ttr()
    if ttr < network.ring_latency():
        raise ValueError(
            f"TTR={ttr} is below the no-load ring latency "
            f"{network.ring_latency()}; the Tcycle bound does not apply"
        )
    lateness = tdel_refined(network) if refined else tdel(network)
    return ttr + lateness


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
