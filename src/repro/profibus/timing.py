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

One column reader, :func:`read_columns`, gives every analysis, sweep
and search its ``Tdel`` and ``(T, D, J)`` columns (:class:`Columns`);
:func:`tcycle` over the objects stays as the generic reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .cycle import token_pass_time
from .network import Master, Network, kernels_enabled, require_ttr
from .phy import PhyParameters


def longest_cycle(master: Master, phy) -> int:
    """``C_M^k``: longest message cycle of either priority; 0 if no streams."""
    return max((s.cycle_bits(phy) for s in master.streams), default=0)


def longest_high_cycle(master: Master, phy) -> int:
    """``ChM^k``: longest *high-priority* cycle; 0 if none."""
    return max((s.cycle_bits(phy) for s in master.high_streams), default=0)


def tdel(network: Network) -> int:
    """Eq. (13): ``Tdel = Σ_k C_M^k``.

    Derived on every call: the generic reference.  The analyses,
    sweeps and searches read it once per network from
    :attr:`Columns.lateness` (:func:`read_columns`)."""
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


class Columns(NamedTuple):
    """What eqs. (13)/(14) and the kernels read of a network."""

    ttr: Optional[int]  # None: the network has none
    phy: PhyParameters
    ring: int  # the no-load ring latency
    lateness: int  # Tdel: eq. (13), or the refined bound
    #: per master with a high-priority stream: its ``(T, D, J)`` column
    specs: Tuple[tuple, ...]
    #: … and ``(master name, the column's stream names)``
    names: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: the rows read (see :func:`read_columns`)
    masters: Sequence[tuple]

    def tcycle(self, ttr: Optional[int] = None) -> int:
        """Eq. (14) at ``ttr`` (default: the network's own), with
        :func:`tcycle`'s checks."""
        if ttr is None:
            ttr = require_ttr(self.ttr)
        check_ring_latency(ttr, self.ring)
        return ttr + self.lateness


def read_columns(ttr, phy: PhyParameters, masters: Sequence[tuple],
                 refined: bool = False) -> Optional[Columns]:
    """The :class:`Columns` of a network from its masters'
    :class:`~repro.profibus.serialization.ScannedMaster` rows, or tuples
    of that shape: ``(address, name, stream names, (T, D, J, high, C)
    rows, _)``.  ``None`` (analyse the objects instead) under the
    generic reference, or for a set TTR, a high-priority ``T``, ``D``,
    ``J`` or any ``C`` that is not a plain int."""
    if (ttr is not None and type(ttr) is not int) or not kernels_enabled():
        return None
    cm: List[int] = []
    chm: List[int] = []
    specs = []
    names = []
    for _address, name, stream_names, rows, _cycles in masters:
        longest = longest_high = 0
        high_names = []
        column = []
        for stream, (t, d, j, high, c) in zip(stream_names, rows):
            if type(c) is not int:
                return None
            if c > longest:
                longest = c
            if high:
                if type(t) is not int or type(d) is not int \
                        or type(j) is not int:
                    return None
                if c > longest_high:
                    longest_high = c
                high_names.append(stream)
                column.append((t, d, j))
        cm.append(longest)
        chm.append(longest_high)
        if column:
            specs.append(tuple(column))
            names.append((name, tuple(high_names)))
    lateness = refined_lateness(cm, chm) if refined else sum(cm)
    return Columns(ttr, phy, len(cm) * token_pass_time(phy), lateness,
                   tuple(specs), tuple(names), masters)


def network_columns(network: Network,
                    refined: bool = False) -> Optional[Columns]:
    """:func:`read_columns` of a :class:`Network`: one ``cycle_bits``
    per stream (``None`` for a cycle spec it rejects, which the object
    analysis then reports)."""
    phy = network.phy
    try:
        masters = [(m.address, m.name, [s.name for s in m.streams],
                    [(s.T, s.D, s.J, s.high_priority, s.cycle_bits(phy))
                     for s in m.streams], None)
                   for m in network.masters]
    except ValueError:
        return None
    return read_columns(network.ttr, phy, masters, refined)


def columns_or_network(source, refined: bool = False
                       ) -> Union[Columns, Network]:
    """The :class:`Columns` of ``source`` (a :class:`Network`, a
    :class:`~repro.profibus.serialization.NetworkScan` or its columns),
    or the :class:`Network` to analyse as objects where the reader
    declines: ``source`` itself, or the one the scan builds."""
    if isinstance(source, Columns):
        return source
    if isinstance(source, Network):
        return network_columns(source, refined) or source
    return source.columns(refined) or source.network()


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
