"""Parameter sweeps: design-space exploration over a network.

Answers the questions an engineer deploying the paper's results actually
asks — *how does schedulability move as I turn the knobs?* — in one call
each:

* :func:`ttr_sweep` — schedulability and worst response per policy as
  the TTR grows (eq. (11)/(16)/(17) are monotone in TTR, so this maps
  each policy's feasible region);
* :func:`deadline_scale_sweep` — acceptance as every deadline is scaled
  (the E5 curve for one concrete network);
* :func:`baud_sweep` — the same network at each standard baud rate
  (bit-time parameters are baud-invariant, deadlines in seconds are
  not, so this shows the minimum line speed for a plant).

The TTR and deadline-scale sweeps build no network per point: they
read the base ``(T, D, J)`` columns once
(:func:`repro.perf.batch.spec_columns`) and rewrite one input per
point — the TTR sweep sets ``Tcycle = TTR + Tdel`` with ``Tdel`` derived
once, the deadline-scale sweep keeps ``Tcycle`` and rewrites the D
column (:func:`scaled_deadline` is the one scaling formula).  Networks
the column path declines, and every baud-sweep point, are built as
networks and evaluated through one in-process
:func:`repro.perf.batch.analyse_many` call.

Rows are plain dataclasses; :func:`rows_to_csv` renders any of them for
spreadsheet handoff.  Used by the CLI ``sweep`` subcommand.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..perf.batch import (
    BatchResult,
    analyse_many,
    spec_columns,
    summarise_columns,
)
from .network import Master, Network
from .phy import STANDARD_BAUD_RATES, PhyParameters
from .stream import MessageStream
from .ttr import check_policy

DEFAULT_POLICIES = ("fcfs", "dm", "edf")


@dataclass(frozen=True)
class SweepRow:
    """One (parameter value, policy) observation."""

    parameter: str
    value: float
    policy: str
    schedulable: bool
    worst_response: Optional[int]
    worst_slack: Optional[int]
    tcycle: int


def _grid_rows(
    parameter: str,
    entries: Sequence[Tuple[float, Optional[Network]]],
    policies: Sequence[str],
) -> List[SweepRow]:
    """Evaluate ``(value, network)`` entries × policies through the batch
    driver; ``network=None`` marks a structurally infeasible value
    (below ring latency) reported unschedulable without analysis."""
    jobs = [net for _, net in entries if net is not None]
    results = analyse_many(jobs, policies) if jobs else []
    by_key = {(r.index, r.policy): r for r in results}
    rows: List[SweepRow] = []
    job_index = 0
    for value, net in entries:
        if net is None:
            for policy in policies:
                rows.append(
                    SweepRow(parameter, value, policy, False, None, None, 0)
                )
            continue
        for policy in policies:
            b: BatchResult = by_key[(job_index, policy)]
            rows.append(
                SweepRow(
                    parameter=parameter,
                    value=value,
                    policy=policy,
                    schedulable=b.schedulable,
                    worst_response=b.worst_response,
                    worst_slack=b.worst_slack,
                    tcycle=b.tcycle,
                )
            )
        job_index += 1
    return rows


def ttr_sweep(
    network: Network,
    ttr_values: Iterable[int],
    policies: Sequence[str] = DEFAULT_POLICIES,
) -> List[SweepRow]:
    """Analyse the network at each TTR (values below the ring latency
    are reported unschedulable rather than raising).

    The TTR moves only ``Tcycle = TTR + Tdel``: ``Tdel`` and the
    ``(T, D, J)`` columns are read once (:func:`spec_columns` at the
    ring latency) and each grid point runs the kernels at its own
    ``Tcycle``.  Networks the column path declines are analysed as
    objects, one :meth:`Network.with_ttr` copy per point."""
    ring = network.ring_latency()
    # Round — never truncate — float grid values, and judge
    # feasibility on the rounded TTR actually analysed.
    points = [(ttr, int(round(ttr))) for ttr in ttr_values]
    base = None
    if any(t >= ring for _ttr, t in points):
        base = spec_columns(network, ring)
    if base is None:
        entries = [(ttr, network.with_ttr(t) if t >= ring else None)
                   for ttr, t in points]
        return _grid_rows("ttr", entries, policies)
    policies = tuple(policies)
    for policy in policies:
        check_policy(policy)
    tc_ring, columns = base
    lateness = tc_ring - ring
    rows: List[SweepRow] = []
    for ttr, t in points:
        for policy in policies:
            if t < ring:
                rows.append(SweepRow("ttr", ttr, policy, False, None, None, 0))
                continue
            tc = t + lateness
            b = summarise_columns(policy, tc, columns)
            rows.append(SweepRow("ttr", ttr, policy, b.schedulable,
                                 b.worst_response, b.worst_slack, tc))
    return rows


def scaled_deadline(D: int, T: int, factor: float) -> int:
    """``clamp(round(D·factor), 1, T)`` — the one deadline-scaling
    formula of the sweeps and the admission headroom.  Rounded like
    :func:`_rescale_network` (truncation shifted E5 acceptance curves by
    an off-by-one deadline tightening on fine factor grids); the
    product is compared with ``T`` before it is converted, so a factor
    too large for ``int(round(...))`` (``D·f`` overflowing to ``inf``)
    yields ``T``."""
    x = D * factor
    return T if x >= T else max(1, int(round(x)))


def _scale_deadlines(network: Network, factor: float) -> Network:
    """The network with every deadline scaled — the object path, for
    networks :func:`repro.perf.batch.spec_columns` declines."""
    masters = []
    for m in network.masters:
        streams = [s.with_deadline(scaled_deadline(s.D, s.T, factor))
                   for s in m.streams]
        masters.append(m.with_streams(streams))
    return Network(masters=tuple(masters), slaves=network.slaves,
                   phy=network.phy, ttr=network.ttr)


def scale_columns(columns: Sequence[tuple], factor: float) -> List[tuple]:
    """Per-master ``(T, D, J)`` columns with only ``D`` rewritten."""
    return [tuple((t, scaled_deadline(d, t, factor), j) for t, d, j in specs)
            for specs in columns]


def deadline_scale_sweep(
    network: Network,
    factors: Iterable[float],
    policies: Sequence[str] = DEFAULT_POLICIES,
) -> List[SweepRow]:
    """Scale every deadline by each factor (clamped to ``[1, T]``).

    Scaling moves only ``D``: ``Tcycle``, ``C`` and the ``(T, J)``
    columns stay those of ``network``.  So ``Tcycle`` is computed once
    and each grid point rewrites the D column of the base
    ``(T, D, J)`` columns; the kernels run once per distinct
    ``(policy, column)`` of the call (clamping to ``T`` makes columns
    repeat across factors).  Networks the column path declines (non-int
    attributes, the generic reference) are scaled and analysed as
    objects through :func:`analyse_many`."""
    factors = list(factors)
    for factor in factors:
        if not factor > 0:
            raise ValueError("deadline factors must be positive")
    if not factors:
        return []
    policies = tuple(policies)
    for policy in policies:
        check_policy(policy)
    base = spec_columns(network)
    if base is None:
        entries = [
            (factor, _scale_deadlines(network, factor)) for factor in factors
        ]
        return _grid_rows("deadline_scale", entries, policies)
    tc, columns = base
    memo: dict = {}
    rows: List[SweepRow] = []
    for factor in factors:
        scaled = scale_columns(columns, factor)
        for policy in policies:
            b = summarise_columns(policy, tc, scaled, memo=memo)
            rows.append(SweepRow("deadline_scale", factor, policy,
                                 b.schedulable, b.worst_response,
                                 b.worst_slack, tc))
    return rows


def _rescale_network(network: Network, baud: int) -> Network:
    """One scaled-network construction per baud rate, shared by every
    policy row: wall-clock periods/deadlines/TTR are rescaled so their
    duration in seconds is preserved at the new line speed."""
    scale = baud / network.phy.baud_rate

    def rescale(v: int) -> int:
        return max(1, int(round(v * scale)))

    masters = []
    for m in network.masters:
        streams = [
            dataclasses.replace(
                s,
                T=rescale(s.T),
                D=rescale(s.D),
                J=int(round(s.J * scale)),
            )
            for s in m.streams
        ]
        masters.append(m.with_streams(streams))
    phy = dataclasses.replace(network.phy, baud_rate=baud)
    return Network(
        masters=tuple(masters),
        slaves=network.slaves,
        phy=phy,
        ttr=max(1, rescale(network.require_ttr())),
    )


def baud_sweep(
    network: Network,
    baud_rates: Iterable[int] = STANDARD_BAUD_RATES,
    policies: Sequence[str] = DEFAULT_POLICIES,
) -> List[SweepRow]:
    """Re-evaluate the network at each baud rate.

    Periods/deadlines/TTR are interpreted as *wall-clock* quantities of
    the original network, so they are rescaled to keep their duration in
    seconds while the frame/timer bit counts stay fixed — exactly what
    changing the line speed of a real plant does.
    """
    entries = []
    for baud in baud_rates:
        net = _rescale_network(network, baud)
        entries.append((baud, net if net.ttr >= net.ring_latency() else None))
    return _grid_rows("baud", entries, policies)


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV (header + one line per row).

    ``None`` cells render empty; fields containing separators, quotes
    or newlines are RFC 4180 quoted (stdlib :mod:`csv` semantics), so a
    crafted parameter name can never shift columns in a spreadsheet
    handoff."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    fields = [f.name for f in dataclasses.fields(SweepRow)]
    writer.writerow(fields)
    for row in rows:
        writer.writerow([getattr(row, f) for f in fields])
    return out.getvalue()
