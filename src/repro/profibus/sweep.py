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

No sweep builds a network per point.  Each reads the columns of a
:class:`Network` (or of its document's scan, which then builds none)
once (:func:`repro.profibus.timing.columns_or_network`) and rewrites
one input per point: the TTR sweep sets ``Tcycle = TTR + Tdel``; the
deadline-scale sweep keeps ``Tcycle`` and rewrites the D column
(:func:`scaled_deadline` is the one scaling formula); the baud sweep
rescales ``(T, D, J)`` and the TTR, since frame and timer bit counts,
hence ``Tdel`` and the ring latency, do not change with the line speed.

The deadline-scale and baud sweeps fold each distinct
``(policy, master column)`` once into a per-master partial
(:func:`repro.perf.batch.fold_pairs`), and each point combines its
masters' partials (:func:`repro.perf.batch.combine_partials`).  FCFS
folds in closed form (every response is ``n·Tcycle``).  EDF runs its
kernel once per distinct column, and columns that differ only in ``D``
share one busy period (the kernel's ``busy`` memo).  DM deadlines
enter eq. (16) only through the priority order and the final
``R ≤ D`` verdict, so the DM kernel runs once per priority-order group
of a master's columns, on the group's elementwise-max deadlines
(:func:`repro.perf.batch.dm_order_responses`, which argues why that
is exact).  Networks the column reader declines are built as networks
per point and evaluated through one in-process
:func:`repro.perf.batch.analyse_many` call.

Rows are plain dataclasses; :func:`rows_to_csv` renders any of them for
spreadsheet handoff.  Used by the CLI ``sweep`` subcommand.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from ..perf import kernels
from ..perf.batch import (
    BatchResult,
    analyse_many,
    combine_partials,
    dm_order_responses,
    fcfs_partial,
    fold_pairs,
    summarise_columns,
)
from .network import Network, require_ttr
from .phy import STANDARD_BAUD_RATES
from .timing import Columns, columns_or_network
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

    The TTR moves only ``Tcycle = TTR + Tdel``: the columns are read
    once and each grid point runs the kernels at its own ``Tcycle``.
    Networks the column reader declines are analysed as objects, one
    :meth:`Network.with_ttr` copy per point."""
    # Round — never truncate — float grid values, and judge
    # feasibility on the rounded TTR actually analysed.
    points = [(ttr, int(round(ttr))) for ttr in ttr_values]
    source = columns_or_network(network)
    if isinstance(source, Network):
        ring = source.ring_latency()
        entries = [(ttr, source.with_ttr(t) if t >= ring else None)
                   for ttr, t in points]
        return _grid_rows("ttr", entries, policies)
    ring = source.ring
    policies = tuple(policies)
    if any(t >= ring for _ttr, t in points):
        # an all-infeasible grid analyses nothing, as on the object path
        for policy in policies:
            check_policy(policy)
    rows: List[SweepRow] = []
    for ttr, t in points:
        for policy in policies:
            if t < ring:
                rows.append(SweepRow("ttr", ttr, policy, False, None, None, 0))
                continue
            tc = t + source.lateness
            b = summarise_columns(policy, tc, source.specs)
            rows.append(SweepRow("ttr", ttr, policy, b.schedulable,
                                 b.worst_response, b.worst_slack, tc))
    return rows


def scaled_deadline(D: int, T: int, factor: float) -> int:
    """``clamp(round(D·factor), 1, T)`` — the one deadline-scaling
    formula of the sweeps and the admission headroom.  Rounded like
    :func:`_rescale_network` (truncation shifted E5 acceptance curves by
    an off-by-one deadline tightening on fine factor grids); the
    product is compared with ``T`` before it is converted, so a factor
    too large for ``round(...)`` (``D·f`` overflowing to ``inf``)
    yields ``T``."""
    x = D * factor
    if x >= T:
        return T
    d = round(x)
    return d if d > 1 else 1


def _scale_deadlines(network: Network, factor: float) -> Network:
    """The network with every deadline scaled — the object path, for
    networks the column reader declines."""
    masters = []
    for m in network.masters:
        streams = [s.with_deadline(scaled_deadline(s.D, s.T, factor))
                   for s in m.streams]
        masters.append(m.with_streams(streams))
    return Network(masters=tuple(masters), slaves=network.slaves,
                   phy=network.phy, ttr=network.ttr)


def scale_column(specs: tuple, factor: float) -> tuple:
    """One master's ``(T, D, J)`` column with only ``D`` rewritten."""
    return tuple((t, scaled_deadline(d, t, factor), j) for t, d, j in specs)


def _master_points(specs: tuple, factors: Sequence[float]) -> tuple:
    """``(column per grid point, {column: its D vector})`` of one
    master: each stream's deadline is scaled over the whole grid once
    (:func:`scaled_deadline`), and points whose D vectors agree share
    one column."""
    ts = [t for t, _d, _j in specs]
    js = [j for _t, _d, j in specs]
    grid = [[scaled_deadline(d, t, f) for f in factors]
            for t, d, _j in specs]
    columns: dict = {}
    points = []
    for ds in zip(*grid):
        column = columns.get(ds)
        if column is None:
            column = columns[ds] = tuple(zip(ts, ds, js))
        points.append(column)
    return points, {column: ds for ds, column in columns.items()}


def _distinct_partials(policy: str, tc: int, masters: Sequence[dict]
                       ) -> dict:
    """``column → Partial`` at one ``Tcycle`` for every column of each
    master's ``column → its D vector`` dict: FCFS in closed form
    (:func:`repro.perf.batch.fcfs_partial`), DM through one kernel run
    per order group of a master's columns
    (:func:`repro.perf.batch.dm_order_responses`), EDF through one
    kernel run per column sharing one busy-period memo."""
    if policy == "dm":
        return {c: fold_pairs(zip(r, ds)) for deadlines in masters
                for (c, ds), r in zip(deadlines.items(), dm_order_responses(
                    list(deadlines), tc, {}))}
    deadlines = {c: ds for columns in masters for c, ds in columns.items()}
    if policy == "fcfs":
        return {c: fcfs_partial(c, tc) for c in deadlines}
    busy: dict = {}
    edf = kernels.edf_master_response_times
    return {c: fold_pairs(zip([r for r, _a in edf(c, tc, 4, busy)], ds))
            for c, ds in deadlines.items()}


def _combined_rows(parameter: str, values: Sequence, policies: Sequence[str],
                   tc: int, masters: Sequence[list],
                   partials: dict) -> List[SweepRow]:
    """One row per (grid point, policy): the point's per-master
    partials (``masters[m][k]`` is master ``m``'s column at point
    ``k``) combined."""
    rows = []
    for k, value in enumerate(values):
        for policy in policies:
            table = partials[policy]
            b = combine_partials(0, policy, tc,
                                 [table[points[k]] for points in masters])
            rows.append(SweepRow(parameter, value, policy, b.schedulable,
                                 b.worst_response, b.worst_slack, tc))
    return rows


def deadline_scale_sweep(
    network: Network,
    factors: Iterable[float],
    policies: Sequence[str] = DEFAULT_POLICIES,
) -> List[SweepRow]:
    """Scale every deadline by each factor (clamped to ``[1, T]``).

    Scaling moves only ``D``: ``Tcycle``, ``C`` and the ``(T, J)``
    columns stay those of ``network``.  So ``Tcycle`` is computed once,
    and each master's stream deadlines are scaled over the whole grid
    once.  Every distinct ``(policy, master column)`` of the call is
    folded once into a per-master partial, and each point combines its
    masters' partials.  FCFS folds in closed form; EDF runs its kernel
    once per distinct column and its busy period once per master; DM
    runs once per DM order group of the call's columns, however many
    factors share the order.  Networks the column path declines
    (non-int attributes, the generic reference) are scaled and analysed
    as objects through :func:`analyse_many`."""
    factors = list(factors)
    for factor in factors:
        if not factor > 0:
            raise ValueError("deadline factors must be positive")
    if not factors:
        return []
    policies = tuple(policies)
    for policy in policies:
        check_policy(policy)
    source = columns_or_network(network)
    if isinstance(source, Network):
        entries = [
            (factor, _scale_deadlines(source, factor)) for factor in factors
        ]
        return _grid_rows("deadline_scale", entries, policies)
    tc = source.tcycle()
    masters = []
    deadlines = []  # per master: its distinct columns → D vector
    for specs in source.specs:
        points, distinct = _master_points(specs, factors)
        masters.append(points)
        deadlines.append(distinct)
    partials = {policy: _distinct_partials(policy, tc, deadlines)
                for policy in dict.fromkeys(policies)}
    return _combined_rows("deadline_scale", factors, policies, tc, masters,
                          partials)


def _rescaled(value, scale: float) -> int:
    """A period, deadline or TTR at another line speed: the same
    duration in seconds, rounded, at least one bit time."""
    return max(1, int(round(value * scale)))


def _rescaled_spec(T, D, J, scale: float) -> tuple:
    """A stream's ``(T, D, J)`` at another line speed."""
    return _rescaled(T, scale), _rescaled(D, scale), int(round(J * scale))


def _rescale_network(network: Network, baud: int) -> Network:
    """One scaled-network construction per baud rate, shared by every
    policy row: wall-clock periods/deadlines/TTR are rescaled so their
    duration in seconds is preserved at the new line speed."""
    scale = baud / network.phy.baud_rate
    masters = []
    for m in network.masters:
        streams = []
        for s in m.streams:
            T, D, J = _rescaled_spec(s.T, s.D, s.J, scale)
            streams.append(dataclasses.replace(s, T=T, D=D, J=J))
        masters.append(m.with_streams(streams))
    phy = dataclasses.replace(network.phy, baud_rate=baud)
    return Network(
        masters=tuple(masters),
        slaves=network.slaves,
        phy=phy,
        ttr=_rescaled(network.require_ttr(), scale),
    )


def _rescale_columns(columns: Columns, baud: int):
    """``(TTR, high-priority (T, D, J) columns)`` at ``baud``: the
    numbers and checks of :func:`_rescale_network`, in its order (every
    stream, the PHY, then the TTR), so a bad value raises as there."""
    scale = baud / columns.phy.baud_rate
    specs = []
    for _address, _name, _names, rows, _cycles in columns.masters:
        rescaled = [(_rescaled_spec(t, d, j, scale), high)
                    for t, d, j, high, _c in rows]
        column = tuple([spec for spec, high in rescaled if high])
        if column:
            specs.append(column)
    dataclasses.replace(columns.phy, baud_rate=baud)  # the PHY's checks
    return _rescaled(require_ttr(columns.ttr), scale), specs


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

    Fixed bit counts mean ``Tdel`` and the ring latency do not move with
    the baud rate.  So the columns are read once and each rate rescales
    only ``(T, D, J)`` and the TTR, with ``Tcycle = TTR + Tdel``; the
    rows combine per-master partial folds as
    :func:`deadline_scale_sweep` does.  Networks the column reader
    declines are rescaled and analysed as networks.
    """
    bauds = list(baud_rates)
    source = columns_or_network(network)
    if isinstance(source, Network):
        ring = source.ring_latency()
        entries = []
        for baud in bauds:
            net = _rescale_network(source, baud)
            entries.append((baud, net if net.ttr >= ring else None))
        return _grid_rows("baud", entries, policies)
    ring = source.ring
    points = [_rescale_columns(source, baud) for baud in bauds]
    policies = tuple(policies)
    if any(ttr >= ring for ttr, _specs in points):
        # an all-infeasible grid analyses nothing, as on the object path
        for policy in policies:
            check_policy(policy)
    rows: List[SweepRow] = []
    for baud, (ttr, specs) in zip(bauds, points):
        if ttr < ring:
            rows.extend(SweepRow("baud", baud, policy, False, None, None, 0)
                        for policy in policies)
            continue
        tc = ttr + source.lateness
        deadlines = [{c: tuple([d for _t, d, _j in c])} for c in specs]
        partials = {policy: _distinct_partials(policy, tc, deadlines)
                    for policy in dict.fromkeys(policies)}
        rows += _combined_rows("baud", (baud,), policies, tc,
                               [[c] for c in specs], partials)
    return rows


_CSV_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow))


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV (header + one line per row).

    ``None`` cells render empty; fields containing separators, quotes
    or newlines are RFC 4180 quoted (stdlib :mod:`csv` semantics), so a
    crafted parameter name can never shift columns in a spreadsheet
    handoff."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    writer.writerows(map(attrgetter(*_CSV_FIELDS), rows))
    return out.getvalue()
