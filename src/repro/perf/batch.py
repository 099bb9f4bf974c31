"""Batch analysis drivers.

The design-space exploration layers — sweeps, acceptance curves, the E5
benchmark, the fuzzing campaigns — all evaluate pure per-item work over
large grids with no cross-item dependencies.  This module gives that
layer one engine:

* :func:`analyse_many` — the (network × policy) analysis grid, in one
  in-process pass.  Under the default ``fast`` mode a grid of at least
  :data:`VECTOR_MIN_STREAMS` streams goes through the numpy SoA engine
  of :mod:`repro.perf.vector` and a smaller one through the scalar
  kernels; an explicit ``mode`` forces its engine at every size;
* :func:`pooled_map` / :func:`pooled_imap` — chunked process-pool map
  for heavy per-item work (the fuzz soundness simulations, the corpus
  check): workers inherit the caller's analysis mode and report their
  fixed-point iteration counts back into the parent's tallies, fast /
  generic / vectorized separately;
* :func:`generate_networks` — reproducible workload generation threading
  one :class:`random.Random` end-to-end (no global ``random`` state);
* :func:`acceptance_curve` — the E5 experiment (fraction of random
  networks schedulable per policy per deadline-tightness level) on top
  of both.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import repeat
from random import Random
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..gen.network_gen import random_network
from ..profibus.network import Network, stream_specs
from ..profibus.timing import tcycle as compute_tcycle
from ..profibus.timing import tdel
from ..profibus.ttr import analyse, check_policy
from . import kernels
from .config import analysis_mode, analysis_mode_set
from .stats import counters

DEFAULT_POLICIES: Tuple[str, ...] = ("fcfs", "dm", "edf")

#: Smallest grid (streams summed over every master of every network)
#: that :func:`analyse_many` sends through the SoA engine when the
#: caller names no mode.  The engine needs ``import numpy`` once per
#: process, 125–170 ms cold on a 2-CPU x86 container; the scalar
#: kernels cost about 25 µs per stream for the three policies on the
#: E5 3×3 shape and about 31 µs on a mix with 4–8-master rings.  A grid
#: whose scalar run costs as much as the import, 150 ms / (25–31 µs),
#: has 4800–6000 streams: below that a cold process (a one-shot CLI
#: sweep, a service warm-up) would pay more for the import than the
#: lanes save.  Without numpy there are no lanes, and every grid stays
#: on the scalar kernels.
VECTOR_MIN_STREAMS = 5000


class BatchResult(NamedTuple):
    """One (network, policy) analysis outcome, flattened for transport.

    A plain tuple underneath: a row compares equal to the tuple of its
    fields, iterates and unpacks in field order.  The batch drivers
    build thousands per call, and a tuple costs a third of a frozen
    dataclass to make."""

    index: int  # position of the network in the submitted sequence
    policy: str
    schedulable: bool
    worst_response: Optional[int]
    worst_slack: Optional[int]
    tcycle: int


#: ``BatchResult`` from a ready field tuple, skipping the keyword
#: ``__new__`` (the SoA row emit makes one per (network, policy)).
_row = partial(tuple.__new__, BatchResult)


#: One master's share of a :class:`BatchResult`: ``(schedulable,
#: worst_response, worst_slack)``, the slack kept even when the master
#: is unschedulable (:func:`combine_partials` drops it).
Partial = Tuple[bool, Optional[int], Optional[int]]


def fold_pairs(pairs: Iterable[Tuple[Optional[int], int]]) -> Partial:
    """Fold one master's ``(response, deadline)`` pairs into a
    :data:`Partial`.  With :func:`combine_partials` this is the single
    definition of schedulable / worst_response / worst_slack, used by
    the kernel summaries, the sweeps and the full-analysis path (so the
    fast/generic equality checks compare real work, not two folds that
    could drift apart)."""
    schedulable = True
    worst_r: Optional[int] = None
    worst_slack: Optional[int] = None
    for r, d in pairs:
        if r is None:
            schedulable = False
            continue
        if r > d:
            schedulable = False
        if worst_r is None or r > worst_r:
            worst_r = r
        slack = d - r
        if worst_slack is None or slack < worst_slack:
            worst_slack = slack
    return schedulable, worst_r, worst_slack


def combine_partials(index: int, policy: str, tcycle: int,
                     partials: Iterable[Partial]) -> BatchResult:
    """One BatchResult from per-master partial folds: schedulable is
    their AND, worst_response their max and worst_slack their min,
    reported only when the whole network is schedulable.  Folding the
    concatenated pairs of every master gives the same fields."""
    schedulable = True
    worst_r: Optional[int] = None
    worst_slack: Optional[int] = None
    for sched, r, slack in partials:
        if not sched:
            schedulable = False
        if r is not None and (worst_r is None or r > worst_r):
            worst_r = r
        if slack is not None and (worst_slack is None or slack < worst_slack):
            worst_slack = slack
    return BatchResult(
        index=index,
        policy=policy,
        schedulable=schedulable,
        worst_response=worst_r,
        worst_slack=worst_slack if schedulable else None,
        tcycle=tcycle,
    )


def _fold_responses(index, policy, tcycle, pairs) -> BatchResult:
    """Fold every stream's ``(response, deadline)`` pair of a network
    into one BatchResult: the network as a single partial."""
    return combine_partials(index, policy, tcycle, (fold_pairs(pairs),))


def spec_columns(network: Network, ttr: Optional[int] = None,
                 refined: bool = False) -> Optional[Tuple[int, List[tuple]]]:
    """``(Tcycle, per-master (T, D, J) columns)`` — the input of
    :func:`summarise_columns` — for the network at ``ttr`` (default: its
    own TTR), or ``None`` when a master has non-int stream attributes,
    the generic reference is active or ``Tcycle`` is not an int (the
    caller then takes the full analysis path)."""
    columns = []
    for master in network.masters:
        specs = stream_specs(master)
        if specs is None:
            return None
        columns.append(specs)
    if ttr is None:
        ttr = network.require_ttr()
    tc = compute_tcycle(network, ttr, refined=refined)
    if type(tc) is not int:
        return None
    return tc, columns


def _master_responses(policy: str, specs: tuple, tc: int) -> list:
    """Per-stream responses of one master's ``(T, D, J)`` column at
    ``Tcycle = tc`` (``None`` = unschedulable; EDF may exceed ``D``)."""
    if policy == "fcfs":
        return [len(specs) * tc] * len(specs)
    if policy == "dm":
        return kernels.dm_master_response_times(specs, tc)
    check_policy(policy)  # edf is the one known policy left
    return [r for r, _a in kernels.edf_master_response_times(specs, tc)]


def fold_column(specs: tuple, responses: Sequence[Optional[int]]) -> Partial:
    """:func:`fold_pairs` of one column's responses against its ``D``."""
    return fold_pairs((r, d) for (_t, d, _j), r in zip(specs, responses))


def master_partial(policy: str, specs: tuple, tc: int) -> Partial:
    """The :data:`Partial` of one master column at one ``Tcycle``."""
    return fold_column(specs, _master_responses(policy, specs, tc))


def dm_order_key(specs: tuple, tc: int) -> tuple:
    """``((T, J) column, DM priority order, tc)`` — what the eq. (16)
    kernel reads of a master column besides its deadlines (see
    :func:`dm_order_responses`)."""
    deadlines = [d for _t, d, _j in specs]
    # a stable sort of the indices by D is the kernel's (D, i) order
    return (tuple((t, j) for t, _d, j in specs),
            tuple(sorted(range(len(specs)), key=deadlines.__getitem__)),
            tc)


def dm_order_responses(columns: Sequence[tuple], tc: int,
                       runs: dict) -> List[list]:
    """DM responses of every ``(T, D, J)`` column in ``columns`` at one
    ``tc``, one kernel run per **DM order group**.

    Eq. (16) with ``C = tc`` reads a deadline in two places only: the
    priority order ``sorted(range(n), key=(D, i))`` and each stream's
    verdict.  Blocking, the level-i busy period, the instance count, the
    start-time recurrences and the float utilisation guard see only
    ``(T, J)``, ``tc`` and the order.  So columns sharing a
    :func:`dm_order_key` differ only in the verdicts, and the kernel
    runs once per group on the group's **elementwise-max D column**:

    * the max column has the group's order.  If every member puts
      ``a`` before ``b`` (``(D_a, a) < (D_b, b)``), so does the max: its
      ``D_a`` is some member's, which is at most that member's ``D_b``,
      and a tie would need ``a < b`` in that member already;
    * instance ``q`` of stream ``i`` runs ``w ← Bq + Σ k(w)·tc`` up to
      ``limit_q = q·T + D + J − tc``, and its response is
      ``r_q = w + tc − q·T``.  The iterates climb monotonically below
      the least fixed point ``w_q``, and a seed jump is never above it,
      so a converged ``w`` is ``w_q`` whatever the limit; ``D`` bounds
      only how far the climb may go.  The stream is feasible at ``D``
      iff every ``r_q + J ≤ D``, i.e. ``w_q ≤ q·T + D − J − tc``, which
      is below ``limit_q``: then no iterate escapes the limit, every
      instance converges to ``w_q``, and ``R = max_q r_q + J``
      does not depend on ``D``;
    * the float guard and the instance cap that turn a stream to
      ``None`` before any instance runs read no ``D`` either, so they
      trip alike for every member;
    * so a stream feasible at ``D_max`` has its exact ``R``, and each
      member reads ``R`` if ``R ≤ D`` else ``None``.  A stream
      infeasible at ``D_max`` has some ``w_q`` above
      ``q·T + D_max − J − tc`` (the escape or the ``r + J > D`` exit
      at the first failing instance both say so), hence above the
      bound of every member ``D ≤ D_max``: ``None`` for all of them,
      as the early exit at that first failing instance gives each
      member's own run.

    Per stream the run does the work of the member whose ``D`` is the
    max, so one group costs at most the kernel's work on one member
    column per stream, never more than running every member.

    ``runs`` is the caller's per-call memo ``key → (D column, responses)``.
    A column whose key has a run that dominates it elementwise reads it
    off (the factor-1 probe of a deadline-tightening bisection serves
    every later probe with its order this way); the others are grouped
    by key and run on their max column, which replaces the key's run.
    """
    out: List[Optional[list]] = [None] * len(columns)
    pending: Dict[tuple, List[int]] = {}
    for k, specs in enumerate(columns):
        key = dm_order_key(specs, tc)
        run = runs.get(key)
        if run is not None and all(
                d <= top for (_t, d, _j), top in zip(specs, run[0])):
            out[k] = _dm_verdicts(specs, run[1])
        else:
            pending.setdefault(key, []).append(k)
    for key, members in pending.items():
        first = columns[members[0]]
        top = [d for _t, d, _j in first]
        for k in members[1:]:
            top = [a if a >= d else d
                   for a, (_t, d, _j) in zip(top, columns[k])]
        column = tuple((t, d, j) for (t, _d, j), d in zip(first, top))
        values = kernels.dm_master_response_times(column, tc)
        runs[key] = (top, values)
        for k in members:
            out[k] = _dm_verdicts(columns[k], values)
    return out


def _dm_verdicts(specs: tuple, values: Sequence[Optional[int]]) -> list:
    return [r if r is not None and r <= d else None
            for (_t, d, _j), r in zip(specs, values)]


def summarise_columns(policy: str, tc: int, columns: Sequence[tuple],
                      index: int = 0) -> BatchResult:
    """BatchResult fields straight from the whole-master kernels over
    ``(T, D, J)`` columns at one ``Tcycle``, without materialising
    StreamResponse / NetworkAnalysis rows.

    Field-for-field identical to summarising ``analyse(network,
    policy)`` of a network with these columns — the deadline used for
    slack/schedulability is the same ``D`` the column carries, and the
    per-stream responses come from the same kernels the analysis
    modules use (property-tested in ``tests/test_perf_batch`` and
    ``tests/test_sweep_columns``).
    """
    return combine_partials(index, policy, tc, (
        master_partial(policy, specs, tc) for specs in columns if specs))


def _analyse_one(index: int, network: Network, policy: str) -> BatchResult:
    base = spec_columns(network)
    if base is not None:
        return summarise_columns(policy, base[0], base[1], index)
    res = analyse(network, policy)
    return _fold_responses(
        index, policy, res.tcycle,
        ((sr.R, sr.stream.D) for sr in res.per_stream),
    )


def _pooled_chunk(
    payload: Tuple[Callable[[Any], Any], List[Any], str]
) -> Tuple[List[Any], int, int, int]:
    """Worker entry: run one chunk, return results + all three iteration
    tallies.  The counts travel back *separately* — a fast-mode worker
    can still take generic fallbacks (non-int streams), a vectorized
    worker still runs fast kernels for unpackable networks, and folding
    one combined number into a single parent bucket used to credit those
    iterations to the wrong path."""
    fn, items, mode = payload
    counters.reset()
    with analysis_mode_set(mode):
        results = [fn(item) for item in items]
    return results, counters.fast, counters.generic, counters.vectorized


def pooled_imap(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> Iterator[Any]:
    """Yield ``fn(item)`` for every item, in submission order.

    ``workers=None`` uses ``os.cpu_count()``; ``workers<=1`` (or fewer
    than two items) runs serial in-process with no pool overhead.  In
    pooled mode the items are split into chunks (one pickling round trip
    each) and results stream back
    chunk by chunk as workers finish, which lets callers checkpoint
    long campaigns incrementally.  ``fn`` must be picklable: a
    module-level function or a :func:`functools.partial` of one.

    Workers inherit the caller's analysis mode, and their fixed-point
    iteration counts are folded into this process's
    :data:`repro.perf.stats.counters` — fast into fast, generic into
    generic, vectorized into vectorized — so accounting is identical to
    a serial run.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    items = list(items)
    if workers <= 1 or len(items) < 2:
        for item in items:
            yield fn(item)
        return
    if chunksize is None:
        # ~4 chunks per worker balances scheduling slack vs. pickling.
        chunksize = max(1, len(items) // (workers * 4))
    chunks = [
        (fn, items[i:i + chunksize], analysis_mode())
        for i in range(0, len(items), chunksize)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for results, fast_iters, generic_iters, vector_iters in pool.map(
            _pooled_chunk, chunks
        ):
            counters.fast += fast_iters
            counters.generic += generic_iters
            counters.vectorized += vector_iters
            yield from results


def pooled_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List[Any]:
    """:func:`pooled_imap`, materialised."""
    return list(pooled_imap(fn, items, workers=workers, chunksize=chunksize))


def _analyse_pair(job: Tuple[int, Network],
                  policies: Sequence[str]) -> List[BatchResult]:
    index, network = job
    return [_analyse_one(index, network, policy) for policy in policies]


def _vector_rows(networks: List[Network],
                 policies: Sequence[str]) -> List[BatchResult]:
    """One SoA pack for the whole grid: every policy's lanes advance
    over all networks at once.  Networks the lanes cannot take run
    :func:`_analyse_one`: all of them without numpy (no pack is built),
    the unpackable ones, and a policy's packed networks when its pass
    could wrap int64."""
    from . import vector

    if not vector.numpy_available():
        return [row for job in enumerate(networks)
                for row in _analyse_pair(job, policies)]
    pack = vector.pack_networks(networks)
    # Rows in (index, policy) order: each policy's rows fill every
    # len(policies)-th slot, and the fallback networks' rows are
    # spliced in where their index falls among the packed ones (both
    # index lists ascend, so no comparison sort is needed).
    n_pol = len(policies)
    packed: List[Any] = [None] * (pack.n_packed * n_pol)
    for k, policy in enumerate(policies):
        try:
            idx, tc, sched, worst, slack = vector.summary_columns(pack, policy)
        except vector._VectorRangeError:
            packed[k::n_pol] = [_analyse_one(i, networks[i], policy)
                                for i in pack.indices]
        else:
            packed[k::n_pol] = map(_row, zip(idx, repeat(policy), sched,
                                             worst, slack, tc))
    if not pack.fallback:
        return packed
    rows: List[BatchResult] = []
    done = 0
    for f in pack.fallback:
        cut = bisect_left(pack.indices, f) * n_pol
        rows += packed[done:cut]
        done = cut
        rows += [_analyse_one(f, networks[f], policy) for policy in policies]
    rows += packed[done:]
    return rows


def _grid_streams(networks: Sequence[Network]) -> int:
    """Streams summed over every master of ``networks``, counted only
    until the total reaches :data:`VECTOR_MIN_STREAMS` (all the
    dispatch needs to know)."""
    total = 0
    for network in networks:
        for master in network.masters:
            total += len(master.streams)
        if total >= VECTOR_MIN_STREAMS:
            break
    return total


def analyse_many(
    networks: Sequence[Network],
    policies: Sequence[str] = DEFAULT_POLICIES,
    mode: Optional[str] = None,
) -> List[BatchResult]:
    """Analyse every (network, policy) pair in this process.

    ``mode`` forces an engine for this call (``generic``/``fast``/
    ``vectorized``); under ``vectorized`` the whole grid runs through
    the SoA batch kernels of :mod:`repro.perf.vector` — same results
    bit for bit, every network's lanes advancing together.  With no
    ``mode`` the process-wide mode applies, except that under ``fast`` a
    grid of at least :data:`VECTOR_MIN_STREAMS` streams takes the SoA
    engine too when numpy is importable.  Without numpy, ``vectorized``
    analyses network by network on the scalar kernels, as ``fast``
    does.  Results come back ordered by (network index, policy
    position) regardless of the engine.  Every network must carry a
    TTR at or above its ring latency — pre-filter rows that do not (as
    the sweep drivers do).
    """
    policies = tuple(policies)
    for policy in policies:
        check_policy(policy)
    networks = list(networks)
    if mode is None:
        mode = analysis_mode()
        if mode == "fast" and _grid_streams(networks) >= VECTOR_MIN_STREAMS:
            mode = "vectorized"  # network by network without numpy
    with analysis_mode_set(mode):
        if mode == "vectorized":
            return _vector_rows(networks, policies)
        return [row for job in enumerate(networks)
                for row in _analyse_pair(job, policies)]


def generate_networks(
    n: int,
    seed: Union[int, str] = 0,
    n_masters: int = 3,
    streams_per_master: int = 3,
    d_over_t: Tuple[float, float] = (0.15, 1.0),
    period_ms: Tuple[float, float] = (50.0, 1000.0),
    payload_range: Tuple[int, int] = (2, 16),
    ttr_fraction_of_tdel: float = 0.5,
) -> List[Network]:
    """``n`` reproducible random networks with a minimal-headroom TTR.

    One :class:`random.Random` threads through every draw, so the
    workload is a pure function of ``seed`` — equal seeds give
    value-equal networks (fresh instances each call).  String seeds hash
    with SHA-512 inside :class:`random.Random`, stable across processes
    and ``PYTHONHASHSEED`` settings.
    """
    rng = Random(seed)
    nets = []
    for _ in range(n):
        net = random_network(
            n_masters=n_masters,
            streams_per_master=streams_per_master,
            d_over_t=d_over_t,
            period_ms=period_ms,
            payload_range=payload_range,
            rng=rng,
        )
        ttr = max(net.ring_latency(), int(tdel(net) * ttr_fraction_of_tdel))
        nets.append(net.with_ttr(ttr))
    return nets


def _point_seed(seed: int, tightness: float) -> str:
    """Per-point workload seed for :func:`acceptance_curve`.  ``repr``
    of a float round-trips exactly, so the encoding is injective — the
    old ``seed * 1_000_003 + int(x * 1000)`` mix collided for tightness
    levels agreeing to three decimals (0.2 vs 0.2004 on fine grids) and
    fed those points identical workloads."""
    return f"{seed}:{tightness!r}"


def acceptance_curve(
    tightness: Sequence[float],
    n_per_point: int,
    policies: Sequence[str] = DEFAULT_POLICIES,
    seed: int = 0,
    n_masters: int = 3,
    streams_per_master: int = 3,
    period_ms: Tuple[float, float] = (50.0, 1000.0),
    payload_range: Tuple[int, int] = (2, 16),
) -> Dict[float, Dict[str, int]]:
    """The E5 curve: schedulable counts per policy per tightness level.

    Deadlines are drawn in ``[0.6·x·T, x·T]`` at tightness ``x``; the
    per-point seed mixes ``seed`` so points are independent but
    reproducible.  All (level × network × policy) rows go through one
    :func:`analyse_many` call, which picks its engine from the grid size.
    """
    nets: List[Network] = []
    spans: List[Tuple[float, int]] = []
    for x in tightness:
        batch = generate_networks(
            n_per_point,
            seed=_point_seed(seed, x),
            n_masters=n_masters,
            streams_per_master=streams_per_master,
            d_over_t=(x * 0.6, x),
            period_ms=period_ms,
            payload_range=payload_range,
        )
        spans.append((x, len(nets)))
        nets.extend(batch)

    rows = analyse_many(nets, policies)
    by_index: Dict[int, Dict[str, bool]] = {}
    for row in rows:
        by_index.setdefault(row.index, {})[row.policy] = row.schedulable

    curve: Dict[float, Dict[str, int]] = {}
    for (x, start) in spans:
        counts = {p: 0 for p in policies}
        for i in range(start, start + n_per_point):
            for p in policies:
                if by_index[i][p]:
                    counts[p] += 1
        curve[x] = counts
    return curve
