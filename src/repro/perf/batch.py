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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from random import Random
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
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
#: lanes save.  Without numpy the dispatch stays scalar at every size:
#: there are no lanes to win back the packing cost.
VECTOR_MIN_STREAMS = 5000


@dataclass(frozen=True, slots=True)
class BatchResult:
    """One (network, policy) analysis outcome, flattened for transport."""

    index: int  # position of the network in the submitted sequence
    policy: str
    schedulable: bool
    worst_response: Optional[int]
    worst_slack: Optional[int]
    tcycle: int


def _fold_responses(index, policy, tcycle, pairs) -> BatchResult:
    """Fold ``(response, deadline)`` pairs into one BatchResult — the
    single definition of schedulable / worst_response / worst_slack used
    by both the kernel summary and the full-analysis path (so the
    bench's fast/generic consistency check compares real work, not two
    folds that could drift apart)."""
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
    return BatchResult(
        index=index,
        policy=policy,
        schedulable=schedulable,
        worst_response=worst_r,
        worst_slack=worst_slack if schedulable else None,
        tcycle=tcycle,
    )


def _fast_summary(index: int, network: Network,
                  policy: str) -> Optional[BatchResult]:
    """BatchResult fields straight from the whole-master kernels, without
    materialising StreamResponse / NetworkAnalysis rows.

    Returns ``None`` when a master has non-int stream attributes or the
    generic reference is active (the caller falls back to the full
    analysis path).  Field-for-field identical to summarising
    ``analyse(network, policy)`` — the deadline used for
    slack/schedulability is the same stream ``D`` the specs carry, and
    the per-stream responses come from the same kernels the analysis
    modules use (property-tested in ``tests/test_perf_batch``).
    """
    tc = compute_tcycle(network, network.require_ttr(), refined=False)
    if type(tc) is not int:
        return None
    pairs = []
    for master in network.masters:
        specs = stream_specs(master)
        if specs is None:
            return None
        if not specs:
            continue
        if policy == "fcfs":
            r = len(specs) * tc
            values = [r] * len(specs)
        elif policy == "dm":
            values = kernels.dm_master_response_times(specs, tc)
        elif policy == "edf":
            values = [
                r for r, _a in kernels.edf_master_response_times(specs, tc)
            ]
        else:
            return None
        pairs.extend((r, d) for (_t, d, _j), r in zip(specs, values))
    return _fold_responses(index, policy, tc, pairs)


def _analyse_one(index: int, network: Network, policy: str) -> BatchResult:
    summary = _fast_summary(index, network, policy)
    if summary is not None:
        return summary
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
    each, memo caches warm up inside a chunk) and results stream back
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
    over all networks at once; unpackable networks take the scalar
    per-network path (fast kernels — ``vectorized`` implies them)."""
    from . import vector

    rows: List[BatchResult] = []
    pack = vector.pack_networks(networks)
    # One summary list per policy over the whole grid, then emit in
    # (index, policy) order: packed networks and fallback indices are
    # both ascending, so the rows come out sorted without a comparison
    # sort.
    summaries = [vector.batch_summaries(pack, policy) for policy in policies]
    fb = pack.fallback
    fi = 0
    n_fb = len(fb)
    for per_policy in zip(*summaries):
        net_idx = per_policy[0][0]
        while fi < n_fb and fb[fi] < net_idx:
            for policy in policies:
                rows.append(_analyse_one(fb[fi], networks[fb[fi]], policy))
            fi += 1
        for policy, (idx, tc, sched, wr, ws) in zip(policies, per_policy):
            rows.append(BatchResult(idx, policy, sched, wr, ws, tc))
    while fi < n_fb:
        for policy in policies:
            rows.append(_analyse_one(fb[fi], networks[fb[fi]], policy))
        fi += 1
    return rows


def _grid_streams(networks: Sequence[Network]) -> int:
    return sum(len(master.streams)
               for network in networks for master in network.masters)


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
    engine too when numpy is importable (without numpy, ``vectorized``
    packs the grid and runs the scalar kernels over the pack, which
    only adds the packing cost).  Results come back ordered by (network
    index, policy position) regardless of the engine.  Every network
    must carry a TTR at or above its ring latency — pre-filter rows
    that do not (as the sweep drivers do).
    """
    policies = tuple(policies)
    for policy in policies:
        check_policy(policy)
    networks = list(networks)
    if mode is None:
        mode = analysis_mode()
        if mode == "fast" and _grid_streams(networks) >= VECTOR_MIN_STREAMS:
            from . import vector

            if vector.numpy_available():
                mode = "vectorized"
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
    value-equal networks (fresh instances each call: the instance-keyed
    analysis memos never leak between repetitions).  String seeds hash
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
    mode: Optional[str] = None,
) -> Dict[float, Dict[str, int]]:
    """The E5 curve: schedulable counts per policy per tightness level.

    Deadlines are drawn in ``[0.6·x·T, x·T]`` at tightness ``x``; the
    per-point seed mixes ``seed`` so points are independent but
    reproducible.  All (level × network × policy) rows go through one
    :func:`analyse_many` call; ``mode`` selects its analysis mode (the
    acceptance workload is the benchmark the vectorized kernels are
    measured on).
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

    rows = analyse_many(nets, policies, mode=mode)
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
