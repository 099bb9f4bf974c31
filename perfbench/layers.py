"""The traced run: per-layer metrics of every workload's home layers.

Each workload's replay calls the same public functions its measured
path calls, in the same order, on the same kind of inputs, with spans
around the calls the benchmark makes and wrappers over the module
functions those calls reach (:func:`span_targets`).  A layer's metrics
are always taken on the workload where that layer does the work (its
*home*), so every traced run replays all four workloads: the one named
on the command line (the *primary*) in full, the others briefly.

For the primary workload the run also reports each layer's self-time
share of the traced path (about zero on a workload where the layer is
idle), the share no span covers (``trace.residual_share``), and what
tracing costs (``trace.overhead_share``: traced over untraced wall time
of the same calls, minus one).  For ``daemon`` those shares describe an
in-process replay of the server's per-request path over the request
lines the clients sent; the real server's split is reported as
``service.server_ms`` (its own ``elapsed_ms``) and
``service.transport_ms``.
"""

from __future__ import annotations

import gc
import inspect
import pickle
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.perf.batch import analyse_many
from repro.perf.stats import counters
from repro.service import protocol

from . import workloads as wl
from .tracer import LAYERS, NULL, Span, Tracer, by_name, path_shares

#: Requests / iterations per replay at ``--seconds 10`` (scaled
#: linearly with ``--seconds``).
API_TRACE_REQUESTS = 120
DAEMON_TRACE_REQUESTS = 300  # per client
PRIMARY_ROUNDS = 3

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("service.rtt_ms", "ms"),
    ("service.server_ms", "ms"),
    ("service.transport_ms", "ms"),
    ("service.protocol.decode_us", "us"),
    ("service.protocol.encode_us", "us"),
    ("perf.cache.hit_ratio", "share"),
    ("perf.cache.hits", "count"),
    ("perf.cache.misses", "count"),
    ("api.request_decode_us", "us"),
    ("api.result_encode_us", "us"),
    ("profibus.serialization.parse_us", "us"),
    ("profibus.network.fingerprint_us", "us"),
    ("profibus.ttr.analyse_us", "us"),
    ("profibus.timing.tcycle_us", "us"),
    ("perf.kernels.dm_us_per_master", "us"),
    ("perf.kernels.edf_us_per_master", "us"),
    ("perf.stats.fast_iterations", "count"),
    ("profibus.sweep.point_us", "us"),
    ("profibus.sweep.csv_us", "us"),
    ("profibus.ttr.max_feasible_ttr_ms", "ms"),
    ("core.sensitivity.tightening_ms", "ms"),
    ("admission.iterations", "count"),
    ("perf.batch.serial_analyses_per_s", "1/s"),
    ("perf.batch.pool_overhead_s", "s"),
    ("perf.vector.pack_us_per_net", "us"),
    ("perf.vector.fcfs_us_per_net", "us"),
    ("perf.vector.dm_us_per_net", "us"),
    ("perf.vector.edf_us_per_net", "us"),
    ("perf.vector.fallback_nets", "count"),
    ("perf.stats.vectorized_iterations", "count"),
    ("sim.token.events_per_s", "1/s"),
    ("sim.events", "count"),
    ("monitor.trace_io.export_events_per_s", "1/s"),
    ("monitor.trace_io.ingest_events_per_s", "1/s"),
    ("monitor.engine.check_events_per_s", "1/s"),
    ("trace.residual_share", "share"),
    ("trace.overhead_share", "share"),
) + tuple((f"{layer}.self_share", "share") for layer in LAYERS)


def span_targets() -> Tuple[List[Tuple[Any, str, str]], List[str]]:
    """``(owner, attribute, span name)`` for every module function the
    traced replays wrap, and the ``owner.attribute`` names this tree no
    longer has (their metrics are then reported as dropped)."""
    import repro.core.sensitivity as sensitivity
    import repro.monitor.engine as monitor_engine
    import repro.monitor.trace_io as trace_io
    import repro.perf.batch as batch
    import repro.perf.cache as cache
    import repro.perf.kernels as kernels
    import repro.profibus.dm as dm
    import repro.profibus.edf as edf
    import repro.profibus.fcfs as fcfs
    import repro.profibus.network as network
    import repro.profibus.serialization as serialization
    import repro.profibus.sweep as sweep
    import repro.profibus.ttr as ttr

    wanted = [
        (serialization, "network_from_dict",
         "profibus.serialization.network_from_dict"),
        (network.Network, "fingerprint", "profibus.network.fingerprint"),
        (ttr, "analyse", "profibus.ttr.analyse"),
        (ttr, "max_feasible_ttr", "profibus.ttr.max_feasible_ttr"),
        # tcycle is bound by name where the analyses import it
        (dm, "compute_tcycle", "profibus.timing.tcycle"),
        (edf, "compute_tcycle", "profibus.timing.tcycle"),
        (fcfs, "compute_tcycle", "profibus.timing.tcycle"),
        (batch, "compute_tcycle", "profibus.timing.tcycle"),
        (kernels, "dm_master_response_times",
         "perf.kernels.dm_master_response_times"),
        (kernels, "edf_master_response_times",
         "perf.kernels.edf_master_response_times"),
        (sweep, "deadline_scale_sweep", "profibus.sweep.deadline_scale_sweep"),
        (sweep, "rows_to_csv", "profibus.sweep.rows_to_csv"),
        (sweep, "analyse_many", "perf.batch.analyse_many"),
        (sensitivity, "smallest_feasible_factor",
         "core.sensitivity.smallest_feasible_factor"),
        (trace_io, "trace_from_doc", "monitor.trace_io.trace_from_doc"),
        (monitor_engine, "monitor_trace", "monitor.engine.monitor_trace"),
        (protocol, "encode", "service.protocol.encode"),
        (protocol, "decode_line", "service.protocol.decode_line"),
        (cache.ResultCache, "get", "perf.cache.get"),
        (cache.ResultCache, "put", "perf.cache.put"),
    ]
    present = [t for t in wanted if t[1] in vars(t[0])]
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in wanted
               if a not in vars(o)]
    return present, missing


class Traced:
    """Collects one traced run's metrics, checks and primary shares."""

    def __init__(self, seed: int, seconds: float, root: str) -> None:
        self.seed = seed
        self.scale = seconds / 10.0
        self.root = root
        self.targets, self.missing_targets = span_targets()
        self.out = wl.Outcome()
        self.metrics: Dict[str, Optional[float]] = {}
        self.notes: Dict[str, str] = {}

    def put(self, name: str, value: Optional[float], why: str = "") -> None:
        self.metrics[name] = value
        if value is None:
            self.notes[name] = why or "no spans recorded"

    def traced(self, fn: Callable[[Tracer], Any]) -> Tuple[float, List[Span], Any]:
        """``fn(tracer)`` with the wrappers installed: ``(wall, spans,
        result)``."""
        tracer = Tracer()
        with tracer.installed(self.targets):
            gc.collect()
            t0 = perf_counter()
            result = fn(tracer)
            wall = perf_counter() - t0
        return wall, tracer.spans(), result

    def primary(self, untraced: Sequence[float], traced: Sequence[float],
                spans: Sequence[Span]) -> None:
        shares = path_shares(spans, sum(traced))
        for layer in LAYERS:
            self.put(f"{layer}.self_share", shares[layer])
        self.put("trace.residual_share", shares["residual"])
        self.put("trace.overhead_share", median(traced) / median(untraced) - 1.0)

    # -- api-request: api, serialization, network, ttr, timing, kernels,
    #    sweep, admission -------------------------------------------------
    def api_request(self, is_primary: bool) -> None:
        requests = wl.api_requests(
            self.seed, max(20, round(API_TRACE_REQUESTS * self.scale)))
        expected = [wl.api_call(line) for _op, line in requests]
        fast_iterations: List[int] = []

        def replay(tr: Tracer) -> None:
            for i, (op, line) in enumerate(requests):
                tr.set_request(op)
                before = counters.fast
                result = wl.api_call(line, tr)
                if op == "analyse":
                    fast_iterations.append(counters.fast - before)
                if result != expected[i]:
                    self.out.fail(f"traced api request {i} ({op}) differs")

        untraced, traced, spans = [], [], []
        for _ in range(PRIMARY_ROUNDS if is_primary else 1):
            if is_primary:
                gc.collect()
                t0 = perf_counter()
                for _op, line in requests:
                    wl.api_call(line)
                untraced.append(perf_counter() - t0)
            wall, round_spans, _ = self.traced(replay)
            traced.append(wall)
            spans += round_spans
            self.out.attempted += len(requests)
        if is_primary:
            self.primary(untraced, traced, spans)

        named = by_name(spans)
        rounds = len(traced)
        n_admission = rounds * sum(op == "admission" for op, _ in requests)
        analyses = named.get("profibus.ttr.analyse", [])
        self.put("api.request_decode_us", _mean_us(named, "api.request_decode"))
        self.put("api.result_encode_us", _mean_us(named, "api.result_encode"))
        self.put("profibus.serialization.parse_us",
                 _mean_us(named, "profibus.serialization.network_from_dict"))
        self.put("profibus.network.fingerprint_us",
                 _mean_us(named, "profibus.network.fingerprint"))
        self.put("profibus.ttr.analyse_us",
                 _mean((s.duration for s in analyses if s.rid == "analyse"), 1e6))
        self.put("profibus.timing.tcycle_us",
                 _mean_us(named, "profibus.timing.tcycle"))
        self.put("perf.kernels.dm_us_per_master",
                 _mean_us(named, "perf.kernels.dm_master_response_times"))
        self.put("perf.kernels.edf_us_per_master",
                 _mean_us(named, "perf.kernels.edf_master_response_times"))
        self.put("perf.stats.fast_iterations", _mean(fast_iterations))
        sweeps = named.get("profibus.sweep.deadline_scale_sweep", [])
        self.put("profibus.sweep.point_us",
                 _mean((s.duration / len(wl.SWEEP_GRID) for s in sweeps), 1e6))
        self.put("profibus.sweep.csv_us",
                 _mean_us(named, "profibus.sweep.rows_to_csv"))
        self.put("profibus.ttr.max_feasible_ttr_ms",
                 _scaled(_mean_us(named, "profibus.ttr.max_feasible_ttr"), 1e-3))
        self.put("core.sensitivity.tightening_ms",
                 _scaled(_mean_us(named, "core.sensitivity.smallest_feasible_factor"),
                         1e-3))
        self.put("admission.iterations",
                 sum(s.rid == "admission" for s in analyses) / n_admission
                 if n_admission else None)

    # -- batch: perf.batch, perf.vector -----------------------------------
    def batch(self, is_primary: bool) -> None:
        nets = wl.batch_networks(self.seed)
        blobs = [pickle.dumps(nets[i:i + wl.BATCH_SLICE])
                 for i in range(0, len(nets), wl.BATCH_SLICE)]

        def fresh() -> list:
            return [pickle.loads(blob) for blob in blobs]

        def run(slices, tr=NULL, **kwargs) -> list:
            """One pass over the slices, as the measured run makes it."""
            rows = []
            for slice_nets in slices:
                with tr.span("perf.batch.analyse_many"):
                    rows.append(analyse_many(slice_nets, wl.POLICIES, **kwargs))
            return rows

        untraced, traced, spans = [], [], []
        rows = None
        for _ in range(2 if is_primary else 1):
            slices = fresh()
            gc.collect()
            t0 = perf_counter()
            rows = run(slices)
            untraced.append(perf_counter() - t0)
            self.out.attempted += sum(map(len, rows))
            if is_primary:
                slices = fresh()
                wall, round_spans, traced_rows = self.traced(
                    lambda tr: run(slices, tr))
                traced.append(wall)
                spans += round_spans
                self.out.attempted += sum(map(len, traced_rows))
                if traced_rows != rows:
                    self.out.fail("traced batch rows differ")
        if is_primary:
            self.primary(untraced, traced, spans)
        n_analyses = sum(map(len, rows))

        serial = ({"workers": 1} if "workers" in
                  inspect.signature(analyse_many).parameters else {})
        slices = fresh()
        gc.collect()
        t0 = perf_counter()
        serial_rows = run(slices, **serial)
        serial_wall = perf_counter() - t0
        self.out.attempted += n_analyses
        if serial_rows != rows:
            self.out.fail("serial batch rows differ from the default calls")
        self.put("perf.batch.serial_analyses_per_s", n_analyses / serial_wall)
        self.put("perf.batch.pool_overhead_s", median(untraced) - serial_wall)

        from repro.perf import vector

        row_at = {(k * wl.BATCH_SLICE + r.index, r.policy):
                  (r.tcycle, r.schedulable, r.worst_response, r.worst_slack)
                  for k, slice_rows in enumerate(rows) for r in slice_rows}
        nets = [net for slice_nets in fresh() for net in slice_nets]
        gc.collect()
        before = counters.vectorized
        t0 = perf_counter()
        pack = vector.pack_networks(nets)
        self.put("perf.vector.pack_us_per_net",
                 1e6 * (perf_counter() - t0) / len(nets))
        for policy in wl.POLICIES:
            t0 = perf_counter()
            summaries = vector.batch_summaries(pack, policy)
            wall = perf_counter() - t0
            self.put(f"perf.vector.{policy}_us_per_net",
                     1e6 * wall / max(1, pack.n_packed))
            self.out.attempted += len(summaries)
            bad = sum(row_at[(idx, policy)] != (tc, sched, wr, ws)
                      for idx, tc, sched, wr, ws in summaries)
            if bad:
                self.out.fail(f"{bad} vector {policy} summaries differ", bad)
        self.put("perf.vector.fallback_nets", len(pack.fallback))
        self.put("perf.stats.vectorized_iterations",
                 counters.vectorized - before)

    # -- trace-check: sim.token, monitor.trace_io, monitor.engine ----------
    def trace_check(self, is_primary: bool) -> None:
        cases = wl.trace_cases(self.seed)
        expected = [wl.reference_rows(case) for case in cases]
        events: List[int] = []

        def replay(tr: Tracer, nets) -> list:
            results = []
            for case, net in zip(cases, nets):
                n, result = wl.trace_check_call(case, net, tr)
                events.append(n)
                results.append(result)
            return results

        untraced, traced, spans = [], [], []
        for _ in range(PRIMARY_ROUNDS if is_primary else 1):
            if is_primary:
                nets = [case.network() for case in cases]
                gc.collect()
                t0 = perf_counter()
                for case, net in zip(cases, nets):
                    wl.trace_check_call(case, net)
                untraced.append(perf_counter() - t0)
            nets = [case.network() for case in cases]
            wall, round_spans, results = self.traced(lambda tr: replay(tr, nets))
            traced.append(wall)
            spans += round_spans
            self.out.attempted += len(cases)
            for case, result, rows in zip(cases, results, expected):
                wl.check_trace_result(self.out, case, result, rows)
        if is_primary:
            self.primary(untraced, traced, spans)

        named = by_name(spans)
        total = sum(events)

        def rate(name: str) -> Optional[float]:
            busy = sum(s.duration for s in named.get(name, []))
            return total / busy if busy else None

        self.put("sim.token.events_per_s", rate("sim.token.simulate_token_bus"))
        self.put("sim.events", total / len(events))
        self.put("monitor.trace_io.export_events_per_s",
                 rate("monitor.trace_io.trace_doc"))
        self.put("monitor.trace_io.ingest_events_per_s",
                 rate("monitor.trace_io.trace_from_doc"))
        self.put("monitor.engine.check_events_per_s",
                 rate("monitor.engine.monitor_trace"))

    # -- daemon: service, perf.cache ----------------------------------------
    def daemon(self, is_primary: bool) -> None:
        docs, plans = wl.client_plans(
            self.seed, max(50, round(DAEMON_TRACE_REQUESTS * self.scale)))
        sent: List[int] = []
        _setup, daemon = wl.daemon_cold_start(self.root)
        try:
            _wall, records = wl.drive_clients(daemon.address, docs, plans,
                                              on_send=sent.append)
            finish = wl.finish_daemon(self.out, daemon)
        except BaseException:
            daemon.kill()
            raise
        self.out.attempted += len(records)
        offline: Dict[int, str] = {}
        wl.check_replies(self.out, docs, records, offline)
        replies = [(rtt, reply.elapsed_ms / 1000.0)
                   for _k, _j, _doc, rtt, reply, error in records
                   if error is None]
        self.put("service.rtt_ms", 1e3 * median(r for r, _ in replies))
        self.put("service.server_ms", 1e3 * median(s for _, s in replies))
        self.put("service.transport_ms", 1e3 * median(r - s for r, s in replies))
        cache = finish["cache"]
        self.put("perf.cache.hits", cache["hits"])
        self.put("perf.cache.misses", cache["misses"])
        self.put("perf.cache.hit_ratio",
                 cache["hits"] / (cache["hits"] + cache["misses"]))

        lines = wl.request_lines(docs, sent)
        untraced, traced, spans = [], [], []
        for _ in range(PRIMARY_ROUNDS if is_primary else 1):
            if is_primary:
                gc.collect()
                t0 = perf_counter()
                wl.server_replay(lines)
                untraced.append(perf_counter() - t0)
            wall, round_spans, out_lines = self.traced(
                lambda tr: wl.server_replay(lines, tr))
            traced.append(wall)
            spans += round_spans
            self.out.attempted += len(out_lines)
            for doc_id, line in zip(sent, out_lines):
                result = wl.canonical(protocol.decode_line(line)["result"])
                if doc_id not in offline:
                    offline[doc_id] = wl.canonical(
                        wl.api.execute_request_doc(docs[doc_id]))
                if result != offline[doc_id]:
                    self.out.fail(f"replayed doc {doc_id} differs from offline")
        if is_primary:
            self.primary(untraced, traced, spans)
        named = by_name(spans)
        self.put("service.protocol.decode_us",
                 _mean_us(named, "service.protocol.decode_line"))
        self.put("service.protocol.encode_us",
                 _mean_us(named, "service.protocol.encode"))


WORKLOADS = ("batch", "api-request", "daemon", "trace-check")


def traced_run(workload: str, seed: int, seconds: float,
               root: str) -> Traced:
    """Replay ``workload`` as the primary, then the others for the
    layers they are home to."""
    run = Traced(seed, seconds, root)
    replays = {
        "batch": run.batch,
        "api-request": run.api_request,
        "daemon": run.daemon,
        "trace-check": run.trace_check,
    }
    for name in [workload] + [w for w in WORKLOADS if w != workload]:
        replays[name](name == workload)
    for name, _unit in PER_LAYER:
        if name not in run.metrics:
            run.put(name, None, "not measured")
    return run


# ------------------------------------------------------------------ helpers

def _mean(values, scale: float = 1.0) -> Optional[float]:
    values = list(values)
    return scale * sum(values) / len(values) if values else None


def _mean_us(named: Dict[str, List[Span]], name: str) -> Optional[float]:
    return _mean((s.duration for s in named.get(name, [])), 1e6)


def _scaled(value: Optional[float], scale: float) -> Optional[float]:
    return None if value is None else value * scale
