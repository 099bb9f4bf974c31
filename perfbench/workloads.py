"""Inputs and measured paths of the four benchmark workloads.

Every input is a pure function of the seed, and none is generated
inside a timed section.  The program under test receives only the
generated inputs: no analysis mode, worker count or environment
override, so the numbers are those of the defaults users get.

The per-call functions (:func:`api_call`, :func:`trace_check_call`,
:func:`server_replay`) take a tracer; the measured run passes
:data:`perfbench.tracer.NULL`, the traced run a recording one, so both
runs go through the same code.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from repro import api
from repro.fuzz.families import generate_instance
from repro.gen.network_gen import network_with_ttr_headroom, random_network
from repro.monitor import trace_doc, validation_row_doc
from repro.perf.batch import analyse_many, generate_networks
from repro.perf.cache import ResultCache
from repro.profibus import serialization
from repro.profibus.serialization import network_to_dict
from repro.profibus.timing import tcycle
from repro.scenarios import factory_cell_network
from repro.schemas import API_SCHEMA
from repro.service import ServiceClient, ServiceError, protocol
from repro.sim import BusTrace, TokenBusConfig, simulate_token_bus, validate_network

from .calibrate import SLOTS, Calibration
from .tracer import NULL

POLICIES = ("fcfs", "dm", "edf")
SIM_POLICY = {"fcfs": "stock-fcfs", "dm": "ap-dm", "edf": "ap-edf"}

#: batch: networks per pass, analysed in ``analyse_many`` calls of
#: ``BATCH_SLICE`` (each call one timed unit), and the deadline-tightness
#: levels the E5-shaped share cycles through (easy → infeasible).
BATCH_SIZE = 5000
BATCH_SLICE = 1000
TIGHTNESS_CYCLE = (1.0, 0.5, 0.3, 0.2, 0.12)
BATCH_FUZZ_FAMILIES = ("jitter-heavy", "retry-prone", "mixed-baud")

#: api-request: distinct requests per pass, the op mix, and the
#: 37-point deadline-scale grid of the sweep requests.
API_REQUESTS = 400
API_MIX = (("analyse", 70), ("admission", 15), ("sweep", 15))
#: quantile of its op's fastest times above which a request's is capped
CAP_QUANTILE = 0.95
SWEEP_GRID = tuple(round(0.2 + 0.05 * k, 2) for k in range(37))

#: daemon: closed-loop clients, hot plant documents, and the share of
#: requests that repeat a hot document.  At half, hits and misses split
#: the requests evenly and the median round trip sat on the gap between
#: the two clusters, jumping by a fifth between runs of one seed.
CLIENTS = 2
HOT_DOCS = 16
HOT_SHARE = 0.4
#: requests per client in one daemon round (under a second)
ROUND_REQUESTS = 400

#: cold starts timed per run at least; their median is ``setup_s``
SETUP_RUNS = 9

#: Repetitions of each workload's units at ``--seconds 10`` (scaled
#: linearly): about ten seconds of timed work on a 2-CPU container.
#: Fixed counts, not a time budget, so a faster tree gets no extra
#: draws at its fastest repetition.
BATCH_CALLS = 6
API_PASSES = 7
TRACE_PASSES = 20
DAEMON_ROUNDS = 14

#: Generated networks with a master loaded at or above this share of its
#: token cycles are redrawn.  Near saturation the EDF bound costs up to
#: tens of seconds (the busy period explodes), and overloaded masters up
#: to a hundred milliseconds; a handful of such draws decided whole runs
#: and made one seed's workload heavier than another's.
NEAR_SATURATION = 0.85
MAX_DRAWS = 1000

#: trace-check: multi-master rings beside the factory cell, and the
#: simulated horizon per iteration.
TRACE_RINGS = 12
TRACE_HORIZON_MS = 200
TRACE_MAX_EVENTS = 1_000_000


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


@dataclass
class Outcome:
    """What one measured run of a workload produced.

    The timed work is made of *units* (one ``analyse_many`` call, one
    request, one trace case, a client's n-th request of a daemon round),
    each repeated through the run.  Other tenants of the machine only
    ever add time, in bursts that last seconds, so a unit's cost is its
    fastest repetition: :meth:`p50_ms` is the median of those over the
    units, :meth:`ops_per_s` the units' work over their summed fastest
    times (times ``concurrency`` closed-loop clients); :meth:`setup_s`
    the median cold start.  All three are scaled to the reference
    machine speed by ``calibration``, whose slots the workload times
    between its units (see :mod:`perfbench.calibrate`); ``raw=True``
    gives them unscaled.  ``batch`` is not ``calibrated``: its calls
    start a pool of worker processes on both CPUs, whose speed a loop in
    this process did not track (scaling doubled its spread).  Where
    units have ``kinds`` (api-request's ops),
    :meth:`ops_per_s` caps each unit's time at the ``CAP_QUANTILE`` of
    its kind, so one near-saturation request (an EDF admission costs up
    to fifteen times its op's usual) cannot decide a run.
    ``samples`` keeps every repetition for the raw figures of the
    ``detail`` line.
    """

    times: Dict[Any, List[float]] = field(default_factory=dict)
    unit_ops: Dict[Any, int] = field(default_factory=dict)
    concurrency: int = 1
    wall: float = 0.0         # seconds spent in timed sections
    samples: List[float] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)  # cold starts, s
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)
    rss_mb: float = 0.0
    calibration: Calibration = field(default_factory=Calibration)
    calibrated: bool = True
    kinds: Dict[Any, str] = field(default_factory=dict)

    def record(self, unit: Any, seconds: float, ops: int) -> None:
        self.times.setdefault(unit, []).append(seconds)
        self.unit_ops[unit] = ops
        self.samples.append(seconds)
        self.wall += seconds

    def speed_scale(self) -> float:
        return self.calibration.scale() if self.calibrated else 1.0

    def _scale(self, raw: bool) -> float:
        return 1.0 if raw else self.speed_scale()

    def unit_costs(self, capped: bool = True) -> List[float]:
        """Each unit's fastest time, capped per kind if ``capped``."""
        best = {u: min(t) for u, t in self.times.items()}
        if not (capped and self.kinds):
            return list(best.values())
        by_kind: Dict[str, List[float]] = {}
        for u, t in best.items():
            by_kind.setdefault(self.kinds[u], []).append(t)
        cap = {k: percentile(ts, CAP_QUANTILE) for k, ts in by_kind.items()}
        return [min(t, cap[self.kinds[u]]) for u, t in best.items()]

    def setup_s(self, raw: bool = False) -> float:
        return median(self.setup) * self._scale(raw)

    def ops_per_s(self, raw: bool = False, capped: bool = True) -> float:
        best = sum(self.unit_costs(capped)) * self._scale(raw)
        return self.concurrency * sum(self.unit_ops.values()) / best

    def p50_ms(self, raw: bool = False) -> float:
        best = percentile([min(t) for t in self.times.values()], 0.5)
        return 1000.0 * best * self._scale(raw)

    def best_timing(self, units) -> Dict[str, Any]:
        """:func:`timing` of the given units' fastest repetitions."""
        return dict(timing([min(self.times[u]) for u in units]), unit="ms")

    def raw_rate(self, unit: str) -> Dict[str, Any]:
        """Work per second over every repetition, as a detail figure."""
        ops = sum(self.unit_ops[u] * len(t) for u, t in self.times.items())
        return {"value": self.concurrency * ops / self.wall, "unit": unit,
                "n": ops}

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


# ----------------------------------------------------------------- helpers

@contextmanager
def generic_mode():
    """The exact generic analysis path, as the reference oracle."""
    from repro.perf.config import analysis_mode_set

    with analysis_mode_set("generic"):
        yield


def repetitions(base: int, seconds: float) -> int:
    return max(2, round(base * seconds / 10))


def canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def peak_rss_mb(pid: Any = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def timing(values: Sequence[float]) -> Dict[str, Any]:
    """Median and the tail percentiles with at least ten samples beyond
    them, in ms (``values`` in seconds), with the sample count."""
    out: Dict[str, Any] = {"n": len(values)}
    if not values:
        return out
    out["p50"] = percentile(values, 0.5) * 1000.0
    for name, q in (("p90", 0.9), ("p99", 0.99)):
        if len(values) * (1 - q) >= 10:
            out[name] = percentile(values, q) * 1000.0
    return out


def master_load(net, extra: float = 0.0) -> float:
    """Largest per-master demand ``Σ Tcycle / T`` over high-priority
    streams (``extra`` is added to every master's)."""
    tc = tcycle(net, net.require_ttr())
    return max(extra + sum(tc / s.T for s in m.streams if s.high_priority)
               for m in net.masters)


def steady(net, extra: float = 0.0) -> bool:
    return master_load(net, extra) < NEAR_SATURATION


def steady_networks(count: int, seed: str, extra: float = 0.0,
                    **kwargs) -> list:
    """``generate_networks(count, seed, **kwargs)`` with every draw
    that fails :func:`steady` replaced by a further draw."""
    nets: list = []
    for attempt in range(MAX_DRAWS):
        batch = generate_networks(count - len(nets), seed=f"{seed}:{attempt}",
                                  **kwargs)
        nets += [net for net in batch if steady(net, extra)]
        if len(nets) == count:
            return nets
    raise BenchError(f"no {count} steady networks for {seed!r} in {MAX_DRAWS} draws")


def steady_instance(seed: int, family: str, index: int, stride: int):
    """Fuzz-family instance ``index`` (or the next steady one, stepping
    by ``stride`` so indices never collide)."""
    for _ in range(MAX_DRAWS):
        net = generate_instance(seed, family, index)
        if steady(net):
            return net
        index += stride
    raise BenchError(f"no steady {family} instance in {MAX_DRAWS} draws")


def _analyse_doc(net, policy: str) -> Dict[str, Any]:
    return {"schema": API_SCHEMA, "op": "analyse",
            "network": network_to_dict(net), "policy": policy}


# ------------------------------------------------------------------- batch

def batch_networks(seed: int, n: int = BATCH_SIZE) -> list:
    """``n`` networks: 80 % E5 3×3 shape over the tightness cycle, 10 %
    larger rings (4–8 masters × 4–8 streams, at most 54 streams), 10 % fuzz-family
    instances; shuffled so every pool chunk gets the same mix."""
    n_ring = n // 10
    n_fuzz = n // 10
    n_e5 = n - n_ring - n_fuzz
    rng = Random(f"{seed}:batch")
    nets = []
    for i, x in enumerate(TIGHTNESS_CYCLE):
        count = n_e5 // len(TIGHTNESS_CYCLE) + (i < n_e5 % len(TIGHTNESS_CYCLE))
        nets += steady_networks(count, f"{seed}:batch:e5:{x!r}",
                                d_over_t=(0.6 * x, x))
    for i in range(n_ring):
        masters = 4 + i % 5
        # the generator gives each ring masters × streams / 2 slaves, and
        # slave addresses start at 100, so the product stays below 55
        nets += steady_networks(1, f"{seed}:batch:ring:{i}",
                                n_masters=masters,
                                streams_per_master=min(4 + i // 5 % 5, 54 // masters),
                                d_over_t=(0.3, 1.0))
    for i in range(n_fuzz):
        family = BATCH_FUZZ_FAMILIES[i % len(BATCH_FUZZ_FAMILIES)]
        nets.append(steady_instance(seed, family, i, n_fuzz))
    rng.shuffle(nets)
    return nets


def run_batch(seed: int, seconds: float) -> Outcome:
    out = Outcome(calibrated=False)
    # Each pass analyses fresh unpickled instances, so the
    # instance-keyed analysis memos never carry over between passes.
    nets = batch_networks(seed)
    blobs = [pickle.dumps(nets[i:i + BATCH_SLICE])
             for i in range(0, len(nets), BATCH_SLICE)]
    first_rows: Dict[int, list] = {}
    for _ in range(repetitions(BATCH_CALLS, seconds)):
        for k, blob in enumerate(blobs):
            nets = pickle.loads(blob)
            gc.collect()
            t0 = perf_counter()
            rows = analyse_many(nets, POLICIES)
            out.record(k, perf_counter() - t0, len(rows))
            out.attempted += len(nets) * len(POLICIES)
            if k not in first_rows:
                first_rows[k] = rows
            elif rows != first_rows[k]:
                out.fail("batch rows differ between passes",
                         sum(a != b for a, b in zip(rows, first_rows[k])) or 1)
    with generic_mode():
        reference = [analyse_many(pickle.loads(blob), POLICIES) for blob in blobs]
    first_rows = [row for k in range(len(blobs)) for row in first_rows[k]]
    reference = [row for rows in reference for row in rows]
    if len(first_rows) != len(reference):
        out.fail("batch row count differs from the generic reference")
    else:
        bad = sum(a != b for a, b in zip(first_rows, reference))
        if bad:
            out.fail(f"{bad} batch rows differ from the generic reference",
                     bad * repetitions(BATCH_CALLS, seconds))
    out.detail = {
        "analyses_per_s": out.raw_rate("1/s"),
        "call_ms": {"best": out.best_timing(out.times),
                    "all": dict(timing(out.samples), unit="ms")},
        "networks": len(first_rows) // len(POLICIES),
        "schedulable_rows": sum(r.schedulable for r in first_rows),
    }
    return out


def warm_up_batch() -> None:
    analyse_many(generate_networks(8, seed="warm-up"), POLICIES)


# ------------------------------------------------------------- api-request

def _admission_doc(net, rng: Random, policy: str) -> Dict[str, Any]:
    master = rng.choice(net.masters)
    period = 4 * rng.choice(master.streams).T
    payload = rng.randint(2, 16)
    return {"schema": API_SCHEMA, "op": "admission",
            "network": network_to_dict(net), "policy": policy,
            "admission_master": master.address,
            "admission_stream": {
                "name": "candidate", "T": period, "D": period,
                "cycle": {"req_payload": payload, "resp_payload": payload},
            }}


def api_requests(seed: int, n: int = API_REQUESTS) -> List[Tuple[str, str]]:
    """``(op, json_line)`` for ``n`` requests over distinct networks of
    2–8 masters, in the ``API_MIX`` proportions, shuffled."""
    rng = Random(f"{seed}:api")
    ops: List[str] = []
    for op, share in API_MIX[1:]:
        ops += [op] * (n * share // 100)
    ops = [API_MIX[0][0]] * (n - len(ops)) + ops
    rng.shuffle(ops)
    out = []
    nth = {op: 0 for op, _ in API_MIX}
    for i, op in enumerate(ops):
        # sizes cycle per op, so every seed asks for the same sizes
        k = nth[op]
        nth[op] += 1
        # an admission candidate adds at most a quarter of a stream's load
        net = steady_networks(1, f"{seed}:api:{i}",
                              extra=0.25 if op == "admission" else 0.0,
                              n_masters=2 + k % 7,
                              streams_per_master=2 + k // 7 % 3,
                              d_over_t=(0.5, 1.0), ttr_fraction_of_tdel=1.0)[0]
        policy = POLICIES[i % len(POLICIES)]
        if op == "analyse":
            doc = _analyse_doc(net, policy)
        elif op == "admission":
            doc = _admission_doc(net, rng, policy)
        else:
            doc = {"schema": API_SCHEMA, "op": "sweep",
                   "network": network_to_dict(net),
                   "sweep_param": "deadline-scale",
                   "sweep_values": list(SWEEP_GRID)}
        out.append((op, json.dumps(doc)))
    return out


def api_call(line: str, tr=NULL) -> str:
    """One request as the CLI runs it: JSON line in, JSON line out."""
    with tr.span("api.request_decode"):
        request = api.AnalysisRequest.from_dict(json.loads(line))
    with tr.span("api.execute"):
        result = api.execute(request)
    with tr.span("api.result_encode"):
        return json.dumps(result.to_dict())


def run_api_request(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    requests = api_requests(seed)
    first: Dict[int, str] = {}
    every = max(1, len(requests) // SLOTS)
    for _ in range(repetitions(API_PASSES, seconds)):
        gc.collect()
        for i, (op, line) in enumerate(requests):
            if i % every == 0:
                out.calibration.tick()
            out.attempted += 1
            t0 = perf_counter()
            try:
                result = api_call(line)
            except Exception as exc:  # noqa: BLE001 — counted as a failure
                out.fail(f"request {i} ({op}): {type(exc).__name__}: {exc}")
                continue
            out.record(i, perf_counter() - t0, 1)
            if i not in first:
                first[i] = result
            elif result != first[i]:
                out.fail(f"request {i} ({op}) answered differently on a "
                         "later pass")
    with generic_mode():
        for i, result in first.items():
            if api_call(requests[i][1]) != result:
                out.fail(f"request {i} differs from the generic reference")
    out.kinds = {i: requests[i][0] for i in out.times}
    out.detail = {"req_per_s": out.raw_rate("1/s"),
                  "uncapped_ops_per_s": out.ops_per_s(capped=False),
                  "distinct_requests": len(first)}
    for op, _share in API_MIX:
        units = [i for i in out.times if requests[i][0] == op]
        out.detail[f"{op}_ms"] = {
            "best": out.best_timing(units),
            "all": dict(timing([t for i in units for t in out.times[i]]),
                        unit="ms"),
        }
    return out


def warm_up_lines() -> List[str]:
    cell = factory_cell_network()
    rng = Random("warm-up")
    return [
        json.dumps(_analyse_doc(cell, "dm")),
        json.dumps(_admission_doc(cell, rng, "dm")),
        json.dumps({"schema": API_SCHEMA, "op": "sweep",
                    "network": network_to_dict(cell),
                    "sweep_param": "deadline-scale",
                    "sweep_values": list(SWEEP_GRID)}),
    ]


def warm_up_api_request() -> None:
    for line in warm_up_lines():
        api_call(line)


# ------------------------------------------------------------------ daemon

def _shuffled(value: Any, rng: Random) -> Any:
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: _shuffled(value[k], rng) for k in keys}
    if isinstance(value, list):
        return [_shuffled(v, rng) for v in value]
    return value


def respell(doc: Dict[str, Any], rng: Random) -> Dict[str, Any]:
    """The same request spelled differently: default fields written
    out and every object's keys shuffled.  Value-equal, byte-different."""
    doc = json.loads(json.dumps(doc))
    for master in doc["network"]["masters"]:
        for stream in master["streams"]:
            stream.setdefault("J", 0)
            stream.setdefault("high_priority", True)
    doc.setdefault("refined", False)
    doc.setdefault("stats_after", 0)
    return _shuffled(doc, rng)


def _daemon_net(seed: int, tag: str, index: int):
    return steady_networks(1, f"{seed}:daemon:{tag}",
                           n_masters=2 + index % 4,
                           streams_per_master=3, d_over_t=(0.5, 1.0),
                           ttr_fraction_of_tdel=1.0)[0]


def daemon_docs(seed: int, n_unseen: int) -> List[Dict[str, Any]]:
    """Hot documents, their re-spelled twins, then unseen networks:
    ids ``[0, HOT)``, ``[HOT, 2·HOT)``, ``[2·HOT, …)``."""
    hot = [_analyse_doc(_daemon_net(seed, f"hot:{i}", i),
                        POLICIES[i % len(POLICIES)])
           for i in range(HOT_DOCS)]
    twins = [respell(d, Random(f"{seed}:daemon:respell:{i}"))
             for i, d in enumerate(hot)]
    unseen = [_analyse_doc(_daemon_net(seed, f"unseen:{i}", i),
                           POLICIES[i % len(POLICIES)])
              for i in range(n_unseen)]
    return hot + twins + unseen


def client_plan(seed: int, client: int, n_docs: int):
    """Doc ids client ``client`` sends, in order: a hot document (as
    sent first, or its re-spelled twin) with probability ``HOT_SHARE``,
    else the client's next unseen document."""
    rng = Random(f"{seed}:daemon:client:{client}")
    unseen = iter(range(2 * HOT_DOCS + client, n_docs, CLIENTS))
    while True:
        if rng.random() < HOT_SHARE:
            yield rng.randrange(HOT_DOCS) + HOT_DOCS * (rng.random() < 0.5)
        else:
            nxt = next(unseen, None)
            if nxt is None:
                return
            yield nxt


def clean_env(src: str) -> Dict[str, str]:
    """The environment for child processes: the tree's sources on the
    path and no ``REPRO_*`` overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    return env


class Daemon:
    """``repro-cli serve`` with its defaults, as a child process."""

    def __init__(self, root: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True, cwd=root,
            env=clean_env(os.path.join(root, "src")),
        )
        banner = self.proc.stdout.readline().strip()
        if not banner.startswith("listening on "):
            self.kill()
            raise BenchError(f"unexpected server banner {banner!r}")
        host, _, port = banner[len("listening on "):].rpartition(":")
        self.address = (host, int(port))

    def shutdown(self) -> int:
        """Graceful stop; returns the server's exit code."""
        try:
            with ServiceClient(*self.address) as client:
                client.shutdown()
            return self.proc.wait(timeout=30)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()


def daemon_cold_start(root: str) -> Tuple[float, Daemon]:
    """Seconds from spawning the server to its answer to the first
    (warm-up) analysis request, after a ``ping``."""
    t0 = perf_counter()
    daemon = Daemon(root)
    try:
        with ServiceClient(*daemon.address) as client:
            client.ping()
            client.analyse(json.loads(warm_up_lines()[0]))
    except BaseException:
        daemon.kill()
        raise
    return perf_counter() - t0, daemon


def drive_clients(address, docs, plans, on_send=None, calibration=None):
    """Closed loop: each client sends its next request when the previous
    reply is in.  Client 0 times one ``calibration`` slot, if given,
    after every ``len(plan) // SLOTS``-th reply, outside its round trips.
    Returns ``(wall, records)`` where a record is
    ``(client, position, doc_id, rtt_s, reply_or_None, error_or_None)``."""
    records: List[list] = [[] for _ in plans]
    start = [0.0]
    barrier = threading.Barrier(len(plans),
                                action=lambda: start.__setitem__(0, perf_counter()))
    ends = [0.0] * len(plans)
    errors: List[BaseException] = []

    def loop(k: int) -> None:
        try:
            with ServiceClient(*address) as client:
                barrier.wait()
                for j, doc_id in enumerate(plans[k]):
                    if on_send is not None:
                        on_send(doc_id)
                    t0 = perf_counter()
                    try:
                        reply = client.analyse(docs[doc_id])
                    except ServiceError as exc:
                        records[k].append((k, j, doc_id, perf_counter() - t0,
                                           None, str(exc)))
                        if exc.error_type == "connection":
                            break
                        continue
                    records[k].append((k, j, doc_id, perf_counter() - t0,
                                       reply, None))
                    if calibration is not None and k == 0 and j % every == 0:
                        calibration.tick()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
            barrier.abort()
        finally:
            ends[k] = perf_counter()

    every = max(1, len(plans[0]) // SLOTS)
    threads = [threading.Thread(target=loop, args=(k,)) for k in range(len(plans))]
    gc.collect()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}")
    if any(t.is_alive() for t in threads):
        raise BenchError("client threads did not finish")
    return max(ends) - start[0], [r for rs in records for r in rs]


def check_replies(out: Outcome, docs, records,
                  offline: Dict[int, str]) -> None:
    """Every reply's result must equal offline ``execute_request_doc``
    byte for byte (canonical JSON); ``offline`` memoizes the answers."""
    for _k, _j, doc_id, _rtt, reply, error in records:
        if error is not None:
            out.fail(f"doc {doc_id}: error reply {error}")
            continue
        if doc_id not in offline:
            offline[doc_id] = canonical(api.execute_request_doc(docs[doc_id]))
        if canonical(reply.result) != offline[doc_id]:
            out.fail(f"doc {doc_id}: reply differs from offline repro.api")


def finish_daemon(out: Outcome, daemon: Daemon) -> Dict[str, Any]:
    """Stats, peak RSS, graceful shutdown; records any failure."""
    with ServiceClient(*daemon.address) as client:
        stats = client.stats()
    rss = peak_rss_mb(daemon.proc.pid)
    errors = sum(s["errors"] for s in stats["sessions"]["sessions"].values())
    if errors:
        out.fail(f"server sessions recorded {errors} errors")
    code = daemon.shutdown()
    if code != 0:
        out.fail(f"server exited with {code}")
    return {"cache": stats["cache"], "server_rss_mb": rss}


def client_plans(seed: int, per_client: int) -> Tuple[list, List[List[int]]]:
    """The documents and every client's fixed request sequence."""
    docs = daemon_docs(seed, CLIENTS * per_client)
    plans = [list(itertools.islice(client_plan(seed, k, len(docs)), per_client))
             for k in range(CLIENTS)]
    return docs, plans


def run_daemon(seed: int, seconds: float, root: str) -> Outcome:
    """Rounds of the same request sequences, each against a fresh server
    (so every round sees the same hits and misses); each round's cold
    start is one set-up sample."""
    out = Outcome(concurrency=CLIENTS)
    docs, plans = client_plans(seed, ROUND_REQUESTS)
    offline: Dict[int, str] = {}
    cached: Dict[Tuple[int, int], bool] = {}
    rss: List[float] = []
    rounds_wall = 0.0
    for _ in range(max(SETUP_RUNS, repetitions(DAEMON_ROUNDS, seconds))):
        elapsed, daemon = daemon_cold_start(root)
        out.setup.append(elapsed)
        try:
            wall, records = drive_clients(daemon.address, docs, plans,
                                          calibration=out.calibration)
            finish = finish_daemon(out, daemon)
        except BaseException:
            daemon.kill()
            raise
        rounds_wall += wall
        rss.append(finish["server_rss_mb"])
        out.attempted += len(records)
        for k, j, _doc, rtt, reply, error in records:
            if error is None:
                out.record((k, j), rtt, 1)
                cached[k, j] = reply.cached
        check_replies(out, docs, records, offline)
    out.rss_mb = median(rss)
    out.detail = {
        "req_per_s": {"value": len(out.samples) / rounds_wall, "unit": "1/s",
                      "n": len(out.samples)},
        "rtt_ms": {"best": out.best_timing(out.times),
                   "all": dict(timing(out.samples), unit="ms")},
        # by the last round's cached flag
        "hit_ms": {"best": out.best_timing(u for u in out.times if cached[u])},
        "miss_ms": {"best": out.best_timing(u for u in out.times if not cached[u])},
        "cache_per_round": finish["cache"],
        "rounds": len(out.setup),
        "clients": CLIENTS,
    }
    return out


# ------------------------------------------------------------- trace-check

@dataclass
class TraceCase:
    blob: bytes          # pickled network: fresh instances per iteration
    doc: Dict[str, Any]  # its scenario document (the monitor request's)
    policy: str
    horizon: int         # bit times

    def network(self):
        return pickle.loads(self.blob)


def _trace_ring(seed: int, index: int):
    """A ``multi-master-ring``-shaped network (shallow load on 4–6
    masters, token passing dominates) whose size cycles with ``index``."""
    for attempt in range(MAX_DRAWS):
        rng = Random(f"{seed}:trace:ring:{index}:{attempt}")
        net = random_network(n_masters=4 + index % 3,
                             streams_per_master=1 + index // 3 % 2,
                             period_ms=(20.0, 160.0), d_over_t=(0.3, 1.0),
                             low_priority_streams=index // 6 % 2,
                             payload_range=(2, 16), rng=rng)
        net = network_with_ttr_headroom(net, headroom=1.2 + 1.8 * rng.random())
        if steady(net):
            return net
    raise BenchError(f"no steady trace ring {index} in {MAX_DRAWS} draws")


def trace_cases(seed: int) -> List[TraceCase]:
    nets = [factory_cell_network()] + [
        _trace_ring(seed, i) for i in range(TRACE_RINGS)]
    return [
        TraceCase(pickle.dumps(net), network_to_dict(net), policy,
                  TRACE_HORIZON_MS * net.phy.baud_rate // 1000)
        for net in nets for policy in POLICIES
    ]


def trace_check_call(case: TraceCase, net, tr=NULL) -> Tuple[int, Dict[str, Any]]:
    """Simulate with a tracer, export, round-trip the monitor request
    through JSON, check it with ``api.execute``.  Returns
    ``(events, result_doc)``."""
    recorder = BusTrace(max_events=TRACE_MAX_EVENTS)
    with tr.span("sim.token.simulate_token_bus"):
        simulate_token_bus(net, case.horizon, config=TokenBusConfig(
            policy=SIM_POLICY[case.policy], tracer=recorder))
    with tr.span("monitor.trace_io.trace_doc"):
        doc = trace_doc(recorder, horizon=case.horizon)
    with tr.span("api.request_decode"):
        line = json.dumps({"schema": API_SCHEMA, "op": "monitor",
                           "network": case.doc, "policy": case.policy,
                           "trace": doc})
        request = api.AnalysisRequest.from_dict(json.loads(line))
    with tr.span("api.execute"):
        result = api.execute(request)
    with tr.span("api.result_encode"):
        return len(recorder.events), result.to_dict()


def reference_rows(case: TraceCase) -> str:
    report = validate_network(case.network(), case.policy, case.horizon)
    return canonical([validation_row_doc(r) for r in report.rows])


def check_trace_result(out: Outcome, case: TraceCase, result, expected: str) -> None:
    if canonical(result["payload"]["report"]["rows"]) != expected:
        out.fail(f"monitor rows differ from validate_network rows "
                 f"({case.policy}, {len(case.doc['masters'])} masters)")


def run_trace_check(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    cases = trace_cases(seed)
    results: Dict[int, Any] = {}
    per_case = -(-SLOTS // len(cases))
    for _ in range(repetitions(TRACE_PASSES, seconds)):
        gc.collect()
        for i, case in enumerate(cases):
            out.calibration.tick(per_case)
            net = case.network()
            out.attempted += 1
            t0 = perf_counter()
            try:
                events, result = trace_check_call(case, net)
            except Exception as exc:  # noqa: BLE001 — counted as a failure
                out.fail(f"case {i}: {type(exc).__name__}: {exc}")
                continue
            out.record(i, perf_counter() - t0, events)
            if i not in results:
                results[i] = result
            elif canonical(result) != canonical(results[i]):
                out.fail(f"case {i} answered differently on a later pass")
    for i, result in results.items():
        check_trace_result(out, cases[i], result, reference_rows(cases[i]))
    out.detail = {
        "events_per_s": out.raw_rate("1/s"),
        "iteration_ms": {"best": out.best_timing(out.times),
                         "all": dict(timing(out.samples), unit="ms")},
        "cases": len(cases),
    }
    return out


def warm_up_trace_check() -> None:
    cell = factory_cell_network()
    case = TraceCase(pickle.dumps(cell), network_to_dict(cell), "dm",
                     20 * cell.phy.baud_rate // 1000)
    trace_check_call(case, case.network())


# ---------------------------------------------------------- server replay

def request_lines(docs, doc_ids: Sequence[int]) -> List[bytes]:
    """The request lines a client sends for ``doc_ids``, in order."""
    return [protocol.encode(protocol.request_envelope("analyse", docs[d], n + 1))
            for n, d in enumerate(doc_ids)]


def server_replay(lines: Sequence[bytes], tr=NULL) -> List[bytes]:
    """The daemon's per-request path, in process: decode → parse the
    request → parse the network → fingerprint → cache key → cache
    get/put (computing misses) → encode.  A fresh cache per replay."""
    cache = ResultCache()
    replies = []
    for rid, line in enumerate(lines):
        tr.set_request(rid)
        envelope = protocol.decode_line(line)
        with tr.span("service.protocol.parse_request"):
            op, request_id, doc = protocol.parse_request(envelope)
        with tr.span("api.request_decode"):
            request = api.AnalysisRequest.from_dict(doc)
        net = serialization.network_from_dict(request.network)
        fingerprint = net.fingerprint()
        with tr.span("api.cache_key"):
            key = request.cache_key(fingerprint)
        hit, result = cache.get(key)
        if not hit:
            with tr.span("api.execute_request_doc"):
                result = api.execute_request_doc(request.to_dict())
            cache.put(key, result)
        replies.append(protocol.encode(
            protocol.result_response(request_id, op, result, hit, 0.0)))
    return replies


WARM_UPS = {
    "batch": warm_up_batch,
    "api-request": warm_up_api_request,
    "trace-check": warm_up_trace_check,
}
