"""`repro.api` — the unified typed analysis entrypoint.

Every front end of this toolbox ultimately answers one of four
questions about a network document:

* **analyse** — per-stream worst-case response times and the
  schedulability verdict under one policy (eqs. (11)/(16)/(17));
* **sweep** — the same verdicts across a parameter grid (TTR,
  deadline scale, baud rate);
* **admission** — *can this message stream join the bus without
  breaking the guarantees of the streams already on it?* — plus how
  much headroom remains after it does (seeded on
  :mod:`repro.core.sensitivity`);
* **monitor** — *does this recorded frame log respect the analytic
  bounds?* — a trace document (``profibus-rt/trace/v2``, or the
  row-wise ``profibus-rt/trace/v1``) checked by :mod:`repro.monitor`,
  answered as a ``profibus-rt/monitor/v1`` report.

This module gives those questions one typed request/response shape:
frozen :class:`AnalysisRequest` / :class:`AnalysisResult` dataclasses
with schema-versioned dict/JSON forms (``profibus-rt/api/v2``).  The
CLI subcommands and the resident service (:mod:`repro.service`) are two
thin transports over :func:`execute`; scripts embed it directly.  The
declarative-input / deterministic-core / schema-validated-output split
is deliberate: interpretation happens at this boundary (documents in,
documents out), the analysis core stays pure computation.

Caching.  :func:`execute` optionally consults a
:class:`repro.perf.cache.ResultCache` keyed on the request's **value
key** — the canonical network fingerprint plus the analysis coordinates
— so identical and repeated requests hit instead of recompute, whoever
parsed the document.  Pass ``cache=None`` (the default) for the
recompute-always behaviour the benchmarks and differential oracles
require.  :func:`execute_cached` runs in two steps that the service
calls one by one: :func:`keyed_network` makes one validating pass over
the network document and hashes its canonical form, and
:func:`compute_result` answers a miss over that same pass, so no
request reads its network document twice.

One column reader.  Every op but ``monitor`` reads the scan's
:class:`~repro.profibus.timing.Columns` (``Tdel`` from its ``C``
column, the ``(T, D, J)`` columns) and builds no ``Network``; one is
built for a monitor check, and from each scan the reader declines (the
generic reference, non-int documents).  An ``analyse`` payload has one
builder, :func:`_analysis_payload`.  An admission's ``before`` and
``after`` are that payload of the scan and of the scan with the
candidate joined (:func:`_admit_stream`, under the model's own rules),
and its headroom searches read the joined columns ``after`` read.

The old call signatures (``repro.profibus.ttr.analyse``,
``repro.perf.batch.analyse_many``, the sweep functions) remain as the
compute core underneath and keep working unchanged; new code should
come in through this module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isfinite
from numbers import Real
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from .perf import kernels
from .perf.batch import (
    _master_responses,
    dm_order_responses,
    fold_column,
    master_partial,
)
from .perf.cache import ResultCache
from .profibus import serialization as serialization_mod
from .profibus import sweep as sweep_mod
from .profibus import ttr as ttr_mod
from .profibus.network import Network, check_master, check_network
from .profibus.serialization import (NetworkScan, ScannedMaster,
                                     ScenarioFormatError)
from .profibus.timing import Columns, columns_or_network
from .schemas import API_SCHEMA

if TYPE_CHECKING:  # the monitor (and the simulator it loads) stays lazy
    from .monitor.trace_io import IngestedTrace

OPS = ("analyse", "sweep", "admission", "monitor")
POLICIES = ("fcfs", "dm", "edf")
SWEEP_PARAMS = ("ttr", "deadline-scale", "baud")

#: Precision of the admission-headroom bisections (mirrors the default
#: of :func:`repro.core.sensitivity.critical_scaling_factor`).
HEADROOM_PRECISION = Fraction(1, 128)


class ApiError(ValueError):
    """A malformed or unanswerable request (bad document, unknown
    policy, missing TTR, …) — the caller's fault, reported as data."""


@dataclass(frozen=True)
class AnalysisRequest:
    """One analysis question, as data.

    ``network`` is a scenario document (the
    :mod:`repro.profibus.serialization` shape), **not** a live object —
    requests must survive JSON transport bit-exactly.  Op-specific
    fields are ignored by the other ops; ``__post_init__`` freezes the
    containers so instances hash and compare by value.
    """

    op: str
    network: Dict[str, Any]
    policy: str = "dm"
    #: sweep only: the policies evaluated per grid point
    policies: Tuple[str, ...] = POLICIES
    ttr: Optional[int] = None
    refined: bool = False
    #: sweep only: which knob the grid turns
    sweep_param: Optional[str] = None
    #: sweep only: grid values (empty for ``baud`` = the standard rates)
    sweep_values: Tuple[float, ...] = ()
    #: admission only: ring address the candidate stream joins (an
    #: existing master's, or a fresh address appended to the ring)
    admission_master: Optional[int] = None
    #: admission only: the candidate stream document
    admission_stream: Optional[Dict[str, Any]] = None
    #: monitor only: the recorded frame log, as a trace document
    #: (``profibus-rt/trace/v2`` or ``/v1``, :mod:`repro.monitor.trace_io`)
    trace: Optional[Dict[str, Any]] = None
    #: monitor only: ignore responses of releases before this time (bit
    #: times) — the steady-state filter of ``TokenBusConfig.stats_after``
    stats_after: int = 0

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ApiError(f"unknown op {self.op!r}; pick from {list(OPS)}")
        if not isinstance(self.network, dict):
            raise ApiError("request network must be a scenario document")
        if self.policy not in POLICIES:
            raise ApiError(
                f"unknown policy {self.policy!r}; pick from {list(POLICIES)}"
            )
        if not isinstance(self.policies, (list, tuple)):
            raise ApiError(
                f"policies must be a list of policy names, "
                f"got {self.policies!r}"
            )
        object.__setattr__(self, "policies", tuple(self.policies))
        for p in self.policies:
            if not isinstance(p, str) or p not in POLICIES:
                raise ApiError(
                    f"unknown policy {p!r}; pick from {list(POLICIES)}"
                )
        if self.ttr is not None and (
                isinstance(self.ttr, bool) or not isinstance(self.ttr, int)
                or self.ttr <= 0):
            raise ApiError(
                f"ttr must be a positive integer, got {self.ttr!r}"
            )
        if not isinstance(self.refined, bool):
            raise ApiError(f"refined must be a boolean, got {self.refined!r}")
        if not isinstance(self.sweep_values, (list, tuple)):
            raise ApiError(
                f"sweep_values must be a list of numbers, "
                f"got {self.sweep_values!r}"
            )
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        for value in self.sweep_values:
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or (isinstance(value, float) and not isfinite(value))):
                raise ApiError(
                    f"sweep_values must be finite numbers, got {value!r}"
                )
        if self.op == "sweep":
            if self.sweep_param not in SWEEP_PARAMS:
                raise ApiError(
                    f"sweep needs sweep_param from {list(SWEEP_PARAMS)}, "
                    f"got {self.sweep_param!r}"
                )
            if self.sweep_param != "baud" and not self.sweep_values:
                raise ApiError(
                    f"sweep over {self.sweep_param!r} needs sweep_values"
                )
        if self.op == "admission":
            if self.admission_master is None:
                raise ApiError("admission needs admission_master (address)")
            if (isinstance(self.admission_master, bool)
                    or not isinstance(self.admission_master, int)):
                raise ApiError(
                    f"admission_master must be an integer address, "
                    f"got {self.admission_master!r}"
                )
            if not isinstance(self.admission_stream, dict):
                raise ApiError(
                    "admission needs admission_stream (a stream document)"
                )
        if self.op == "monitor" and not isinstance(self.trace, dict):
            raise ApiError("monitor needs trace (a trace document)")
        if (isinstance(self.stats_after, bool)
                or not isinstance(self.stats_after, int)
                or self.stats_after < 0):
            raise ApiError("stats_after must be a non-negative integer")

    # -- value identity --------------------------------------------------
    def cache_key(self, fingerprint: str) -> str:
        """The shared-cache key: canonical network fingerprint + the
        analysis coordinates.  Two requests with value-equal networks
        and equal coordinates collide — by design — however their
        documents were spelled."""
        return json.dumps({
            "schema": API_SCHEMA,
            "op": self.op,
            "fingerprint": fingerprint,
            "policy": self.policy,
            "policies": list(self.policies),
            "ttr": self.ttr,
            "refined": self.refined,
            "sweep_param": self.sweep_param,
            "sweep_values": list(self.sweep_values),
            "admission_master": self.admission_master,
            "admission_stream": self.admission_stream,
            # a digest stands in for the (potentially huge) event
            # columns; taken over the ingested trace, so value-equal
            # traces collide by design, whichever schema carried them
            "trace_digest": self.trace_digest(),
            "stats_after": self.stats_after,
        }, sort_keys=True, separators=(",", ":"))

    def trace_digest(self) -> Optional[str]:
        """Content hash of a ``monitor`` request's trace (``None`` for
        the other ops): the sha256 of the canonical ``trace/v2``
        document of :attr:`ingested_trace`, header fields included, so
        the v1 and the v2 document of one run share a digest.  Raises
        :class:`ApiError` for a malformed trace."""
        if self.op != "monitor":
            return None
        canonical = json.dumps(self.ingested_trace.to_doc(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @cached_property
    def ingested_trace(self) -> "IngestedTrace":
        """The ``trace`` document ingested, once per request: the cache
        key's digest and the monitor check share it."""
        from .monitor.trace_io import TraceFormatError, trace_from_doc

        try:
            return trace_from_doc(self.trace)
        except TraceFormatError as exc:
            raise ApiError(f"bad trace document: {exc}") from exc

    # -- schema-versioned transport forms --------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema": API_SCHEMA,
            "op": self.op,
            "network": self.network,
        }
        defaults = {
            f.name: (f.default_factory() if f.default_factory
                     is not dataclasses.MISSING else f.default)
            for f in dataclasses.fields(self)
        }
        for name in ("policy", "policies", "ttr", "refined", "sweep_param",
                     "sweep_values", "admission_master", "admission_stream",
                     "trace", "stats_after"):
            value = getattr(self, name)
            if value != defaults[name]:
                doc[name] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "AnalysisRequest":
        if not isinstance(doc, dict):
            raise ApiError("request must be a JSON object")
        if doc.get("schema") != API_SCHEMA:
            raise ApiError(
                f"unsupported request schema {doc.get('schema')!r}; "
                f"this build speaks {API_SCHEMA}"
            )
        allowed = {"schema", "op", "network", "policy", "policies", "ttr",
                   "refined", "sweep_param", "sweep_values",
                   "admission_master", "admission_stream", "trace",
                   "stats_after"}
        unknown = set(doc) - allowed
        if unknown:
            raise ApiError(
                f"unknown request key(s) {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        for key in ("op", "network"):
            if key not in doc:
                raise ApiError(f"request missing key {key!r}")
        kwargs: Dict[str, Any] = {"op": doc["op"], "network": doc["network"]}
        for name in ("policy", "policies", "ttr", "refined", "sweep_param",
                     "sweep_values", "admission_master", "admission_stream",
                     "trace", "stats_after"):
            if name in doc:
                kwargs[name] = doc[name]
        return cls(**kwargs)


@dataclass(frozen=True)
class AnalysisResult:
    """One analysis answer, as data.

    ``fingerprint`` names the network content the answer holds for (the
    cache key component); ``payload`` is the op-specific body, all
    JSON-ready, so ``to_dict`` round-trips bit-exactly and two
    transports serving the same request serve byte-identical documents.
    """

    op: str
    fingerprint: str
    schedulable: Optional[bool]
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": API_SCHEMA,
            "op": self.op,
            "fingerprint": self.fingerprint,
            "schedulable": self.schedulable,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "AnalysisResult":
        if not isinstance(doc, dict):
            raise ApiError("result must be a JSON object")
        if doc.get("schema") != API_SCHEMA:
            raise ApiError(
                f"unsupported result schema {doc.get('schema')!r}; "
                f"this build speaks {API_SCHEMA}"
            )
        for key in ("op", "fingerprint", "schedulable", "payload"):
            if key not in doc:
                raise ApiError(f"result missing key {key!r}")
        return cls(
            op=doc["op"],
            fingerprint=doc["fingerprint"],
            schedulable=doc["schedulable"],
            payload=doc["payload"],
        )


# ---------------------------------------------------------------- compute

def _tcycle(columns: Columns) -> int:
    """Eq. (14) at the network's own TTR, or the request's fault."""
    try:
        return columns.tcycle()
    except ValueError as exc:
        raise ApiError(str(exc)) from exc


def iteration_bound(columns: Columns, policy: str) -> Optional[int]:
    """:func:`repro.perf.kernels.iteration_bound` of an ``analyse`` over
    ``columns``: the daemon's inline-or-executor test."""
    return kernels.iteration_bound(policy, columns.specs, _tcycle(columns))


def _analysis_payload(source: Union[NetworkScan, Columns, Network],
                      policy: str, refined: bool) -> Dict[str, Any]:
    """The ``analyse`` payload of a scan (or of what
    :func:`~repro.profibus.timing.columns_or_network` made of one): one
    kernel run per master column, or ``ttr.analyse`` where the reader
    declines."""
    source = columns_or_network(source, refined)
    if isinstance(source, Network):
        try:
            res = ttr_mod.analyse(source, policy, refined=refined)
        except ValueError as exc:
            raise ApiError(str(exc)) from exc
        ttr, tc = res.ttr, res.tcycle
        rows = [(sr.master, sr.stream.name, sr.R, sr.stream.D)
                for sr in res.per_stream]
    else:
        ttr, tc = source.ttr, _tcycle(source)
        rows = [(master, name, r, d)
                for (master, names), specs in zip(source.names, source.specs)
                for name, (_t, d, _j), r
                in zip(names, specs, _master_responses(policy, specs, tc))]
    schedulable = True
    streams = []
    for master, name, r, d in rows:
        ok = r is not None and r <= d
        schedulable = schedulable and ok
        streams.append({"master": master, "stream": name, "R": r, "D": d,
                        "schedulable": ok,
                        "slack": None if r is None else d - r})
    return {"policy": policy, "refined": refined, "ttr": ttr, "tcycle": tc,
            "schedulable": schedulable, "streams": streams}


def _compute_sweep(request: AnalysisRequest, scan: NetworkScan,
                   fingerprint: str) -> AnalysisResult:
    policies = request.policies
    try:
        if request.sweep_param == "ttr":
            rows = sweep_mod.ttr_sweep(scan, request.sweep_values,
                                       policies=policies)
        elif request.sweep_param == "deadline-scale":
            rows = sweep_mod.deadline_scale_sweep(
                scan, request.sweep_values, policies=policies
            )
        else:
            values = ([int(v) for v in request.sweep_values]
                      if request.sweep_values else None)
            rows = sweep_mod.baud_sweep(
                scan, values if values is not None
                else sweep_mod.STANDARD_BAUD_RATES,
                policies=policies,
            )
    except (ValueError, OverflowError) as exc:
        # OverflowError: a finite grid value too large to rescale by
        # (a baud rate past float range)
        raise ApiError(str(exc)) from exc
    row_docs = [
        {
            "parameter": r.parameter,
            "value": r.value,
            "policy": r.policy,
            "schedulable": r.schedulable,
            "worst_response": r.worst_response,
            "worst_slack": r.worst_slack,
            "tcycle": r.tcycle,
        }
        for r in rows
    ]
    payload = {
        "param": request.sweep_param,
        "policies": list(policies),
        "rows": row_docs,
        "csv": sweep_mod.rows_to_csv(rows),
    }
    return AnalysisResult(
        op="sweep",
        fingerprint=fingerprint,
        schedulable=None,
        payload=payload,
    )


def _admit_stream(scan: NetworkScan, address: int,
                  stream_doc: Dict[str, Any]) -> NetworkScan:
    """The candidate network's scan: ``stream_doc`` joined to the master
    at ``address`` (or a fresh master appended to the logical ring),
    under the rules the document scan applies."""
    try:
        name, row, cycle, doc = serialization_mod._scan_stream(
            stream_doc, scan.phy, {})
    except ScenarioFormatError as exc:
        raise ApiError(f"bad admission stream: {exc}") from exc
    masters = list(scan.masters)
    docs = list(scan.doc["masters"])
    for k, m in enumerate(masters):
        if m.address == address:
            if name in m.names:
                raise ApiError(
                    f"master {address} already has a stream named {name!r}"
                )
            masters[k] = m._replace(names=m.names + (name,),
                                    rows=m.rows + (row,),
                                    cycles=m.cycles + (cycle,))
            docs[k] = {**docs[k], "streams": docs[k]["streams"] + [doc]}
            break
    else:
        try:
            check_master(address, (name,))
            check_network([m.address for m in masters] + [address],
                          [a for a, _n in scan.slaves], scan.ttr)
        except ValueError as exc:
            raise ApiError(str(exc)) from exc
        masters.append(ScannedMaster(address, f"M{address}", (name,),
                                     (row,), (cycle,)))
        docs.append({"address": address, "name": f"M{address}",
                     "streams": [doc]})
    return dataclasses.replace(scan, masters=tuple(masters),
                               doc={**scan.doc, "masters": docs})


def _tightening_limit(source: Union[Columns, Network], policy: str,
                      refined: bool) -> Optional[float]:
    """Smallest factor every deadline can be scaled down to with the
    network still schedulable — the sensitivity-analysis headroom
    figure, through the same monotone bisection the core's critical
    scaling factor uses.  ``None`` when the network is not schedulable
    even unscaled (the bisection's infeasible-at-upper case).
    ``source`` is the network's :class:`Columns`, or the network itself
    when the reader declined it (a scaled network analysed per probe).

    ``Tcycle`` and the ``(T, J)`` columns do not move with the
    deadlines: each probe rewrites only the D columns (see
    ``deadline_scale_sweep``).  Schedulability is a conjunction over
    masters, so a probe stops at the first unschedulable master and
    tries the master that failed last first; that is exact for any
    conjunction, with no monotonicity argument over the factor (which
    can reorder DM priorities).  DM reads its responses through
    :func:`repro.perf.batch.dm_order_responses`: the first probe is at
    factor 1, and :func:`repro.profibus.sweep.scaled_deadline` is
    monotone in the factor, so that probe's column dominates every
    later probe's and serves each one with the same DM order; a probe
    with a new order runs its own column.  EDF probes share one busy
    period per master (the kernel's ``busy`` memo: ``L`` reads no
    deadline)."""
    from .core.sensitivity import smallest_feasible_factor

    if isinstance(source, Network):
        def feasible(factor: Fraction) -> bool:
            scaled = sweep_mod._scale_deadlines(source, float(factor))
            return ttr_mod.analyse(scaled, policy,
                                   refined=refined).schedulable
    else:
        tc = source.tcycle()
        masters = list(source.specs)
        runs: dict = {}
        busy: dict = {}

        def feasible(factor: Fraction) -> bool:
            for k, specs in enumerate(masters):
                scaled = sweep_mod.scale_column(specs, float(factor))
                if policy == "dm":
                    responses = dm_order_responses([scaled], tc, runs)[0]
                    ok = fold_column(scaled, responses)[0]
                else:
                    ok = master_partial(policy, scaled, tc, busy)[0]
                if not ok:
                    masters.insert(0, masters.pop(k))
                    return False
            return True

    limit = smallest_feasible_factor(feasible, precision=HEADROOM_PRECISION)
    return None if limit is None else float(limit)


def _headroom(source: Union[Columns, Network], policy: str,
              refined: bool) -> Dict[str, Any]:
    """Max feasible TTR and deadline-tightening limit of a schedulable
    network, both searched over one read of it: its :class:`Columns`,
    or the network when the reader declined it."""
    return {
        "max_feasible_ttr": ttr_mod.max_feasible_ttr(source, policy,
                                                     refined),
        "deadline_tightening_limit": _tightening_limit(source, policy,
                                                       refined),
    }


def _compute_admission(request: AnalysisRequest, scan: NetworkScan,
                       fingerprint: str) -> AnalysisResult:
    before = _analysis_payload(scan, request.policy, request.refined)
    joined = columns_or_network(
        _admit_stream(scan, request.admission_master,
                      request.admission_stream), request.refined)
    after = _analysis_payload(joined, request.policy, request.refined)
    headroom: Dict[str, Any] = {"max_feasible_ttr": None,
                                "deadline_tightening_limit": None}
    if after["schedulable"]:
        headroom = _headroom(joined, request.policy, request.refined)
    return _admission_result(request, fingerprint, before, after, headroom)


def _admission_result(request: AnalysisRequest, fingerprint: str,
                      before: Dict[str, Any], after: Dict[str, Any],
                      headroom: Dict[str, Any]) -> AnalysisResult:
    """The admission answer from its parts; a broken stream met its
    deadline ``before`` and misses it ``after``."""
    admitted = bool(after["schedulable"])
    ok_before = {
        (row["master"], row["stream"])
        for row in before["streams"] if row["schedulable"]
    }
    broken = [
        {"master": row["master"], "stream": row["stream"], "R": row["R"],
         "D": row["D"]}
        for row in after["streams"]
        if not row["schedulable"] and (row["master"], row["stream"])
        in ok_before
    ]
    payload = {
        "policy": request.policy,
        "refined": request.refined,
        "master": request.admission_master,
        "stream": request.admission_stream,
        "admitted": admitted,
        "before": before,
        "after": after,
        "broken_streams": broken,
        "headroom": headroom,
    }
    return AnalysisResult(op="admission", fingerprint=fingerprint,
                          schedulable=admitted, payload=payload)


def _compute_monitor(request: AnalysisRequest, net: Network,
                     fingerprint: str) -> AnalysisResult:
    from .monitor import engine as monitor_engine
    from .monitor.trace_io import TraceFormatError

    try:
        report = monitor_engine.monitor_trace(
            net, request.ingested_trace, request.policy,
            refined=request.refined, stats_after=request.stats_after,
        )
    except TraceFormatError as exc:
        raise ApiError(f"bad trace document: {exc}") from exc
    except ValueError as exc:
        raise ApiError(str(exc)) from exc
    payload = {
        "policy": request.policy,
        "refined": request.refined,
        "report": report.to_dict(),
        "all_sound": report.all_sound,
        "all_clear": report.all_clear,
        "degraded": report.degraded,
    }
    # "schedulable" answers the op's question: did the recorded run
    # positively respect every bound (rows and token rotations)?
    return AnalysisResult(
        op="monitor",
        fingerprint=fingerprint,
        schedulable=report.all_clear,
        payload=payload,
    )


# ------------------------------------------------------------- entrypoint

def keyed_network(request: AnalysisRequest) -> Tuple[NetworkScan, str]:
    """The key step: ``(scan, fingerprint)`` for ``request`` — one
    validating pass over its network document
    (:func:`repro.profibus.serialization.scan_network`, TTR override
    applied) and the canonical fingerprint hashed from the pass's
    canonical document, from which :meth:`AnalysisRequest.cache_key`
    builds the value key.  No :class:`Network` is built here."""
    try:
        scan = serialization_mod.scan_network(request.network)
    except ScenarioFormatError as exc:
        raise ApiError(f"bad network document: {exc}") from exc
    if request.ttr is not None:
        scan = scan.with_ttr(request.ttr)
    return scan, scan.fingerprint()


def compute_result(request: AnalysisRequest,
                   scan: Union[NetworkScan, Columns],
                   fingerprint: str) -> AnalysisResult:
    """The compute step: answer ``request`` over the scan and
    fingerprint :func:`keyed_network` returned for it, or, for an
    ``analyse``, over the :class:`Columns` already read from that scan
    (the daemon's inline route).  Every op but ``monitor`` reads the
    scan's columns and builds a network only where the reader declines
    them (see the module docstring).  Never consults a cache."""
    if request.op == "analyse":
        payload = _analysis_payload(scan, request.policy, request.refined)
        return AnalysisResult(op="analyse", fingerprint=fingerprint,
                              schedulable=payload["schedulable"],
                              payload=payload)
    if request.op == "admission":
        return _compute_admission(request, scan, fingerprint)
    if request.op == "sweep":
        return _compute_sweep(request, scan, fingerprint)
    return _compute_monitor(request, scan.network(), fingerprint)


def execute_cached(
    request: AnalysisRequest,
    cache: Optional[ResultCache] = None,
) -> Tuple[AnalysisResult, bool]:
    """``(result, cache_hit)`` for one request.

    With a cache, the value key (canonical network fingerprint +
    analysis coordinates) is consulted first; a hit returns the stored
    result without touching the analysis layer.
    """
    scan, fingerprint = keyed_network(request)
    if cache is None:
        return compute_result(request, scan, fingerprint), False
    hit, result = cache.get_or_compute(
        request.cache_key(fingerprint),
        lambda: compute_result(request, scan, fingerprint),
    )
    return result, hit


def execute(
    request: AnalysisRequest,
    cache: Optional[ResultCache] = None,
) -> AnalysisResult:
    """The one typed entrypoint: every transport routes through here."""
    result, _ = execute_cached(request, cache=cache)
    return result


def execute_request_doc(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Dict-in/dict-out :func:`execute`, without a cache — the offline
    entry point for callers holding a request document."""
    return execute(AnalysisRequest.from_dict(doc)).to_dict()


# ------------------------------------------------- convenience front doors

def _network_doc(network: Union[Network, Dict[str, Any]]) -> Dict[str, Any]:
    if isinstance(network, Network):
        return serialization_mod.network_to_dict(network)
    return network


def analyse_network(
    network: Union[Network, Dict[str, Any]],
    policy: str = "dm",
    ttr: Optional[int] = None,
    refined: bool = False,
    cache: Optional[ResultCache] = None,
) -> AnalysisResult:
    """Typed form of the classic ``ttr.analyse`` call (which remains as
    the compute core; new code should prefer this entrypoint)."""
    return execute(
        AnalysisRequest(op="analyse", network=_network_doc(network),
                        policy=policy, ttr=ttr, refined=refined),
        cache=cache,
    )


def sweep_network(
    network: Union[Network, Dict[str, Any]],
    sweep_param: str,
    sweep_values: Tuple[float, ...] = (),
    policies: Tuple[str, ...] = POLICIES,
    ttr: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> AnalysisResult:
    """Typed form of the sweep drivers (grid in, rows + CSV out)."""
    return execute(
        AnalysisRequest(op="sweep", network=_network_doc(network),
                        policies=tuple(policies), ttr=ttr,
                        sweep_param=sweep_param,
                        sweep_values=tuple(sweep_values)),
        cache=cache,
    )


def monitor_check(
    network: Union[Network, Dict[str, Any]],
    trace: Dict[str, Any],
    policy: str = "dm",
    ttr: Optional[int] = None,
    refined: bool = False,
    stats_after: int = 0,
    cache: Optional[ResultCache] = None,
) -> AnalysisResult:
    """Does this recorded frame log (a ``profibus-rt/trace/v2`` or
    ``/v1`` document) respect the analytic bounds?  The payload carries
    the full ``profibus-rt/monitor/v1`` report."""
    return execute(
        AnalysisRequest(op="monitor", network=_network_doc(network),
                        policy=policy, ttr=ttr, refined=refined,
                        trace=trace, stats_after=stats_after),
        cache=cache,
    )


def admission_check(
    network: Union[Network, Dict[str, Any]],
    master: int,
    stream: Dict[str, Any],
    policy: str = "dm",
    ttr: Optional[int] = None,
    refined: bool = False,
    cache: Optional[ResultCache] = None,
) -> AnalysisResult:
    """Can ``stream`` join the master at ``master`` without breaking the
    existing guarantees — and how much headroom is left if it does?"""
    return execute(
        AnalysisRequest(op="admission", network=_network_doc(network),
                        policy=policy, ttr=ttr, refined=refined,
                        admission_master=master, admission_stream=stream),
        cache=cache,
    )
