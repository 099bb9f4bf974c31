"""The differential oracles a campaign cross-checks on every instance.

Four independent ways the toolbox can contradict itself, each cheap to
evaluate on one network:

* :func:`check_soundness` — eqs. (11)/(16)/(17) vs the token-bus
  simulator.  Releases that never complete inside the horizon are
  counted **against** the bound (see :mod:`repro.sim.validate`), not
  ignored — a network whose messages never finish cannot vacuously pass.
* :func:`check_kernel_equivalence` — the generic exact fixed-point path
  vs the ``repro.perf`` integer kernels vs the structure-of-arrays
  vector kernels (:mod:`repro.perf.vector`), three-way bit-equality on
  every per-stream response and on the batch-driver summaries.  The
  vector leg runs the numpy lanes when numpy is importable; without
  numpy it falls back to the per-network scalar path.
* :func:`check_roundtrip` — ``network_from_dict(network_to_dict(n))``
  must reproduce ``n`` exactly (and re-serialise to the same document).
* :func:`check_sweep_scaling` — the sweep layer vs an independent
  restatement of its documented contract: ``deadline_scale_sweep``
  scales every deadline to ``clamp(round(D·f), 1, T)``, and ``ttr_sweep``
  rounds (never truncates) float TTR grid values.

Each check returns an :class:`OracleOutcome` with status ``"ok"``,
``"fail"`` or ``"skipped"`` plus a human-readable detail string; the
campaign turns failures into shrunk counterexamples.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..perf import vector
from ..perf.batch import analyse_many
from ..perf.config import analysis_mode_set
from ..profibus import sweep as sweep_mod
from ..profibus.network import Network
from ..profibus.serialization import network_from_dict, network_to_dict
from ..profibus.ttr import analyse
from ..sim.token import stream_key
from ..sim.traffic import ReleasePattern, TrafficConfig
from ..sim.validate import VERDICT_INCOMPLETE, VERDICT_MISSING, validate_network

DEFAULT_POLICIES: Tuple[str, ...] = ("fcfs", "dm", "edf")

STATUS_OK = "ok"
STATUS_FAIL = "fail"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class OracleOutcome:
    status: str
    detail: str = ""
    #: how many horizon extensions the soundness auto-extender needed
    #: before the simulation produced a decisive answer (0 elsewhere)
    extensions: int = 0

    @property
    def failed(self) -> bool:
        return self.status == STATUS_FAIL


OK = OracleOutcome(STATUS_OK)


# --------------------------------------------------------------- soundness

def _jittered_traffic(network: Network, seed: int) -> TrafficConfig:
    """Synchronous release with each stream's own jitter active.  Seeds
    come from CRC32 of a stable string (not ``hash()``), so a
    counterexample reproduces under any ``PYTHONHASHSEED``."""
    patterns = {}
    for m in network.masters:
        for s in m.streams:
            patterns[TrafficConfig.key(m.name, s.name)] = ReleasePattern(
                period=s.T,
                offset=0,
                jitter=s.J,
                seed=zlib.crc32(f"{seed}:{m.name}:{s.name}".encode()),
            )
    return TrafficConfig(patterns)


def check_soundness(
    network: Network,
    policy: str,
    horizon_cap: int = 3_000_000,
    seed: int = 0,
    max_extensions: int = 4,
    extension_factor: float = 2.0,
) -> OracleOutcome:
    """Observed (or still-pending) responses must respect the analytic
    bounds wherever the analysis actually claims one.

    A bound is *claimed* for a stream when its **whole master** sits in
    the single-outstanding-request regime the paper's derivations assume
    — every high-priority stream of the master has a finite ``R`` with
    ``R + J ≤ T``.  The per-master condition matters because the §3/§4
    queues are shared per master: one backlogged stream (``R + J > T``)
    floods the FCFS queue / AP queue its neighbours wait in, so even a
    stream that individually satisfies ``R + J ≤ T`` can legitimately
    observe responses above its printed figure when a queue-mate is
    outside the regime (seed-0 ``multi-master-ring`` #1536 is a concrete
    instance, regression-tested).  Out-of-regime rows are not evidence
    of unsoundness — the paper claims nothing about them.

    The simulation horizon starts at ``min(required, horizon_cap)``
    (``required`` is the generous ``2·max R + 2·max(T+J) + 4·Tcycle +
    ring`` estimate).  A pending request's age is a valid lower bound on
    its eventual response at *any* horizon, so a truncated run can never
    fabricate an unsoundness — but it can leave claimed rows
    ``incomplete`` (releases, no completions).  Instead of skipping such
    a run, the auto-extender multiplies the horizon by
    ``extension_factor`` and retries, up to ``max_extensions`` times;
    only when the retry budget is exhausted does the check record a
    ``skipped`` outcome.  ``extensions`` on the returned outcome counts
    the retries actually used.
    """
    analysis = analyse(network, policy)
    finite = [sr.R for sr in analysis.per_stream if sr.R is not None]
    max_r = max(finite, default=0)
    max_tj = max(
        (s.T + s.J for m in network.masters for s in m.streams), default=1
    )
    required = (2 * max_r + 2 * max_tj + 4 * analysis.tcycle
                + network.ring_latency())
    horizon = min(required, horizon_cap)
    traffic = _jittered_traffic(network, seed)
    master_of = {
        stream_key(sr.master, sr.stream.name): sr.master
        for sr in analysis.per_stream
    }
    master_in_regime: dict = {}
    for sr in analysis.per_stream:
        in_regime = (sr.R is not None
                     and sr.R + sr.stream.J <= sr.stream.T)
        master_in_regime[sr.master] = (
            master_in_regime.get(sr.master, True) and in_regime
        )
    extensions = 0
    while True:
        report = validate_network(network, policy, horizon, traffic=traffic)
        bad = []
        incomplete = 0
        for row in report.rows:
            if row.verdict == VERDICT_MISSING:
                # no sim statistics for an analysed stream: a harness
                # defect, never a vacuous pass
                bad.append(row)
                continue
            if row.bound is None:
                continue
            if not master_in_regime[master_of[row.name]]:
                continue  # outside the regime the bound models
            if row.verdict == VERDICT_INCOMPLETE:
                incomplete += 1
            elif not row.sound:
                bad.append(row)
        if bad:
            detail = "; ".join(
                f"{r.name}: {r.verdict} observed={r.effective_observed} "
                f"bound={r.bound} completed={r.completed}/{r.released}"
                for r in bad[:4]
            )
            return OracleOutcome(
                STATUS_FAIL, f"policy={policy} horizon={horizon}: {detail}",
                extensions=extensions,
            )
        if not incomplete:
            return OracleOutcome(STATUS_OK, extensions=extensions)
        if extensions >= max_extensions:
            return OracleOutcome(
                STATUS_SKIPPED,
                f"policy={policy}: {incomplete} stream(s) still incomplete "
                f"at horizon {horizon} after {extensions} extension(s)",
                extensions=extensions,
            )
        extensions += 1
        horizon = int(horizon * extension_factor)


# ------------------------------------------------------- kernel equivalence

def _rows_diff(g_rows, other_rows):
    if len(g_rows) != len(other_rows):
        return (g_rows, other_rows)
    return next(
        ((a, b) for a, b in zip(g_rows, other_rows) if a != b), None
    )


def check_kernel_equivalence(
    network: Network,
    policies: Sequence[str] = DEFAULT_POLICIES,
) -> OracleOutcome:
    """Generic exact path vs the ``repro.perf`` scalar kernels vs the
    vector kernels — three-way bit-equality on per-stream responses,
    ``Tcycle`` and the batch-driver summaries."""
    for policy in policies:
        with analysis_mode_set("generic"):
            generic = analyse(network, policy)
        with analysis_mode_set("fast"):
            fast = analyse(network, policy)
        if generic.tcycle != fast.tcycle:
            return OracleOutcome(
                STATUS_FAIL,
                f"policy={policy}: tcycle generic={generic.tcycle} "
                f"fast={fast.tcycle}",
            )
        g_rows = [(sr.master, sr.stream.name, sr.R)
                  for sr in generic.per_stream]
        f_rows = [(sr.master, sr.stream.name, sr.R) for sr in fast.per_stream]
        diff = _rows_diff(g_rows, f_rows)
        if diff is not None:
            return OracleOutcome(
                STATUS_FAIL, f"policy={policy}: per-stream R diverge: {diff}"
            )
        # Third leg: the SoA vector kernels.  An engine crash is its own
        # failure (prefixed ``vectorized:``), not an abort of the oracle.
        try:
            vec = vector.response_rows(network, policy)
        except Exception as exc:  # noqa: BLE001 - any engine defect counts
            return OracleOutcome(
                STATUS_FAIL,
                f"vectorized: policy={policy} "
                f"[{vector.backend_name()} backend] "
                f"{type(exc).__name__}: {exc}",
            )
        if vec["tcycle"] != generic.tcycle:
            return OracleOutcome(
                STATUS_FAIL,
                f"vectorized: policy={policy}: tcycle "
                f"generic={generic.tcycle} vectorized={vec['tcycle']}",
            )
        v_rows = [tuple(row) for row in vec["rows"]]
        diff = _rows_diff(g_rows, v_rows)
        if diff is not None:
            return OracleOutcome(
                STATUS_FAIL,
                f"vectorized: policy={policy} "
                f"[{vector.backend_name()} backend] "
                f"per-stream R diverge: {diff}",
            )
    with analysis_mode_set("fast"):
        fast_batch = analyse_many([network], policies)
    with analysis_mode_set("generic"):
        generic_batch = analyse_many([network], policies)
    if fast_batch != generic_batch:
        diff = next(
            (a, b) for a, b in zip(generic_batch, fast_batch) if a != b
        )
        return OracleOutcome(STATUS_FAIL, f"batch summaries diverge: {diff}")
    try:
        vec_batch = analyse_many([network], policies, mode="vectorized")
    except Exception as exc:  # noqa: BLE001 - any engine defect counts
        return OracleOutcome(
            STATUS_FAIL,
            f"vectorized: batch driver [{vector.backend_name()} backend] "
            f"{type(exc).__name__}: {exc}",
        )
    if vec_batch != generic_batch:
        diff = next(
            (a, b) for a, b in zip(generic_batch, vec_batch) if a != b
        )
        return OracleOutcome(
            STATUS_FAIL,
            f"vectorized: batch summaries diverge "
            f"[{vector.backend_name()} backend]: {diff}",
        )
    return OK


# --------------------------------------------------------------- round-trip

def check_roundtrip(network: Network) -> OracleOutcome:
    """``network_from_dict(network_to_dict(n)) == n``, and the document
    itself must be a fixed point of a second round trip."""
    doc = network_to_dict(network)
    rebuilt = network_from_dict(doc)
    if rebuilt != network:
        return OracleOutcome(
            STATUS_FAIL, f"round-trip network mismatch: {_first_diff(network, rebuilt)}"
        )
    doc2 = network_to_dict(rebuilt)
    if doc2 != doc:
        return OracleOutcome(STATUS_FAIL, "round-trip document not a fixed point")
    return OK


def _first_diff(a: Network, b: Network) -> str:
    if a.phy != b.phy:
        return f"phy {a.phy} != {b.phy}"
    if a.ttr != b.ttr:
        return f"ttr {a.ttr} != {b.ttr}"
    if a.slaves != b.slaves:
        return "slaves differ"
    for ma, mb in zip(a.masters, b.masters):
        for sa, sb in zip(ma.streams, mb.streams):
            if sa != sb:
                return f"stream {ma.name}/{sa.name}: {sa} != {sb}"
        if ma != mb:
            return f"master {ma.name} differs"
    return "structure differs"


# ------------------------------------------------------------ sweep scaling

def reference_scaled_deadlines(network: Network, factor: float):
    """Independent restatement of the ``deadline_scale_sweep`` contract:
    every deadline becomes ``clamp(round(D·factor), 1, T)`` (rounded,
    never truncated — truncation shifted E5 acceptance curves on fine
    factor grids)."""
    return [
        max(1, min(s.T, int(round(s.D * factor))))
        for m in network.masters
        for s in m.streams
    ]


def check_sweep_scaling(
    network: Network, factor: float, policy: str = "dm"
) -> OracleOutcome:
    """The sweep layer vs the reference contract.

    Checks (1) the deadlines ``_scale_deadlines`` actually produces, (2)
    that a one-point ``deadline_scale_sweep`` row agrees with directly
    analysing the reference-scaled network, and (3) that ``ttr_sweep``
    rounds a fractional TTR grid value instead of truncating it.
    """
    scaled = sweep_mod._scale_deadlines(network, factor)
    got = [s.D for m in scaled.masters for s in m.streams]
    want = reference_scaled_deadlines(network, factor)
    if got != want:
        mismatch = next(
            (i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w
        )
        return OracleOutcome(
            STATUS_FAIL,
            f"factor={factor}: stream #{mismatch[0]} deadline "
            f"{mismatch[1]} != reference {mismatch[2]}",
        )

    rows = sweep_mod.deadline_scale_sweep(network, [factor],
                                          policies=(policy,))
    masters = []
    it = iter(want)
    for m in network.masters:
        masters.append(
            m.with_streams([s.with_deadline(next(it)) for s in m.streams])
        )
    reference = Network(masters=tuple(masters), slaves=network.slaves,
                        phy=network.phy, ttr=network.ttr)
    expected = analyse(reference, policy)
    if (rows[0].schedulable, rows[0].tcycle) != (
        expected.schedulable, expected.tcycle
    ):
        return OracleOutcome(
            STATUS_FAIL,
            f"factor={factor} policy={policy}: sweep row "
            f"(sched={rows[0].schedulable}, tcycle={rows[0].tcycle}) != "
            f"analysis of reference scaling "
            f"(sched={expected.schedulable}, tcycle={expected.tcycle})",
        )

    fractional = network.require_ttr() + 0.5
    ttr_rows = sweep_mod.ttr_sweep(network, [fractional], policies=(policy,))
    expected_ttr = int(round(fractional))
    if expected_ttr >= network.ring_latency():
        expected_tc = analyse(network, policy, ttr=expected_ttr).tcycle
        if ttr_rows[0].tcycle != expected_tc:
            return OracleOutcome(
                STATUS_FAIL,
                f"ttr_sweep({fractional}) analysed tcycle="
                f"{ttr_rows[0].tcycle}, rounding reference gives {expected_tc}",
            )
    return OK
