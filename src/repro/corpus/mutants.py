"""Mutation-strength harness: can the corpus actually kill bugs?

A golden corpus is only as good as its killing power.  This module
keeps a catalogue of **known-bad analysis variants** — each one a
historically plausible regression (several literally happened in this
repo's history, several are the classic published mistakes the paper's
own analysis corrects) — and injects them through the same late-bound
module seams :mod:`repro.corpus.golden` computes through.  The harness
then asserts that ``corpus check`` *fails* under every mutant: a mutant
that survives marks a blind spot the corpus must grow an entry for.

Catalogue (each entry names the layer it corrupts):

* ``dm-dropped-blocking`` — eq. (16) without the ``B_i`` term (the
  lower-priority just-staged request is free).
* ``dm-single-instance-busy-period`` — only the first instance of the
  level-i busy period is examined (the pre-Davis-2007 unsoundness the
  multi-instance correction in ``rta_fixed`` exists for).
* ``dm-stale-interference-cache`` — ``perf.batch.dm_order_responses``
  serves its DM order group's one kernel run, made at the group's
  elementwise-max deadlines, to every member column without the
  member's own ``R ≤ D`` verdict, so a deadline-scale sweep point
  reads responses its tighter deadlines reject.
* ``dm-order-key-drops-order`` — ``perf.batch.dm_order`` gives every
  column the same DM priority order, which drops the order out of the
  group key, so columns whose orders differ share one kernel run made
  in the max column's order; killed by the ``probe:dm-order`` entry,
  whose DM order flips between the sweep factors.
* ``fcfs-queue-undercount`` — eq. (11) with ``(nh−1)·Tcycle``.
* ``edf-blocking-subtract-one`` — eqs. (17)–(18) with the ``C−1``
  blocking refinement the paper's transfer explicitly does not use.
* ``tdel-drops-overrunner`` — eq. (13) missing its largest per-master
  cycle term.
* ``sweep-truncated-deadline-scale`` — ``scaled_deadline`` (the one
  deadline-scaling formula of the column and object sweep paths)
  truncates instead of rounding (the PR 3 regression).
* ``csv-drops-header`` — ``rows_to_csv`` stops emitting the header row.
* ``serialization-drops-jitter`` — ``network_to_dict`` silently loses
  non-zero ``J`` fields.
* ``validate-ignores-pending`` — ``effective_observed`` ignores
  pending-request age (the vacuous-pass hole PR 3 closed).
* ``sim-mac-before-release`` — the DES calendar fires same-instant
  events MAC-first, so a request released at the token-arrival instant
  misses that token visit (inverts the engine's determinism contract;
  killed by the dedicated ``probe:event-order`` corpus entry).
* ``vec-int32-truncation`` — the vector engine's packing seam narrows
  every stream attribute to int32 (the classic dtype-downcast
  regression a numpy rewrite invites); killed by the dedicated
  ``probe:wide-values`` corpus entry whose periods and deadlines exceed
  2³², so the wraparound silently analyses a much smaller network.
  Without numpy nothing is packed, so the harness reports this mutant
  not applicable rather than a survivor.

Mutants patch module attributes inside a context manager and restore
them afterwards, so the harness leaves the process clean even on error.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from pathlib import Path


@contextmanager
def _patched(*patches: Tuple[Any, str, Any]) -> Iterator[None]:
    """Temporarily set attributes (or dict entries) on modules/classes:
    each patch is ``(target, name, replacement)``; a ``dict`` target is
    patched by key."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for target, name, replacement in patches:
            if isinstance(target, dict):
                saved.append((target, name, target[name]))
                target[name] = replacement
            else:
                saved.append((target, name, getattr(target, name)))
                setattr(target, name, replacement)
        yield
    finally:
        for target, name, original in reversed(saved):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)


@dataclass(frozen=True)
class Mutant:
    """One known-bad analysis variant."""

    name: str
    description: str
    #: which golden section(s) are expected to kill it (documentation;
    #: the harness accepts a kill from any section)
    expected_killers: Tuple[str, ...]
    #: zero-arg factory returning the active patch context manager
    apply: Callable[[], Any]
    #: zero-arg probe: why the mutated seam reaches no output in this
    #: process (the harness then reports the mutant not applicable
    #: instead of running it), or ``None`` when it does
    inapplicable: Callable[[], Optional[str]] = lambda: None


# ------------------------------------------------------------ DM mutants

def _dm_dropped_blocking():
    from ..core import rta_fixed

    def no_blocking(taskset, task, subtract_one=False):
        return 0

    return _patched((rta_fixed, "nonpreemptive_blocking", no_blocking))


def _dm_single_instance():
    from ..core import rta_fixed
    from ..core.results import ResponseTime
    from ..profibus import dm as dm_mod

    def first_instance_only(taskset, task, strict_start=True,
                            max_instances=100_000):
        solved = rta_fixed.nonpreemptive_start_time(
            taskset, task, strict_start=strict_start, instance=0
        )
        if solved is None:
            return ResponseTime(task=task, value=None)
        w, its = solved
        r = w + task.C
        if r + task.J > task.D:
            return ResponseTime(task=task, value=None, iterations=its)
        return ResponseTime(task=task, value=r + task.J, iterations=its)

    return _patched(
        (dm_mod, "nonpreemptive_response_time", first_instance_only)
    )


def _dm_stale_cache():
    from ..perf import batch as batch_mod

    def unjudged_verdicts(specs, values):
        # BUG: each member column reads the order group's run as made
        # at the group's max deadlines, without its own R <= D verdict
        return list(values)

    return _patched((batch_mod, "_dm_verdicts", unjudged_verdicts))


def _dm_order_key_drops_order():
    from ..perf import batch as batch_mod

    def no_order(specs):
        # BUG: columns with different DM priority orders share a group
        return ()

    return _patched((batch_mod, "dm_order", no_order))


# ---------------------------------------------------- FCFS / EDF mutants

def _fcfs_undercount():
    from ..profibus import fcfs as fcfs_mod
    from ..profibus import ttr as ttr_mod
    from ..profibus.results import NetworkAnalysis, StreamResponse
    from ..profibus.timing import tcycle as compute_tcycle

    def undercounting_fcfs_analysis(network, ttr=None, refined=False):
        if ttr is None:
            ttr = network.require_ttr()
        tc = compute_tcycle(network, ttr, refined=refined)
        per_stream = []
        phy = network.phy
        for master in network.masters:
            r = max(0, master.nh - 1) * tc  # BUG: own request not counted
            per_stream.extend(
                StreamResponse(master=master.name, stream=s, R=r,
                               Q=r - s.cycle_bits(phy))
                for s in master.high_streams
            )
        return NetworkAnalysis(policy="fcfs", ttr=ttr, tcycle=tc,
                               per_stream=tuple(per_stream),
                               detail={"refined": refined})

    return _patched(
        (fcfs_mod, "fcfs_analysis", undercounting_fcfs_analysis),
        (ttr_mod._POLICIES, "fcfs", undercounting_fcfs_analysis),
    )


def _edf_subtract_one():
    from ..profibus import edf as edf_mod

    original = edf_mod.edf_response_time

    def subtracting_edf_response_time(taskset, task, preemptive=True,
                                      limit_factor=4,
                                      blocking_subtract_one=True):
        return original(
            taskset, task, preemptive=preemptive, limit_factor=limit_factor,
            blocking_subtract_one=True,  # BUG: forces the C−1 refinement
        )

    return _patched(
        (edf_mod, "edf_response_time", subtracting_edf_response_time)
    )


# ------------------------------------------------------- timing mutants

def _tdel_drops_overrunner():
    from ..profibus import timing as timing_mod

    def tdel_missing_overrunner(network):
        phy = network.phy
        cms = [timing_mod.longest_cycle(m, phy) for m in network.masters]
        return sum(cms) - max(cms) if cms else 0  # BUG: drops max term

    return _patched((timing_mod, "tdel", tdel_missing_overrunner))


# ------------------------------------------------ sweep / serialization

def _sweep_truncates():
    from ..profibus import sweep as sweep_mod

    def truncating_scaled_deadline(D, T, factor):
        return max(1, min(T, int(D * factor)))  # BUG: truncates

    return _patched((sweep_mod, "scaled_deadline",
                     truncating_scaled_deadline))


def _csv_drops_header():
    from ..profibus import sweep as sweep_mod

    original = sweep_mod.rows_to_csv

    def headerless_rows_to_csv(rows):
        csv = original(rows)
        return csv.split("\n", 1)[1] if "\n" in csv else csv  # BUG

    return _patched((sweep_mod, "rows_to_csv", headerless_rows_to_csv))


def _serialization_drops_jitter():
    from ..profibus import serialization as serialization_mod

    original = serialization_mod.network_to_dict

    def jitterless_network_to_dict(network):
        doc = original(network)
        for master in doc["masters"]:
            for stream in master["streams"]:
                stream.pop("J", None)  # BUG: jitter silently lost
        return doc

    return _patched(
        (serialization_mod, "network_to_dict", jitterless_network_to_dict)
    )


# ----------------------------------------------------------- sim mutants

def _validate_ignores_pending():
    from ..sim import validate as validate_mod

    return _patched((
        validate_mod.ValidationRow, "effective_observed",
        property(lambda self: self.observed),  # BUG: pending age ignored
    ))


def _sim_mac_before_release():
    from ..sim import engine as engine_mod

    original = engine_mod.Simulator.post

    def swapped_post(self, time, callback, priority=engine_mod.PRIO_MAC):
        # BUG: inverts the same-instant convention — MAC decisions fire
        # before releases, so a request queued at the token-arrival
        # instant is invisible to that token visit
        if priority == engine_mod.PRIO_RELEASE:
            priority = engine_mod.PRIO_MAC
        elif priority == engine_mod.PRIO_MAC:
            priority = engine_mod.PRIO_RELEASE
        return original(self, time, callback, priority)

    return _patched((engine_mod.Simulator, "post", swapped_post))


# -------------------------------------------------------- vector mutants

def _vec_int32_truncation():
    from ..perf import vector as vector_mod

    def truncating_pack_value(v):
        # BUG: int32 wraparound at the SoA packing seam — values beyond
        # 2³¹ re-enter as small (or negative) ints and the vector
        # kernels analyse a different network than the one given.
        # Values above 2³² wrap to small *positives*, so the mutant
        # produces wrong-but-computable goldens rather than a crash.
        return ((v + 2**31) % 2**32) - 2**31

    return _patched((vector_mod, "_pack_value", truncating_pack_value))


def _vec_needs_numpy() -> Optional[str]:
    from ..perf import vector as vector_mod

    if vector_mod.numpy_available():
        return None
    return "numpy absent: no network is packed, the seam reaches no output"


MUTANTS: Dict[str, Mutant] = {
    m.name: m
    for m in (
        Mutant("dm-dropped-blocking",
               "eq. (16) without the lower-priority blocking term B_i",
               ("analysis",), _dm_dropped_blocking),
        Mutant("dm-single-instance-busy-period",
               "only instance q=0 of the level-i busy period examined "
               "(pre-Davis-2007)",
               ("analysis",), _dm_single_instance),
        Mutant("dm-stale-interference-cache",
               "DM order-group run served to member columns without "
               "their own R <= D verdict",
               ("sweep",), _dm_stale_cache),
        Mutant("dm-order-key-drops-order",
               "DM order-group key without the priority order: columns "
               "whose DM orders differ share one kernel run",
               ("sweep",), _dm_order_key_drops_order),
        Mutant("fcfs-queue-undercount",
               "eq. (11) computed as (nh-1)*Tcycle",
               ("analysis",), _fcfs_undercount),
        Mutant("edf-blocking-subtract-one",
               "eqs. (17)-(18) with the C-1 blocking refinement",
               ("analysis",), _edf_subtract_one),
        Mutant("tdel-drops-overrunner",
               "eq. (13) missing its largest per-master cycle term",
               ("analysis", "sweep", "validation"), _tdel_drops_overrunner),
        Mutant("sweep-truncated-deadline-scale",
               "scaled_deadline truncates instead of rounding",
               ("sweep",), _sweep_truncates),
        Mutant("csv-drops-header",
               "rows_to_csv stops emitting the header row",
               ("sweep",), _csv_drops_header),
        Mutant("serialization-drops-jitter",
               "network_to_dict silently drops non-zero J fields",
               ("roundtrip",), _serialization_drops_jitter),
        Mutant("validate-ignores-pending",
               "effective_observed ignores pending-request age",
               ("validation",), _validate_ignores_pending),
        Mutant("sim-mac-before-release",
               "same-instant token-bus events fire MAC before releases "
               "(the t=0 critical instant goes unobserved)",
               ("validation",), _sim_mac_before_release),
        Mutant("vec-int32-truncation",
               "vector packing seam narrows stream attributes to int32 "
               "(values beyond 2^31 wrap around)",
               ("analysis",), _vec_int32_truncation, _vec_needs_numpy),
    )
}


@dataclass(frozen=True)
class MutantOutcome:
    mutant: str
    killed: bool
    #: first corpus entry whose check failed under the mutant
    killed_by_entry: Optional[str] = None
    #: golden sections (or self-consistency oracles) that failed
    killed_by_sections: Tuple[str, ...] = ()
    #: why the mutant was not run (:attr:`Mutant.inapplicable`)
    not_applicable: Optional[str] = None


@dataclass(frozen=True)
class MutationReport:
    outcomes: List[MutantOutcome]
    baseline_ok: bool

    @property
    def killed(self) -> int:
        return sum(1 for o in self.outcomes if o.killed)

    @property
    def survivors(self) -> List[str]:
        return [o.mutant for o in self.outcomes
                if not o.killed and o.not_applicable is None]

    @property
    def not_applicable(self) -> List[str]:
        return [o.mutant for o in self.outcomes
                if o.not_applicable is not None]

    @property
    def ok(self) -> bool:
        return self.baseline_ok and not self.survivors

    def format_lines(self) -> List[str]:
        lines = []
        if not self.baseline_ok:
            lines.append("  BASELINE FAILED — corpus check must pass "
                         "unmutated before kills mean anything")
        for o in self.outcomes:
            if o.killed:
                sections = ", ".join(o.killed_by_sections)
                lines.append(f"  killed    {o.mutant:<34} "
                             f"by {o.killed_by_entry} [{sections}]")
            elif o.not_applicable is not None:
                lines.append(f"  n/a       {o.mutant:<34} "
                             f"— {o.not_applicable}")
            else:
                lines.append(f"  SURVIVED  {o.mutant:<34} "
                             "— the corpus has a blind spot here")
        skipped = len(self.not_applicable)
        lines.append(
            f"mutation strength: {self.killed}/"
            f"{len(self.outcomes) - skipped} mutants killed"
            + (f", {skipped} not applicable" if skipped else "")
        )
        return lines


def run_mutation_harness(
    directory: Union[str, Path] = "corpus",
    mutant_names: Optional[List[str]] = None,
) -> MutationReport:
    """Baseline-check the corpus, then inject each mutant and assert
    ``corpus check`` kills it.

    Each mutant's check short-circuits at the first failing section of
    the first failing entry — one kill is enough evidence — so the
    harness cost stays close to one full corpus check plus one partial
    check per mutant.
    """
    from .store import check_corpus

    if mutant_names is None:
        mutants = list(MUTANTS.values())
    else:
        unknown = set(mutant_names) - set(MUTANTS)
        if unknown:
            raise ValueError(
                f"unknown mutant(s) {sorted(unknown)}; "
                f"pick from {sorted(MUTANTS)}"
            )
        mutants = [MUTANTS[name] for name in mutant_names]

    baseline = check_corpus(directory)
    outcomes: List[MutantOutcome] = []
    for mutant in mutants:
        reason = mutant.inapplicable()
        if reason is not None:
            outcomes.append(MutantOutcome(mutant=mutant.name, killed=False,
                                          not_applicable=reason))
            continue
        with mutant.apply():
            report = check_corpus(directory, fail_fast=True,
                                  stop_on_first_failure=True)
        failed = report.failed
        if failed:
            first = failed[0]
            outcomes.append(MutantOutcome(
                mutant=mutant.name,
                killed=True,
                killed_by_entry=first.entry_id,
                killed_by_sections=tuple(s for s, _ in first.mismatches),
            ))
        else:
            outcomes.append(MutantOutcome(mutant=mutant.name, killed=False))
    return MutationReport(outcomes=outcomes, baseline_ok=baseline.ok)
