"""The on-disk corpus: JSONL files under ``corpus/``.

Layout: every ``*.jsonl`` file under the corpus directory holds one
entry per line (see :mod:`repro.corpus.entry` for the document shape).
The seeded corpus ships as:

* ``event-order.jsonl`` — the DES event-ordering probe (name sorts
  first, so mutation-harness kills meet it before anything else);
* ``scenarios.jsonl`` — the three built-in scenarios;
* ``sweep-dm-order.jsonl`` — a master whose DM priority order flips
  between the sweep factors, which keeps the DM order-group key of the
  deadline-scale sweep honest;
* ``wide-values.jsonl`` — the >2³² magnitude probe that keeps the
  vector engine's packing seam honest about integer width;
* ``fuzz.jsonl`` — one exemplar instance per fuzz family, recorded at a
  pinned campaign seed;
* ``promoted.jsonl`` — shrunk counterexamples promoted from fuzz
  campaigns (``repro-cli corpus promote`` / the ``corpus_dir`` campaign
  option appends here).

Entry ids are unique across the whole directory; promotion is
idempotent (an already-present id is skipped, never duplicated).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..profibus import serialization as serialization_mod
from ..profibus.network import Network
from .entry import CorpusEntry, canonical_json, section_digest
from .golden import compute_golden, check_network_golden, default_config

DEFAULT_CORPUS_DIR = "corpus"

#: Campaign seed the shipped fuzz exemplars were generated at.
SEED_FUZZ_SEED = 0

#: One exemplar instance per family (index under :data:`SEED_FUZZ_SEED`).
#: Indices are curated, not arbitrary: together with the built-in
#: scenarios they must kill every mutant in
#: :data:`repro.corpus.mutants.MUTANTS` (asserted by the tier-1 tests),
#: which needs e.g. a jittered network for the serialization mutant and
#: a multi-instance busy period for the pre-Davis-2007 DM variant.
SEED_FUZZ_EXEMPLARS: Dict[str, int] = {
    "multi-master-ring": 0,
    "jitter-heavy": 0,
    "low-dominated": 0,
    "retry-prone": 0,
    "mixed-baud": 0,
    "tight-ttr": 0,
}

#: Validation horizon for the flagship factory-cell entry (long enough
#: for every stream to complete several responses).
FACTORY_CELL_VALIDATION_HORIZON = 30_000

#: Validation horizon for the event-ordering probe entry — a few token
#: rotations: long enough for every first response (whose observed value
#: moves the moment same-instant releases stop preceding MAC decisions),
#: short enough that the probe kill costs milliseconds.  The probe file
#: name sorts *before* the other corpus files, so the mutation harness's
#: stop-on-first-failure check meets it first.
EVENT_ORDER_PROBE_HORIZON = 12_000


def event_order_probe_network() -> "Network":
    """A deliberately minimal network whose validation golden pins the
    DES same-instant convention (releases before MAC decisions).

    Every stream releases synchronously at t=0 — the instant the token
    first arrives — so the frozen observed responses are only
    reproducible while the t=0 releases are visible to the t=0 MAC
    decision.  An engine that fires MAC events first pushes every first
    response a full token rotation out, and this entry dies loudly.
    """
    from ..profibus.cycle import MessageCycleSpec
    from ..profibus.network import Master
    from ..profibus.phy import PhyParameters
    from ..profibus.stream import MessageStream

    ms = 500  # bit times per millisecond at 500 kbit/s
    m1 = Master(1, (
        MessageStream("ping", T=20 * ms, D=10 * ms,
                      spec=MessageCycleSpec(req_payload=2, resp_payload=2)),
    ))
    m2 = Master(2, (
        MessageStream("pong", T=24 * ms, D=12 * ms,
                      spec=MessageCycleSpec(req_payload=2, resp_payload=2)),
    ))
    net = Network(masters=(m1, m2), phy=PhyParameters(baud_rate=500_000))
    return net.with_ttr(max(600, net.ring_latency()))


#: Validation horizon for the wide-values probe — the streams' periods
#: dwarf any feasible horizon, so a few token rotations cover the one
#: synchronous release each stream gets.
WIDE_VALUES_PROBE_HORIZON = 12_000


def wide_values_probe_network() -> "Network":
    """A network whose periods and deadlines exceed 2³² — the dtype
    canary for the structure-of-arrays vector engine.

    Every stream attribute stays well under the engine's
    ``_PACK_LIMIT`` (2⁴⁴), so the network takes the vector path rather
    than the scalar fallback — but any packing seam that narrows to
    int32 (the ``vec-int32-truncation`` mutant) wraps these magnitudes
    around to *small positive* values and silently analyses a much
    tighter network, which the frozen goldens catch.  Magnitudes sit
    above 2³² (not merely 2³¹) exactly so the wraparound lands positive:
    a wrong-but-computable analysis kills through a golden mismatch,
    where a negative-period crash would abort the check instead.
    """
    from ..profibus.cycle import MessageCycleSpec
    from ..profibus.network import Master
    from ..profibus.phy import PhyParameters
    from ..profibus.stream import MessageStream

    wide = 1 << 32
    spec = MessageCycleSpec(req_payload=2, resp_payload=2)
    m1 = Master(1, (
        MessageStream("slow-scan", T=wide + 4_000, D=wide + 2_000,
                      spec=spec),
        MessageStream("slow-log", T=wide + 8_000, D=wide + 3_000,
                      J=wide + 500, spec=spec),
    ))
    m2 = Master(2, (
        MessageStream("slow-sync", T=wide + 6_000, D=wide + 2_500,
                      spec=spec),
    ))
    net = Network(masters=(m1, m2), phy=PhyParameters(baud_rate=500_000))
    return net.with_ttr(max(900, net.ring_latency()))


#: Validation horizon for the DM-order probe — a few token rotations
#: past the slowest first response (about 3·Tcycle).
DM_ORDER_PROBE_HORIZON = 20_000


def dm_order_probe_network() -> "Network":
    """A master that stays DM-schedulable at both sweep factors while
    its DM priority order flips between them — the canary for the DM
    order-group key (:func:`repro.perf.batch.dm_order`).

    ``drive`` has the tightest deadline at factor 0.7003 (its ``D`` is
    well below ``T``) but the loosest at 1.25, where every scaled
    deadline clamps at ``T`` and ``drive`` has the longest period.  The
    periods are under five token cycles, so each stream's response
    depends on which streams outrank it.  A group key without the
    priority order serves the 0.7003 column the 1.25 column's order,
    and the frozen sweep row at 0.7003 turns unschedulable.
    """
    from ..profibus.cycle import MessageCycleSpec
    from ..profibus.network import Master
    from ..profibus.phy import PhyParameters
    from ..profibus.stream import MessageStream

    spec = MessageCycleSpec(req_payload=2, resp_payload=2)
    cell = Master(1, (
        MessageStream("scan", T=8_500, D=8_500, spec=spec),
        MessageStream("drive", T=8_800, D=7_600, spec=spec),
        MessageStream("valve", T=8_000, D=8_000, spec=spec),
    ), name="cell")
    hmi = Master(2, (MessageStream("log", T=20_000, spec=spec),), name="hmi")
    net = Network(masters=(cell, hmi), phy=PhyParameters(baud_rate=500_000))
    return net.with_ttr(max(600, net.ring_latency()))


#: A second factory-cell entry pins a horizon *shorter than several
#: streams' first completion*, so its frozen verdict rows contain
#: releases still pending at the horizon (``incomplete`` verdicts,
#: ``effective_observed`` driven by pending age) — the corpus must keep
#: the pending-age accounting of :mod:`repro.sim.validate` honest, not
#: only the completed responses.  With synchronous no-jitter traffic the
#: worst response sits at the t=0 critical instant, so only an
#: early-horizon cut can leave a pending request older than anything
#: already observed.
FACTORY_CELL_SHORT_HORIZON = 6_000


def _corpus_files(directory: Union[str, Path]) -> List[Path]:
    return sorted(Path(directory).glob("*.jsonl"))


def load_corpus(directory: Union[str, Path]) -> List[CorpusEntry]:
    """Every entry in the directory, file order then line order.
    Raises ``ValueError`` on malformed entries or duplicate ids."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"corpus directory {directory} does not exist")
    entries: List[CorpusEntry] = []
    seen: Dict[str, str] = {}
    for path in _corpus_files(directory):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            try:
                entry = CorpusEntry.from_doc(doc)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if entry.entry_id in seen:
                raise ValueError(
                    f"{path}:{lineno}: duplicate entry id "
                    f"{entry.entry_id!r} (first seen in {seen[entry.entry_id]})"
                )
            seen[entry.entry_id] = f"{path}:{lineno}"
            entries.append(entry)
    return entries


def _existing_ids(directory: Path) -> Dict[str, Path]:
    """Entry id → file, tolerating malformed lines.

    Promotion consults this to decide what is already recorded, and a
    kill mid-append can leave a partial trailing line behind — such a
    line means the entry was *not* durably recorded, so skipping it
    (rather than raising mid-campaign and losing the whole result) is
    the correct reading.  ``load_corpus`` stays strict: a corrupt line
    still fails ``corpus check`` loudly, with its location.
    """
    ids: Dict[str, Path] = {}
    for path in _corpus_files(directory):
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry_id = json.loads(line).get("id")
            except json.JSONDecodeError:
                continue
            if isinstance(entry_id, str):
                ids[entry_id] = path
    return ids


def append_entry(
    directory: Union[str, Path],
    filename: str,
    entry: CorpusEntry,
    update: bool = False,
) -> None:
    """Append ``entry`` to ``directory/filename``.  With ``update``, an
    existing entry with the same id (in any corpus file) is replaced in
    place; without it, a duplicate id raises."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    existing = _existing_ids(directory)
    if entry.entry_id in existing:
        if not update:
            raise ValueError(
                f"entry {entry.entry_id!r} already exists in "
                f"{existing[entry.entry_id]}; pass update=True to refreeze"
            )
        path = existing[entry.entry_id]
        replaced = []
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                line_id = json.loads(line).get("id")
            except json.JSONDecodeError:
                # a torn partial line (tolerated by _existing_ids) must
                # not crash a replace; keep it for load_corpus to flag
                line_id = None
            replaced.append(
                canonical_json(entry.to_doc())
                if line_id == entry.entry_id else line
            )
        path.write_text("\n".join(replaced) + "\n")
        return
    _append_doc(directory, filename, entry)


def _append_doc(directory: Path, filename: str, entry: CorpusEntry) -> None:
    """Durably append one entry line (torn trailing lines repaired
    first) — the single writer behind every append path."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / filename
    _repair_trailing(path)
    with path.open("a") as fh:
        fh.write(canonical_json(entry.to_doc()) + "\n")


def record_network(
    network: Network,
    entry_id: str,
    provenance: Dict[str, Any],
    config: Optional[Dict[str, Any]] = None,
    **config_overrides: Any,
) -> CorpusEntry:
    """Freeze ``network`` into a corpus entry.

    The goldens are computed on a *re-parsed* copy of the scenario
    document, so record and check see identical cache-cold objects.
    """
    doc = serialization_mod.network_to_dict(network)
    parsed = serialization_mod.network_from_dict(doc)
    if config is None:
        config = default_config(parsed, **config_overrides)
    golden = compute_golden(parsed, config)
    return CorpusEntry(
        entry_id=entry_id,
        provenance=provenance,
        network_doc=doc,
        config=config,
        golden=golden,
        digests={name: section_digest(sec) for name, sec in golden.items()},
        fingerprint=parsed.fingerprint(),
    )


def seed_entries() -> List[Tuple[str, CorpusEntry]]:
    """The shipped corpus: ``(filename, entry)`` pairs for the three
    built-in scenarios plus one exemplar per fuzz family."""
    from ..fuzz.families import generate_instance
    from ..scenarios import (
        factory_cell_network,
        paper_illustration_network,
        single_master_network,
    )

    out: List[Tuple[str, CorpusEntry]] = []
    scenarios = (
        ("factory-cell", "factory-cell", factory_cell_network(),
         {"validation_horizon": FACTORY_CELL_VALIDATION_HORIZON}, None),
        ("factory-cell-short-horizon", "factory-cell",
         factory_cell_network(),
         {"validation_horizon": FACTORY_CELL_SHORT_HORIZON},
         "horizon cuts first completions: freezes pending-age accounting"),
        ("paper-illustration", "paper-illustration",
         paper_illustration_network().with_ttr(3000), {}, None),
        ("single-master", "single-master", single_master_network(), {}, None),
    )
    for entry_name, scenario, net, overrides, note in scenarios:
        provenance = {"source": "scenario", "scenario": scenario}
        if note:
            provenance["note"] = note
        out.append((
            "scenarios.jsonl",
            record_network(
                net,
                entry_id=f"scenario:{entry_name}",
                provenance=provenance,
                **overrides,
            ),
        ))
    out.append((
        "event-order.jsonl",
        record_network(
            event_order_probe_network(),
            entry_id="probe:event-order",
            provenance={
                "source": "probe",
                "note": ("synchronous t=0 releases pin the DES "
                         "same-instant convention (releases before MAC); "
                         "file name sorts first so the mutation harness "
                         "meets this entry before any other"),
            },
            validation_horizon=EVENT_ORDER_PROBE_HORIZON,
        ),
    ))
    out.append((
        "wide-values.jsonl",
        record_network(
            wide_values_probe_network(),
            entry_id="probe:wide-values",
            provenance={
                "source": "probe",
                "note": ("periods/deadlines/jitter beyond 2^32 make this "
                         "the dtype canary for the vector engine: an "
                         "int32-narrowing packing seam (the "
                         "vec-int32-truncation mutant) wraps them to "
                         "small positives and the frozen analysis "
                         "goldens diverge"),
            },
            validation_horizon=WIDE_VALUES_PROBE_HORIZON,
        ),
    ))
    out.append((
        "sweep-dm-order.jsonl",
        record_network(
            dm_order_probe_network(),
            entry_id="probe:dm-order",
            provenance={
                "source": "probe",
                "note": ("master 'cell' stays DM-schedulable at both sweep "
                         "factors while its DM order flips between them: "
                         "a DM order-group key without the priority order "
                         "(the dm-order-key-drops-order mutant) turns the "
                         "frozen 0.7003 sweep row unschedulable"),
            },
            validation_horizon=DM_ORDER_PROBE_HORIZON,
        ),
    ))
    for family in sorted(SEED_FUZZ_EXEMPLARS):
        index = SEED_FUZZ_EXEMPLARS[family]
        net = generate_instance(SEED_FUZZ_SEED, family, index)
        out.append((
            "fuzz.jsonl",
            record_network(
                net,
                entry_id=f"fuzz:{family}#{index}@seed{SEED_FUZZ_SEED}",
                provenance={
                    "source": "fuzz",
                    "family": family,
                    "index": index,
                    "seed": SEED_FUZZ_SEED,
                    "shrunk": False,
                    "repro": (
                        f"repro.fuzz.generate_instance(seed={SEED_FUZZ_SEED}, "
                        f"family={family!r}, index={index})"
                    ),
                },
            ),
        ))
    return out


def write_seed_corpus(directory: Union[str, Path]) -> List[str]:
    """(Re)write the seeded corpus files; returns the entry ids.

    The seed filenames are rewritten wholesale, but a seed id already
    recorded in some *other* corpus file is rejected up front —
    overwriting around it would leave the directory with duplicate ids
    and every subsequent ``load_corpus`` failing."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_file: Dict[str, List[CorpusEntry]] = {}
    for filename, entry in seed_entries():
        by_file.setdefault(filename, []).append(entry)
    foreign = {
        entry_id: path
        for entry_id, path in _existing_ids(directory).items()
        if path.name not in by_file
    }
    collisions = sorted(
        f"{e.entry_id} (in {foreign[e.entry_id].name})"
        for entries in by_file.values()
        for e in entries
        if e.entry_id in foreign
    )
    if collisions:
        raise ValueError(
            f"seed id(s) already recorded outside the seed files: "
            f"{collisions}; remove them before --seed-defaults"
        )
    ids: List[str] = []
    for filename, entries in by_file.items():
        path = directory / filename
        path.write_text(
            "".join(canonical_json(e.to_doc()) + "\n" for e in entries)
        )
        ids.extend(e.entry_id for e in entries)
    return ids


def refreeze_corpus(directory: Union[str, Path]) -> List[str]:
    """Re-record every entry in place under its own pinned config — the
    step after an *intentional* analytic change.  One pass per corpus
    file (re-recording N entries through per-entry ``append_entry``
    would rescan and rewrite the directory N times).  Returns the
    refrozen entry ids in file order."""
    directory = Path(directory)
    load_corpus(directory)  # strict validation (duplicates, corruption)
    ids: List[str] = []
    for path in _corpus_files(directory):
        refrozen: List[str] = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            old = CorpusEntry.from_doc(json.loads(line))
            entry = record_network(old.network(), old.entry_id,
                                   old.provenance, config=old.config)
            refrozen.append(canonical_json(entry.to_doc()))
            ids.append(entry.entry_id)
        path.write_text("".join(doc + "\n" for doc in refrozen))
    return ids


# ------------------------------------------------------------------ check

@dataclass(frozen=True)
class EntryResult:
    entry_id: str
    mismatches: List[Tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class CheckReport:
    results: List[EntryResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failed(self) -> List[EntryResult]:
        return [r for r in self.results if not r.ok]

    def format_lines(self, verbose: bool = False) -> List[str]:
        lines = []
        for r in self.results:
            if r.ok:
                lines.append(f"  ok    {r.entry_id}")
            else:
                sections = ", ".join(sorted({s for s, _ in r.mismatches}))
                lines.append(f"  FAIL  {r.entry_id}  [{sections}]")
                if verbose:
                    for section, detail in r.mismatches:
                        lines.append(f"        {section}: {detail}")
        n_fail = len(self.failed)
        lines.append(
            f"corpus check: {len(self.results) - n_fail}/{len(self.results)} "
            f"entries bit-exact" + (f", {n_fail} FAILED" if n_fail else "")
        )
        return lines


def check_corpus(
    directory: Union[str, Path] = DEFAULT_CORPUS_DIR,
    entry_ids: Optional[Sequence[str]] = None,
    fail_fast: bool = False,
    stop_on_first_failure: bool = False,
) -> CheckReport:
    """Recompute every entry's golden sections and compare bit-exactly,
    in entry order, in this process.

    ``fail_fast`` short-circuits *within* an entry at its first
    mismatching section; ``stop_on_first_failure`` additionally stops
    at the first failing entry (the mutation harness uses both — one
    killing entry is enough evidence).
    """
    entries = load_corpus(directory)
    if entry_ids is not None:
        wanted = set(entry_ids)
        unknown = wanted - {e.entry_id for e in entries}
        if unknown:
            raise ValueError(f"unknown corpus entry id(s) {sorted(unknown)}")
        entries = [e for e in entries if e.entry_id in wanted]
    results: List[EntryResult] = []
    for e in entries:
        result = EntryResult(e.entry_id, check_network_golden(
            e.network_doc, e.config, e.golden, fail_fast=fail_fast))
        results.append(result)
        if not result.ok and stop_on_first_failure:
            break
    return CheckReport(results)


# --------------------------------------------------------------- promotion

@dataclass(frozen=True)
class PromotionResult:
    added: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    #: ``(entry_id, error)`` for counterexamples that could not be
    #: frozen — a non-promotable counterexample is a build failure
    errors: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _repair_trailing(path: Path) -> None:
    """Drop a torn trailing line (a kill mid-append) before appending.

    The partial line was never durably recorded — ``_existing_ids``
    already treats its entry as absent — so truncating back to the last
    intact newline loses nothing, while appending straight after it
    would fuse the new entry into one unparseable line (the fuzz
    checkpoint writer handles the same hazard the same way)."""
    if not path.exists():
        return
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n") + 1  # 0 when no newline survives
    with path.open("r+b") as fh:
        fh.truncate(cut)


def _promotion_overrides(provenance: Dict[str, Any]) -> Dict[str, Any]:
    """Pin the counterexample's own failure point into the entry config:
    its sweep factor joins the default grid and its policy drives the
    validation simulation, so the frozen goldens cover the *exact*
    coordinates the fuzz oracle failed at — not just the default grid,
    which may round/simulate identically on this network."""
    from ..corpus.golden import DEFAULT_SWEEP_FACTORS

    overrides: Dict[str, Any] = {}
    factor = provenance.get("factor")
    if isinstance(factor, (int, float)) and factor > 0:
        overrides["sweep_factors"] = sorted(
            set(DEFAULT_SWEEP_FACTORS) | {factor}
        )
    policy = provenance.get("policy")
    if policy in ("fcfs", "dm", "edf"):
        overrides["validation_policy"] = policy
    return overrides


def _counterexample_identity(provenance: Dict[str, Any]) -> str:
    """The policy is part of the identity where the oracle has one: the
    same instance can fail the same oracle under different ``--policies``
    rotations across campaigns, and each such failure pins different
    coordinates — collapsing them to one id would silently drop the
    later one as already-promoted."""
    base = (f"fuzz:{provenance['family']}#{provenance['index']}"
            f"@seed{provenance['seed']}:{provenance['oracle']}")
    policy = provenance.get("policy")
    return f"{base}:{policy}" if policy else base


#: ``(entry_id, provenance, network-or-None, error-or-None)`` — the one
#: shape both promotion front ends normalise their counterexamples to.
_PromotionItem = Tuple[str, Dict[str, Any], Optional[Network], Optional[str]]


def _existing_value_keys(directory: Path) -> set:
    """``(fingerprint, oracle, policy)`` for every entry that records a
    fingerprint — the value-identity view of the corpus.  Tolerant of
    malformed lines for the same reason :func:`_existing_ids` is."""
    keys = set()
    for path in _corpus_files(directory):
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(doc, dict):
                continue
            fp = doc.get("fingerprint")
            if not isinstance(fp, str) or not fp:
                continue
            provenance = doc.get("provenance") or {}
            keys.add((fp, provenance.get("oracle"),
                      provenance.get("policy")))
    return keys


def _promote_batch(
    items: Iterable[_PromotionItem],
    directory: Union[str, Path],
) -> PromotionResult:
    """The single promotion loop.  Existing ids are scanned once per
    batch (per-item directory scans would be quadratic in corpus size)
    and updated in place as entries land in ``promoted.jsonl``.

    Dedup is two-level: by entry id (same campaign re-run) and by value
    key — canonical network fingerprint + oracle + policy — so two
    campaigns that shrink *different* instances to the same network
    under the same failing coordinates freeze it once, not twice under
    different names."""
    directory = Path(directory)
    existing = set(_existing_ids(directory))
    value_keys = _existing_value_keys(directory)
    added: List[str] = []
    skipped: List[str] = []
    errors: List[Tuple[str, str]] = []
    path = directory / "promoted.jsonl"
    fh: Optional[Any] = None
    try:
        for entry_id, provenance, network, error in items:
            if error is not None:
                errors.append((entry_id, error))
                continue
            if entry_id in existing:
                skipped.append(entry_id)
                continue
            value_key = (network.fingerprint(), provenance.get("oracle"),
                         provenance.get("policy"))
            if value_key in value_keys:
                skipped.append(entry_id)
                continue
            try:
                entry = record_network(network, entry_id, provenance,
                                       **_promotion_overrides(provenance))
                if fh is None:
                    # one repair + one append handle per batch (a torn
                    # trailing line is a pre-existing condition, not
                    # something this loop can create between writes)
                    directory.mkdir(parents=True, exist_ok=True)
                    _repair_trailing(path)
                    fh = path.open("a")
                fh.write(canonical_json(entry.to_doc()) + "\n")
                fh.flush()
            except Exception as exc:
                errors.append((entry_id, str(exc)))
            else:
                existing.add(entry_id)
                value_keys.add(value_key)
                added.append(entry_id)
    finally:
        if fh is not None:
            fh.close()
    return PromotionResult(added=added, skipped=skipped, errors=errors)


def _counterexample_provenance(oracle, family, index, seed, policy, factor,
                               detail, shrunk_detail) -> Dict[str, Any]:
    return {
        "source": "fuzz-counterexample",
        "oracle": oracle,
        "family": family,
        "index": index,
        "seed": seed,
        "policy": policy,
        "factor": factor,
        "detail": detail,
        "shrunk": True,
        "shrunk_detail": shrunk_detail,
    }


def promote_counterexamples(
    counterexamples: Iterable,
    directory: Union[str, Path] = DEFAULT_CORPUS_DIR,
) -> PromotionResult:
    """Freeze shrunk :class:`repro.fuzz.CounterExample` objects into the
    corpus (``promoted.jsonl``).  Idempotent per entry id."""
    items: List[_PromotionItem] = []
    for ce in counterexamples:
        provenance = _counterexample_provenance(
            ce.oracle, ce.family, ce.index, ce.seed, ce.policy, ce.factor,
            ce.detail, ce.shrunk_detail,
        )
        items.append((_counterexample_identity(provenance), provenance,
                      ce.shrunk, None))
    return _promote_batch(items, directory)


def promote_report_doc(
    doc: Dict[str, Any],
    directory: Union[str, Path] = DEFAULT_CORPUS_DIR,
) -> PromotionResult:
    """Promote every counterexample of a ``FUZZ_report.json`` document
    (schema ``profibus-rt/fuzz/v2``) into the corpus."""
    from ..fuzz.report import validate_report_dict

    validate_report_dict(doc)
    items: List[_PromotionItem] = []
    for position, ce in enumerate(doc["counterexamples"]):
        # validate_report_dict only checks the report's top-level shape,
        # so a hand-trimmed counterexample must surface as a promotion
        # error, not a KeyError traceback
        missing = [key for key in ("oracle", "family", "index", "seed",
                                   "shrunk_network")
                   if key not in ce]
        if missing:
            items.append((f"counterexamples[{position}]", {}, None,
                          f"missing key(s) {missing}"))
            continue
        provenance = _counterexample_provenance(
            ce["oracle"], ce["family"], ce["index"], ce["seed"],
            ce.get("policy"), ce.get("factor"), ce.get("detail", ""),
            ce.get("shrunk_detail", ""),
        )
        entry_id = _counterexample_identity(provenance)
        try:
            network = serialization_mod.network_from_dict(ce["shrunk_network"])
        except Exception as exc:
            items.append((entry_id, provenance, None,
                          f"shrunk network does not parse: {exc}"))
            continue
        items.append((entry_id, provenance, network, None))
    return _promote_batch(items, directory)
