"""The differential-fuzzing campaign engine.

A campaign is a pure function of ``(seed, budget, families, policies)``:

1. generate ``budget`` networks, cycling the requested families, each a
   pure function of ``(seed, family, index)``;
2. run the **kernel-equivalence oracle at scale**: the whole
   (network × policy) grid goes through :func:`repro.perf.batch.engine_rows`
   — generic exact, fast scalar kernels, and the structure-of-arrays
   vector kernels — in this process, and the three row lists must be
   bit-identical;
3. run the **per-instance oracles** — **round-trip**, **sweep-scaling**
   (with a seeded scale factor) and **token-bus soundness** (soundness
   rotates through the policies so a budget-``n`` campaign simulates
   ``n`` networks, not ``3n``) — over the process pool
   (``workers=N``) via :func:`repro.perf.batch.pooled_imap`.  The
   soundness simulations are the dominant cost of a campaign, so this
   is what makes ``--budget 100000 --workers N`` an overnight-feasible
   run;
4. shrink each failure to a locally-minimal network that still fails
   the same oracle, and package everything as a
   :class:`CampaignResult` for ``FUZZ_report.json`` (schema
   ``profibus-rt/fuzz/v2``: per-(family × oracle) counters and a
   wall-clock phase breakdown).

Long campaigns can stream a **JSONL checkpoint** (``checkpoint=PATH`` /
``--checkpoint``): every finished instance appends one line, and a
killed campaign rerun with the same checkpoint resumes where it stopped
— the resumed run folds the recorded rows back in index order, so its
counters and counterexamples are identical to an uninterrupted run's
(only the timing fields differ).  The cheap kernel-equivalence grid is
recomputed on resume; it is deterministic, so the outcome is unchanged.

The CLI front end is ``repro-cli fuzz`` (see :mod:`repro.cli`); the
report schema is documented in PERF.md.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    List,
    Optional,
    Tuple,
)

from ..perf.batch import engine_rows, pooled_imap
from ..profibus.network import Network
from ..schemas import FUZZ_CHECKPOINT_SCHEMA as _CHECKPOINT_SCHEMA
from .families import FAMILIES, family_rng, generate_instance
from .oracles import (
    DEFAULT_POLICIES,
    STATUS_FAIL,
    STATUS_OK,
    STATUS_SKIPPED,
    OracleOutcome,
    check_kernel_equivalence,
    check_roundtrip,
    check_soundness,
    check_sweep_scaling,
)
from .shrink import shrink_network

ORACLE_SOUNDNESS = "soundness"
ORACLE_KERNEL = "kernel_equivalence"
ORACLE_ROUNDTRIP = "roundtrip"
ORACLE_SWEEP = "sweep_scaling"
ORACLES = (ORACLE_SOUNDNESS, ORACLE_KERNEL, ORACLE_ROUNDTRIP, ORACLE_SWEEP)

#: counters kept per oracle, overall and per family
COUNTERS = ("checked", "failed", "skipped", "extended")



@dataclass(frozen=True)
class CampaignConfig:
    budget: int = 200
    seed: int = 0
    families: Tuple[str, ...] = tuple(FAMILIES)
    policies: Tuple[str, ...] = DEFAULT_POLICIES
    #: process-pool size for the per-instance oracles (``None`` = cpu
    #: count, ``1`` = serial)
    workers: Optional[int] = 1
    #: initial soundness-simulation horizon budget (bit times); runs
    #: whose required horizon exceeds it start capped here and rely on
    #: the auto-extender below
    horizon_cap: int = 3_000_000
    #: geometric horizon retries before an ``incomplete`` soundness run
    #: is recorded as a (tracked) skip
    max_horizon_extensions: int = 4
    horizon_extension_factor: float = 2.0
    #: JSONL file streaming one line per finished instance; an existing
    #: file with a matching header resumes the campaign after it
    checkpoint: Optional[str] = None
    max_counterexamples: int = 10
    shrink: bool = True
    shrink_evals: int = 250
    #: golden-corpus directory; when set, every shrunk counterexample is
    #: promoted into it at campaign end (``repro.corpus``).  Like
    #: ``workers``, deliberately absent from the checkpoint fingerprint:
    #: turning promotion on for a resumed campaign is a feature.
    corpus_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.max_counterexamples < 1:
            raise ValueError("max_counterexamples must be >= 1")
        if self.max_horizon_extensions < 0:
            raise ValueError("max_horizon_extensions must be >= 0")
        if self.horizon_extension_factor <= 1.0:
            raise ValueError("horizon_extension_factor must be > 1")
        if not self.families:
            raise ValueError("need at least one family")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(
                f"unknown families {sorted(unknown)}; pick from {sorted(FAMILIES)}"
            )


@dataclass(frozen=True)
class CounterExample:
    """One oracle failure, with its shrunk reproduction."""

    oracle: str
    family: str
    index: int
    seed: int
    policy: Optional[str]
    factor: Optional[float]
    detail: str
    network: Network
    shrunk: Network
    shrunk_detail: str


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    instances: int
    family_counts: Dict[str, int]
    #: oracle name → {"checked": n, "failed": n, "skipped": n, "extended": n}
    oracle_stats: Dict[str, Dict[str, int]]
    #: family → oracle name → the same counters (failure-rate tracking
    #: per family is what overnight campaigns trend over time)
    family_oracle_stats: Dict[str, Dict[str, Dict[str, int]]]
    counterexamples: List[CounterExample]
    #: wall-clock phase breakdown: generate / kernel_grid /
    #: instance_oracles / shrink / total, in seconds
    timings: Dict[str, float]
    #: instances folded back from the checkpoint instead of re-run
    resumed_instances: int = 0
    #: corpus entry ids frozen from the shrunk counterexamples (only
    #: when ``config.corpus_dir`` is set)
    promoted_entries: Tuple[str, ...] = ()
    #: counterexamples already present in the corpus (idempotence)
    promotion_skipped: Tuple[str, ...] = ()
    #: ``(entry_id, error)`` for counterexamples that could not be
    #: frozen — a non-promotable counterexample must fail the build
    promotion_errors: Tuple[Tuple[str, str], ...] = ()

    @property
    def elapsed_seconds(self) -> float:
        return self.timings.get("total_seconds", 0.0)

    @property
    def total_failed(self) -> int:
        return sum(row["failed"] for row in self.oracle_stats.values())

    @property
    def ok(self) -> bool:
        """True iff no oracle failed — derived from the failure
        *counters*, not the counterexample list, which is truncated to
        ``max_counterexamples`` and must not mask extra failures."""
        return self.total_failed == 0


@dataclass
class _Failure:
    oracle: str
    family: str
    index: int
    policy: Optional[str]
    factor: Optional[float]
    detail: str


def _sweep_factor(seed: int, family: str, index: int) -> float:
    """Seeded per-instance deadline-scale factor, biased toward the
    fine-grid regime where rounding vs truncation differ."""
    return round(family_rng(seed, family, index, salt="sweep")
                 .uniform(0.25, 1.75), 3)


def _outcome_doc(oracle: str, outcome: OracleOutcome,
                 policy: Optional[str] = None,
                 factor: Optional[float] = None) -> Dict[str, Any]:
    """One oracle result as the plain-JSON row the checkpoint stores."""
    return {
        "oracle": oracle,
        "status": outcome.status,
        "detail": outcome.detail,
        "policy": policy,
        "factor": factor,
        "extensions": outcome.extensions,
    }


def _instance_worker(
    item: Tuple[str, int],
    seed: int,
    policies: Tuple[str, ...],
    horizon_cap: int,
    max_extensions: int,
    extension_factor: float,
) -> Dict[str, Any]:
    """Pool entry: all per-instance oracles for one ``(family, index)``.

    The worker regenerates the instance from ``(seed, family, index)``
    — cheaper than pickling the network over, and exactly what makes the
    checkpoint format self-contained.  The row records the instance's
    canonical content fingerprint, so a resume can verify the recorded
    results still describe the network the generator produces *today*
    (the header pins the campaign coordinates, not the generator)."""
    family, index = item
    net = generate_instance(seed, family, index)
    policy = policies[index % len(policies)]
    factor = _sweep_factor(seed, family, index)
    results = [
        _outcome_doc(ORACLE_ROUNDTRIP, check_roundtrip(net)),
        _outcome_doc(
            ORACLE_SWEEP, check_sweep_scaling(net, factor, policy),
            policy=policy, factor=factor,
        ),
        _outcome_doc(
            ORACLE_SOUNDNESS,
            check_soundness(
                net, policy, horizon_cap=horizon_cap, seed=seed,
                max_extensions=max_extensions,
                extension_factor=extension_factor,
            ),
            policy=policy,
        ),
    ]
    return {"kind": "row", "family": family, "index": index,
            "fingerprint": net.fingerprint(), "results": results}


# ----------------------------------------------------------- checkpointing

def _checkpoint_header(config: CampaignConfig) -> Dict[str, Any]:
    """The config fingerprint a checkpoint must match to be resumed.
    ``workers`` is deliberately absent: resuming with a different pool
    size is a feature, not a mismatch."""
    return {
        "kind": "header",
        "schema": _CHECKPOINT_SCHEMA,
        "seed": config.seed,
        "budget": config.budget,
        "families": list(config.families),
        "policies": list(config.policies),
        "horizon_cap": config.horizon_cap,
        "max_horizon_extensions": config.max_horizon_extensions,
        "horizon_extension_factor": config.horizon_extension_factor,
    }


def _load_checkpoint(
    path: Path, config: CampaignConfig
) -> Tuple[Dict[int, Dict[str, Any]], int]:
    """Recorded instance rows from an interrupted campaign, keyed by
    index, plus the byte offset where intact content ends.  Empty when
    the file does not exist (or holds no header yet).  Raises
    ``ValueError`` when the header belongs to a different campaign.  A
    partial trailing line (the process was killed mid-write) is ignored
    — the caller must truncate the file to the returned offset before
    appending, or the next record would fuse with the partial line into
    one unparseable row and lose everything recorded after it on the
    *next* resume."""
    if not path.exists():
        return {}, 0
    done: Dict[int, Dict[str, Any]] = {}
    header_seen = False
    valid_end = 0
    with path.open("rb") as fh:
        for raw in fh:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                valid_end += len(raw)
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if not header_seen:
                    raise ValueError(
                        f"checkpoint {path} has a corrupt header line; "
                        "delete the file to start fresh"
                    )
                break  # killed mid-write: everything before is intact
            if not raw.endswith(b"\n"):
                # a complete-looking JSON document without its newline is
                # still a torn write; drop it too
                break
            valid_end += len(raw)
            if not header_seen:
                expected = _checkpoint_header(config)
                if record != expected:
                    raise ValueError(
                        f"checkpoint {path} belongs to a different campaign "
                        f"(header {record!r} != config {expected!r}); "
                        "delete it or match the original configuration"
                    )
                header_seen = True
                continue
            if record.get("kind") != "row":
                continue
            index = record["index"]
            if 0 <= index < config.budget:
                done[index] = record
    return done, valid_end


def run_campaign(config: CampaignConfig = CampaignConfig()) -> CampaignResult:
    start = time.perf_counter()
    timings: Dict[str, float] = {}
    pairs: List[Tuple[str, int]] = []
    family_counts: Dict[str, int] = {f: 0 for f in config.families}
    for i in range(config.budget):
        family = config.families[i % len(config.families)]
        pairs.append((family, i))
        family_counts[family] += 1

    def new_counters() -> Dict[str, int]:
        return {c: 0 for c in COUNTERS}

    stats = {name: new_counters() for name in ORACLES}
    family_stats = {
        family: {name: new_counters() for name in ORACLES}
        for family in config.families
    }
    failures: List[_Failure] = []

    def fold(oracle: str, family: str, status: str, extensions: int) -> None:
        for bucket in (stats[oracle], family_stats[family][oracle]):
            if status == STATUS_SKIPPED:
                bucket["skipped"] += 1
            else:
                bucket["checked"] += 1
                if status == STATUS_FAIL:
                    bucket["failed"] += 1
            if extensions:
                bucket["extended"] += 1

    # -- resume state ---------------------------------------------------
    ckpt_path = Path(config.checkpoint) if config.checkpoint else None
    done: Dict[int, Dict[str, Any]] = {}
    ckpt_file: Optional[IO[str]] = None
    if ckpt_path is not None:
        done, valid_end = _load_checkpoint(ckpt_path, config)
        ckpt_file = ckpt_path.open("a")
        if ckpt_file.tell() != valid_end:
            # drop the torn trailing line a kill left behind, so the next
            # append starts on a fresh line instead of fusing with it
            ckpt_file.truncate(valid_end)
            ckpt_file.seek(valid_end)
        if valid_end == 0:
            ckpt_file.write(
                json.dumps(_checkpoint_header(config), sort_keys=True) + "\n"
            )
            ckpt_file.flush()
    resumed = len(done)

    try:
        # -- generate the instances (also needed by the kernel grid) ----
        t0 = time.perf_counter()
        networks = [
            generate_instance(config.seed, family, index)
            for family, index in pairs
        ]
        timings["generate_seconds"] = time.perf_counter() - t0

        # -- oracle (b) at scale: one grid per engine -------------------
        # Deterministic and cheap next to the simulations, so a resumed
        # campaign simply recomputes it.
        t0 = time.perf_counter()
        grid = dict(engine_rows(networks, config.policies))
        mismatched = {
            g.index
            for g, f, v in zip(grid["generic"], grid["fast"],
                               grid["vectorized"])
            if f != g or v != g
        }
        for (family, index), net in zip(pairs, networks):
            if index in mismatched:
                # the grid sweep found it; the per-instance check
                # supplies the detailed divergence
                outcome = check_kernel_equivalence(net, config.policies)
                detail = outcome.detail or "batch mode rows diverge"
                fold(ORACLE_KERNEL, family, STATUS_FAIL, 0)
                failures.append(_Failure(
                    ORACLE_KERNEL, family, index, None, None, detail,
                ))
            else:
                fold(ORACLE_KERNEL, family, STATUS_OK, 0)
        timings["kernel_grid_seconds"] = time.perf_counter() - t0

        # -- per-instance oracles (a), (c), (d) on the pool -------------
        t0 = time.perf_counter()
        todo = [pair for pair in pairs if pair[1] not in done]
        worker = partial(
            _instance_worker,
            seed=config.seed,
            policies=config.policies,
            horizon_cap=config.horizon_cap,
            max_extensions=config.max_horizon_extensions,
            extension_factor=config.horizon_extension_factor,
        )
        records = list(done.values())
        for record in pooled_imap(worker, todo, workers=config.workers):
            if ckpt_file is not None:
                ckpt_file.write(json.dumps(record, sort_keys=True) + "\n")
                ckpt_file.flush()
            records.append(record)
        timings["instance_oracles_seconds"] = time.perf_counter() - t0
    finally:
        if ckpt_file is not None:
            ckpt_file.close()

    # Fold in index order: a resumed campaign and an uninterrupted one
    # see the same failure sequence, so truncation to max_counterexamples
    # picks the same instances.
    records.sort(key=lambda r: r["index"])
    for record in records:
        family, index = record["family"], record["index"]
        if pairs[index] != (family, index):
            raise ValueError(
                f"checkpoint row {index} carries family {family!r}, "
                f"campaign expects {pairs[index][0]!r}"
            )
        recorded_fp = record.get("fingerprint")
        if recorded_fp is not None:
            # value-identity check: the header pins seed/family/budget,
            # but only the fingerprint catches the generator itself
            # having changed under a checkpoint (absent in rows written
            # by older builds — those resume unchecked)
            actual_fp = networks[index].fingerprint()
            if recorded_fp != actual_fp:
                raise ValueError(
                    f"checkpoint row {index} ({family}) was recorded for "
                    f"network content {recorded_fp[:12]}…, but the "
                    f"generator now produces {actual_fp[:12]}…; the "
                    "instance generator changed — delete the checkpoint "
                    "and re-run the campaign"
                )
        for row in record["results"]:
            fold(row["oracle"], family, row["status"], row["extensions"])
            if row["status"] == STATUS_FAIL:
                failures.append(_Failure(
                    row["oracle"], family, index, row["policy"],
                    row["factor"], row["detail"],
                ))

    # -- shrink the survivors -------------------------------------------
    t0 = time.perf_counter()
    counterexamples: List[CounterExample] = []
    for failure in failures[: config.max_counterexamples]:
        network = generate_instance(config.seed, failure.family,
                                    failure.index)
        shrunk = network
        shrunk_detail = failure.detail
        if config.shrink:
            shrunk = shrink_network(network, _predicate_for(failure, config),
                                    max_evals=config.shrink_evals)
            if shrunk is not network:
                shrunk_detail = _redescribe(failure, shrunk, config)
        counterexamples.append(CounterExample(
            oracle=failure.oracle,
            family=failure.family,
            index=failure.index,
            seed=config.seed,
            policy=failure.policy,
            factor=failure.factor,
            detail=failure.detail,
            network=network,
            shrunk=shrunk,
            shrunk_detail=shrunk_detail,
        ))
    timings["shrink_seconds"] = time.perf_counter() - t0

    # -- promote the shrunk counterexamples into the golden corpus ------
    promoted: Tuple[str, ...] = ()
    promotion_skipped: Tuple[str, ...] = ()
    promotion_errors: Tuple[Tuple[str, str], ...] = ()
    t0 = time.perf_counter()
    if config.corpus_dir and counterexamples:
        from ..corpus.store import promote_counterexamples

        try:
            promotion = promote_counterexamples(counterexamples,
                                                config.corpus_dir)
        except Exception as exc:
            # A broken corpus directory must not discard the campaign
            # result (hours of simulation) — surface it as a promotion
            # error instead; the CLI exits non-zero on those.
            promotion_errors = ((config.corpus_dir, str(exc)),)
        else:
            promoted = tuple(promotion.added)
            promotion_skipped = tuple(promotion.skipped)
            promotion_errors = tuple(promotion.errors)
    # promotion recomputes full goldens (incl. a validation simulation
    # per counterexample), so it is its own phase in the breakdown
    timings["promotion_seconds"] = time.perf_counter() - t0
    timings["total_seconds"] = time.perf_counter() - start

    return CampaignResult(
        config=config,
        instances=len(pairs),
        family_counts=family_counts,
        oracle_stats=stats,
        family_oracle_stats=family_stats,
        counterexamples=counterexamples,
        timings=timings,
        resumed_instances=resumed,
        promoted_entries=promoted,
        promotion_skipped=promotion_skipped,
        promotion_errors=promotion_errors,
    )


def _predicate_for(failure: _Failure,
                   config: CampaignConfig) -> Callable[[Network], bool]:
    """The shrink predicate: does ``network`` still fail the same oracle
    under the campaign's own configuration?"""
    if failure.oracle == ORACLE_ROUNDTRIP:
        return lambda n: check_roundtrip(n).failed
    if failure.oracle == ORACLE_KERNEL:
        if (failure.detail or "").startswith("vectorized:"):
            # A vectorized-only divergence (fast == generic, vector leg
            # differs) must shrink against *that* divergence — the plain
            # `.failed` predicate would let the shrinker wander onto an
            # unrelated fast/generic disagreement and minimise the wrong
            # bug.
            def vec_only(n: Network) -> bool:
                outcome = check_kernel_equivalence(n, config.policies)
                return (outcome.failed
                        and outcome.detail.startswith("vectorized:"))

            return vec_only
        return lambda n: check_kernel_equivalence(n, config.policies).failed
    if failure.oracle == ORACLE_SWEEP:
        return lambda n: check_sweep_scaling(
            n, failure.factor, failure.policy or "dm"
        ).failed
    if failure.oracle == ORACLE_SOUNDNESS:
        return lambda n: check_soundness(
            n, failure.policy or "dm", horizon_cap=config.horizon_cap,
            seed=config.seed, max_extensions=config.max_horizon_extensions,
            extension_factor=config.horizon_extension_factor,
        ).failed
    raise ValueError(f"unknown oracle {failure.oracle!r}")


def _redescribe(failure: _Failure, shrunk: Network,
                config: CampaignConfig) -> str:
    """Re-run the failing oracle on the shrunk network for its detail —
    under the campaign's configuration (the kernel oracle in particular
    must see ``config.policies``: describing the shrunk network against
    the default policy set can disagree with the shrink predicate when a
    custom ``--policies`` campaign found the failure)."""
    try:
        if failure.oracle == ORACLE_ROUNDTRIP:
            return check_roundtrip(shrunk).detail
        if failure.oracle == ORACLE_KERNEL:
            return check_kernel_equivalence(shrunk, config.policies).detail
        if failure.oracle == ORACLE_SWEEP:
            return check_sweep_scaling(shrunk, failure.factor,
                                       failure.policy or "dm").detail
        if failure.oracle == ORACLE_SOUNDNESS:
            return check_soundness(
                shrunk, failure.policy or "dm",
                horizon_cap=config.horizon_cap, seed=config.seed,
                max_extensions=config.max_horizon_extensions,
                extension_factor=config.horizon_extension_factor,
            ).detail
    except Exception as exc:  # pragma: no cover - diagnostic best effort
        return f"(detail unavailable on shrunk network: {exc})"
    return failure.detail
