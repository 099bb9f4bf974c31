"""Golden computation and bit-exact checking.

Every quantity is computed through **late-bound module attributes**
(``ttr_mod.analyse``, ``sweep_mod.deadline_scale_sweep``,
``serialization_mod.network_to_dict``, ``validate_mod.validate_network``,
``batch_mod.analyse_many``) — the injectable-analysis seam.  The
mutation harness (:mod:`repro.corpus.mutants`) swaps those attributes
for known-bad variants; because the check resolves them at call time,
an injected mutant flows through the exact code paths a real regression
would, and the frozen goldens must kill it.

Sections:

``analysis``
    Per-policy per-stream response times and ``Tcycle`` from
    :func:`repro.profibus.ttr.analyse`, evaluated on the fast kernel
    path, the generic exact path **and** the structure-of-arrays vector
    kernels (:func:`repro.perf.vector.response_rows` — the numpy lanes,
    or the scalar analysis without numpy; the frozen values are
    engine-independent by the bit-equality contract), at
    the entry's own TTR and at a probe TTR (``config["ttr_probe"]``) —
    the probe re-analyses the *same* master objects at a second
    ``Tcycle``, so a cache that goes stale across analysis inputs
    cannot return the first answer twice unnoticed.  Plus the batch
    summaries from :func:`repro.perf.batch.analyse_many` in all three
    modes.
``sweep``
    ``deadline_scale_sweep`` / ``ttr_sweep`` / ``baud_sweep`` rows at
    pinned grids, and a digest of their ``rows_to_csv`` rendering
    (freezes the CSV contract: header, escaping, ``None`` cells).
``roundtrip``
    Digest of ``network_to_dict(network)`` — must reproduce the stored
    scenario document bit-exactly.
``validation``
    Token-bus simulation verdict rows (:mod:`repro.sim.validate`) at a
    pinned policy/horizon, including per-row ``effective_observed`` so
    pending-request accounting is frozen too.

Besides comparing recomputations against the frozen goldens,
:func:`check_network_golden` enforces two **self-consistency oracles**
that do not depend on the stored values at all: the fast and vectorized
legs (the per-network kernels and the lanes) must each agree with the
generic one, and the scenario document must be a round-trip fixed
point.  A counterexample promoted into the
corpus *before* its bug is fixed therefore keeps failing ``corpus
check`` even though its goldens were recorded under the bug; once the
fix lands, ``corpus record --update`` refreezes the corrected values.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..perf import batch as batch_mod
from ..perf import vector as vector_mod
from ..perf.config import analysis_mode_set
from ..profibus import serialization as serialization_mod
from ..profibus import sweep as sweep_mod
from ..profibus import ttr as ttr_mod
from ..profibus.network import Network
from ..sim import validate as validate_mod
from .entry import GOLDEN_SECTIONS, canonical_json, section_digest

DEFAULT_POLICIES: Tuple[str, ...] = ("fcfs", "dm", "edf")

#: Deadline-scale factors with fractional parts that separate rounding
#: from truncation on realistic bit-time deadlines.
DEFAULT_SWEEP_FACTORS: Tuple[float, ...] = (0.7003, 1.25)

#: Baud grid for the sweep section (bounded for check latency; the full
#: STANDARD_BAUD_RATES grid is covered by tests/test_sweep.py).
DEFAULT_BAUD_RATES: Tuple[int, ...] = (187_500, 500_000, 1_500_000)

#: Default cap on the validation-simulation horizon (bit times) — keeps
#: ``corpus check`` in the seconds range; entries may pin any horizon.
DEFAULT_HORIZON_CAP = 200_000


def default_config(
    network: Network,
    validation_policy: str = "dm",
    validation_horizon: Optional[int] = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    sweep_factors: Sequence[float] = DEFAULT_SWEEP_FACTORS,
    baud_rates: Sequence[int] = DEFAULT_BAUD_RATES,
) -> Dict[str, Any]:
    """Pinned evaluation knobs for one entry (stored, so ``check``
    replays exactly what ``record`` froze)."""
    ttr = network.require_ttr()
    if validation_horizon is None:
        analysis = ttr_mod.analyse(network, validation_policy)
        finite = [sr.R for sr in analysis.per_stream if sr.R is not None]
        max_tj = max(
            (s.T + s.J for m in network.masters for s in m.streams), default=1
        )
        required = (2 * max(finite, default=0) + 2 * max_tj
                    + 4 * analysis.tcycle + network.ring_latency())
        validation_horizon = min(required, DEFAULT_HORIZON_CAP)
    return {
        "policies": list(policies),
        "ttr_probe": ttr + 256,
        "sweep_factors": list(sweep_factors),
        # a fractional grid value freezes the round-not-truncate contract
        "ttr_values": [ttr, ttr + 0.5, ttr + 512],
        "baud_rates": list(baud_rates),
        "validation": {
            "policy": validation_policy,
            "horizon": validation_horizon,
        },
    }


def _analysis_rows(network: Network, policy: str,
                   ttr: Optional[int] = None) -> Dict[str, Any]:
    res = ttr_mod.analyse(network, policy, ttr=ttr)
    return {
        "tcycle": res.tcycle,
        "rows": [[sr.master, sr.stream.name, sr.R] for sr in res.per_stream],
    }


def _batch_rows(rows) -> List[List[Any]]:
    return [
        [r.index, r.policy, r.schedulable, r.worst_response, r.worst_slack,
         r.tcycle]
        for r in rows
    ]


def _sweep_rows(rows) -> List[List[Any]]:
    return [
        [r.parameter, r.value, r.policy, r.schedulable, r.worst_response,
         r.worst_slack, r.tcycle]
        for r in rows
    ]


def _compute_analysis(network: Network, config: Dict[str, Any]) -> Dict[str, Any]:
    policies = tuple(config["policies"])
    out: Dict[str, Any] = {"probe_ttr": config["ttr_probe"], "modes": {}}
    for mode in ("fast", "generic"):
        with analysis_mode_set(mode):
            # Base before probe: the probe must revisit masters whose
            # caches the base analysis just warmed.
            base = {p: _analysis_rows(network, p) for p in policies}
            probe = {
                p: _analysis_rows(network, p, ttr=config["ttr_probe"])
                for p in policies
            }
        out["modes"][mode] = {"base": base, "probe": probe}
    # Third leg: the SoA vector kernels.  ``response_rows`` returns the
    # exact ``_analysis_rows`` shape, so the three mode documents stay
    # directly comparable (the kernel-equivalence oracle below relies
    # on that).
    out["modes"]["vectorized"] = {
        "base": {p: vector_mod.response_rows(network, p) for p in policies},
        "probe": {
            p: vector_mod.response_rows(network, p, ttr=config["ttr_probe"])
            for p in policies
        },
    }
    # Each mode's batch summaries come from its own engine.
    for engine, rows in batch_mod.engine_rows([network], policies):
        out["modes"][engine]["batch"] = _batch_rows(rows)
    return out


def _compute_sweep(network: Network, config: Dict[str, Any]) -> Dict[str, Any]:
    policies = tuple(config["policies"])
    ds = sweep_mod.deadline_scale_sweep(network, config["sweep_factors"],
                                        policies=policies)
    tt = sweep_mod.ttr_sweep(network, config["ttr_values"],
                             policies=policies)
    bd = sweep_mod.baud_sweep(network, config["baud_rates"],
                              policies=policies)
    return {
        "deadline_scale": _sweep_rows(ds),
        "ttr": _sweep_rows(tt),
        "baud": _sweep_rows(bd),
        "csv_sha256": section_digest(sweep_mod.rows_to_csv(ds + tt + bd)),
    }


def _compute_roundtrip(network: Network, config: Dict[str, Any]) -> Dict[str, Any]:
    doc = serialization_mod.network_to_dict(network)
    return {"doc_sha256": section_digest(doc)}


def _compute_validation(network: Network, config: Dict[str, Any]) -> Dict[str, Any]:
    vcfg = config["validation"]
    report = validate_mod.validate_network(network, vcfg["policy"],
                                           vcfg["horizon"])
    return {
        "policy": vcfg["policy"],
        "horizon": vcfg["horizon"],
        "rows": [
            [r.name, r.bound, r.observed, r.completed, r.released,
             r.unfinished, r.pending_age, r.effective_observed, r.verdict]
            for r in report.rows
        ],
        "all_sound": report.all_sound,
        "tcycle_bound": report.detail["tcycle_bound"],
        "max_trr_observed": report.detail["max_trr_observed"],
        "events": report.detail["events"],
    }


_SECTION_FNS = {
    "analysis": _compute_analysis,
    "sweep": _compute_sweep,
    "roundtrip": _compute_roundtrip,
    "validation": _compute_validation,
}


def compute_golden(
    network: Network,
    config: Dict[str, Any],
    sections: Sequence[str] = GOLDEN_SECTIONS,
) -> Dict[str, Any]:
    """The requested golden sections for ``network`` under ``config``."""
    unknown = set(sections) - set(_SECTION_FNS)
    if unknown:
        raise ValueError(f"unknown golden section(s) {sorted(unknown)}")
    return {name: _SECTION_FNS[name](network, config) for name in sections}


def first_difference(a: Any, b: Any, path: str = "$") -> Optional[str]:
    """Human-readable locator of the first divergence between two
    JSON-like values (golden vs recomputed), or ``None`` if equal."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{path}.{key}: only in recomputation"
            if key not in b:
                return f"{path}.{key}: missing from recomputation"
            sub = first_difference(a[key], b[key], f"{path}.{key}")
            if sub:
                return sub
        return None
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            sub = first_difference(x, y, f"{path}[{i}]")
            if sub:
                return sub
        return None
    if a != b:
        return f"{path}: golden {a!r} != recomputed {b!r}"
    return None


def check_network_golden(
    network_doc: Dict[str, Any],
    config: Dict[str, Any],
    golden: Dict[str, Any],
    fail_fast: bool = False,
) -> List[Tuple[str, str]]:
    """Recompute each golden section and compare bit-exactly.

    Returns ``(section, detail)`` mismatch pairs — empty means the
    entry passes.  Sections are evaluated cheap-first
    (analysis → sweep → roundtrip → validation: the simulation is the
    dominant cost) and ``fail_fast`` stops at the first mismatch, which
    is what makes the mutation harness affordable.

    Beyond the golden comparison proper, two self-consistency oracles
    run regardless of the frozen values: fast-vs-generic analysis
    equality, and scenario-document round-trip identity against the
    *stored* document (not just its recorded digest).
    """
    mismatches: List[Tuple[str, str]] = []
    network = serialization_mod.network_from_dict(network_doc)
    for section in GOLDEN_SECTIONS:
        if section not in golden:
            continue
        recomputed = _SECTION_FNS[section](network, config)
        if canonical_json(recomputed) != canonical_json(golden[section]):
            detail = first_difference(golden[section], recomputed) or "differs"
            mismatches.append((section, detail))
        if section == "analysis":
            modes = recomputed["modes"]
            generic = modes["generic"]
            for other in ("fast", "vectorized"):
                if other not in modes:
                    continue  # goldens frozen before the mode existed
                if canonical_json(modes[other]) != canonical_json(generic):
                    mismatches.append((
                        "analysis:kernel-equivalence",
                        first_difference(generic, modes[other])
                        or f"{other} != generic",
                    ))
        if section == "roundtrip":
            redoc = serialization_mod.network_to_dict(network)
            if canonical_json(redoc) != canonical_json(network_doc):
                mismatches.append((
                    "roundtrip:identity",
                    first_difference(network_doc, redoc) or "doc not a fixed point",
                ))
        if mismatches and fail_fast:
            break
    return mismatches
