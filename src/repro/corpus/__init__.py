"""Golden regression corpus.

The fuzz campaigns of :mod:`repro.fuzz` *find* soundness bugs; this
subpackage *keeps* them found.  A corpus is a versioned on-disk set of
JSONL entries (``corpus/*.jsonl``), each a serialized network plus
provenance plus **frozen bit-exact goldens** of everything the toolbox
computes about it:

* per-policy analysis results (eqs. (11)/(16)/(17)), on both the fast
  kernel path and the generic exact path, at the entry's TTR *and* at a
  probe TTR (so stale per-master caches cannot hide);
* batch-driver summaries through :func:`repro.perf.batch.analyse_many`;
* sweep rows (deadline-scale / TTR / baud) and their CSV rendering;
* scenario-document round-trip identity;
* token-bus sim-validation verdicts at a pinned horizon.

``repro-cli corpus check`` recomputes every section and compares it
bit-exactly against the frozen golden — a silent regression in any
analysis layer fails in seconds, long after the fuzz seed that first
found it stopped rediscovering it.  ``corpus promote`` (and the
``corpus_dir`` campaign option) turns every shrunk fuzz counterexample
into a permanent corpus entry at campaign end.

The mutation-strength harness (:mod:`repro.corpus.mutants`) measures
the corpus's killing power: it injects known-bad analysis variants
(dropped blocking term, truncated ``scaled_deadline``, single-instance
busy period, stale interference cache, ...) through the same
late-bound module seams the golden computation calls through, and
asserts ``corpus check`` kills each one.
"""

from .entry import (
    CORPUS_SCHEMA,
    GOLDEN_SECTIONS,
    CorpusEntry,
    canonical_json,
    section_digest,
    validate_entry_doc,
)
from .golden import check_network_golden, compute_golden, default_config
from .mutants import MUTANTS, Mutant, MutationReport, run_mutation_harness
from .store import (
    DEFAULT_CORPUS_DIR,
    CheckReport,
    PromotionResult,
    append_entry,
    check_corpus,
    load_corpus,
    promote_counterexamples,
    promote_report_doc,
    record_network,
    refreeze_corpus,
    seed_entries,
    write_seed_corpus,
)

__all__ = [
    "CORPUS_SCHEMA",
    "CheckReport",
    "CorpusEntry",
    "DEFAULT_CORPUS_DIR",
    "GOLDEN_SECTIONS",
    "MUTANTS",
    "Mutant",
    "MutationReport",
    "PromotionResult",
    "append_entry",
    "canonical_json",
    "check_corpus",
    "check_network_golden",
    "compute_golden",
    "default_config",
    "load_corpus",
    "promote_counterexamples",
    "promote_report_doc",
    "record_network",
    "refreeze_corpus",
    "run_mutation_harness",
    "section_digest",
    "seed_entries",
    "validate_entry_doc",
    "write_seed_corpus",
]
