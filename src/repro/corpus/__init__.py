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

from .._lazy import lazy_exports

_EXPORTS = {
    "CORPUS_SCHEMA": "entry",
    "GOLDEN_SECTIONS": "entry",
    "CorpusEntry": "entry",
    "canonical_json": "entry",
    "section_digest": "entry",
    "validate_entry_doc": "entry",
    "check_network_golden": "golden",
    "compute_golden": "golden",
    "default_config": "golden",
    "MUTANTS": "mutants",
    "Mutant": "mutants",
    "MutationReport": "mutants",
    "run_mutation_harness": "mutants",
    "DEFAULT_CORPUS_DIR": "store",
    "CheckReport": "store",
    "PromotionResult": "store",
    "append_entry": "store",
    "check_corpus": "store",
    "load_corpus": "store",
    "promote_counterexamples": "store",
    "promote_report_doc": "store",
    "record_network": "store",
    "refreeze_corpus": "store",
    "seed_entries": "store",
    "write_seed_corpus": "store",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
