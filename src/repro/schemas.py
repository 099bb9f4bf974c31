"""`repro.schemas` — the central registry of wire/file schema versions.

Every durable document this toolbox emits or accepts is tagged with a
``profibus-rt/<name>/v<k>`` schema string.  Those strings are **frozen
contracts**: a consumer that sees an unknown tag refuses the document
instead of guessing.  Before this module existed the tags lived as
scattered string literals, so two modules could silently drift apart —
now every tag is defined exactly once here and *imported* at each use
site.  The ``REP003`` rule of :mod:`repro.lint` statically enforces
that discipline: any ``profibus-rt/...`` literal outside this module,
any tag not in this registry, any family registered twice at different
versions, and any registry entry undocumented in ``PERF.md`` is a lint
failure.

Bumping a version is a deliberate act: change the constant here, update
the producers/consumers, document the new shape in ``PERF.md``, and the
lint pass keeps every mention coherent.  A family whose older version
is still read keeps that tag as ``<CONSTANT>_V<k>`` beside the current
constant (``TRACE_SCHEMA_V1`` beside ``TRACE_SCHEMA``); ``REP003``
accepts such a constant only at a version older than the current one,
and :data:`SCHEMAS` lists current versions only.
"""

from __future__ import annotations

from typing import Dict

#: One-shot analysis/sweep/admission/monitor request & result documents
#: (:mod:`repro.api`).  v2 is v1 without the request's ``mode`` field.
API_SCHEMA = "profibus-rt/api/v2"

#: JSON-lines wire protocol of the resident analysis daemon
#: (:mod:`repro.service`).
SERVICE_SCHEMA = "profibus-rt/service/v1"

#: Canonical network content hash — the value-identity key for result
#: caching, corpus dedup, and checkpoint rows
#: (:func:`repro.profibus.serialization.network_fingerprint`).
FINGERPRINT_SCHEMA = "profibus-rt/fingerprint/v1"

#: Golden regression corpus entries, one JSONL row per network
#: (:mod:`repro.corpus`).
CORPUS_SCHEMA = "profibus-rt/corpus/v1"

#: ``FUZZ_report.json`` campaign reports (:mod:`repro.fuzz.report`).
FUZZ_SCHEMA = "profibus-rt/fuzz/v2"

#: Kill-safe streaming campaign checkpoints
#: (:mod:`repro.fuzz.campaign`).
FUZZ_CHECKPOINT_SCHEMA = "profibus-rt/fuzz-checkpoint/v1"

#: ``repro-cli lint`` JSON reports (:mod:`repro.lint`).  v3 replaces v2:
#: ``counts`` drops ``baselined`` (the baseline file is gone).  The rule
#: catalogue spans the interprocedural flow rules and a ``graph`` key
#: summarises the call graph (null under ``--no-flow``).
LINT_SCHEMA = "profibus-rt/lint/v3"

#: ``repro-cli lint --dump-graph`` whole-program call-graph artifacts
#: (:mod:`repro.lint.graph`) — byte-deterministic for a given tree.
CALLGRAPH_SCHEMA = "profibus-rt/callgraph/v1"

#: Transportable trace documents (the ``trace`` of a ``monitor``
#: request): one list per :class:`repro.sim.trace.BusEvent` field under
#: ``columns`` (:mod:`repro.monitor.trace_io`).
TRACE_SCHEMA = "profibus-rt/trace/v2"

#: The row-wise trace shape, still read: documents holding an
#: ``events`` list of event objects, and every trace *file* — the native
#: JSONL export of a :class:`repro.sim.trace.BusTrace` (its header line
#: carries this tag) and the external CSV/JSONL shape for foreign logs.
TRACE_SCHEMA_V1 = "profibus-rt/trace/v1"

#: Streaming online bound-checking reports of the trace monitor
#: (:mod:`repro.monitor.report`).
MONITOR_SCHEMA = "profibus-rt/monitor/v1"


#: Registry of every frozen schema tag, constant name -> value.  Built
#: from the module namespace so a constant can never be left out.
SCHEMAS: Dict[str, str] = {
    name: value
    for name, value in list(globals().items())
    if name.endswith("_SCHEMA") and isinstance(value, str)
}


def schema_family(value: str) -> str:
    """The family (name without the version suffix) of a schema tag:
    ``profibus-rt/fuzz/v2`` -> ``profibus-rt/fuzz``."""
    head, _, version = value.rpartition("/")
    if not head or not version.startswith("v"):
        raise ValueError(f"not a schema tag: {value!r}")
    return head


#: family -> full tag, for drift detection (one version per family).
FAMILIES: Dict[str, str] = {
    schema_family(value): value for value in SCHEMAS.values()
}
