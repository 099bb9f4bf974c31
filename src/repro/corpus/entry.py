"""Corpus entry model and canonical digests.

One entry = one network frozen with everything the toolbox computes
about it.  The on-disk form is one JSON object per line of a
``corpus/*.jsonl`` file::

    {
      "schema": "profibus-rt/corpus/v1",
      "id": "scenario:factory-cell",
      "fingerprint": "sha256 of the canonical network content",
      "provenance": {"source": "scenario", "scenario": "factory-cell"},
      "network": { ... scenario document ... },
      "config":  { ... pinned evaluation knobs ... },
      "golden":  {"analysis": {...}, "sweep": {...},
                  "roundtrip": {...}, "validation": {...}},
      "digests": {"analysis": "sha256...", ...}
    }

The ``fingerprint`` is :func:`repro.profibus.serialization.network_fingerprint`
of the stored network — the same value key the shared result cache and
the fuzz checkpoints use — so "is this network content already frozen?"
is one set lookup, however the entry was named.

Everything is canonicalised (sorted keys, no whitespace) before
digesting, so ``corpus check`` compares *bit-exact* recomputations: a
one-unit drift in a single response time changes the section digest.
The full golden sections are stored alongside their digests so
``corpus diff`` can point at the first diverging value instead of just
reporting a hash mismatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict

from ..profibus import serialization as serialization_mod
from ..profibus.network import Network
from ..schemas import CORPUS_SCHEMA

#: Golden sections, in the (cheap-first) order ``check`` evaluates them.
GOLDEN_SECTIONS = ("analysis", "sweep", "roundtrip", "validation")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def section_digest(obj: Any) -> str:
    """SHA-256 over the canonical JSON encoding."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CorpusEntry:
    """One frozen network + its golden results."""

    entry_id: str
    provenance: Dict[str, Any]
    network_doc: Dict[str, Any]
    config: Dict[str, Any]
    golden: Dict[str, Any]
    digests: Dict[str, str]
    #: canonical content fingerprint of ``network_doc`` (value identity)
    fingerprint: str = ""

    def network(self) -> Network:
        """Parse the stored scenario document (a fresh instance per
        call)."""
        return serialization_mod.network_from_dict(self.network_doc)

    def to_doc(self) -> Dict[str, Any]:
        doc = {
            "schema": CORPUS_SCHEMA,
            "id": self.entry_id,
            "provenance": self.provenance,
            "network": self.network_doc,
            "config": self.config,
            "golden": self.golden,
            "digests": self.digests,
        }
        if self.fingerprint:
            doc["fingerprint"] = self.fingerprint
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "CorpusEntry":
        validate_entry_doc(doc)
        return cls(
            entry_id=doc["id"],
            provenance=doc["provenance"],
            network_doc=doc["network"],
            config=doc["config"],
            golden=doc["golden"],
            digests=doc["digests"],
            fingerprint=doc.get("fingerprint", ""),
        )


def validate_entry_doc(doc: Dict[str, Any]) -> None:
    """Raise ``ValueError`` when ``doc`` is not a well-formed v1 entry.

    Also re-derives every section digest from the stored golden — a
    hand-edited golden that no longer matches its recorded digest is a
    corrupt entry, not a passing one — and, when the entry carries a
    ``fingerprint``, recomputes it from the stored network (a stale
    fingerprint would silently break the value-identity dedup paths).
    """
    if not isinstance(doc, dict):
        raise ValueError("corpus entry must be a JSON object")
    if doc.get("schema") != CORPUS_SCHEMA:
        raise ValueError(f"unexpected corpus schema {doc.get('schema')!r}")
    for key in ("id", "provenance", "network", "config", "golden", "digests"):
        if key not in doc:
            raise ValueError(f"corpus entry missing key {key!r}")
    if not isinstance(doc["id"], str) or not doc["id"]:
        raise ValueError("corpus entry id must be a non-empty string")
    golden, digests = doc["golden"], doc["digests"]
    for section in GOLDEN_SECTIONS:
        if section not in golden:
            raise ValueError(
                f"entry {doc['id']!r} missing golden section {section!r}"
            )
        expected = digests.get(section)
        actual = section_digest(golden[section])
        if expected != actual:
            raise ValueError(
                f"entry {doc['id']!r}: stored digest for {section!r} "
                f"({expected}) does not match its golden ({actual}); "
                "the entry was hand-edited or truncated — re-record it"
            )
    stored_fp = doc.get("fingerprint")
    if stored_fp is not None:
        if not isinstance(stored_fp, str) or not stored_fp:
            raise ValueError(
                f"entry {doc['id']!r}: fingerprint must be a non-empty "
                "string when present"
            )
        # hash the stored document directly (record always writes the
        # canonical network_to_dict form) — deliberately NOT through the
        # late-bound serialisation seam, which the mutation harness
        # patches; entry validation must stay trustworthy under mutants
        actual_fp = serialization_mod.network_doc_fingerprint(doc["network"])
        if stored_fp != actual_fp:
            raise ValueError(
                f"entry {doc['id']!r}: stored fingerprint ({stored_fp}) "
                f"does not match its network content ({actual_fp}); "
                "the network was edited — re-record the entry"
            )
