"""Text and JSON reporters for lint results.

The JSON form is itself a frozen contract — schema
``profibus-rt/lint/v3`` (:data:`repro.schemas.LINT_SCHEMA`), documented
in ``PERF.md`` — so CI jobs and editor integrations can consume lint
output without scraping text.  v3 replaces v2 (one live version per
family, per the registry invariant): ``counts`` no longer carries
``baselined``.  The rule list spans both the per-file and the flow
rules, and a ``graph`` key carries the call-graph summary (``null``
when the flow layer was skipped)::

    {
      "schema": "profibus-rt/lint/v3",
      "ok": false,
      "files": 74,
      "rules": [{"id": "REP001", "title": "exact-arithmetic",
                 "rationale": "..."}],
      "findings": [{"rule": "REP001", "path": "src/repro/profibus/dm.py",
                    "line": 12, "col": 8, "message": "..."}],
      "counts": {"findings": 1, "suppressed": 14},
      "graph": {"modules": 40, "functions": 310, "edges": 700,
                "unresolved": 420}
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from ..schemas import LINT_SCHEMA
from .engine import Finding, Rule


def report_doc(findings: Sequence[Finding], *, files: int,
               rules: Sequence[Any], suppressed: int,
               graph: Optional[Dict[str, int]] = None) -> Dict[str, Any]:
    """The schema-versioned report document."""
    return {
        "schema": LINT_SCHEMA,
        "ok": not findings,
        "files": files,
        "rules": [
            {"id": r.rule_id, "title": r.title, "rationale": r.rationale}
            for r in rules
        ],
        "findings": [f.to_doc() for f in
                     sorted(findings, key=Finding.sort_key)],
        "counts": {
            "findings": len(findings),
            "suppressed": suppressed,
        },
        "graph": dict(graph) if graph is not None else None,
    }


def render_json(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_text(doc: Dict[str, Any]) -> str:
    """Human-oriented rendering of the same document."""
    lines: List[str] = []
    for f in doc["findings"]:
        lines.append(f"{f['path']}:{f['line']}:{f['col'] + 1}: "
                     f"{f['rule']} {f['message']}")
    counts = doc["counts"]
    tail = (f"lint: {counts['findings']} finding(s) in {doc['files']} "
            f"file(s)")
    if counts["suppressed"]:
        tail += f" ({counts['suppressed']} suppressed inline)"
    lines.append(tail)
    return "\n".join(lines) + "\n"
