"""File collection and orchestration for one lint run.

:func:`run_lint` is the single entrypoint both the CLI and the tests
use: collect ``.py`` files from the given paths (skipping the
known-bad ``lint_fixtures`` trees unless asked), run the per-file
engine over each, run the flow layer's whole-program passes over the
call graph, and return a :class:`LintResult` the reporters render.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .engine import Finding, LintEngine, ProjectContext, Rule
from .flow import FLOW_RULES, make_flow_rules, run_flow
from .graph import build_graph, graph_doc, render_graph
from .report import report_doc
from .rules import ALL_RULES, make_rules


class LintUsageError(ValueError):
    """Bad invocation (unknown rule, missing path) — exit code 2."""


#: Directory name holding intentionally-bad trees, excluded from
#: default discovery (satellite: a bare ``repro-cli lint .`` must not
#: drown in them).
FIXTURE_DIR = "lint_fixtures"


@dataclass
class LintResult:
    findings: List[Finding]
    files: int
    rules: List[Rule]
    suppressed: int = 0
    flow_rules: List[Any] = field(default_factory=list)
    graph_stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_doc(self) -> Dict[str, Any]:
        return report_doc(self.findings, files=self.files,
                          rules=list(self.rules) + list(self.flow_rules),
                          suppressed=self.suppressed,
                          graph=self.graph_stats)


def _inside_fixtures(p: Path, root: Path) -> bool:
    try:
        rel = p.relative_to(root)
    except ValueError:
        return False
    return FIXTURE_DIR in rel.parts


def collect_files(
    paths: Sequence[Union[str, Path]],
    *,
    include_fixtures: bool = False,
) -> List[Path]:
    """Expand the given files/directories into a sorted list of ``.py``
    files; a path that does not exist is a usage error.

    Files under a ``lint_fixtures`` directory *below* a given root are
    skipped unless ``include_fixtures`` — naming a fixture file or a
    directory inside ``lint_fixtures`` explicitly always keeps it (the
    kill-matrix tests lint fixture trees by pointing straight at them).
    """
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            keep_all = include_fixtures or FIXTURE_DIR in p.parts
            for q in sorted(q for q in p.rglob("*.py") if q.is_file()):
                if keep_all or not _inside_fixtures(q, p):
                    out.append(q)
        elif p.is_file():
            out.append(p)
        else:
            raise LintUsageError(f"no such file or directory: {raw}")
    # de-duplicate while keeping order (a file named twice lints once)
    seen = set()
    unique: List[Path] = []
    for p in out:
        key = p.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def run_lint(
    paths: Sequence[Union[str, Path]],
    *,
    rule_ids: Optional[Sequence[str]] = None,
    flow: bool = True,
    include_fixtures: bool = False,
    dump_graph: Optional[Union[str, Path]] = None,
) -> LintResult:
    """Lint the given paths.

    ``flow`` (default on) additionally builds the whole-program call
    graph and runs the interprocedural REP010–REP013 passes;
    ``dump_graph`` writes the deterministic callgraph artifact and
    forces graph construction even under ``flow=False``.
    """
    if rule_ids is not None:
        known = set(ALL_RULES) | set(FLOW_RULES)
        unknown = [r for r in rule_ids if r not in known]
        if unknown:
            raise LintUsageError(
                f"unknown rule id(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})")
        syntactic_ids = [r for r in rule_ids if r in ALL_RULES]
        flow_ids: Optional[Sequence[str]] = \
            [r for r in rule_ids if r in FLOW_RULES]
    else:
        syntactic_ids = None
        flow_ids = None
    try:
        rules = make_rules(syntactic_ids)
    except ValueError as exc:
        raise LintUsageError(str(exc))
    flow_rules = make_flow_rules(flow_ids) if flow else []

    files = collect_files(paths, include_fixtures=include_fixtures)

    project = ProjectContext(files,
                             {p.resolve(): str(p) for p in files})
    engine = LintEngine(rules)

    findings: List[Finding] = []
    suppressed = 0
    linted = 0
    for path in files:
        ctx = engine.lint_file(path, str(path), project)
        if ctx is None:
            raise LintUsageError(f"cannot read {path}")
        linted += 1
        findings.extend(ctx.findings)
        suppressed += ctx.suppressed_count
    for rule in rules:
        findings.extend(rule.finalize(project))

    graph_stats: Optional[Dict[str, int]] = None
    if flow_rules or dump_graph is not None:
        graph = build_graph([(p, str(p)) for p in files])
        graph_stats = {
            "modules": len(graph.modules),
            "functions": len(graph.functions),
            "edges": sum(len(v) for v in graph.calls.values()),
            "unresolved": sum(len(v) for v in graph.unresolved.values()),
        }
        if flow_rules:
            flow_findings, flow_suppressed = run_flow(graph, flow_rules)
            findings.extend(flow_findings)
            suppressed += flow_suppressed
        if dump_graph is not None:
            from ..schemas import CALLGRAPH_SCHEMA
            Path(dump_graph).write_text(
                render_graph(graph_doc(graph, CALLGRAPH_SCHEMA)),
                encoding="utf-8")

    findings.sort(key=Finding.sort_key)

    return LintResult(findings=findings, files=linted, rules=rules,
                      suppressed=suppressed, flow_rules=flow_rules,
                      graph_stats=graph_stats)
