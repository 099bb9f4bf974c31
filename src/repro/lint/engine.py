"""Single-pass AST visitor engine, rule registry, and suppressions.

One parse per file, one traversal per file: the engine walks the AST
exactly once and dispatches every node to each active rule's
``visit_<NodeType>`` handler.  Rules that need more than one file
(cross-file resolution, whole-program flow) work in :meth:`Rule.finalize`
or in the flow layer (:mod:`repro.lint.flow`).

Suppressions are inline comments, collected from the token stream (the
AST does not keep comments):

* ``# lint: disable=REP001`` on a line suppresses that rule for the
  findings anchored to that line;
* the same comment on a line of its own also covers the next
  non-comment line (for statements too long to share a line with an
  explanation);
* ``# lint: disable-file=REP001`` anywhere suppresses the rule for the
  whole file.

A comma list (``disable=REP001,REP002``) names several rules; text
after the rule list is the human justification and is encouraged —
the repo convention is ``# lint: disable=REPxxx — <reason>``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: ``# lint: disable=REP001,REP002 — reason`` / ``# lint: disable-file=...``
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*(disable(?:-file)?)\s*=\s*([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)"
)


def collect_suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Parse the inline suppression comments out of one file's source.

    Returns ``(line -> rule ids, file-wide rule ids)``.  Shared by the
    per-file engine (:class:`FileContext`) and the whole-program flow
    layer (:mod:`repro.lint.flow`), so a ``# lint: disable=REPxxx``
    means the same thing to both.
    """
    line_suppressions: Dict[int, Set[str]] = {}
    file_suppressions: Set[str] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return line_suppressions, file_suppressions
    code_lines: Set[int] = set()
    comments: List[Tuple[int, bool, str]] = []
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            standalone = tok.line.lstrip().startswith("#")
            comments.append((tok.start[0], standalone, tok.string))
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code_lines.add(tok.start[0])
    for line, standalone, text in comments:
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        rules = {r.strip() for r in m.group(2).split(",")}
        if m.group(1) == "disable-file":
            file_suppressions |= rules
            continue
        line_suppressions.setdefault(line, set()).update(rules)
        if standalone:
            nxt = min((ln for ln in code_lines if ln > line), default=None)
            if nxt is not None:
                line_suppressions.setdefault(nxt, set()).update(rules)
    return line_suppressions, file_suppressions


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_doc(self) -> Dict[str, Any]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}


class Rule:
    """Base class every lint rule extends.

    Subclasses set :attr:`rule_id`/:attr:`title`/:attr:`rationale`,
    override :meth:`applies` to scope themselves to module paths, and
    implement ``visit_<NodeType>(ctx, node)`` handlers.  Repo-level
    checks (cross-file resolution, registry coherence) go in
    :meth:`finalize`.
    """

    rule_id: str = "REP000"
    title: str = ""
    rationale: str = ""

    def applies(self, ctx: "FileContext") -> bool:
        return True

    def finalize(self, project: "ProjectContext") -> Iterable[Finding]:
        return ()


class FileContext:
    """Everything the rules can see about the file being linted."""

    def __init__(self, path: Path, display: str, source: str,
                 tree: ast.Module, project: "ProjectContext") -> None:
        self.path = path
        self.display = display
        self.source = source
        self.tree = tree
        self.project = project
        #: repro-relative module path, e.g. ``("profibus", "dm")`` for
        #: ``src/repro/profibus/dm.py`` (``None`` outside any ``repro``
        #: package dir).  Rules scope themselves on this.
        self.relmod: Optional[Tuple[str, ...]] = _relmod(path)
        self.findings: List[Finding] = []
        self.suppressed_count: int = 0
        self._line_suppressions, self._file_suppressions = \
            collect_suppressions(self.source)

    # -- suppressions --------------------------------------------------

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if rule_id in self._file_suppressions:
            return True
        return rule_id in self._line_suppressions.get(line, set())

    # -- reporting -----------------------------------------------------

    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.is_suppressed(rule_id, line):
            self.suppressed_count += 1
            return
        self.findings.append(Finding(rule=rule_id, path=self.display,
                                     line=line, col=col, message=message))


def _relmod(path: Path) -> Optional[Tuple[str, ...]]:
    parts = path.resolve().with_suffix("").parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            rel = parts[i + 1:]
            return tuple(rel) if rel else ("__init__",)
    return None


class ProjectContext:
    """Repo-level context shared across files: the source root (the
    directory containing the ``repro`` package), lazily parsed module
    ASTs for cross-file resolution, and the set of linted files."""

    def __init__(self, files: Sequence[Path],
                 displays: Optional[Dict[Path, str]] = None) -> None:
        self.files = [p.resolve() for p in files]
        #: resolved path -> the path string the caller named it by, so
        #: finalize findings render consistently with per-file ones
        self.displays: Dict[Path, str] = displays or {}
        self.root: Optional[Path] = None
        for p in self.files:
            parts = p.parts
            for i in range(len(parts) - 1, -1, -1):
                if parts[i] == "repro":
                    self.root = Path(*parts[:i]) if i else Path(p.anchor)
                    break
            if self.root is not None:
                break
        self._ast_cache: Dict[str, Optional[Tuple[Path, ast.Module]]] = {}

    def module_path(self, dotted: str) -> Optional[Path]:
        """Filesystem path of a dotted module inside the linted tree."""
        if self.root is None:
            return None
        base = self.root.joinpath(*dotted.split("."))
        for candidate in (base.with_suffix(".py"), base / "__init__.py"):
            if candidate.is_file():
                return candidate
        return None

    def module_ast(self, dotted: str) -> Optional[Tuple[Path, ast.Module]]:
        """Parse (and cache) a module of the linted tree by dotted path;
        ``None`` when the module does not exist or does not parse."""
        if dotted in self._ast_cache:
            return self._ast_cache[dotted]
        result: Optional[Tuple[Path, ast.Module]] = None
        path = self.module_path(dotted)
        if path is not None:
            try:
                result = (path, ast.parse(path.read_text()))
            except (OSError, SyntaxError):
                result = None
        self._ast_cache[dotted] = result
        return result

    def display_for(self, path: Path) -> str:
        return self.displays.get(path.resolve(), str(path))

    def doc_text(self, name: str) -> Optional[str]:
        """Contents of a repo-root document (e.g. ``PERF.md``), searched
        upward from the source root."""
        if self.root is None:
            return None
        for base in (self.root, *self.root.parents):
            candidate = base / name
            if candidate.is_file():
                try:
                    return candidate.read_text()
                except OSError:  # pragma: no cover
                    return None
        return None


class LintEngine:
    """Drives the one-pass traversal: node dispatch to every rule."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)

    def lint_file(self, path: Path, display: str,
                  project: ProjectContext) -> Optional[FileContext]:
        """Parse and lint one file; ``None`` if it cannot be read."""
        try:
            source = path.read_text()
        except OSError:
            return None
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            ctx = FileContext(path, display, "", ast.Module(body=[],
                                                            type_ignores=[]),
                              project)
            ctx.findings.append(Finding(
                rule="REP000", path=display, line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}"))
            return ctx
        ctx = FileContext(path, display, source, tree, project)
        active = [r for r in self.rules if r.applies(ctx)]
        if active:
            self._walk(ctx, tree, active)
        return ctx

    def _walk(self, ctx: FileContext, node: ast.AST,
              rules: Sequence[Rule]) -> None:
        name = type(node).__name__
        for rule in rules:
            handler = getattr(rule, "visit_" + name, None)
            if handler is not None:
                handler(ctx, node)
        for child in ast.iter_child_nodes(node):
            self._walk(ctx, child, rules)
