"""Deterministic project-wide import/call graph over the linted tree.

The graph is the substrate every flow rule runs on: nodes are the
callable definitions of :mod:`repro.lint.symbols`, edges are
AST-resolved call sites.  Resolution is deliberately *static and
honest* — a call is either resolved against the symbol tables (bare
names through local scopes, module bindings, and import aliases;
attribute chains through module aliases, ``self``, and
``module.Class.method`` paths) or it is **recorded as unresolved with a
category**, never silently dropped:

``local``
    the callee is a name bound inside an enclosing function (a
    parameter, a variable, a nested def the builder cannot prove);
``builtin``
    a Python builtin (``len``, ``print``, ``open`` ...);
``external``
    resolves through an import to a module outside the linted tree
    (``numpy``, the stdlib, an absent package);
``method``
    an attribute call whose receiver is an arbitrary object
    (``stream.cycle_bits(phy)``) — no type inference is attempted;
``unknown``
    a bare name with **no** binding anywhere: not local, not module
    level, not imported, not a builtin.  (These are what the
    REP013 pickle-reachability pass hunts inside pool-submitted
    closures: a name bound only at runtime cannot be imported by a
    worker.)

Everything is ordered by construction (files in the caller's sorted
order, AST order within a file), and :func:`graph_doc` re-sorts into a
canonical schema-versioned artifact (``profibus-rt/callgraph/v1``)
that is byte-identical across runs on the same tree — CI diffs two
dumps to pin that down.
"""

from __future__ import annotations

import ast
import builtins
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .symbols import (FunctionInfo, ModuleSymbols, build_module_symbols,
                      local_bindings, local_imports)

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, anchored at its source location."""

    caller: str   #: qualname of the calling function
    callee: str   #: qualname of the resolved target
    line: int
    col: int


@dataclass(frozen=True)
class UnresolvedCall:
    """One call the resolver could not (or will not) resolve."""

    caller: str
    name: str      #: textual callee (``len``, ``s.cycle_bits`` ...)
    category: str  #: ``local`` | ``builtin`` | ``external`` | ``method`` | ``unknown``
    line: int
    col: int


#: Marker qualname prefix for calls resolved to a *class* (constructor):
#: the edge goes to ``<module>.<Class>`` which has no function body.
class _Unresolved(Exception):
    def __init__(self, category: str) -> None:
        self.category = category


@dataclass
class CallGraph:
    """The whole-program call graph plus its symbol tables."""

    modules: Dict[str, ModuleSymbols] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)
    callers: Dict[str, List[CallSite]] = field(default_factory=dict)
    unresolved: Dict[str, List[UnresolvedCall]] = field(default_factory=dict)
    #: display path -> module, for suppression lookups on findings
    by_display: Dict[str, ModuleSymbols] = field(default_factory=dict)
    #: files that failed to read/parse, recorded — never silently dropped
    skipped: List[Tuple[str, str]] = field(default_factory=list)

    def callees_of(self, qualname: str) -> List[CallSite]:
        return self.calls.get(qualname, [])

    def callers_of(self, qualname: str) -> List[CallSite]:
        return self.callers.get(qualname, [])

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def suppressed(self, rule_id: str, display: str, line: int) -> bool:
        mod = self.by_display.get(display)
        return mod is not None and mod.is_suppressed(rule_id, line)


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


class _Resolver:
    """Resolves call expressions of one function against the graph."""

    def __init__(self, graph: CallGraph, mod: ModuleSymbols,
                 fn: FunctionInfo) -> None:
        self.graph = graph
        self.mod = mod
        self.fn = fn
        # Local scope chain: enclosing functions outermost-first, then
        # the function itself, each frame its bindings and the targets
        # of its imports.  A name bound in any frame shadows the module
        # scope.
        self._frames = []
        for node in [mod.functions[local].node for local in fn.enclosing
                     if local in mod.functions] + [fn.node]:
            self._frames.append((local_bindings(node),
                                 local_imports(node, mod.name)))

    def _local_kind(self, name: str) -> Optional[str]:
        for bindings, _imports in reversed(self._frames):
            kind = bindings.get(name)
            if kind is not None:
                return kind
        return None

    def _local_import(self, name: str) -> Optional[str]:
        """The dotted target of ``name`` when the innermost frame that
        binds it imports it."""
        for bindings, imports in reversed(self._frames):
            if name in bindings:
                return imports.get(name)
        return None

    def _resolve_in_module(self, mod: ModuleSymbols,
                           parts: Sequence[str], depth: int = 0) -> str:
        """Resolve a 1- or 2-part path inside a module's symbols; the
        returned qualname may name a class (constructor edge)."""
        head = parts[0]
        if len(parts) == 1:
            if head in mod.functions:
                return mod.functions[head].qualname
            if head in mod.classes:
                init = f"{head}.__init__"
                if init in mod.functions:
                    return mod.functions[init].qualname
                return f"{mod.name}.{head}"
            kind = mod.bindings.get(head)
            if kind == "import":
                # one re-export hop (package __init__ facade style)
                target = mod.imports[head]
                return self._resolve_dotted(target.split("."),
                                            depth=depth + 1)
            if kind in ("lambda", "assign"):
                return f"{mod.name}.{head}"
            raise _Unresolved("external" if kind else "unknown")
        # Class.method (or deeper — resolve the first two hops only)
        local = ".".join(parts[:2])
        if local in mod.functions:
            return mod.functions[local].qualname
        if parts[0] in mod.classes and parts[1] in mod.classes[parts[0]]:
            return f"{mod.name}.{local}"
        raise _Unresolved("method")

    def _resolve_dotted(self, parts: Sequence[str], depth: int = 0) -> str:
        """Resolve a fully-dotted path against the tree's modules."""
        if depth > 4:  # re-export / import-cycle guard
            raise _Unresolved("external")
        modules = self.graph.modules
        # longest module prefix wins (repro.perf.kernels.f over repro.perf)
        for cut in range(len(parts) - 1, 0, -1):
            name = ".".join(parts[:cut])
            mod = modules.get(name)
            if mod is not None:
                rest = parts[cut:]
                try:
                    return self._resolve_in_module(mod, rest, depth=depth)
                except _Unresolved as exc:
                    if exc.category == "unknown":
                        # possibly a re-export the symbol table cannot
                        # see (e.g. injected namespace): not in-tree
                        raise _Unresolved("external")
                    raise
        raise _Unresolved("external")

    def resolve(self, call: ast.Call) -> Tuple[Optional[str],
                                               Optional[str], str]:
        """``(qualname, None, "")`` on success, else
        ``(None, textual_name, category)``."""
        func = call.func
        try:
            if isinstance(func, ast.Name):
                return self._resolve_name(func.id), None, ""
            if isinstance(func, ast.Attribute):
                return self._resolve_attribute(func), None, ""
        except _Unresolved as exc:
            chain = _attr_chain(func)
            text = ".".join(chain) if chain else ast.dump(func)[:40]
            return None, text, exc.category
        return None, type(func).__name__, "method"

    def _resolve_name(self, name: str) -> str:
        kind = self._local_kind(name)
        if kind is not None:
            if kind == "def":
                # a nested def visible from this scope
                for prefix in (self.fn.local, *reversed(self.fn.enclosing)):
                    candidate = f"{prefix}.{name}"
                    if candidate in self.mod.functions:
                        return self.mod.functions[candidate].qualname
            target = self._local_import(name)
            if target is not None:
                return self._resolve_dotted(target.split("."))
            raise _Unresolved("local")
        try:
            return self._resolve_in_module(self.mod, (name,))
        except _Unresolved as exc:
            if exc.category == "unknown" and name in _BUILTIN_NAMES:
                raise _Unresolved("builtin")
            raise

    def _resolve_attribute(self, func: ast.Attribute) -> str:
        chain = _attr_chain(func)
        if chain is None:
            raise _Unresolved("method")
        head = chain[0]
        if head == "self" and self.fn.class_name is not None:
            local = f"{self.fn.class_name}.{chain[1]}"
            if local in self.mod.functions:
                return self.mod.functions[local].qualname
            members = self.mod.classes.get(self.fn.class_name, set())
            if chain[1] in members:
                return f"{self.mod.name}.{local}"
            raise _Unresolved("method")
        if self._local_kind(head) is not None:
            target = self._local_import(head)
            if target is None:
                raise _Unresolved("method")
            return self._resolve_dotted(target.split(".") + chain[1:])
        target = self.mod.imports.get(head)
        if target is not None:
            return self._resolve_dotted(target.split(".") + chain[1:])
        if head in self.mod.classes:
            try:
                return self._resolve_in_module(self.mod, chain)
            except _Unresolved:
                raise _Unresolved("method")
        raise _Unresolved("method")


_SKIP_BODIES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def iter_own_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Every ``Call`` in a function body, *excluding* nested def/class
    bodies (those are their own graph nodes) but including lambdas and
    comprehensions (which execute in this frame, conservatively)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SKIP_BODIES):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from iter_own_calls(child)


def build_graph(files: Sequence[Tuple[Path, str]]) -> CallGraph:
    """Build the whole-program graph over ``(path, display)`` files.

    Determinism: callers must pass files in a stable order (the runner
    passes its sorted collection); modules, functions, and edges then
    inherit AST order, and :func:`graph_doc` canonicalises the rest.
    """
    graph = CallGraph()
    symbol_tables: List[ModuleSymbols] = []
    for path, display in files:
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError) as exc:
            graph.skipped.append((display, f"{type(exc).__name__}: {exc}"))
            continue
        mod = build_module_symbols(path, display, source, tree)
        if mod.name in graph.modules:
            # two files claiming one dotted name (e.g. sibling fixture
            # trees linted together): keep both, the later one keyed by
            # its unambiguous display path
            mod.name = display
            for info in mod.functions.values():
                info.qualname = f"{mod.name}.{info.local}"
                info.module = mod.name
        graph.modules[mod.name] = mod
        graph.by_display[display] = mod
        symbol_tables.append(mod)

    for mod in symbol_tables:
        for local in mod.functions:
            info = mod.functions[local]
            graph.functions[info.qualname] = info

    for mod in symbol_tables:
        for local in mod.functions:
            info = mod.functions[local]
            resolver = _Resolver(graph, mod, info)
            sites: List[CallSite] = []
            misses: List[UnresolvedCall] = []
            for call in iter_own_calls(info.node):
                qual, text, category = resolver.resolve(call)
                if qual is not None:
                    sites.append(CallSite(
                        caller=info.qualname, callee=qual,
                        line=call.lineno, col=call.col_offset))
                else:
                    misses.append(UnresolvedCall(
                        caller=info.qualname, name=text or "?",
                        category=category,
                        line=call.lineno, col=call.col_offset))
            if sites:
                graph.calls[info.qualname] = sites
                for site in sites:
                    graph.callers.setdefault(site.callee, []).append(site)
            if misses:
                graph.unresolved[info.qualname] = misses
    return graph


def graph_doc(graph: CallGraph, schema: str) -> Dict[str, Any]:
    """The canonical, schema-versioned call-graph document."""
    modules = []
    for name in sorted(graph.modules):
        mod = graph.modules[name]
        modules.append({
            "name": name,
            "path": mod.display,
            "imports": {alias: mod.imports[alias]
                        for alias in sorted(mod.imports)},
        })
    functions = []
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        calls = sorted(
            ({"callee": s.callee, "line": s.line, "col": s.col}
             for s in graph.calls.get(qualname, [])),
            key=lambda d: (d["line"], d["col"], d["callee"]),
        )
        unresolved = sorted(
            ({"name": u.name, "category": u.category,
              "line": u.line, "col": u.col}
             for u in graph.unresolved.get(qualname, [])),
            key=lambda d: (d["line"], d["col"], d["name"]),
        )
        functions.append({
            "qualname": qualname,
            "path": info.path,
            "line": info.line,
            "kind": info.kind,
            "async": info.is_async,
            "calls": calls,
            "unresolved": unresolved,
        })
    n_edges = sum(len(s) for s in graph.calls.values())
    n_unresolved = sum(len(u) for u in graph.unresolved.values())
    return {
        "schema": schema,
        "modules": modules,
        "functions": functions,
        "skipped": [{"path": p, "error": e}
                    for p, e in sorted(graph.skipped)],
        "counts": {
            "modules": len(modules),
            "functions": len(functions),
            "edges": n_edges,
            "unresolved": n_unresolved,
        },
    }


def render_graph(doc: Dict[str, Any]) -> str:
    """Canonical byte form of the artifact (sorted keys, 2-space
    indent, trailing newline) — two runs on the same tree are
    byte-identical."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
