"""Per-module symbol tables for the whole-program analysis layer.

The flow layer (:mod:`repro.lint.graph` / :mod:`repro.lint.flow`) needs
more than the per-file engine keeps: for every linted module it wants
the complete set of *callable definitions* (module-level functions,
class methods, nested functions), the module-level *name bindings*
(so a call to a bare name can be classified as def / class / import /
assignment / module-level lambda / nothing-at-all), and the *import
alias map* (so ``kernels.dm_master_response_times(...)`` resolves into
``repro.perf.kernels``).  This module builds exactly that, one
:class:`ModuleSymbols` per file, deterministically (AST order only —
no set iteration reaches the output).

Module naming follows the engine's convention: a file below a ``repro``
package directory is named ``repro.<subpath>`` (``src/repro/profibus/
dm.py`` -> ``repro.profibus.dm``), which makes fixture trees that
mirror the package layout resolve exactly like the shipped tree.  Files
outside any ``repro`` directory are named by their display path — they
can still *import* tree modules, they just cannot be imported by them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import _relmod, collect_suppressions


@dataclass
class FunctionInfo:
    """One callable definition anywhere in a module."""

    qualname: str       #: globally unique: ``<module>.<local>``
    module: str         #: dotted module name (or display-path fallback)
    local: str          #: qualifier inside the module: ``f``, ``C.m``, ``f.g``
    node: ast.AST       #: the ``FunctionDef`` / ``AsyncFunctionDef``
    path: str           #: display path of the defining file
    line: int
    is_async: bool
    kind: str           #: ``function`` | ``method`` | ``nested``
    enclosing: Tuple[str, ...] = ()   #: local quals of enclosing functions
    class_name: Optional[str] = None  #: nearest enclosing class, if any


@dataclass
class ModuleSymbols:
    """Everything the call-graph builder knows about one module."""

    name: str
    path: Path
    display: str
    tree: ast.Module
    #: local qualifier -> definition (``f``, ``C.m``, ``f.g`` ...)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> names bound in the class body
    classes: Dict[str, Set[str]] = field(default_factory=dict)
    #: import alias -> dotted target (module or module.symbol)
    imports: Dict[str, str] = field(default_factory=dict)
    #: module-level name -> binding kind
    #: (``def`` | ``class`` | ``import`` | ``lambda`` | ``assign``)
    bindings: Dict[str, str] = field(default_factory=dict)
    suppress_lines: Dict[int, Set[str]] = field(default_factory=dict)
    suppress_file: Set[str] = field(default_factory=set)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if rule_id in self.suppress_file:
            return True
        return rule_id in self.suppress_lines.get(line, set())


def module_name(path: Path, display: str) -> str:
    """Dotted module name for a file (display path outside ``repro``)."""
    rel = _relmod(path)
    if rel is None:
        return display
    if rel and rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(("repro",) + rel)


def _module_package(name: str) -> Tuple[str, ...]:
    """The package tuple relative imports resolve against (empty for
    display-path module names, which cannot import relatively)."""
    if not name.startswith("repro"):
        return ()
    return tuple(name.split(".")[:-1]) or ("repro",)


_STMT_CONTAINERS = (ast.If, ast.While, ast.For, ast.AsyncFor, ast.With,
                    ast.AsyncWith, ast.Try)


def _iter_block_stmts(stmts):
    """Statements of a module/class body including conditional blocks
    (``try``/``if`` guarded imports and assignments still bind the
    name), without descending into function bodies."""
    for st in stmts:
        yield st
        if isinstance(st, _STMT_CONTAINERS):
            for attr in ("body", "orelse", "finalbody"):
                yield from _iter_block_stmts(getattr(st, attr, []) or [])
            for handler in getattr(st, "handlers", []):
                yield from _iter_block_stmts(handler.body)


def _bind_names(target: ast.AST, out: List[str]) -> None:
    if isinstance(target, ast.Name):
        out.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _bind_names(elt, out)
    elif isinstance(target, ast.Starred):
        _bind_names(target.value, out)


def import_targets(st, package: Tuple[str, ...]) -> Iterator[Tuple[str, str]]:
    """``(bound name, dotted target)`` for each name an ``import`` or
    ``from ... import`` statement binds (module or module.symbol); none
    for a star import, or a relative import outside a package."""
    if isinstance(st, ast.Import):
        for alias in st.names:
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, alias.name if alias.asname else bound
        return
    if st.level:
        if not package:
            return
        base = package[:len(package) - (st.level - 1)]
    else:
        base = ()
    base = tuple(p for p in base + tuple((st.module or "").split(".")) if p)
    for alias in st.names:
        if alias.name != "*":
            yield alias.asname or alias.name, ".".join(base + (alias.name,))


def local_imports(fn: ast.AST, module: str) -> Dict[str, str]:
    """Import alias -> dotted target for the imports in a function body
    (not in nested function bodies) of the module named ``module``: a
    subcommand or a lazily loaded path imports where it runs."""
    body = getattr(fn, "body", None)
    targets: Dict[str, str] = {}
    for st in _iter_block_stmts(body if isinstance(body, list) else []):
        if isinstance(st, (ast.Import, ast.ImportFrom)):
            for bound, target in import_targets(st, _module_package(module)):
                targets.setdefault(bound, target)
    return targets


def local_bindings(fn: ast.AST) -> Dict[str, str]:
    """Names bound inside a function body (without descending into
    nested function/class bodies), mapped to their binding kind
    (``def`` | ``lambda`` | ``import`` | ``other``)."""
    bindings: Dict[str, str] = {}

    def bind(target: ast.AST, kind: str) -> None:
        names: List[str] = []
        _bind_names(target, names)
        for n in names:
            bindings.setdefault(n, kind)

    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = fn.args
        for arg in (list(a.posonlyargs) + list(a.args) + list(a.kwonlyargs)
                    + ([a.vararg] if a.vararg else [])
                    + ([a.kwarg] if a.kwarg else [])):
            bindings.setdefault(arg.arg, "other")

    def scan(stmts: Sequence[ast.stmt]) -> None:
        for st in stmts:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bindings.setdefault(st.name, "def")
            elif isinstance(st, ast.ClassDef):
                bindings.setdefault(st.name, "other")
            elif isinstance(st, ast.Assign):
                kind = "lambda" if isinstance(st.value, ast.Lambda) else "other"
                for t in st.targets:
                    bind(t, kind)
            elif isinstance(st, ast.AnnAssign) and st.value is not None:
                kind = "lambda" if isinstance(st.value, ast.Lambda) else "other"
                bind(st.target, kind)
            elif isinstance(st, (ast.For, ast.AsyncFor)):
                bind(st.target, "other")
                scan(st.body)
                scan(st.orelse)
            elif isinstance(st, (ast.With, ast.AsyncWith)):
                for item in st.items:
                    if item.optional_vars is not None:
                        bind(item.optional_vars, "other")
                scan(st.body)
            elif isinstance(st, (ast.If, ast.While)):
                scan(st.body)
                scan(st.orelse)
            elif isinstance(st, ast.Try):
                scan(st.body)
                for handler in st.handlers:
                    if handler.name:
                        bindings.setdefault(handler.name, "other")
                    scan(handler.body)
                scan(st.orelse)
                scan(st.finalbody)
            elif isinstance(st, (ast.Import, ast.ImportFrom)):
                for alias in st.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bindings.setdefault(name, "import")

    body = getattr(fn, "body", None)
    if isinstance(body, list):
        scan(body)
    return bindings


class _Collector:
    """Walks one module tree, registering every callable definition."""

    def __init__(self, mod: ModuleSymbols) -> None:
        self.mod = mod

    def collect(self) -> None:
        self._collect_toplevel()
        for st in self.mod.tree.body:
            self._descend(st, prefix=(), enclosing=(), class_name=None)

    # -- module-level bindings ----------------------------------------

    def _collect_toplevel(self) -> None:
        mod = self.mod
        package = _module_package(mod.name)
        for st in _iter_block_stmts(mod.tree.body):
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.bindings.setdefault(st.name, "def")
            elif isinstance(st, ast.ClassDef):
                mod.bindings.setdefault(st.name, "class")
            elif isinstance(st, ast.Assign):
                kind = ("lambda" if isinstance(st.value, ast.Lambda)
                        else "assign")
                names: List[str] = []
                for t in st.targets:
                    _bind_names(t, names)
                for n in names:
                    mod.bindings.setdefault(n, kind)
            elif isinstance(st, ast.AnnAssign):
                if isinstance(st.target, ast.Name) and st.value is not None:
                    kind = ("lambda" if isinstance(st.value, ast.Lambda)
                            else "assign")
                    mod.bindings.setdefault(st.target.id, kind)
            elif isinstance(st, (ast.Import, ast.ImportFrom)):
                for bound, target in import_targets(st, package):
                    mod.imports.setdefault(bound, target)
                    mod.bindings.setdefault(bound, "import")

    # -- callable definitions -----------------------------------------

    def _register(self, node, prefix: Tuple[str, ...],
                  enclosing: Tuple[str, ...],
                  class_name: Optional[str], kind: str) -> None:
        local = ".".join(prefix + (node.name,))
        mod = self.mod
        info = FunctionInfo(
            qualname=f"{mod.name}.{local}",
            module=mod.name,
            local=local,
            node=node,
            path=mod.display,
            line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            kind=kind,
            enclosing=enclosing,
            class_name=class_name,
        )
        mod.functions.setdefault(local, info)

    def _descend(self, st: ast.stmt, prefix: Tuple[str, ...],
                 enclosing: Tuple[str, ...],
                 class_name: Optional[str]) -> None:
        if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kind = ("nested" if enclosing
                    else "method" if class_name else "function")
            self._register(st, prefix, enclosing, class_name, kind)
            local = ".".join(prefix + (st.name,))
            for child in st.body:
                self._descend(child, prefix + (st.name,),
                              enclosing + (local,), class_name)
        elif isinstance(st, ast.ClassDef):
            members: Set[str] = set()
            for member in st.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                    members.add(member.name)
                elif isinstance(member, ast.Assign):
                    names: List[str] = []
                    for t in member.targets:
                        _bind_names(t, names)
                    members.update(names)
                elif (isinstance(member, ast.AnnAssign)
                        and isinstance(member.target, ast.Name)):
                    members.add(member.target.id)
            if not enclosing:  # nested-in-function classes stay local
                self.mod.classes.setdefault(
                    ".".join(prefix + (st.name,)), members)
            for child in st.body:
                self._descend(child, prefix + (st.name,), enclosing,
                              class_name=st.name)
        elif isinstance(st, _STMT_CONTAINERS):
            for attr in ("body", "orelse", "finalbody"):
                for child in getattr(st, attr, []) or []:
                    self._descend(child, prefix, enclosing, class_name)
            for handler in getattr(st, "handlers", []):
                for child in handler.body:
                    self._descend(child, prefix, enclosing, class_name)


def build_module_symbols(path: Path, display: str,
                         source: str, tree: ast.Module) -> ModuleSymbols:
    """The complete symbol table of one parsed module."""
    lines, file_wide = collect_suppressions(source)
    mod = ModuleSymbols(
        name=module_name(path, display),
        path=path,
        display=display,
        tree=tree,
        suppress_lines=lines,
        suppress_file=file_wide,
    )
    _Collector(mod).collect()
    return mod
