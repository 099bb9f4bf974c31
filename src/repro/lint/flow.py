"""Interprocedural dataflow rules (REP010–REP013) over the call graph.

Where :mod:`repro.lint.rules` pattern-matches one file at a time, the
flow rules run **fixed-point passes over the whole-program call graph**
of :mod:`repro.lint.graph`: a property (float-taint, impurity,
blocking-ness) is seeded at the syntactic constructs that introduce it
and propagated caller-ward until nothing changes, then findings are
emitted at the *boundary call sites* where protected code first calls
into a marked function — with the full propagation path printed hop by
hop, so a finding is an explanation, not a flag.

* **REP010 float-taint** — a function outside the kernel-critical
  modules that contains a float source (float literal, true division,
  ``float()``, float-returning ``math.*``) or calls a float-tainted
  function is float-tainted; any call **from** a kernel-critical module
  into a tainted function is a finding.  (Float sources *inside* the
  kernel modules are REP001's jurisdiction — this rule closes the
  "helper in timing.py returns a float and dm.py calls it" hole.)
* **REP011 purity** — unseeded RNG construction, module-level
  ``random.*`` draws, wall-clock reads, ``os.environ`` access, and
  mutation of ``global`` names make a function impure, transitively
  through its callers.  Impure calls from the determinism-critical
  entry points — ``fingerprint()``, the corpus golden recorders, the
  fuzz family generators — are findings.  ``random.Random(seed)`` with
  an explicit seed stays pure, matching REP002.
* **REP012 async-safety** — blocking primitives (``pooled_map`` /
  ``pooled_imap``, ``submit(...).result()``, ``open()``, ``time.sleep``,
  ``socket.*`` / ``subprocess.*``) propagate through sync call chains;
  a blocking call reachable from an ``async def`` in ``repro.service``
  stalls the event loop and is a finding.  An executor hop
  (``run_in_executor(pool, fn, ...)`` / ``to_thread``) passes ``fn`` as
  a *reference*, not a call, so it correctly does not propagate.
* **REP013 pickle-reachability** — everything a pool submission ships
  must be importable by name in a worker process: the submitted
  callable itself (an inline lambda, a nested def, a local or
  module-level lambda — bare or under ``partial`` — pickles by a
  qualname no worker can import), the lambda ``partial`` *arguments*
  that cross the pickle boundary with it, and every name the submitted
  def transitively calls (a name with no static module-level binding,
  bound only at runtime e.g. via ``global`` from another function,
  fails in the worker).

Suppressions reuse the engine's inline machinery: a ``# lint:
disable=REP01x — <reason>`` on the *seed* line disarms that source for
propagation, one on the *boundary call site* accepts that crossing.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .engine import Finding
from .graph import CallGraph, CallSite, iter_own_calls
from .rules import KERNEL_MODULES, _INT_SAFE_MATH
from .symbols import FunctionInfo, ModuleSymbols, local_bindings

#: Dotted names of the kernel-critical modules (REP010's protected set).
KERNEL_MODULE_NAMES = frozenset(
    ".".join(("repro",) + rel) for rel in KERNEL_MODULES
)

#: Calls that ship their first argument to process-pool workers (plus
#: any executor's ``submit``).
_POOL_FUNCTIONS = {"pooled_map", "pooled_imap"}

_WALLCLOCK_TIME = {"time", "time_ns", "monotonic", "monotonic_ns",
                   "perf_counter", "perf_counter_ns"}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}


class FlowRule:
    """Base class of the dataflow rule families.

    Unlike the per-file :class:`~repro.lint.engine.Rule`, a flow rule
    sees the finished :class:`~repro.lint.graph.CallGraph` and returns
    ``(findings, suppressed_count)`` in one shot.
    """

    rule_id: str = "REP000"
    title: str = ""
    rationale: str = ""

    def run(self, graph: CallGraph) -> Tuple[List[Finding], int]:
        raise NotImplementedError


class _Emitter:
    """Finding construction with suppression accounting."""

    def __init__(self, graph: CallGraph, rule_id: str) -> None:
        self.graph = graph
        self.rule_id = rule_id
        self.findings: List[Finding] = []
        self.suppressed = 0
        self._seen: Set[Tuple[str, int, int]] = set()

    def emit(self, path: str, line: int, col: int, message: str) -> None:
        key = (path, line, col)
        if key in self._seen:
            return
        self._seen.add(key)
        if self.graph.suppressed(self.rule_id, path, line):
            self.suppressed += 1
            return
        self.findings.append(Finding(rule=self.rule_id, path=path,
                                     line=line, col=col, message=message))


# ------------------------------------------------------------ primitives

def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _call_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _scan_float_sources(fn: FunctionInfo) -> List[Tuple[int, int, str]]:
    """Syntactic float sources in a function body: ``(line, col, what)``."""
    out: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value,
                                                              float):
                out.append((child.lineno, child.col_offset,
                            f"float literal {child.value!r}"))
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(child.op, ast.Div):
                out.append((child.lineno, child.col_offset,
                            "true division '/'"))
            elif isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id == "float":
                    out.append((child.lineno, child.col_offset,
                                "float() conversion"))
                elif (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "math"
                        and func.attr not in _INT_SAFE_MATH):
                    out.append((child.lineno, child.col_offset,
                                f"float-returning math.{func.attr}()"))
            visit(child)

    visit(fn.node)
    return out


def _scan_impure_prims(fn: FunctionInfo) -> List[Tuple[int, int, str]]:
    """Impurity primitives in a function body: hidden nondeterminism
    (``random.Random(seed)`` with an explicit seed stays pure)."""
    out: List[Tuple[int, int, str]] = []
    global_names: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            global_names.update(node.names)

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute) and \
                        isinstance(func.value, ast.Name):
                    base = func.value.id
                    if base == "random":
                        if func.attr == "Random":
                            if not child.args:
                                out.append((child.lineno, child.col_offset,
                                            "unseeded random.Random()"))
                        elif func.attr == "SystemRandom":
                            out.append((child.lineno, child.col_offset,
                                        "random.SystemRandom()"))
                        else:
                            out.append((child.lineno, child.col_offset,
                                        f"module-level RNG "
                                        f"random.{func.attr}()"))
                    elif base == "time" and func.attr in _WALLCLOCK_TIME:
                        out.append((child.lineno, child.col_offset,
                                    f"wall-clock time.{func.attr}()"))
                    elif base == "os" and func.attr == "getenv":
                        out.append((child.lineno, child.col_offset,
                                    "os.getenv() read"))
                if isinstance(func, ast.Attribute) and \
                        func.attr in _WALLCLOCK_DATETIME and \
                        _root_name(func.value) in ("datetime", "date"):
                    out.append((child.lineno, child.col_offset,
                                f"wall-clock "
                                f"{_root_name(func.value)}...{func.attr}()"))
            elif isinstance(child, ast.Attribute):
                if isinstance(child.value, ast.Name) and \
                        child.value.id == "os" and child.attr == "environ":
                    out.append((child.lineno, child.col_offset,
                                "os.environ access"))
            elif isinstance(child, ast.Assign) and global_names:
                for t in child.targets:
                    if isinstance(t, ast.Name) and t.id in global_names:
                        out.append((child.lineno, child.col_offset,
                                    f"mutation of global {t.id!r}"))
            elif isinstance(child, ast.AugAssign) and global_names:
                if isinstance(child.target, ast.Name) and \
                        child.target.id in global_names:
                    out.append((child.lineno, child.col_offset,
                                f"mutation of global {child.target.id!r}"))
            visit(child)

    visit(fn.node)
    return out


_BLOCKING_ROOTS = {"socket", "subprocess"}


def _scan_blocking_prims(fn: FunctionInfo) -> List[Tuple[int, int, str]]:
    """Blocking primitives in a function body."""
    out: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = _call_name(child)
                if name in _POOL_FUNCTIONS:
                    out.append((child.lineno, child.col_offset,
                                f"blocking pool drive {name}()"))
                elif name == "open" and isinstance(func, ast.Name):
                    out.append((child.lineno, child.col_offset,
                                "blocking file open()"))
                elif isinstance(func, ast.Attribute):
                    base = _root_name(func.value)
                    if base == "time" and func.attr == "sleep":
                        out.append((child.lineno, child.col_offset,
                                    "time.sleep()"))
                    elif base in _BLOCKING_ROOTS:
                        out.append((child.lineno, child.col_offset,
                                    f"blocking {base}.{func.attr}()"))
                    elif (func.attr == "result"
                            and isinstance(func.value, ast.Call)
                            and _call_name(func.value) == "submit"):
                        out.append((child.lineno, child.col_offset,
                                    "synchronous submit(...).result()"))
            visit(child)

    visit(fn.node)
    return out


# ----------------------------------------------------------- propagation

def propagate(
    graph: CallGraph,
    seeds: Dict[str, Tuple[int, int, str]],
) -> Dict[str, Tuple[Optional[CallSite], Tuple[int, int, str]]]:
    """Caller-ward fixed point: BFS from the seed functions over the
    reverse call edges.

    Returns ``marked``: qualname -> ``(witness_site, seed_prim)`` where
    ``witness_site`` is the call site through which the mark first
    reached the function (``None`` for a seed itself) — following
    witnesses callee-ward always terminates at a seed primitive, giving
    a deterministic, cycle-free explanation path.
    """
    marked: Dict[str, Tuple[Optional[CallSite], Tuple[int, int, str]]] = {}
    queue = deque()
    for qual in sorted(seeds):
        marked[qual] = (None, seeds[qual])
        queue.append(qual)
    while queue:
        current = queue.popleft()
        prim = marked[current][1]
        sites = sorted(graph.callers_of(current),
                       key=lambda s: (s.caller, s.line, s.col))
        for site in sites:
            if site.caller in marked:
                continue
            marked[site.caller] = (site, prim)
            queue.append(site.caller)
    return marked


def witness_path(
    graph: CallGraph,
    marked: Dict[str, Tuple[Optional[CallSite], Tuple[int, int, str]]],
    start: str,
) -> str:
    """Render the hop-by-hop path from ``start`` down to its seed
    primitive: every hop names the function and the call location."""
    hops: List[str] = []
    current = start
    guard = 0
    while True:
        witness, prim = marked[current]
        info = graph.function(current)
        where = f"{info.path}:{info.line}" if info is not None else "?"
        hops.append(f"{current} [{where}]")
        if witness is None:
            line, col, what = prim
            hops.append(f"{what} at {info.path}:{line}"
                        if info is not None else what)
            break
        nxt = witness.callee
        if nxt == current or guard > len(marked) + 1:  # pragma: no cover
            break
        current = nxt
        guard += 1
    return " -> ".join(hops)


# --------------------------------------------------------------- REP010

class FloatTaintRule(FlowRule):
    rule_id = "REP010"
    title = "float-taint"
    rationale = ("a float can enter the exact-arithmetic kernels through "
                 "a helper defined anywhere in the tree; interprocedural "
                 "taint closes the cross-module hole REP001's per-file "
                 "scope cannot see")

    def run(self, graph: CallGraph) -> Tuple[List[Finding], int]:
        emitter = _Emitter(graph, self.rule_id)
        seeds: Dict[str, Tuple[int, int, str]] = {}
        pre_suppressed = 0
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if fn.module in KERNEL_MODULE_NAMES:
                continue  # kernel-internal floats are REP001's business
            sources = _scan_float_sources(fn)
            live = []
            for line, col, what in sources:
                if graph.suppressed(self.rule_id, fn.path, line):
                    pre_suppressed += 1
                else:
                    live.append((line, col, what))
            if live:
                seeds[qualname] = live[0]
        marked = propagate(graph, seeds)
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if fn.module not in KERNEL_MODULE_NAMES:
                continue
            for site in sorted(graph.callees_of(qualname),
                               key=lambda s: (s.line, s.col, s.callee)):
                callee = graph.function(site.callee)
                if callee is None or site.callee not in marked:
                    continue
                if callee.module in KERNEL_MODULE_NAMES:
                    continue  # flagged at its own boundary crossing
                path = witness_path(graph, marked, site.callee)
                emitter.emit(
                    fn.path, site.line, site.col,
                    f"kernel-critical {qualname}() calls float-tainted "
                    f"{site.callee}(); taint path: {path}")
        return emitter.findings, emitter.suppressed + pre_suppressed


# --------------------------------------------------------------- REP011

#: Modules whose functions are determinism-critical entry points.
PURITY_ENTRY_MODULES = ("repro.corpus.golden", "repro.fuzz.families")


def _is_purity_entry(fn: FunctionInfo) -> bool:
    if fn.kind == "nested":
        return False
    if fn.module in PURITY_ENTRY_MODULES:
        return True
    # every fingerprint implementation, wherever it lives
    leaf = fn.local.rsplit(".", 1)[-1]
    return leaf == "fingerprint" or leaf.endswith("_fingerprint")


class PurityRule(FlowRule):
    rule_id = "REP011"
    title = "purity"
    rationale = ("fingerprints, corpus goldens, and fuzz families must be "
                 "pure functions of their inputs; a transitive wall-clock "
                 "read or hidden RNG makes recorded artifacts "
                 "unreproducible in ways no per-file check can spot")

    def run(self, graph: CallGraph) -> Tuple[List[Finding], int]:
        emitter = _Emitter(graph, self.rule_id)
        seeds: Dict[str, Tuple[int, int, str]] = {}
        pre_suppressed = 0
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            prims = _scan_impure_prims(fn)
            live = []
            for line, col, what in prims:
                if graph.suppressed(self.rule_id, fn.path, line):
                    pre_suppressed += 1
                else:
                    live.append((line, col, what))
            if live:
                seeds[qualname] = live[0]
        marked = propagate(graph, seeds)
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if not _is_purity_entry(fn):
                continue
            if qualname in seeds:
                line, col, what = seeds[qualname]
                emitter.emit(fn.path, line, col,
                             f"determinism-critical {qualname}() is "
                             f"impure: {what}")
                continue
            for site in sorted(graph.callees_of(qualname),
                               key=lambda s: (s.line, s.col, s.callee)):
                if site.callee not in marked:
                    continue
                path = witness_path(graph, marked, site.callee)
                emitter.emit(
                    fn.path, site.line, site.col,
                    f"determinism-critical {qualname}() calls impure "
                    f"{site.callee}(); impurity path: {path}")
        return emitter.findings, emitter.suppressed + pre_suppressed


# --------------------------------------------------------------- REP012

#: Async functions defined in these packages guard the event loop.
ASYNC_ENTRY_PREFIX = "repro.service"


class AsyncSafetyRule(FlowRule):
    rule_id = "REP012"
    title = "async-safety"
    rationale = ("one blocking call reached from a coroutine stalls every "
                 "client of the daemon's event loop; the blocking-ness of "
                 "a helper three calls down is invisible to per-file "
                 "linting")

    @staticmethod
    def _is_entry(fn: FunctionInfo) -> bool:
        return fn.is_async and (
            fn.module == ASYNC_ENTRY_PREFIX
            or fn.module.startswith(ASYNC_ENTRY_PREFIX + "."))

    def run(self, graph: CallGraph) -> Tuple[List[Finding], int]:
        emitter = _Emitter(graph, self.rule_id)
        seeds: Dict[str, Tuple[int, int, str]] = {}
        pre_suppressed = 0
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            prims = _scan_blocking_prims(fn)
            live = []
            for line, col, what in prims:
                if graph.suppressed(self.rule_id, fn.path, line):
                    pre_suppressed += 1
                else:
                    live.append((line, col, what))
            if live:
                seeds[qualname] = live[0]
        marked = propagate(graph, seeds)
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if not self._is_entry(fn):
                continue
            if qualname in seeds:
                line, col, what = seeds[qualname]
                emitter.emit(fn.path, line, col,
                             f"async {qualname}() blocks the event loop "
                             f"directly: {what}; hop it through an "
                             "executor (run_in_executor / to_thread)")
                continue
            for site in sorted(graph.callees_of(qualname),
                               key=lambda s: (s.line, s.col, s.callee)):
                callee = graph.function(site.callee)
                if site.callee not in marked:
                    continue
                if callee is not None and self._is_entry(callee):
                    continue  # flagged at its own frame
                path = witness_path(graph, marked, site.callee)
                emitter.emit(
                    fn.path, site.line, site.col,
                    f"async {qualname}() reaches a blocking call via "
                    f"{site.callee}() with no executor hop; blocking "
                    f"path: {path}")
        return emitter.findings, emitter.suppressed + pre_suppressed


# --------------------------------------------------------------- REP013

class PickleReachabilityRule(FlowRule):
    rule_id = "REP013"
    title = "pickle-reachability"
    rationale = ("process-pool workers receive the submitted callable by "
                 "pickle and re-import everything it transitively calls; "
                 "a lambda, a closure, or a name bound only at runtime "
                 "passes every workers=1 test and only detonates on the "
                 "first real pooled run")

    @staticmethod
    def _submission_sites(graph: CallGraph):
        """Every pool-submission call in the tree, in deterministic
        order: ``(module, caller_info or None at module level, call)``."""
        scopes = [(graph.modules[name], None, graph.modules[name].tree)
                  for name in sorted(graph.modules)]
        scopes += [(graph.by_display[fn.path], fn, fn.node)
                   for fn in (graph.functions[q]
                              for q in sorted(graph.functions))]
        for mod, fn, node in scopes:
            for call in iter_own_calls(node):
                name = _call_name(call)
                if (name in _POOL_FUNCTIONS or name == "submit") \
                        and call.args:
                    yield mod, fn, call

    @staticmethod
    def _local_kind(mod: ModuleSymbols, fn: Optional[FunctionInfo],
                    name: str) -> Optional[str]:
        """How the innermost enclosing function frame binds ``name``
        (``def`` | ``lambda`` | ``import`` | ``other``), or ``None`` if no
        frame does."""
        if fn is None:
            return None
        for local in (fn.local, *reversed(fn.enclosing)):
            frame = mod.functions.get(local)
            if frame is not None:
                kind = local_bindings(frame.node).get(name)
                if kind is not None:
                    return kind
        return None

    def _closure_problem(self, mod: ModuleSymbols,
                         fn: Optional[FunctionInfo],
                         expr: ast.AST) -> Optional[str]:
        """Why the submitted expression cannot pickle by qualname when it
        is a lambda or a function-local callable; ``None`` otherwise."""
        if isinstance(expr, ast.Lambda):
            return "a lambda"
        if isinstance(expr, ast.Name):
            kind = self._local_kind(mod, fn, expr.id)
            if kind == "def":
                return f"the locally-defined function {expr.id!r}"
            if kind == "lambda":
                return f"the local lambda {expr.id!r}"
        return None

    @staticmethod
    def _resolve_submitted(graph: CallGraph, mod: ModuleSymbols,
                           expr: ast.AST) -> Optional[str]:
        """The module-level qualname the submitted expression names
        (``<module>.<name>:lambda`` for a module-level lambda)."""
        if not isinstance(expr, ast.Name):
            return None
        name = expr.id
        info = mod.functions.get(name)
        if info is not None and info.kind == "function":
            return info.qualname
        target = mod.imports.get(name)
        if target is not None:
            parent, _, leaf = target.rpartition(".")
            parent_mod = graph.modules.get(parent)
            if parent_mod is not None:
                pinfo = parent_mod.functions.get(leaf)
                if pinfo is not None and pinfo.kind == "function":
                    return pinfo.qualname
                if parent_mod.bindings.get(leaf) == "lambda":
                    return f"{parent}.{leaf}:lambda"
        if mod.bindings.get(name) == "lambda":
            return f"{mod.name}.{name}:lambda"
        return None

    def run(self, graph: CallGraph) -> Tuple[List[Finding], int]:
        emitter = _Emitter(graph, self.rule_id)
        for mod, fn, call in self._submission_sites(graph):
            path = mod.display
            submitted = call.args[0]
            # unwrap partial(partial(f, a), b) down to f; every partial
            # argument is pickled along with the submission
            while (isinstance(submitted, ast.Call)
                    and _call_name(submitted) == "partial"
                    and submitted.args):
                for arg in list(submitted.args[1:]) + [
                        kw.value for kw in submitted.keywords]:
                    if isinstance(arg, ast.Lambda):
                        emitter.emit(
                            path, call.lineno, call.col_offset,
                            "partial() argument is a lambda; it is "
                            "pickled with the submission and cannot "
                            "cross to a pool worker")
                submitted = submitted.args[0]
            problem = self._closure_problem(mod, fn, submitted)
            if problem is not None:
                emitter.emit(
                    path, call.lineno, call.col_offset,
                    f"{_call_name(call)}() is handed {problem}, which "
                    "cannot pickle to pool workers; hoist it to a "
                    "module-level def (functools.partial of one is fine)")
                continue
            qual = self._resolve_submitted(graph, mod, submitted)
            if qual is None:
                continue  # a parameter, attribute, or out-of-tree callable
            if qual.endswith(":lambda"):
                emitter.emit(
                    path, call.lineno, call.col_offset,
                    f"submitted callable {qual[:-7]} is a module-level "
                    "lambda; pickle serialises functions by qualname "
                    "('<lambda>') and a worker cannot re-import it")
                continue
            # transitive closure: every in-tree callee must itself call
            # only importable names
            seen: Set[str] = set()
            queue = deque([qual])
            chain: Dict[str, Tuple[str, int]] = {}
            while queue:
                current = queue.popleft()
                if current in seen:
                    continue
                seen.add(current)
                for miss in graph.unresolved.get(current, []):
                    if miss.category != "unknown":
                        continue
                    info = graph.function(current)
                    hops: List[str] = []
                    walk = current
                    while walk != qual and walk in chain:
                        parent, line = chain[walk]
                        hops.append(f"{walk} [{line}]")
                        walk = parent
                    hops.append(qual)
                    via = " <- ".join(hops)
                    where = (f"{info.path}:{miss.line}"
                             if info is not None else "?")
                    emitter.emit(
                        path, call.lineno, call.col_offset,
                        f"pool-submitted {qual}() transitively calls "
                        f"{miss.name!r} at {where}, which has no "
                        "module-level binding a worker import would "
                        f"provide (reached via {via})")
                for site in sorted(graph.callees_of(current),
                                   key=lambda s: (s.line, s.col, s.callee)):
                    if site.callee not in seen:
                        chain.setdefault(site.callee,
                                         (current, site.line))
                        queue.append(site.callee)
        return emitter.findings, emitter.suppressed


#: The flow-rule registry, id -> class, in catalogue order.
FLOW_RULES = {
    rule.rule_id: rule
    for rule in (FloatTaintRule, PurityRule, AsyncSafetyRule,
                 PickleReachabilityRule)
}


def make_flow_rules(
    rule_ids: Optional[Iterable[str]] = None,
) -> List[FlowRule]:
    """Instantiate the requested flow rules (default: all)."""
    if rule_ids is None:
        return [cls() for cls in FLOW_RULES.values()]
    return [FLOW_RULES[r]() for r in rule_ids if r in FLOW_RULES]


def run_flow(
    graph: CallGraph,
    rules: Sequence[FlowRule],
) -> Tuple[List[Finding], int]:
    """Run the given flow rules over one graph."""
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        rule_findings, rule_suppressed = rule.run(graph)
        findings.extend(rule_findings)
        suppressed += rule_suppressed
    return findings, suppressed
