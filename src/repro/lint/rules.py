"""The per-file domain rules (REP001–REP003).

Each rule statically enforces one invariant the test suite otherwise
only checks dynamically:

* **REP001 exact-arithmetic** — the kernel-critical modules compute in
  exact integer arithmetic; any true division, float literal,
  ``float()`` call or float-returning ``math.*`` call there risks the
  bit-exactness contract.  The deliberate float seams (the utilisation
  guards) carry inline ``# lint: disable=REP001 — <reason>`` markers.
* **REP002 determinism** — the analysis core and generators must be
  pure functions of their inputs: no module-level ``random.*`` RNG, no
  wall-clock reads, no environment reads.  RNGs are threaded as
  explicit ``random.Random`` parameters.
* **REP003 schema-registry** — every ``profibus-rt/<name>/v<k>``
  string literal must come from :mod:`repro.schemas`; the registry
  itself must be duplicate-free (one current version per family, plus
  older versions only as ``<CONSTANT>_V<k>``) and documented in
  ``PERF.md``.

Pickle safety of pool submissions is a whole-program property and
lives in the flow layer (REP013, :mod:`repro.lint.flow`).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Tuple

from .engine import FileContext, Finding, ProjectContext, Rule

SCHEMA_LITERAL_RE = re.compile(
    r"profibus-rt/[a-z0-9][a-z0-9-]*(?:/[a-z0-9][a-z0-9-]*)*/v\d+")

#: A registry constant ``<CONSTANT>_V<k>``: version ``k`` of the family
#: of the current ``<CONSTANT>``, older than it and still read.
OLDER_VERSION_RE = re.compile(r"(?P<current>\w+_SCHEMA)_V(?P<version>\d+)")


# --------------------------------------------------------------- REP001

#: Integer-safe ``math`` functions the kernels may call.
_INT_SAFE_MATH = {"gcd", "lcm", "isqrt", "ceil", "floor", "comb", "perm",
                  "factorial", "prod"}

#: repro-relative module paths of the kernel-critical modules.
KERNEL_MODULES = {
    ("profibus", "dm"), ("profibus", "edf"), ("profibus", "fcfs"),
    ("profibus", "fp"), ("profibus", "cycle"), ("profibus", "ttr"),
    ("perf", "kernels"), ("perf", "vector"),
}


class ExactArithmeticRule(Rule):
    rule_id = "REP001"
    title = "exact-arithmetic"
    rationale = ("kernel-critical modules must stay in exact integer "
                 "arithmetic: floats round, and a rounded intermediate "
                 "breaks the bit-identical fast==generic==vectorized "
                 "contract")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.relmod in KERNEL_MODULES

    def visit_BinOp(self, ctx: FileContext, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div):
            ctx.report(self.rule_id, node,
                       "true division '/' in a kernel-critical module; "
                       "use '//' (or Fraction) to stay exact")

    def visit_AugAssign(self, ctx: FileContext, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div):
            ctx.report(self.rule_id, node,
                       "true division '/=' in a kernel-critical module; "
                       "use '//=' (or Fraction) to stay exact")

    def visit_Constant(self, ctx: FileContext, node: ast.Constant) -> None:
        if isinstance(node.value, float):
            ctx.report(self.rule_id, node,
                       f"float literal {node.value!r} in a kernel-critical "
                       "module")

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float":
            ctx.report(self.rule_id, node,
                       "float() conversion in a kernel-critical module")
        elif (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
                and func.attr not in _INT_SAFE_MATH):
            ctx.report(self.rule_id, node,
                       f"math.{func.attr}() returns a float; only "
                       f"integer-safe math calls ({', '.join(sorted(_INT_SAFE_MATH))}) "
                       "are allowed in kernel-critical modules")


# --------------------------------------------------------------- REP002

_WALLCLOCK_TIME = {"time", "time_ns", "monotonic", "monotonic_ns",
                   "perf_counter", "perf_counter_ns"}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class DeterminismRule(Rule):
    rule_id = "REP002"
    title = "determinism"
    rationale = ("the analysis core and generators are pure functions of "
                 "their inputs; hidden RNG state, wall clocks, and "
                 "environment reads make fingerprints, goldens, and fuzz "
                 "replay unreproducible")

    def applies(self, ctx: FileContext) -> bool:
        rm = ctx.relmod
        if rm is None:
            return False
        return (rm[0] in ("profibus", "gen")
                or rm == ("fuzz", "families"))

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        if isinstance(value, ast.Name) and value.id == "random":
            if func.attr not in ("Random", "SystemRandom"):
                ctx.report(self.rule_id, node,
                           f"module-level RNG call random.{func.attr}(); "
                           "thread an explicit random.Random through the "
                           "call chain instead")
        elif (isinstance(value, ast.Name) and value.id == "time"
                and func.attr in _WALLCLOCK_TIME):
            ctx.report(self.rule_id, node,
                       f"wall-clock read time.{func.attr}() in deterministic "
                       "code; timestamps belong at the reporting boundary")
        elif (func.attr in _WALLCLOCK_DATETIME
                and _root_name(value) in ("datetime", "date")):
            ctx.report(self.rule_id, node,
                       f"wall-clock read {_root_name(value)}...{func.attr}() "
                       "in deterministic code; timestamps belong at the "
                       "reporting boundary")
        elif (isinstance(value, ast.Name) and value.id == "os"
                and func.attr == "getenv"):
            ctx.report(self.rule_id, node,
                       "os.getenv() read in deterministic code; "
                       "configuration must arrive as explicit parameters")

    def visit_Attribute(self, ctx: FileContext, node: ast.Attribute) -> None:
        if (isinstance(node.value, ast.Name) and node.value.id == "os"
                and node.attr == "environ"):
            ctx.report(self.rule_id, node,
                       "os.environ read in deterministic code; "
                       "configuration must arrive as explicit parameters")


# --------------------------------------------------------------- REP003

class SchemaRegistryRule(Rule):
    rule_id = "REP003"
    title = "schema-registry"
    rationale = ("every profibus-rt/<name>/v<k> tag is a frozen contract "
                 "defined once in repro.schemas; stray literals drift "
                 "silently when a version bumps")

    #: dotted path of the registry module inside the linted tree.
    REGISTRY_MODULE = "repro.schemas"

    def _registry(self, project: ProjectContext) -> Dict[str, str]:
        """constant name -> schema value, preferring the linted tree's
        own registry; falls back to the installed :mod:`repro.schemas`."""
        cached = getattr(project, "_rep003_registry", None)
        if cached is not None:
            return cached
        registry: Dict[str, str] = {}
        parsed = project.module_ast(self.REGISTRY_MODULE)
        if parsed is not None:
            _, tree = parsed
            for name, value, _line in self._registry_assignments(tree):
                registry[name] = value
        else:
            try:
                from .. import schemas as _schemas
                registry = {
                    name: value for name, value in vars(_schemas).items()
                    if isinstance(value, str)
                    and SCHEMA_LITERAL_RE.fullmatch(value)}
            except Exception:  # pragma: no cover - repro.schemas ships
                registry = {}
        project._rep003_registry = registry
        return registry

    @staticmethod
    def _registry_assignments(tree: ast.Module):
        for st in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(st, ast.Assign):
                targets, value = st.targets, st.value
            elif isinstance(st, ast.AnnAssign) and st.value is not None:
                targets, value = [st.target], st.value
            if (value is not None and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    and SCHEMA_LITERAL_RE.fullmatch(value.value)):
                for t in targets:
                    if isinstance(t, ast.Name):
                        yield t.id, value.value, st.lineno

    def applies(self, ctx: FileContext) -> bool:
        # the registry module is the one place literals are allowed
        return ctx.relmod != ("schemas",)

    def visit_Constant(self, ctx: FileContext, node: ast.Constant) -> None:
        if not isinstance(node.value, str):
            return
        value = node.value
        if not SCHEMA_LITERAL_RE.fullmatch(value):
            return
        registry = self._registry(ctx.project)
        by_value = {v: n for n, v in registry.items()}
        if value in by_value:
            ctx.report(self.rule_id, node,
                       f"schema literal {value!r} duplicates registry "
                       f"constant repro.schemas.{by_value[value]}; import "
                       "the constant instead of restating the string")
            return
        family = value.rpartition("/")[0]
        families = {v.rpartition("/")[0]: v for v in registry.values()}
        if family in families:
            ctx.report(self.rule_id, node,
                       f"schema literal {value!r} diverges from the "
                       f"registered version {families[family]!r}; versions "
                       "move only in repro.schemas")
        else:
            ctx.report(self.rule_id, node,
                       f"unknown schema literal {value!r}: not in the "
                       "repro.schemas registry")

    @staticmethod
    def _older_version_problem(value: str, current: str, version: int,
                               values: Dict[str, str]) -> Optional[str]:
        """What is wrong with ``value`` as version ``version`` of the
        family of the registry constant ``current`` (``None``: nothing)."""
        if current not in values:
            return f"names no registry constant {current}"
        family, _, tag = value.rpartition("/")
        current_family, _, current_tag = values[current].rpartition("/")
        if family != current_family:
            return f"is not of {current}'s family {current_family!r}"
        if tag != f"v{version}":
            return f"is not version v{version}"
        if version >= int(current_tag[1:]):
            return (f"is not older than {current} = {values[current]!r}; "
                    "versions move only in the current constant")
        return None

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        parsed = project.module_ast(self.REGISTRY_MODULE)
        if parsed is None:
            return
        path, tree = parsed
        if path.resolve() not in project.files:
            return  # registry not part of this lint run
        display = project.display_for(path)
        families: Dict[str, Tuple[str, str, int]] = {}
        entries = list(self._registry_assignments(tree))
        values = {name: value for name, value, _ in entries}
        for name, value, line in entries:
            older = OLDER_VERSION_RE.fullmatch(name)
            if older is not None:
                problem = self._older_version_problem(
                    value, older["current"], int(older["version"]), values)
                if problem is not None:
                    yield Finding(
                        rule=self.rule_id, path=display, line=line, col=0,
                        message=f"registry constant {name} = {value!r} "
                                f"{problem}")
                continue
            family = value.rpartition("/")[0]
            prior = families.get(family)
            if prior is not None and prior[1] != value:
                yield Finding(
                    rule=self.rule_id, path=display, line=line, col=0,
                    message=(f"registry constants {prior[0]} and {name} "
                             f"register family {family!r} at divergent "
                             f"versions ({prior[1]!r} vs {value!r})"))
            families.setdefault(family, (name, value, line))
        perf_md = project.doc_text("PERF.md")
        if perf_md is not None:
            for name, value, line in entries:
                if value not in perf_md:
                    yield Finding(
                        rule=self.rule_id, path=display, line=line, col=0,
                        message=(f"registry entry {name} = {value!r} is "
                                 "undocumented: PERF.md never mentions it"))


#: The rule registry, id -> class, in catalogue order.
ALL_RULES = {
    rule.rule_id: rule
    for rule in (ExactArithmeticRule, DeterminismRule, SchemaRegistryRule)
}


def make_rules(rule_ids: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate the requested rules (default: all), validating ids."""
    if rule_ids is None:
        return [cls() for cls in ALL_RULES.values()]
    chosen = list(rule_ids)
    unknown = [r for r in chosen if r not in ALL_RULES]
    if unknown:
        raise ValueError(
            f"unknown rule(s) {sorted(unknown)}; pick from "
            f"{sorted(ALL_RULES)}")
    return [ALL_RULES[r]() for r in chosen]
