"""`repro.lint` — AST-based static enforcement of the repo's contracts.

The test suite proves the bit-exactness, determinism, and schema
contracts *dynamically* — tier-1 tests, fuzz oracles, corpus mutants —
but a violation that no seeded workload happens to cross still ships.
This package closes that gap with a **single-pass static analysis**
that runs in seconds on every commit, before any test.  It keeps only
the rules that guard something no runtime check catches at the point
of the mistake:

=======  ==================  ===========================================
rule     title               invariant
=======  ==================  ===========================================
REP001   exact-arithmetic    no true division / float literals /
                             ``float()``/float ``math.*`` calls in the
                             kernel-critical modules
REP002   determinism         no module-level RNG, wall-clock, or
                             environment reads in the analysis core and
                             generators
REP003   schema-registry     every ``profibus-rt/<name>/v<k>`` literal
                             comes from :mod:`repro.schemas`; the
                             registry is coherent and documented
=======  ==================  ===========================================

On top of the per-file pass, the **flow layer** (:mod:`~repro.lint.flow`,
on by default, ``--no-flow`` to skip) builds a whole-program call graph
(:mod:`~repro.lint.graph` over :mod:`~repro.lint.symbols`) and runs
fixed-point interprocedural passes:

=======  =====================  ========================================
rule     title                  invariant
=======  =====================  ========================================
REP010   float-taint            no kernel-critical module calls into a
                                function that transitively produces a
                                float (taint path printed hop by hop)
REP011   purity                 fingerprints, corpus goldens, and fuzz
                                families never transitively reach
                                unseeded RNG / wall-clock / environment
                                / global mutation
REP012   async-safety           no blocking call (pool drive, file IO,
                                ``time.sleep`` ...) reachable from a
                                ``repro.service`` coroutine without an
                                executor hop
REP013   pickle-reachability    a pool submission is a module-level
                                def (or ``partial`` of one, with no
                                lambda arguments), and everything it
                                transitively calls is importable by
                                name in a worker process
=======  =====================  ========================================

Run it as ``repro-cli lint src/ [--format json|text] [--rules ...]
[--no-flow] [--dump-graph G.json] [--include-fixtures]``; exit code
0 = clean, 1 = findings, 2 = usage error.  Per-line exceptions are recorded
inline as ``# lint: disable=REPxxx — <reason>``.  Rule strength is
proven the same way the corpus proves mutant strength:
``tests/lint_fixtures/`` holds known-bad snippets every rule must flag,
asserted in tier-1.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "FileContext": "engine",
    "Finding": "engine",
    "LintEngine": "engine",
    "ProjectContext": "engine",
    "Rule": "engine",
    "FLOW_RULES": "flow",
    "make_flow_rules": "flow",
    "CallGraph": "graph",
    "build_graph": "graph",
    "graph_doc": "graph",
    "render_graph": "graph",
    "render_json": "report",
    "render_text": "report",
    "report_doc": "report",
    "ALL_RULES": "rules",
    "make_rules": "rules",
    "LintResult": "runner",
    "LintUsageError": "runner",
    "collect_files": "runner",
    "run_lint": "runner",
    "ModuleSymbols": "symbols",
    "build_module_symbols": "symbols",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
