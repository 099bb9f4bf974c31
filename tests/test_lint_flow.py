"""Tests for the interprocedural flow layer — ``repro.lint.flow`` and
the call graph underneath it (``repro.lint.graph`` / ``symbols``).

Four layers:

* **call graph** — cross-module resolution, unresolved-call categories
  (recorded, never dropped), deterministic ``--dump-graph`` artifact;
* **rule semantics** — what each of REP010–REP013 must flag *and* the
  negatives it must not (executor hop, seeded RNG, module-level
  partial), the part a kill matrix alone cannot pin;
* **taint paths** — the REP010 finding names every hop down to the
  float source;
* **runner plumbing** — ``--no-flow``, flow rule selection via
  ``--rules``, fixture-tree exclusion + ``--include-fixtures``.
"""

import io
import json
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import build_graph, run_lint
from repro.schemas import CALLGRAPH_SCHEMA

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "lint_fixtures"


def _write(base: Path, rel: str, text: str) -> Path:
    path = base / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return path


# --------------------------------------------------------------- call graph

def test_cross_module_call_resolves_to_qualname(tmp_path):
    _write(tmp_path, "repro/profibus/helper.py",
           "def scale(x):\n    return x + 1\n")
    _write(tmp_path, "repro/profibus/user.py",
           "from .helper import scale\n"
           "def apply(x):\n    return scale(x)\n")
    graph = build_graph([(p, str(p)) for p in
                         sorted(tmp_path.rglob("*.py"))])
    edges = {(s.caller, s.callee)
             for sites in graph.calls.values() for s in sites}
    assert ("repro.profibus.user.apply",
            "repro.profibus.helper.scale") in edges


def test_function_local_imports_resolve_to_qualnames(tmp_path):
    # a subcommand imports what it runs inside its body
    _write(tmp_path, "repro/profibus/helper.py",
           "def scale(x):\n    return x + 1\n")
    _write(tmp_path, "repro/cli.py",
           "def by_name(x):\n"
           "    from .profibus.helper import scale\n"
           "    return scale(x)\n"
           "def by_module(x):\n"
           "    if x:\n"
           "        from .profibus import helper\n"
           "        return helper.scale(x)\n"
           "def shadowed(scale):\n"
           "    return scale(1)\n")
    graph = build_graph([(p, str(p)) for p in
                         sorted(tmp_path.rglob("*.py"))])
    edges = {(s.caller, s.callee)
             for sites in graph.calls.values() for s in sites}
    assert {("repro.cli.by_name", "repro.profibus.helper.scale"),
            ("repro.cli.by_module", "repro.profibus.helper.scale")} <= edges
    assert not any(caller == "repro.cli.shadowed" for caller, _ in edges)


def test_unresolved_calls_are_recorded_with_categories(tmp_path):
    _write(tmp_path, "repro/profibus/probe.py",
           "import math\n"
           "def f(obj):\n"
           "    len([1])\n"
           "    math.gcd(2, 4)\n"
           "    ghost()\n"
           "    obj.method()\n")
    graph = build_graph([(p, str(p)) for p in
                         sorted(tmp_path.rglob("*.py"))])
    misses = {(m.name, m.category)
              for lst in graph.unresolved.values() for m in lst}
    assert {("len", "builtin"), ("math.gcd", "external"),
            ("ghost", "unknown"), ("obj.method", "method")} <= misses


def test_unparseable_file_is_skipped_not_fatal(tmp_path):
    p = _write(tmp_path, "repro/broken.py", "def f(:\n")
    graph = build_graph([(p, str(p))])
    assert [display for display, _ in graph.skipped] == [str(p)]
    assert graph.modules == {}


@pytest.fixture(scope="module")
def cli_graph_dump(tmp_path_factory):
    """One full-tree ``lint --format json --dump-graph`` through the CLI:
    ``(exit code, report doc, graph file)``, shared by the CLI test and
    the determinism check (each full-tree graph build costs seconds)."""
    out = tmp_path_factory.mktemp("graph") / "graph.json"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli_main(["lint", str(SRC), "--format", "json",
                         "--dump-graph", str(out)])
    return code, json.loads(stdout.getvalue()), out


def test_dump_graph_is_byte_identical_across_runs(tmp_path, cli_graph_dump):
    # an in-process dump must reproduce the CLI run's file byte for byte
    a = tmp_path / "a.json"
    run_lint([SRC], flow=False, dump_graph=a)
    _code, _report, b = cli_graph_dump
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    # lint: disable=REP003 — pins the frozen tag verbatim
    assert doc["schema"] == CALLGRAPH_SCHEMA == "profibus-rt/callgraph/v1"
    assert set(doc) == {"schema", "modules", "functions", "counts",
                        "skipped"}
    assert doc["counts"]["modules"] == len(doc["modules"]) > 0
    assert doc["counts"]["functions"] == len(doc["functions"]) > 0


def test_dump_graph_cli_and_stats_in_report(cli_graph_dump):
    code, doc, out = cli_graph_dump
    assert code == 0
    assert doc["graph"]["modules"] == \
        json.loads(out.read_text())["counts"]["modules"]


# ----------------------------------------------------------- REP010 taint

def test_rep010_taint_path_names_every_hop():
    result = run_lint([FIXTURES / "rep010_float_helper"])
    assert [f.rule for f in result.findings] == ["REP010"]
    message = result.findings[0].message
    # boundary: the kernel function and the function it calls
    assert "repro.profibus.dm.dm_bound" in message
    assert "repro.profibus.timing.scale_budget" in message
    # intermediate hop and the source itself, each with a location
    assert "repro.profibus.timing.slack_margin" in message
    assert "float literal 1.5" in message
    assert "timing.py:8" in message  # the literal's own line


def test_rep010_kernel_internal_float_is_rep001_not_rep010(tmp_path):
    # floats *inside* a kernel module stay REP001's finding; REP010
    # only fires on cross-module taint
    _write(tmp_path, "repro/profibus/dm.py",
           "def bound(a, b):\n    return a / b\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP001"]


def test_rep010_suppression_at_boundary_site(tmp_path):
    _write(tmp_path, "repro/profibus/timing.py",
           "def scale(x):\n    return x * 1.5\n")
    _write(tmp_path, "repro/profibus/dm.py",
           "from .timing import scale\n"
           "def bound(x):\n"
           "    return scale(x)  # lint: disable=REP010 — test seam\n")
    result = run_lint([tmp_path])
    assert result.findings == []
    assert result.suppressed == 1


# ----------------------------------------------------------- REP011 purity

def test_rep011_seeded_rng_is_pure(tmp_path):
    _write(tmp_path, "repro/fuzz/families.py",
           "import random\n"
           "def generate_instance(seed, family, index):\n"
           "    rng = random.Random(f'{seed}:{family}:{index}')\n"
           "    return rng.randint(1, 10)\n")
    assert run_lint([tmp_path]).findings == []


def test_rep011_direct_impurity_in_entry_is_flagged(tmp_path):
    _write(tmp_path, "repro/corpus/golden.py",
           "import time\n"
           "def compute_golden(network):\n"
           "    return {'at': time.time()}\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP011"]
    assert "wall-clock time.time()" in result.findings[0].message


def test_rep011_fingerprint_entry_outside_entry_modules(tmp_path):
    # global mutation is an impurity only the flow layer sees (REP002's
    # per-file scope does not cover it), and fingerprint() is an entry
    # wherever it is defined
    _write(tmp_path, "repro/profibus/network.py",
           "_count = 0\n"
           "def fingerprint(doc):\n"
           "    global _count\n"
           "    _count = _count + 1\n"
           "    return (_count, str(doc))\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP011"]
    assert "mutation of global '_count'" in result.findings[0].message


def test_rep011_impurity_in_non_entry_is_not_flagged(tmp_path):
    # impure helpers are fine as long as no determinism-critical entry
    # reaches them
    _write(tmp_path, "repro/perf/probe.py",
           "import time\n"
           "def bench_once(fn):\n    return time.perf_counter()\n")
    assert run_lint([tmp_path]).findings == []


# ------------------------------------------------------ REP012 async-safety

def test_rep012_executor_hop_is_not_flagged(tmp_path):
    _write(tmp_path, "repro/service/server.py",
           "import asyncio\n"
           "def _load(path):\n"
           "    with open(path) as fh:\n"
           "        return fh.read()\n"
           "async def handle(path):\n"
           "    loop = asyncio.get_running_loop()\n"
           "    return await loop.run_in_executor(None, _load, path)\n")
    assert run_lint([tmp_path]).findings == []


def test_rep012_direct_blocking_in_coroutine(tmp_path):
    _write(tmp_path, "repro/service/server.py",
           "import time\n"
           "async def handle():\n"
           "    time.sleep(1)\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP012"]
    assert "time.sleep()" in result.findings[0].message


def test_rep012_flagged_once_at_the_offending_frame(tmp_path):
    # a coroutine calling another *service coroutine* that blocks is
    # not re-flagged at the caller: the finding anchors where the fix
    # belongs
    _write(tmp_path, "repro/service/server.py",
           "async def outer(path):\n"
           "    return await inner(path)\n"
           "async def inner(path):\n"
           "    with open(path) as fh:\n"
           "        return fh.read()\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP012"]
    assert "inner" in result.findings[0].message
    assert result.findings[0].line == 4  # the open(), not outer's await


def test_rep012_blocking_outside_service_is_not_flagged(tmp_path):
    _write(tmp_path, "repro/perf/batch.py",
           "async def drive(paths):\n"
           "    return [open(p).read() for p in paths]\n")
    assert run_lint([tmp_path]).findings == []


# ------------------------------------------- REP013 pickle-reachability

def test_rep013_fixture_names_the_runtime_binding():
    result = run_lint([FIXTURES / "rep013_runtime_binding"])
    assert [f.rule for f in result.findings] == ["REP013"]
    assert "'handler'" in result.findings[0].message


def test_rep013_module_level_partial_closure_is_accepted(tmp_path):
    _write(tmp_path, "repro/anywhere.py",
           "from functools import partial\n"
           "from repro.perf.batch import pooled_map\n"
           "def helper(x):\n    return x + 1\n"
           "def worker(x, k):\n    return helper(x) + k\n"
           "def run(items):\n"
           "    return pooled_map(partial(worker, k=2), items)\n")
    assert run_lint([tmp_path]).findings == []


def test_rep013_lambda_partial_argument_is_flagged(tmp_path):
    _write(tmp_path, "repro/anywhere.py",
           "from functools import partial\n"
           "from repro.perf.batch import pooled_map\n"
           "def worker(x, key):\n    return key(x)\n"
           "def run(items):\n"
           "    return pooled_map(partial(worker, key=lambda v: v), items)\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP013"]
    assert "lambda" in result.findings[0].message


def test_rep013_module_level_lambda_submission_is_flagged(tmp_path):
    _write(tmp_path, "repro/anywhere.py",
           "from repro.perf.batch import pooled_map\n"
           "worker = lambda x: x + 1\n"
           "def run(items):\n"
           "    return pooled_map(worker, items)\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP013"]
    assert "<lambda>" in result.findings[0].message


@pytest.mark.parametrize("source, expected", [
    # a lambda bound to a local name
    ("from repro.perf.batch import pooled_map\n"
     "def run(items):\n"
     "    worker = lambda x: x + 1\n"
     "    return pooled_map(worker, items)\n",
     "local lambda 'worker'"),
    # the innermost binding decides: the submitted `worker` is the
    # closure, not the importable module-level def of the same name
    ("from concurrent.futures import ProcessPoolExecutor\n"
     "def worker(x):\n    return x\n"
     "def run(items, k):\n"
     "    def worker(x):\n        return x + k\n"
     "    with ProcessPoolExecutor() as pool:\n"
     "        return [pool.submit(worker, i) for i in items]\n",
     "locally-defined function 'worker'"),
    # submissions at module level are checked too
    ("from repro.perf.batch import pooled_map\n"
     "RESULTS = pooled_map(lambda x: x, [1, 2])\n",
     "a lambda"),
], ids=["local-lambda", "shadowing-nested-def", "module-level-call"])
def test_rep013_unpicklable_submission_is_flagged(tmp_path, source,
                                                  expected):
    _write(tmp_path, "repro/anywhere.py", source)
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP013"]
    assert expected in result.findings[0].message


# --------------------------------------------------------- runner plumbing

def test_no_flow_skips_graph_and_flow_findings():
    result = run_lint([FIXTURES / "rep010_float_helper"], flow=False)
    assert result.findings == []
    assert result.graph_stats is None
    assert result.to_doc()["graph"] is None


def test_rules_filter_selects_flow_rule(capsys):
    case = FIXTURES / "rep010_float_helper"
    assert cli_main(["lint", str(case), "--rules", "REP010"]) == 1
    assert "REP010" in capsys.readouterr().out
    # and a flow-only filter blinds the syntactic rules
    bad = FIXTURES / "rep001_float_division"
    assert cli_main(["lint", str(bad), "--rules", "REP012"]) == 0
    capsys.readouterr()


def test_fixture_trees_are_excluded_from_default_discovery(tmp_path):
    _write(tmp_path, "repro/core/ok.py", "def f(x):\n    return x\n")
    _write(tmp_path, "tests/lint_fixtures/bad/repro/profibus/dm.py",
           "def bound(a, b):\n    return a / b\n")
    assert run_lint([tmp_path]).findings == []
    included = run_lint([tmp_path], include_fixtures=True)
    assert [f.rule for f in included.findings] == ["REP001"]
    assert included.files == run_lint([tmp_path]).files + 1


def test_explicit_fixture_path_is_always_kept(tmp_path):
    bad = _write(tmp_path, "tests/lint_fixtures/bad/repro/profibus/dm.py",
                 "def bound(a, b):\n    return a / b\n")
    # naming the tree (or the file) directly means the caller wants it
    assert run_lint([bad.parent]).findings
    assert run_lint([bad]).findings
