"""Tests for :mod:`repro.lint` — the static invariant checker.

Four layers:

* **rule strength** — every known-bad tree under ``tests/lint_fixtures``
  must be flagged by *exactly* its intended rule (the static analogue
  of the corpus mutation harness: N/N fixtures killed);
* **shipped tree is clean** — ``lint src/`` reports zero findings, so
  every accepted exception in the tree is an explained inline
  suppression;
* **CLI contract** — exit-code matrix (0 clean / 1 findings / 2 usage
  error), text and JSON reporters, ``profibus-rt/lint/v3`` document
  shape;
* **mechanics** — suppression comments, parse failures, rule
  selection.

The interprocedural flow layer (REP010–REP013) has its own suite in
``test_lint_flow.py``; here it only participates through the combined
rule catalogue and the fixture kill matrix.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    ALL_RULES,
    FLOW_RULES,
    LintUsageError,
    render_json,
    render_text,
    run_lint,
)
from repro.schemas import (
    FAMILIES,
    LINT_SCHEMA,
    SCHEMAS,
    TRACE_SCHEMA_V1,
    schema_family,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "lint_fixtures"

FIXTURE_CASES = sorted(p for p in FIXTURES.iterdir() if p.is_dir())


def _write(base: Path, rel: str, text: str) -> Path:
    path = base / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return path


# ---------------------------------------------------------- rule strength

def test_fixture_suite_covers_every_rule():
    intended = {case.name[:6].upper() for case in FIXTURE_CASES}
    assert intended == set(ALL_RULES) | set(FLOW_RULES), (
        "every rule needs at least one known-bad fixture it must kill"
    )


@pytest.mark.parametrize("case", FIXTURE_CASES, ids=lambda p: p.name)
def test_fixture_is_killed_by_exactly_its_intended_rule(case):
    intended = case.name[:6].upper()
    result = run_lint([case])
    rules_hit = {f.rule for f in result.findings}
    assert result.findings, f"{case.name}: known-bad tree produced no findings"
    assert rules_hit == {intended}, (
        f"{case.name}: expected only {intended}, got {sorted(rules_hit)}"
    )
    assert result.exit_code == 1


def test_duplicate_literal_fixture_restates_the_current_tag():
    # the fixture must hit the "duplicates" branch its name describes; a
    # registry bump it missed would land it on the "diverges" branch
    result = run_lint([FIXTURES / "rep003_duplicate_literal"])
    [finding] = result.findings
    assert "duplicates registry constant repro.schemas.API_SCHEMA" \
        in finding.message


def test_fixture_kill_count_is_total():
    killed = [case.name for case in FIXTURE_CASES
              if run_lint([case]).findings]
    assert killed == [case.name for case in FIXTURE_CASES], (
        "every fixture must be killed — a surviving fixture means a "
        "rule lost its teeth"
    )


# ------------------------------------------------------ shipped tree clean

@pytest.fixture(scope="module")
def shipped_lint():
    """One full-tree lint run of ``src/``, shared by the checks below."""
    return run_lint([SRC])


def test_shipped_tree_is_lint_clean(shipped_lint):
    result = shipped_lint
    assert result.findings == [], (
        "committed tree must lint clean; fix the violation or record "
        "an inline '# lint: disable=REPxxx — <reason>':\n"
        + "\n".join(f"{f.path}:{f.line}: {f.rule} {f.message}"
                    for f in result.findings)
    )
    assert result.ok and result.exit_code == 0
    # the deliberate float seams are all explained inline
    assert result.suppressed > 0


def test_shipped_tree_lints_every_module(shipped_lint):
    n_modules = len(list(SRC.rglob("*.py")))
    assert shipped_lint.files == n_modules


# ----------------------------------------------------------- CLI contract

def test_cli_exit_zero_on_clean_tree(capsys):
    assert cli_main(["lint", str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_exit_one_on_findings(capsys):
    case = FIXTURES / "rep001_float_division"
    assert cli_main(["lint", str(case)]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out


def test_cli_exit_two_on_unknown_rule(capsys):
    assert cli_main(["lint", str(SRC), "--rules", "REP999"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err


def test_cli_exit_two_on_missing_path(capsys):
    assert cli_main(["lint", str(REPO / "no-such-dir-anywhere")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_rules_filter_blinds_other_rules(capsys):
    case = FIXTURES / "rep001_float_division"
    assert cli_main(["lint", str(case), "--rules", "REP003"]) == 0
    capsys.readouterr()


def test_cli_json_document_shape(capsys):
    case = FIXTURES / "rep002_wallclock"
    assert cli_main(["lint", str(case), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    # lint: disable=REP003 — pins the frozen tag verbatim
    assert doc["schema"] == LINT_SCHEMA == "profibus-rt/lint/v3"
    assert doc["ok"] is False
    assert doc["files"] == 1
    assert doc["counts"]["findings"] == len(doc["findings"]) == 2
    assert {r["id"] for r in doc["rules"]} == \
        set(ALL_RULES) | set(FLOW_RULES)
    assert set(doc["graph"]) == {"modules", "functions", "edges",
                                 "unresolved"}
    for f in doc["findings"]:
        assert set(f) == {"rule", "path", "line", "col", "message"}
        assert f["rule"] == "REP002"
    # findings arrive sorted by (path, line, col, rule)
    keys = [(f["path"], f["line"], f["col"], f["rule"])
            for f in doc["findings"]]
    assert keys == sorted(keys)


def test_cli_json_clean_tree_is_ok_document(capsys):
    assert cli_main(["lint", str(SRC), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["findings"] == []
    assert doc["counts"]["suppressed"] > 0


def test_render_text_and_json_agree_on_counts():
    result = run_lint([FIXTURES / "rep002_wallclock"])
    doc = result.to_doc()
    assert "2 finding(s)" in render_text(doc)
    assert json.loads(render_json(doc))["counts"]["findings"] == 2


# ------------------------------------------------------------ suppressions

KERNEL_VIOLATION = """\
    def bound(total, n):
        return total / n
"""


def test_same_line_suppression(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py",
           "def bound(total, n):\n"
           "    return total / n  # lint: disable=REP001 — test seam\n")
    result = run_lint([tmp_path])
    assert result.findings == []
    assert result.suppressed == 1


def test_standalone_comment_suppresses_next_line(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py",
           "def bound(total, n):\n"
           "    # lint: disable=REP001 — test seam\n"
           "    return total / n\n")
    result = run_lint([tmp_path])
    assert result.findings == []
    assert result.suppressed == 1


def test_file_level_suppression(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py",
           "# lint: disable-file=REP001\n"
           "def bound(total, n):\n"
           "    return total / n\n"
           "EPS = 1e-9\n")
    result = run_lint([tmp_path])
    assert result.findings == []
    assert result.suppressed == 2


def test_wrong_rule_id_does_not_suppress(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py",
           "def bound(total, n):\n"
           "    return total / n  # lint: disable=REP002 — wrong rule\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP001"]


def test_comma_list_suppresses_both_rules(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py",
           "import time\n"
           "def f(x):\n"
           "    return x / time.time()  # lint: disable=REP001,REP002 — t\n")
    result = run_lint([tmp_path])
    assert result.findings == []
    assert result.suppressed == 2


# --------------------------------------------------------------- mechanics

def test_syntax_error_becomes_rep000_finding(tmp_path):
    _write(tmp_path, "repro/broken.py", "def f(:\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP000"]
    assert result.exit_code == 1


def test_unknown_rule_raises_usage_error(tmp_path):
    with pytest.raises(LintUsageError):
        run_lint([tmp_path], rule_ids=["NOPE42"])


def test_duplicate_path_lints_once(tmp_path):
    _write(tmp_path, "repro/profibus/dm.py", KERNEL_VIOLATION)
    result = run_lint([tmp_path, tmp_path])
    assert len(result.findings) == 1 and result.files == 1


def test_out_of_scope_module_is_not_kernel_checked(tmp_path):
    # floats are fine outside the kernel-critical modules
    _write(tmp_path, "repro/profibus/bandwidth.py",
           "def frac(a, b):\n    return a / b\n")
    assert run_lint([tmp_path]).findings == []


def test_seeded_rng_construction_is_allowed(tmp_path):
    _write(tmp_path, "repro/gen/taskset.py",
           "import random\n"
           "def make(seed):\n"
           "    return random.Random(seed).randint(1, 10)\n")
    assert run_lint([tmp_path]).findings == []


def test_registry_divergent_duplicate_is_flagged(tmp_path):
    _write(tmp_path, "repro/schemas.py",
           'A_SCHEMA = "profibus-rt/api/v1"\n'
           'B_SCHEMA = "profibus-rt/api/v2"\n')
    result = run_lint([tmp_path], rule_ids=["REP003"])
    assert any("divergent versions" in f.message for f in result.findings)


def test_registry_older_version_constant_is_accepted(tmp_path):
    _write(tmp_path, "repro/schemas.py",
           'A_SCHEMA = "profibus-rt/api/v3"\n'
           'A_SCHEMA_V1 = "profibus-rt/api/v1"\n'
           'A_SCHEMA_V2 = "profibus-rt/api/v2"\n')
    assert run_lint([tmp_path], rule_ids=["REP003"]).findings == []


@pytest.mark.parametrize("constant, problem", [
    ('A_SCHEMA_V3 = "profibus-rt/api/v3"',
     "is not older than A_SCHEMA = 'profibus-rt/api/v2'; versions move "
     "only in the current constant"),
    ('A_SCHEMA_V1 = "profibus-rt/api/v0"', "is not version v1"),
    ('A_SCHEMA_V1 = "profibus-rt/fuzz/v1"',
     "is not of A_SCHEMA's family 'profibus-rt/api'"),
    ('B_SCHEMA_V1 = "profibus-rt/api/v1"',
     "names no registry constant B_SCHEMA"),
], ids=["newer", "wrong-version", "other-family", "no-current"])
def test_registry_bad_older_version_constant_is_flagged(tmp_path, constant,
                                                        problem):
    _write(tmp_path, "repro/schemas.py",
           'A_SCHEMA = "profibus-rt/api/v2"\n' + constant + "\n")
    result = run_lint([tmp_path], rule_ids=["REP003"])
    name, _, value = constant.partition(" = ")
    assert [f.message for f in result.findings] == [
        f"registry constant {name} = {value[1:-1]!r} {problem}"]


def test_older_version_literal_names_its_registry_constant(tmp_path):
    # no repro/schemas.py in the linted tree: the installed registry,
    # older-version constants included, is the reference
    _write(tmp_path, "repro/anywhere.py", f"TAG = {TRACE_SCHEMA_V1!r}\n")
    result = run_lint([tmp_path], rule_ids=["REP003"])
    assert [f.message for f in result.findings] == [
        f"schema literal {TRACE_SCHEMA_V1!r} duplicates registry "
        "constant repro.schemas.TRACE_SCHEMA_V1; import the constant "
        "instead of restating the string"]


def test_registry_undocumented_entry_is_flagged(tmp_path):
    _write(tmp_path, "repro/schemas.py",
           'NEW_SCHEMA = "profibus-rt/brand-new/v1"\n')
    (tmp_path / "PERF.md").write_text("# perf\nnothing documented here\n")
    result = run_lint([tmp_path], rule_ids=["REP003"])
    assert any("undocumented" in f.message for f in result.findings)


def test_partial_of_local_def_is_flagged(tmp_path):
    _write(tmp_path, "repro/anywhere.py",
           "from functools import partial\n"
           "from repro.perf.batch import pooled_map\n"
           "def run(items):\n"
           "    def worker(x, k):\n"
           "        return x + k\n"
           "    return pooled_map(partial(worker, k=2), items)\n")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["REP013"]
    assert "'worker'" in result.findings[0].message


def test_module_level_partial_is_accepted(tmp_path):
    _write(tmp_path, "repro/anywhere.py",
           "from functools import partial\n"
           "from repro.perf.batch import pooled_map\n"
           "def worker(x, k):\n"
           "    return x + k\n"
           "def run(items):\n"
           "    return pooled_map(partial(worker, k=2), items)\n")
    result = run_lint([tmp_path])
    assert result.findings == []
    assert "REP013" in {r.rule_id for r in result.flow_rules}


# ------------------------------------------------------- registry hygiene

def test_registry_has_one_version_per_family():
    families = [schema_family(v) for v in SCHEMAS.values()]
    assert len(families) == len(set(families))
    assert set(FAMILIES.values()) == set(SCHEMAS.values())


def test_registry_values_are_well_formed():
    for name, value in SCHEMAS.items():
        assert name.endswith("_SCHEMA")
        assert value.startswith("profibus-rt/")
        assert value.rsplit("/", 1)[1].startswith("v")


def test_registry_is_documented_in_perf_md():
    perf = (REPO / "PERF.md").read_text()
    missing = [v for v in SCHEMAS.values() if v not in perf]
    assert not missing, f"PERF.md never mentions {missing}"
