"""Tests for the golden regression corpus (repro.corpus)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.corpus import (
    MUTANTS,
    CorpusEntry,
    append_entry,
    canonical_json,
    check_corpus,
    load_corpus,
    promote_report_doc,
    record_network,
    run_mutation_harness,
    section_digest,
    validate_entry_doc,
    write_seed_corpus,
)
from repro.corpus.golden import first_difference
from repro.corpus.store import SEED_FUZZ_EXEMPLARS
from repro.fuzz import CampaignConfig, run_campaign
from repro.fuzz.report import report_to_dict
from repro.profibus.serialization import network_to_dict
from repro.scenarios import single_master_network

REPO_CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# ------------------------------------------------------------ entry model

class TestEntryModel:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == \
            canonical_json({"a": [2, 3], "b": 1})

    def test_digest_changes_with_any_value(self):
        a = {"rows": [[1, 2, 3]]}
        b = {"rows": [[1, 2, 4]]}
        assert section_digest(a) != section_digest(b)

    def test_validate_rejects_hand_edited_golden(self):
        entry = record_network(
            single_master_network(), "scenario:single-master",
            {"source": "scenario"},
        )
        doc = entry.to_doc()
        validate_entry_doc(doc)  # intact: fine
        doc["golden"]["analysis"]["probe_ttr"] += 1
        with pytest.raises(ValueError, match="digest"):
            validate_entry_doc(doc)

    def test_validate_rejects_wrong_schema_and_missing_keys(self):
        with pytest.raises(ValueError, match="schema"):
            validate_entry_doc({"schema": "nope"})
        entry = record_network(single_master_network(), "x", {})
        doc = entry.to_doc()
        del doc["network"]
        with pytest.raises(ValueError, match="network"):
            validate_entry_doc(doc)


# ------------------------------------------------------------------ store

class TestStore:
    def test_record_then_check_round_trip(self, tmp_path):
        entry = record_network(
            single_master_network(), "scenario:single-master",
            {"source": "scenario", "scenario": "single-master"},
        )
        append_entry(tmp_path, "local.jsonl", entry)
        report = check_corpus(tmp_path)
        assert report.ok
        assert [r.entry_id for r in report.results] == \
            ["scenario:single-master"]

    def test_duplicate_id_rejected_on_append_and_load(self, tmp_path):
        entry = record_network(single_master_network(), "dup", {})
        append_entry(tmp_path, "a.jsonl", entry)
        with pytest.raises(ValueError, match="already exists"):
            append_entry(tmp_path, "b.jsonl", entry)
        # hand-crafted duplicate across files
        (tmp_path / "b.jsonl").write_text(
            canonical_json(entry.to_doc()) + "\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_corpus(tmp_path)

    def test_update_replaces_in_place(self, tmp_path):
        net = single_master_network()
        entry = record_network(net, "e", {"v": 1})
        append_entry(tmp_path, "a.jsonl", entry)
        entry2 = record_network(net, "e", {"v": 2})
        append_entry(tmp_path, "other.jsonl", entry2, update=True)
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 1
        assert loaded[0].provenance == {"v": 2}
        assert not (tmp_path / "other.jsonl").exists()  # replaced, not moved

    def test_seed_defaults_refuse_to_create_duplicate_ids(self, tmp_path):
        """--seed-defaults rewrites the seed files wholesale; a seed id
        already recorded in a *different* file must be rejected, or the
        directory would end up unloadable with duplicate ids."""
        entry = record_network(single_master_network(),
                               "scenario:single-master", {})
        append_entry(tmp_path, "local.jsonl", entry)
        with pytest.raises(ValueError, match="local.jsonl"):
            write_seed_corpus(tmp_path)
        load_corpus(tmp_path)  # directory left intact and loadable

    def test_corrupt_line_reported_with_location(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text("{not json\n")
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_corpus(tmp_path)

    def test_check_detects_a_drifted_golden(self, tmp_path):
        entry = record_network(single_master_network(), "e", {})
        doc = entry.to_doc()
        # simulate a regression: shift one frozen response, re-digest so
        # the entry itself is well-formed
        doc["golden"]["analysis"]["modes"]["fast"]["base"]["dm"]["rows"][0][2] += 1
        doc["digests"]["analysis"] = section_digest(doc["golden"]["analysis"])
        (tmp_path / "a.jsonl").write_text(canonical_json(doc) + "\n")
        report = check_corpus(tmp_path)
        assert not report.ok
        sections = {s for s, _ in report.results[0].mismatches}
        assert "analysis" in sections
        detail = dict(report.results[0].mismatches)["analysis"]
        assert "golden" in detail and "recomputed" in detail

    def test_first_difference_locates_path(self):
        a = {"x": [1, {"y": 2}]}
        b = {"x": [1, {"y": 3}]}
        assert first_difference(a, b) == "$.x[1].y: golden 2 != recomputed 3"
        assert first_difference(a, a) is None


# -------------------------------------------------------- shipped corpus

class TestShippedCorpus:
    def test_committed_corpus_is_bit_exact(self):
        report = check_corpus(REPO_CORPUS)
        assert report.ok, "\n".join(report.format_lines(verbose=True))

    def test_committed_corpus_has_the_seeded_population(self):
        entries = load_corpus(REPO_CORPUS)
        ids = {e.entry_id for e in entries}
        for scenario in ("factory-cell", "paper-illustration",
                         "single-master"):
            assert f"scenario:{scenario}" in ids
        for family, index in SEED_FUZZ_EXEMPLARS.items():
            assert f"fuzz:{family}#{index}@seed0" in ids

    def test_seed_corpus_regenerates_identically(self, tmp_path):
        """The committed files are exactly what --seed-defaults writes —
        no hand edits, and recording is deterministic."""
        write_seed_corpus(tmp_path)
        for path in sorted(REPO_CORPUS.glob("*.jsonl")):
            if path.name == "promoted.jsonl":
                continue  # grows via promotion, not seeding
            assert (tmp_path / path.name).read_text() == path.read_text(), \
                f"{path.name} drifted from --seed-defaults output"

    def test_short_horizon_entry_freezes_pending_accounting(self):
        entries = {e.entry_id: e for e in load_corpus(REPO_CORPUS)}
        rows = entries["scenario:factory-cell-short-horizon"] \
            .golden["validation"]["rows"]
        # name, bound, observed, completed, released, unfinished,
        # pending_age, effective_observed, verdict
        pending = [r for r in rows if r[6] > r[2]]
        assert pending, "short-horizon entry lost its pending rows"
        assert any(r[8] == "incomplete" for r in rows)


# ------------------------------------------------------ mutation strength

class TestPooledCheck:
    """``corpus check --workers N``: entries are independent, so the
    pooled report must be identical to the serial one (the container
    may only have one core — equality, not wall-clock, is the test)."""

    IDS = ("probe:event-order", "scenario:single-master")

    def test_pooled_report_matches_serial(self):
        serial = check_corpus(REPO_CORPUS, entry_ids=self.IDS)
        pooled = check_corpus(REPO_CORPUS, entry_ids=self.IDS, workers=2)
        assert pooled.ok
        assert pooled.results == serial.results
        assert pooled.format_lines(verbose=True) == \
            serial.format_lines(verbose=True)

    def test_pooled_check_cli(self, capsys):
        assert main(["corpus", "check", "--dir", str(REPO_CORPUS),
                     "--entry", "probe:event-order", "--workers", "2"]) == 0
        assert "1/1 entries bit-exact" in capsys.readouterr().out


class TestMutationStrength:
    def test_all_mutants_killed(self):
        from repro.perf import vector

        report = run_mutation_harness(REPO_CORPUS)
        assert report.baseline_ok
        assert not report.survivors, "\n".join(report.format_lines())
        # the acceptance bar: at least 8 named analytic mutants die
        assert report.killed >= 8
        # every mutant dies with numpy; without it only the packing-seam
        # mutant is not applicable (nothing is packed)
        skipped = [] if vector.numpy_available() else ["vec-int32-truncation"]
        assert report.not_applicable == skipped
        assert report.killed == len(MUTANTS) - len(skipped)
        for outcome in report.outcomes:
            if outcome.mutant not in skipped:
                assert outcome.killed_by_entry
                assert outcome.killed_by_sections

    def test_harness_restores_every_seam(self):
        """After the harness, the unmutated check still passes — no
        patch leaked out of its context manager."""
        run_mutation_harness(REPO_CORPUS,
                             mutant_names=["tdel-drops-overrunner",
                                           "validate-ignores-pending",
                                           "serialization-drops-jitter"])
        assert check_corpus(REPO_CORPUS).ok

    def test_unknown_mutant_rejected(self):
        with pytest.raises(ValueError, match="unknown mutant"):
            run_mutation_harness(REPO_CORPUS, mutant_names=["nope"])

    def test_mutants_are_honest(self):
        """Every mutant changes behaviour somewhere: killed by a real
        section, not by accident of the harness."""
        for mutant in MUTANTS.values():
            assert mutant.expected_killers
            assert mutant.description


# -------------------------------------------------------------- promotion

def _fake_report_doc(network, oracle="sweep_scaling", family="tight-ttr",
                     index=3, seed=7):
    doc = network_to_dict(network)
    counters = {"checked": 1, "failed": 1, "skipped": 0, "extended": 0}
    clean = {"checked": 1, "failed": 0, "skipped": 0, "extended": 0}
    oracles = {name: (counters if name == oracle else dict(clean))
               for name in ("soundness", "kernel_equivalence", "roundtrip",
                            "sweep_scaling")}
    return {
        # lint: disable=REP003 — literal on purpose: the fixture must
        # not drift with the registry it is testing against
        "schema": "profibus-rt/fuzz/v2",
        "config": {}, "instances": 1, "families": {family: 1},
        "oracles": oracles,
        "family_oracles": {family: {k: dict(v) for k, v in oracles.items()}},
        "counterexamples": [{
            "oracle": oracle, "family": family, "index": index, "seed": seed,
            "policy": "dm", "factor": 0.75, "detail": "d",
            "network": doc, "shrunk_network": doc, "shrunk_detail": "sd",
        }],
        "timings": {"total_seconds": 0.0},
        "status": "fail",
    }


class TestPromotion:
    def test_promote_then_idempotent(self, tmp_path):
        doc = _fake_report_doc(single_master_network())
        result = promote_report_doc(doc, tmp_path)
        assert result.ok
        # the failing policy is part of the identity: the same instance
        # can fail the same oracle under a different --policies rotation
        assert result.added == ["fuzz:tight-ttr#3@seed7:sweep_scaling:dm"]
        again = promote_report_doc(doc, tmp_path)
        assert again.added == [] and again.skipped == result.added
        entries = load_corpus(tmp_path)
        assert entries[0].provenance["source"] == "fuzz-counterexample"
        assert entries[0].provenance["oracle"] == "sweep_scaling"
        # the frozen entry checks clean once the (hypothetical) bug is
        # out of the code base — which it is, here
        assert check_corpus(tmp_path).ok

    def test_promoted_entry_pins_failure_coordinates(self, tmp_path):
        doc = _fake_report_doc(single_master_network())
        promote_report_doc(doc, tmp_path)
        entry = load_corpus(tmp_path)[0]
        assert 0.75 in entry.config["sweep_factors"]
        assert entry.config["validation"]["policy"] == "dm"

    def test_counterexample_missing_keys_is_an_error_not_a_crash(
        self, tmp_path
    ):
        """validate_report_dict only checks the report's top level; a
        hand-trimmed counterexample must come back as a promotion error,
        never a KeyError traceback."""
        doc = _fake_report_doc(single_master_network())
        del doc["counterexamples"][0]["shrunk_network"]
        del doc["counterexamples"][0]["oracle"]
        result = promote_report_doc(doc, tmp_path)
        assert not result.ok
        assert result.errors[0][0] == "counterexamples[0]"
        assert "missing key(s)" in result.errors[0][1]
        # optional fields may be absent without blocking promotion
        doc2 = _fake_report_doc(single_master_network())
        for key in ("policy", "factor", "detail", "shrunk_detail"):
            del doc2["counterexamples"][0][key]
        result2 = promote_report_doc(doc2, tmp_path)
        assert result2.ok and len(result2.added) == 1

    def test_distinct_policies_promote_as_distinct_entries(self, tmp_path):
        """The same (oracle, family, index, seed) failing under another
        --policies rotation is a different regression — it must not be
        skipped as already-promoted."""
        doc = _fake_report_doc(single_master_network())
        promote_report_doc(doc, tmp_path)
        doc["counterexamples"][0]["policy"] = "edf"
        result = promote_report_doc(doc, tmp_path)
        assert result.added == ["fuzz:tight-ttr#3@seed7:sweep_scaling:edf"]
        entries = {e.entry_id: e for e in load_corpus(tmp_path)}
        assert entries["fuzz:tight-ttr#3@seed7:sweep_scaling:edf"] \
            .config["validation"]["policy"] == "edf"

    def test_same_content_under_new_coordinates_is_value_deduped(
            self, tmp_path):
        """A counterexample whose *network content* is already frozen —
        even under different fuzz coordinates (index/seed), i.e. a
        different entry id — is skipped: the fingerprint value key, not
        the name, decides what counts as already-promoted."""
        promote_report_doc(_fake_report_doc(single_master_network()),
                           tmp_path)
        again = promote_report_doc(
            _fake_report_doc(single_master_network(), index=9, seed=11),
            tmp_path)
        assert again.ok
        assert again.added == []
        assert again.skipped == ["fuzz:tight-ttr#9@seed11:sweep_scaling:dm"]
        assert len(load_corpus(tmp_path)) == 1

    def test_same_content_different_oracle_still_promotes(self, tmp_path):
        """The value key is (fingerprint, oracle, policy): the same
        network failing a *different* oracle is new evidence."""
        promote_report_doc(_fake_report_doc(single_master_network()),
                           tmp_path)
        other = promote_report_doc(
            _fake_report_doc(single_master_network(), oracle="soundness"),
            tmp_path)
        assert other.added == ["fuzz:tight-ttr#3@seed7:soundness:dm"]
        assert len(load_corpus(tmp_path)) == 2

    def test_torn_promoted_line_does_not_block_promotion(self, tmp_path):
        """A kill mid-append leaves a partial trailing line; the next
        promotion must treat that entry as not-yet-recorded instead of
        crashing after the campaign already spent its budget — and a new
        entry appended afterwards must not fuse with the torn fragment
        into one unparseable line."""
        doc = _fake_report_doc(single_master_network())
        promote_report_doc(doc, tmp_path)
        path = tmp_path / "promoted.jsonl"
        intact = path.read_text()
        path.write_text(intact + intact[: len(intact) // 3].rstrip("\n"))
        result = promote_report_doc(doc, tmp_path)
        assert result.ok
        assert result.skipped  # the intact line still counts as present
        # a NEW counterexample (different network content — same content
        # would be skipped by the fingerprint value-dedup) lands on a
        # fresh line (torn tail dropped: it was never durably recorded,
        # so nothing is lost)
        doc2 = _fake_report_doc(single_master_network(n_streams=3), index=9)
        result2 = promote_report_doc(doc2, tmp_path)
        assert result2.added
        entries = load_corpus(tmp_path)  # strict parse: file fully valid
        assert {e.entry_id for e in entries} == \
            set(result.skipped) | set(result2.added)
        assert check_corpus(tmp_path).ok

    def test_unparseable_shrunk_network_is_an_error(self, tmp_path):
        doc = _fake_report_doc(single_master_network())
        doc["counterexamples"][0]["shrunk_network"] = {"masters": "nope"}
        result = promote_report_doc(doc, tmp_path)
        assert not result.ok
        assert "does not parse" in result.errors[0][1]

    def test_campaign_auto_promotes_shrunk_counterexamples(self, tmp_path):
        """End to end: a campaign run under the catalogued truncation
        mutant finds failures and freezes their shrunk counterexamples
        into config.corpus_dir at campaign end."""
        corpus_dir = tmp_path / "corpus"
        with MUTANTS["sweep-truncated-deadline-scale"].apply():
            result = run_campaign(CampaignConfig(
                budget=12, seed=0, corpus_dir=str(corpus_dir),
            ))
        assert not result.ok
        assert result.promoted_entries
        assert not result.promotion_errors
        entries = load_corpus(corpus_dir)
        assert {e.entry_id for e in entries} == set(result.promoted_entries)
        doc = report_to_dict(result)
        assert doc["corpus_promotion"]["added"] == \
            list(result.promoted_entries)
        assert doc["config"]["corpus_dir"] == str(corpus_dir)
        # each promoted entry pins its own failing coordinates: the
        # counterexample's sweep factor joins the default grid
        for e in entries:
            assert e.provenance["factor"] in e.config["sweep_factors"]
            assert e.config["validation"]["policy"] == \
                e.provenance["policy"]
        # the goldens were frozen *under the injected bug*; with the bug
        # gone (the mutant context exited) the sweep section must flag
        # EVERY promoted entry — the pinned factor guarantees the
        # divergence is inside the frozen grid
        report = check_corpus(corpus_dir)
        assert not report.ok
        assert len(report.failed) == len(report.results)
        assert all(
            "sweep" in {s for s, _ in r.mismatches} for r in report.failed
        )


# ------------------------------------------------------------------- CLI

class TestCorpusCli:
    def test_check_committed_corpus(self, capsys):
        rc = main(["corpus", "check", "--dir", str(REPO_CORPUS)])
        out = capsys.readouterr().out
        assert rc == 0
        n = len(load_corpus(REPO_CORPUS))  # grows with promotions
        assert f"{n}/{n} entries bit-exact" in out

    def test_record_scenario_then_check(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        rc = main(["corpus", "record", "--dir", d,
                   "--scenario", "single-master"])
        assert rc == 0
        rc = main(["corpus", "check", "--dir", d])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scenario:single-master" in out

    def test_record_file_derives_id(self, tmp_path, capsys):
        path = tmp_path / "plant.json"
        main(["export", "--scenario", "single-master", str(path)])
        d = str(tmp_path / "c")
        rc = main(["corpus", "record", "--dir", d, "--file", str(path)])
        assert rc == 0
        assert load_corpus(d)[0].entry_id == "file:plant"

    def test_record_without_source_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["corpus", "record", "--dir", str(tmp_path)])

    def test_mutants_subcommand_single_kill(self, capsys):
        rc = main(["corpus", "mutants", "--dir", str(REPO_CORPUS),
                   "--mutant", "fcfs-queue-undercount"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "killed" in out and "1/1" in out

    def test_diff_points_at_divergence(self, tmp_path, capsys):
        entry = record_network(single_master_network(), "e", {})
        doc = entry.to_doc()
        doc["golden"]["sweep"]["ttr"][0][3] = \
            not doc["golden"]["sweep"]["ttr"][0][3]
        doc["digests"]["sweep"] = section_digest(doc["golden"]["sweep"])
        (tmp_path / "a.jsonl").write_text(canonical_json(doc) + "\n")
        rc = main(["corpus", "diff", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "sweep" in out and "$." in out

    def test_promote_missing_report_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["corpus", "promote", "--dir", str(tmp_path),
                  "--report", str(tmp_path / "nope.json")])

    def test_update_refreezes_all(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        main(["corpus", "record", "--dir", d, "--scenario", "single-master"])
        capsys.readouterr()
        rc = main(["corpus", "record", "--dir", d, "--update"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "refroze 1 entries" in out
        assert check_corpus(d).ok

    def test_targeted_update_preserves_pinned_config(self, tmp_path):
        """Re-recording an existing entry by source keeps its pinned
        config and provenance — the short-horizon entry must not revert
        to derived defaults and silently stop testing pending ages."""
        from repro.corpus.store import FACTORY_CELL_SHORT_HORIZON

        d = str(tmp_path / "c")
        write_seed_corpus(d)
        rc = main(["corpus", "record", "--dir", d,
                   "--scenario", "factory-cell",
                   "--id", "scenario:factory-cell-short-horizon",
                   "--update"])
        assert rc == 0
        entries = {e.entry_id: e for e in load_corpus(d)}
        entry = entries["scenario:factory-cell-short-horizon"]
        assert entry.config["validation"]["horizon"] == \
            FACTORY_CELL_SHORT_HORIZON
        assert "note" in entry.provenance
        assert check_corpus(d).ok

    def test_half_executing_flag_combinations_rejected(self, tmp_path):
        d = str(tmp_path / "c")
        with pytest.raises(SystemExit, match="--seed-defaults"):
            main(["corpus", "record", "--dir", d, "--seed-defaults",
                  "--ttr", "9999"])
        with pytest.raises(SystemExit, match="refreezes the whole corpus"):
            main(["corpus", "record", "--dir", d, "--update",
                  "--id", "scenario:single-master"])
