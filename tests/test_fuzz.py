"""Tests for the differential soundness-fuzzing subsystem (repro.fuzz).

Covers the three ISSUE oracles as property tests over fuzz-generated
networks, the campaign engine + report schema, the shrinker, and the
regression the subsystem exists to catch: a deliberately-reintroduced
``_scale_deadlines`` truncation must be found and shrunk from a seeded
campaign.
"""

import json

import pytest

from repro.cli import main
from repro.fuzz import (
    FAMILIES,
    CampaignConfig,
    check_kernel_equivalence,
    check_roundtrip,
    check_soundness,
    check_sweep_scaling,
    generate_instance,
    reference_scaled_deadlines,
    run_campaign,
    shrink_network,
    validate_report_dict,
    write_report,
)
from repro.profibus import network_from_dict, network_to_dict
from repro.profibus.network import Network
from repro.profibus.sweep import ttr_sweep


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generates_valid_network(self, family):
        net = generate_instance(0, family, 0)
        assert net.masters
        assert net.ttr is not None
        assert net.ttr >= net.ring_latency()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_pure_function_of_seed(self, family):
        a = generate_instance(7, family, 3)
        b = generate_instance(7, family, 3)
        assert a == b  # value-equal, fresh instances

    def test_distinct_across_indices(self):
        nets = {generate_instance(0, "jitter-heavy", i) for i in range(6)}
        assert len(nets) > 1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(0, "nope", 0)

    def test_jitter_family_has_jitter(self):
        net = generate_instance(0, "jitter-heavy", 0)
        assert any(s.J > 0 for m in net.masters for s in m.streams)

    def test_tight_ttr_family_is_tight(self):
        net = generate_instance(0, "tight-ttr", 0)
        from repro.profibus.cycle import token_pass_time

        assert net.ttr - net.ring_latency() <= 2 * token_pass_time(net.phy)


def _sample(n_per_family=3, seed=0):
    return [
        (family, i, generate_instance(seed, family, i))
        for family in sorted(FAMILIES)
        for i in range(n_per_family)
    ]


def _truncating_scale_deadlines(network, factor):
    """The pre-fix `_scale_deadlines` with `int()` truncation — the bug
    the campaign's sweep oracle exists to catch."""
    masters = []
    for m in network.masters:
        streams = [
            s.with_deadline(max(1, min(s.T, int(s.D * factor))))
            for s in m.streams
        ]
        masters.append(m.with_streams(streams))
    return Network(masters=tuple(masters), slaves=network.slaves,
                   phy=network.phy, ttr=network.ttr)


class TestOracleProperties:
    """The ISSUE's three property tests, over fuzz-generated networks."""

    def test_sim_vs_analysis_soundness(self):
        for family, i, net in _sample(2):
            policy = ("fcfs", "dm", "edf")[i % 3]
            out = check_soundness(net, policy, seed=0)
            assert out.status in ("ok", "skipped"), (
                f"{family}#{i} {policy}: {out.detail}"
            )

    def test_serialization_round_trip_identity(self):
        for family, i, net in _sample(3):
            assert network_from_dict(network_to_dict(net)) == net, (
                f"{family}#{i}"
            )

    def test_ttr_sweep_monotone_in_ttr(self):
        # eqs. (11)/(16)/(17) are monotone in TTR: once a policy becomes
        # infeasible on a rising TTR grid it must stay infeasible, and
        # while every stream stays schedulable (all fixed points
        # converge) the worst response never decreases.  Beyond that,
        # diverging streams drop out of the max, so no global claim.
        for family, i, net in _sample(2):
            lo = net.ring_latency()
            grid = [lo, lo + 400, lo + 1600, lo + 6400]
            for policy in ("fcfs", "dm"):
                rows = ttr_sweep(net, grid, policies=(policy,))
                sched = [r.schedulable for r in rows]
                for a, b in zip(sched, sched[1:]):
                    assert a or not b, f"{family}#{i} {policy}: {sched}"
                responses = [r.worst_response for r in rows
                             if r.schedulable]
                assert responses == sorted(responses), (
                    f"{family}#{i} {policy}: {responses}"
                )

    def test_kernel_equivalence(self):
        for family, i, net in _sample(2):
            out = check_kernel_equivalence(net)
            assert out.status == "ok", f"{family}#{i}: {out.detail}"

    def test_sweep_scaling_contract(self):
        for family, i, net in _sample(2):
            out = check_sweep_scaling(net, 0.735)
            assert out.status == "ok", f"{family}#{i}: {out.detail}"


class TestSweepRounding:
    """The satellite sweep bugfix: rounding, not truncation."""

    def test_scale_deadlines_rounds(self):
        from repro.profibus.sweep import _scale_deadlines
        from repro.scenarios import single_master_network

        net = single_master_network()
        d0 = net.masters[0].streams[0].D  # 2500
        factor = 0.9999  # D·f = 2499.75: round → 2500, truncate → 2499
        scaled = _scale_deadlines(net, factor)
        got = scaled.masters[0].streams[0].D
        assert got == int(round(d0 * factor)) == 2500
        assert got != int(d0 * factor)  # truncation would be off by one

    def test_reference_matches_production(self, factory_cell):
        from repro.profibus.sweep import _scale_deadlines

        for factor in (0.251, 0.5, 0.735, 0.999, 1.25):
            scaled = _scale_deadlines(factory_cell, factor)
            got = [s.D for m in scaled.masters for s in m.streams]
            assert got == reference_scaled_deadlines(factory_cell, factor)

    def test_ttr_sweep_rounds_float_values(self, factory_cell):
        from repro.profibus import analyse

        rows = ttr_sweep(factory_cell, [2999.6], policies=("dm",))
        assert rows[0].tcycle == analyse(
            factory_cell, "dm", ttr=3000
        ).tcycle

    def test_ttr_sweep_feasibility_on_rounded_value(self, factory_cell):
        # a float just below the ring latency that rounds up to it is
        # analysable, not structurally infeasible
        ring = factory_cell.ring_latency()
        rows = ttr_sweep(factory_cell, [ring - 0.4], policies=("dm",))
        assert rows[0].worst_response is not None


class TestShrinker:
    def test_shrinks_to_local_minimum(self, factory_cell):
        # predicate: any master carries a stream with D < 25 ms
        limit = 25 * 1500

        def fails(net: Network) -> bool:
            return any(s.D < limit for m in net.masters for s in m.streams)

        shrunk = shrink_network(factory_cell, fails)
        assert fails(shrunk)
        assert len(shrunk.masters) == 1
        assert len(shrunk.masters[0].streams) == 1
        assert not shrunk.slaves

    def test_never_fails_predicate_returns_original(self, factory_cell):
        assert shrink_network(factory_cell, lambda n: False) is factory_cell

    def test_predicate_exception_is_not_failing(self, factory_cell):
        def explosive(net):
            if len(net.masters) < 4:
                raise RuntimeError("boom")
            return True

        shrunk = shrink_network(factory_cell, explosive)
        assert len(shrunk.masters) == 4  # crashes never count as failures


class TestCampaign:
    def test_clean_campaign(self, tmp_path):
        result = run_campaign(CampaignConfig(budget=18, seed=0))
        assert result.ok
        assert result.instances == 18
        assert len(result.family_counts) >= 4
        assert all(n > 0 for n in result.family_counts.values())
        for name in ("soundness", "kernel_equivalence", "roundtrip",
                     "sweep_scaling"):
            assert result.oracle_stats[name]["checked"] > 0
            assert result.oracle_stats[name]["failed"] == 0

        path = write_report(result, tmp_path / "FUZZ_report.json")
        doc = json.loads(path.read_text())
        validate_report_dict(doc)
        assert doc["status"] == "ok"
        assert doc["config"]["seed"] == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(budget=0)
        with pytest.raises(ValueError):
            CampaignConfig(families=("nope",))
        with pytest.raises(ValueError):
            # 0 would truncate the counterexample list to empty while
            # failures exist — ok/status must never be maskable
            CampaignConfig(max_counterexamples=0)

    def test_ok_derived_from_failure_counters(self, monkeypatch):
        # more failures than max_counterexamples: the truncated list
        # must not launder the run into "ok"
        from repro.profibus import sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_scale_deadlines",
                            _truncating_scale_deadlines)
        result = run_campaign(
            CampaignConfig(budget=12, seed=0, max_counterexamples=1,
                           shrink=False)
        )
        assert result.oracle_stats["sweep_scaling"]["failed"] > 1
        assert len(result.counterexamples) == 1
        assert result.total_failed > 1
        assert not result.ok

    def test_reintroduced_truncation_is_caught_and_shrunk(self, monkeypatch):
        """The acceptance regression: put the old `int(s.D * factor)`
        truncation back into the sweep layer; a seeded campaign must
        find it, and the shrinker must reduce the counterexample to a
        single-master single-stream network that still fails."""
        from repro.profibus import sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_scale_deadlines",
                            _truncating_scale_deadlines)
        result = run_campaign(
            CampaignConfig(budget=12, seed=0, max_counterexamples=1)
        )
        assert not result.ok
        assert result.oracle_stats["sweep_scaling"]["failed"] > 0
        ce = result.counterexamples[0]
        assert ce.oracle == "sweep_scaling"
        # seeded reproduction: the counterexample identifies its instance
        assert generate_instance(ce.seed, ce.family, ce.index) == ce.network
        # the shrinker drove it to a locally-minimal network...
        assert len(ce.shrunk.masters) == 1
        assert len(ce.shrunk.masters[0].streams) == 1
        # ...that still exhibits the divergence
        out = check_sweep_scaling(ce.shrunk, ce.factor, ce.policy)
        assert out.status == "fail"
        assert "reference" in out.detail

    def test_report_counterexample_documents_load(self, monkeypatch):
        from repro.profibus import sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_scale_deadlines",
                            _truncating_scale_deadlines)
        result = run_campaign(
            CampaignConfig(budget=6, seed=3, max_counterexamples=1,
                           shrink=False)
        )
        assert not result.ok
        from repro.fuzz import report_to_dict

        doc = report_to_dict(result)
        validate_report_dict(doc)
        entry = doc["counterexamples"][0]
        assert network_from_dict(entry["network"]) == \
            result.counterexamples[0].network
        assert network_from_dict(entry["shrunk_network"]) == \
            result.counterexamples[0].shrunk
        assert "generate_instance" in entry["repro"]


class TestPerMasterRegime:
    """The single-outstanding-request regime is a per-master property:
    the §3/§4 queues are shared, so one backlogged stream (R + J > T)
    floods the queue its neighbours wait in and their printed figures
    stop being claims.  seed-0 multi-master-ring #1536 is the concrete
    instance a 2000-budget campaign trips over: M1/m0s0 has R=28696 but
    T=5088, and its FCFS queue-mate m0s1 — individually in regime —
    observes ~35128 > bound 28696."""

    def test_backlogged_queue_mate_is_not_a_false_positive(self):
        net = generate_instance(0, "multi-master-ring", 1536)
        from repro.profibus.ttr import analyse

        a = analyse(net, "fcfs")
        by_name = {f"{sr.master}/{sr.stream.name}": sr for sr in a.per_stream}
        hog, mate = by_name["M1/m0s0"], by_name["M1/m0s1"]
        assert hog.R + hog.stream.J > hog.stream.T  # out of regime
        assert mate.R + mate.stream.J <= mate.stream.T  # in regime alone
        out = check_soundness(net, "fcfs", seed=0)
        assert out.status == "ok", out.detail

    def test_fully_in_regime_master_still_checked(self):
        # the per-master filter must not blanket-skip healthy masters:
        # a clean instance keeps producing decisive ok rows
        net = generate_instance(0, "tight-ttr", 0)
        out = check_soundness(net, "dm", seed=0)
        assert out.status == "ok"


class TestKnownUnsoundCounterexample:
    """seed-0 ``trace-replay`` #1952 of a 2000-budget campaign, shrunk:
    one master at TTR 94 (ring latency 93), a high stream with
    T = D = 3011 and a low stream with T = D = 24058, both on default
    cycles (C = 432).  Every policy bounds the high stream at 526
    (= Tcycle), and the simulated run observes 938.  Pinned as an
    expected failure until the analysis or the simulator is mended; no
    bound is changed here."""

    SHRUNK = {
        "masters": [{"address": 1, "name": "M1", "streams": [
            {"name": "m0s0", "T": 3011, "D": 3011, "cycle": {}},
            {"name": "m0low0", "T": 24058, "D": 24058, "cycle": {},
             "high_priority": False},
        ]}],
        "phy": {"baud_rate": 500000, "max_retry": 1, "tid1": 37,
                "tid2": 60, "tsdr_max": 60, "tsdr_min": 11, "tsl": 100},
        "ttr": 94,
    }

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="observed 938 > bound 526")
    @pytest.mark.parametrize("policy", ["fcfs", "dm", "edf"])
    def test_bound_holds(self, policy):
        net = network_from_dict(self.SHRUNK)
        assert net.ring_latency() == 93
        out = check_soundness(net, policy)
        assert out.status == "ok", out.detail


class TestHorizonAutoExtension:
    """The `incomplete`-verdict skip is now a geometric retry: a horizon
    that starts too short (capped) must be extended until the simulation
    produces a decisive answer, and only an exhausted retry budget is
    recorded as a (tracked) skip."""

    def test_capped_horizon_extends_to_checked_row(self):
        net = generate_instance(0, "multi-master-ring", 0)
        out = check_soundness(net, "dm", seed=0, horizon_cap=2_000,
                              max_extensions=12)
        assert out.status == "ok"
        assert out.extensions > 0  # the cap really was too short

    def test_exhausted_budget_is_a_tracked_skip(self):
        net = generate_instance(0, "multi-master-ring", 0)
        out = check_soundness(net, "dm", seed=0, horizon_cap=2_000,
                              max_extensions=0)
        assert out.status == "skipped"
        assert "incomplete" in out.detail

    def test_extension_result_matches_unconstrained_run(self):
        # the extended run must reach the same verdict the generous
        # default horizon reaches directly
        net = generate_instance(0, "jitter-heavy", 1)
        direct = check_soundness(net, "edf", seed=0)
        extended = check_soundness(net, "edf", seed=0, horizon_cap=4_000,
                                   max_extensions=14)
        assert direct.status == extended.status == "ok"

    def test_campaign_tracks_extensions(self):
        result = run_campaign(CampaignConfig(
            budget=6, seed=0, horizon_cap=2_000,
            max_horizon_extensions=14,
        ))
        assert result.ok
        sound = result.oracle_stats["soundness"]
        assert sound["skipped"] == 0
        assert sound["extended"] > 0
        fam_extended = sum(
            per["soundness"]["extended"]
            for per in result.family_oracle_stats.values()
        )
        assert fam_extended == sound["extended"]


class TestPooledCampaign:
    def test_workers_match_serial(self):
        serial = run_campaign(CampaignConfig(budget=12, seed=5, workers=1))
        pooled = run_campaign(CampaignConfig(budget=12, seed=5, workers=2))
        assert pooled.oracle_stats == serial.oracle_stats
        assert pooled.family_oracle_stats == serial.family_oracle_stats
        assert pooled.family_counts == serial.family_counts
        assert pooled.ok and serial.ok

    def test_pooled_failures_identical_to_serial(self, monkeypatch):
        from repro.profibus import sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_scale_deadlines",
                            _truncating_scale_deadlines)
        serial = run_campaign(CampaignConfig(budget=12, seed=0, workers=1,
                                             shrink=False))
        # pool children fork at submission time, so they inherit the
        # monkeypatched sweep module and fail the same way
        pooled = run_campaign(CampaignConfig(budget=12, seed=0, workers=2,
                                             shrink=False))
        assert not serial.ok and not pooled.ok
        assert pooled.oracle_stats == serial.oracle_stats
        assert [(ce.oracle, ce.family, ce.index, ce.detail)
                for ce in pooled.counterexamples] == \
               [(ce.oracle, ce.family, ce.index, ce.detail)
                for ce in serial.counterexamples]


class TestCheckpointResume:
    def _config(self, path, **kw):
        return CampaignConfig(budget=18, seed=3,
                              checkpoint=str(path / "ck.jsonl"), **kw)

    def test_fresh_run_writes_header_and_rows(self, tmp_path):
        result = run_campaign(self._config(tmp_path))
        assert result.resumed_instances == 0
        lines = [json.loads(l) for l in
                 (tmp_path / "ck.jsonl").read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[0]["seed"] == 3
        rows = [l for l in lines if l["kind"] == "row"]
        assert {r["index"] for r in rows} == set(range(18))

    def test_killed_then_resumed_matches_uninterrupted(self, tmp_path):
        from repro.fuzz import report_to_dict

        full = run_campaign(self._config(tmp_path))
        ck = tmp_path / "ck.jsonl"
        lines = ck.read_text().splitlines()
        # "kill" the campaign: header + 7 rows, the 8th cut mid-write
        ck.write_text("\n".join(lines[:8]) + "\n" + lines[8][:25])
        resumed = run_campaign(self._config(tmp_path))
        assert resumed.resumed_instances == 7
        assert resumed.oracle_stats == full.oracle_stats
        assert resumed.family_oracle_stats == full.family_oracle_stats
        timing_fields = ("created_unix", "timings", "elapsed_seconds",
                         "config", "resumed_instances")
        full_doc = report_to_dict(full)
        resumed_doc = report_to_dict(resumed)
        for key in timing_fields:
            full_doc.pop(key), resumed_doc.pop(key)
        assert resumed_doc == full_doc

    def test_mismatched_header_rejected(self, tmp_path):
        run_campaign(self._config(tmp_path))
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(budget=18, seed=4,  # different seed
                                        checkpoint=str(tmp_path / "ck.jsonl")))

    def test_resume_with_different_workers_is_allowed(self, tmp_path):
        full = run_campaign(self._config(tmp_path, workers=1))
        ck = tmp_path / "ck.jsonl"
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:10]) + "\n")
        resumed = run_campaign(self._config(tmp_path, workers=2))
        assert resumed.resumed_instances == 9
        assert resumed.oracle_stats == full.oracle_stats

    def test_double_kill_keeps_all_progress(self, tmp_path):
        # Regression: resuming used to append straight after a torn
        # trailing line, fusing the first new record into unparseable
        # JSON — a second interruption then lost everything after the
        # first kill point.  The torn line must be truncated away so
        # every resume leg starts on a fresh line.
        full = run_campaign(self._config(tmp_path))
        ck = tmp_path / "ck.jsonl"
        lines = ck.read_text().splitlines()
        # first kill: header + 4 rows, 5th torn mid-write
        ck.write_text("\n".join(lines[:5]) + "\n" + lines[5][:30])
        mid = run_campaign(self._config(tmp_path))
        assert mid.resumed_instances == 4
        # second kill: tear the now-rewritten file again, later on
        lines2 = ck.read_text().splitlines()
        assert all(json.loads(l) for l in lines2)  # no fused garbage
        ck.write_text("\n".join(lines2[:12]) + "\n" + lines2[12][:17])
        final = run_campaign(self._config(tmp_path))
        assert final.resumed_instances == 11  # progress past the 1st kill
        assert final.oracle_stats == full.oracle_stats
        assert final.family_oracle_stats == full.family_oracle_stats

    def test_completed_checkpoint_reruns_nothing(self, tmp_path):
        full = run_campaign(self._config(tmp_path))
        again = run_campaign(self._config(tmp_path))
        assert again.resumed_instances == 18
        assert again.oracle_stats == full.oracle_stats

    def test_empty_checkpoint_file_restarts_cleanly(self, tmp_path):
        """A checkpoint that exists but holds nothing (killed before the
        header flushed) is a fresh start, not an error — and the final
        counters are identical to an uninterrupted run's."""
        full = run_campaign(CampaignConfig(budget=18, seed=3))
        ck = tmp_path / "ck.jsonl"
        ck.write_text("")
        resumed = run_campaign(self._config(tmp_path))
        assert resumed.resumed_instances == 0
        assert resumed.oracle_stats == full.oracle_stats
        assert resumed.family_oracle_stats == full.family_oracle_stats
        lines = ck.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"  # rewritten

    def test_header_only_checkpoint_restarts_cleanly(self, tmp_path):
        full = run_campaign(CampaignConfig(budget=18, seed=3))
        first = run_campaign(self._config(tmp_path))
        ck = tmp_path / "ck.jsonl"
        header = ck.read_text().splitlines()[0]
        ck.write_text(header + "\n")
        resumed = run_campaign(self._config(tmp_path))
        assert resumed.resumed_instances == 0
        assert resumed.oracle_stats == full.oracle_stats
        assert resumed.family_oracle_stats == full.family_oracle_stats
        assert first.oracle_stats == resumed.oracle_stats
        # exactly one header in the rewritten file
        kinds = [json.loads(l)["kind"] for l in
                 ck.read_text().splitlines()]
        assert kinds.count("header") == 1
        assert kinds.count("row") == 18

    def test_fingerprint_mismatch_fails_cleanly_and_preserves_file(
        self, tmp_path
    ):
        """A mismatched header must raise without touching the file, so
        rerunning with the *original* configuration still resumes to
        identical final counters."""
        full = run_campaign(self._config(tmp_path))
        ck = tmp_path / "ck.jsonl"
        before = ck.read_text()
        for bad in (
            CampaignConfig(budget=18, seed=4, checkpoint=str(ck)),
            CampaignConfig(budget=20, seed=3, checkpoint=str(ck)),
            CampaignConfig(budget=18, seed=3, checkpoint=str(ck),
                           horizon_cap=12345),
        ):
            with pytest.raises(ValueError, match="different campaign"):
                run_campaign(bad)
            assert ck.read_text() == before
        again = run_campaign(self._config(tmp_path))
        assert again.resumed_instances == 18
        assert again.oracle_stats == full.oracle_stats
        assert again.family_oracle_stats == full.family_oracle_stats


class TestRedescribePolicies:
    def test_kernel_redescription_uses_campaign_policies(self, monkeypatch):
        """Satellite fix: the shrunk-counterexample detail for the kernel
        oracle must be computed against the campaign's policy set, not
        DEFAULT_POLICIES — the two can disagree under --policies."""
        from repro.fuzz import campaign as campaign_mod

        seen = {}

        def recording_check(network, policies=("SENTINEL",)):
            seen["policies"] = tuple(policies)
            from repro.fuzz.oracles import OracleOutcome

            return OracleOutcome("fail", "kernel detail on shrunk")

        monkeypatch.setattr(campaign_mod, "check_kernel_equivalence",
                            recording_check)
        config = CampaignConfig(budget=1, seed=0, policies=("dm",))
        failure = campaign_mod._Failure(
            oracle=campaign_mod.ORACLE_KERNEL, family="tight-ttr", index=0,
            policy=None, factor=None, detail="original",
        )
        net = generate_instance(0, "tight-ttr", 0)
        detail = campaign_mod._redescribe(failure, net, config)
        assert detail == "kernel detail on shrunk"
        assert seen["policies"] == ("dm",)

    def test_kernel_shrink_predicate_uses_campaign_policies(self, monkeypatch):
        from repro.fuzz import campaign as campaign_mod

        seen = []

        def recording_check(network, policies=("SENTINEL",)):
            seen.append(tuple(policies))
            from repro.fuzz.oracles import OracleOutcome

            return OracleOutcome("ok")

        monkeypatch.setattr(campaign_mod, "check_kernel_equivalence",
                            recording_check)
        config = CampaignConfig(budget=1, seed=0, policies=("edf", "dm"))
        failure = campaign_mod._Failure(
            oracle=campaign_mod.ORACLE_KERNEL, family="tight-ttr", index=0,
            policy=None, factor=None, detail="original",
        )
        predicate = campaign_mod._predicate_for(failure, config)
        predicate(generate_instance(0, "tight-ttr", 0))
        assert seen == [("edf", "dm")]


class TestCliFuzz:
    def test_clean_run_exit_zero(self, capsys, tmp_path):
        out_path = tmp_path / "FUZZ_report.json"
        rc = main(["fuzz", "--budget", "8", "--seed", "1",
                   "--out", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "soundness" in out
        assert "kernel_equivalence" in out
        doc = json.loads(out_path.read_text())
        validate_report_dict(doc)

    def test_family_restriction(self, capsys, tmp_path):
        out_path = tmp_path / "FUZZ_report.json"
        rc = main(["fuzz", "--budget", "4", "--seed", "0",
                   "--families", "tight-ttr", "retry-prone",
                   "--out", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert set(doc["families"]) == {"tight-ttr", "retry-prone"}
