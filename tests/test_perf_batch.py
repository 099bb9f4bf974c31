"""Batch drivers, engine dispatch, the pooled map and the benchmark driver."""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

from repro.gen import random_network
from repro.perf.batch import (
    VECTOR_MIN_STREAMS,
    BatchResult,
    _analyse_pair,
    _grid_streams,
    _point_seed,
    acceptance_curve,
    analyse_many,
    generate_networks,
    pooled_imap,
    pooled_map,
)
from repro.perf.bench import SCHEMA, format_report, run_benchmark, write_benchmark
from repro.perf.config import analysis_mode_set
from repro.perf.stats import counters
from repro.profibus import analyse


def small_workload(n=10, seed=3):
    return generate_networks(n, seed=seed, d_over_t=(0.2, 0.9))


class TestAnalyseMany:
    def test_matches_per_call_analysis(self):
        nets = small_workload()
        rows = analyse_many(nets)
        assert len(rows) == len(nets) * 3
        for row in rows:
            res = analyse(nets[row.index], row.policy)
            assert row.schedulable == res.schedulable
            assert row.worst_response == res.worst_response
            assert row.tcycle == res.tcycle
            slacks = [
                sr.slack for sr in res.per_stream if sr.slack is not None
            ]
            expected = min(slacks) if slacks and res.schedulable else None
            assert row.worst_slack == expected

    def test_fast_and_generic_rows_identical(self):
        fast_rows = analyse_many(small_workload())
        with analysis_mode_set("generic"):
            generic_rows = analyse_many(small_workload())
        assert fast_rows == generic_rows

    def test_row_order_is_stable(self):
        rows = analyse_many(small_workload(n=4))
        assert [(r.index, r.policy) for r in rows] == [
            (i, p) for i in range(4) for p in ("fcfs", "dm", "edf")
        ]

    def test_custom_policies(self):
        rows = analyse_many(small_workload(n=3), policies=("dm",))
        assert {r.policy for r in rows} == {"dm"}


def large_workload():
    """A grid just above the SoA break-even, built from distinct networks."""
    nets = small_workload(n=450, seed=17)
    assert _grid_streams(nets) >= VECTOR_MIN_STREAMS
    return nets


class TestEngineDispatch:
    def test_default_large_grid_takes_soa_engine(self):
        from repro.perf import vector

        before = counters.vectorized
        rows = analyse_many(large_workload())
        assert (counters.vectorized > before) == vector.numpy_available()
        assert rows == analyse_many(large_workload(), mode="generic")
        assert rows == analyse_many(large_workload(), mode="fast")

    def test_explicit_fast_stays_scalar_on_large_grid(self):
        before = counters.vectorized
        analyse_many(large_workload(), mode="fast")
        assert counters.vectorized == before

    def test_small_grid_stays_scalar(self, monkeypatch):
        from repro.perf import vector

        def refuse(*_args, **_kwargs):
            raise AssertionError("SoA engine ran below the break-even")

        monkeypatch.setattr(vector, "pack_networks", refuse)
        nets = small_workload()
        assert _grid_streams(nets) < VECTOR_MIN_STREAMS
        before = counters.vectorized
        rows = analyse_many(nets)
        assert counters.vectorized == before
        with analysis_mode_set("generic"):
            assert rows == analyse_many(small_workload())

    def test_cold_process_small_grid_skips_numpy(self):
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys\n"
            "from repro.perf.batch import analyse_many, generate_networks\n"
            "analyse_many(generate_networks(8, seed='cold'))\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = src
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("mode", [None, "generic", "fast", "vectorized"])
    @pytest.mark.parametrize("size", ["small", "large"])
    def test_unknown_policy_one_error(self, mode, size):
        net = small_workload(n=1)[0]
        nets = [net] * (1 if size == "small"
                        else -(-VECTOR_MIN_STREAMS // _grid_streams([net])))
        with pytest.raises(ValueError) as info:
            analyse_many(nets, ("dm", "lifo"), mode=mode)
        assert str(info.value) == (
            "unknown policy 'lifo'; pick from ['dm', 'edf', 'fcfs']"
        )


def _with_float_jitter(net):
    """One stream gets a float ``J``: ``stream_specs`` refuses non-int
    attributes, so fast-mode analysis takes the generic fallback."""
    from repro.profibus.network import Network

    m0 = net.masters[0]
    streams = [replace(m0.streams[0], J=1.0)] + list(m0.streams[1:])
    return Network(masters=(m0.with_streams(streams),) + net.masters[1:],
                   slaves=net.slaves, phy=net.phy, ttr=net.ttr)


class TestPooledMap:
    def test_matches_serial_and_preserves_order(self):
        jobs = list(enumerate(small_workload(n=8)))
        fn = partial(_analyse_pair, policies=("dm", "edf"))
        serial = pooled_map(fn, jobs, workers=1)
        pooled = pooled_map(fn, jobs, workers=2, chunksize=2)
        assert pooled == serial
        assert [rows[0].index for rows in pooled] == list(range(8))

    def test_imap_streams_in_order(self):
        jobs = list(enumerate(small_workload(n=6)))
        fn = partial(_analyse_pair, policies=("dm",))
        seen = [rows[0].index
                for rows in pooled_imap(fn, jobs, workers=2, chunksize=1)]
        assert seen == list(range(6))

    def test_generic_fallback_counted_in_generic_bucket(self):
        # Regression: workers used to report fast+generic as one number
        # and the parent folded it all into the fast bucket, crediting
        # generic-fallback iterations inside fast-mode workers as fast.
        nets = small_workload(n=8)
        nets[0] = _with_float_jitter(nets[0])
        jobs = list(enumerate(nets))
        fn = partial(_analyse_pair, policies=("fcfs", "dm", "edf"))
        counters.reset()
        pooled = list(pooled_imap(fn, jobs, workers=2, chunksize=2))
        pooled_split = (counters.fast, counters.generic)
        assert pooled_split[0] > 0
        assert pooled_split[1] > 0  # the float-jitter network's iterations
        counters.reset()
        serial = [fn(job) for job in jobs]
        assert pooled == serial
        assert (counters.fast, counters.generic) == pooled_split


class TestGenerateNetworks:
    def test_reproducible(self):
        a = generate_networks(5, seed=11)
        b = generate_networks(5, seed=11)
        assert a == b
        assert a is not b

    def test_seed_changes_workload(self):
        assert generate_networks(5, seed=1) != generate_networks(5, seed=2)

    def test_ttr_at_least_ring_latency(self):
        for net in generate_networks(10, seed=5):
            assert net.ttr >= net.ring_latency()

    def test_networks_pickle_without_identity_caches(self):
        net = generate_networks(1, seed=9)[0]
        analyse(net, "dm")  # populate instance memos
        clone = pickle.loads(pickle.dumps(net))
        assert clone == net
        for master in clone.masters:
            assert not hasattr(master, "_analysis_memo")
        # and the clone analyses to the same verdicts
        a, b = analyse(net, "edf"), analyse(clone, "edf")
        assert [sr.R for sr in a.per_stream] == [sr.R for sr in b.per_stream]


class TestAcceptanceCurve:
    def test_counts_and_dominance(self):
        curve = acceptance_curve((1.0, 0.2), 6, seed=4)
        assert set(curve) == {1.0, 0.2}
        for counts in curve.values():
            for policy, count in counts.items():
                assert 0 <= count <= 6
            # eq. (16)/(17) dominate eq. (11) pointwise
            assert counts["dm"] >= counts["fcfs"]
            assert counts["edf"] >= counts["fcfs"]

    def test_deterministic(self):
        assert acceptance_curve((0.5,), 5, seed=7) == acceptance_curve(
            (0.5,), 5, seed=7
        )

    def test_fine_grid_points_get_distinct_workloads(self):
        # Regression: `seed * 1_000_003 + int(x * 1000)` collided for
        # tightness levels agreeing to three decimals, feeding 0.2 and
        # 0.2004 identical workloads on fine grids.
        a, b = _point_seed(0, 0.2), _point_seed(0, 0.2004)
        assert a != b
        assert generate_networks(3, seed=a) != generate_networks(3, seed=b)

    def test_point_seed_injective_across_campaign_seeds(self):
        # the old mix also collided across (seed, level) pairs:
        # seed=0/x=1.0 vs seed=1/x=-... ; string encoding cannot
        assert _point_seed(1, 0.2) != _point_seed(0, 0.2)
        assert _point_seed(0, 1.0) != _point_seed(0, 1.0004)


class TestBenchmark:
    def test_report_schema_and_consistency(self, tmp_path):
        report = run_benchmark(n_networks=10, rounds=1, seed=2)
        assert report["schema"] == SCHEMA
        assert report["consistent"] is True
        assert report["workload"]["analyses"] == 30
        assert set(report["modes"]) == {"generic_serial", "fast_serial",
                                        "vectorized_serial"}
        for mode in report["modes"]:
            entry = report["modes"][mode]
            assert entry["analyses_per_sec"] > 0
            assert entry["iterations"] > 0
        assert report["modes"]["fast_serial"]["speedup_vs_generic"] > 0
        vec = report["modes"]["vectorized_serial"]
        assert vec["speedup_vs_generic"] > 0
        assert vec["speedup_vs_fast"] > 0
        from repro.perf import vector

        assert report["machine"]["numpy"] == vector.numpy_version()
        assert report["machine"]["vector_backend"] == vector.backend_name()
        out = tmp_path / "BENCH_batch.json"
        write_benchmark(report, str(out))
        loaded = json.loads(out.read_text())
        assert loaded["schema"] == SCHEMA
        lines = format_report(report)
        assert any("fast_serial" in line for line in lines)
        assert any("vectorized_serial" in line for line in lines)

    def test_mode_restriction(self):
        report = run_benchmark(n_networks=6, rounds=1, seed=3,
                               modes=("generic", "vectorized"))
        assert set(report["modes"]) == {"generic_serial", "vectorized_serial"}
        assert report["consistent"] is True
        with pytest.raises(ValueError):
            run_benchmark(n_networks=4, rounds=1, modes=("warp",))

    def test_cli_bench_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_batch.json"
        rc = main([
            "bench", "--networks", "8", "--rounds", "1",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        data = json.loads(out.read_text())
        assert data["schema"] == SCHEMA
        assert "fast_serial" in data["modes"]
        assert "vectorized_serial" in data["modes"]
        assert "wrote" in capsys.readouterr().out

    def test_cli_bench_mode_restriction(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_batch.json"
        rc = main([
            "bench", "--networks", "6", "--rounds", "1",
            "--mode", "fast", "vectorized", "--out", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert set(data["modes"]) == {"fast_serial", "vectorized_serial"}
        assert data["consistent"] is True
        capsys.readouterr()


class TestRngThreading:
    def test_random_network_rng_param(self):
        import random as _random

        rng = _random.Random(99)
        a = random_network(seed=12345, rng=rng)  # seed ignored with rng
        b = random_network(rng=_random.Random(99))
        assert a == b

    def test_random_taskset_rng_param(self):
        import random as _random

        from repro.gen import random_taskset

        a = random_taskset(4, 0.7, rng=_random.Random(5))
        b = random_taskset(4, 0.7, seed=5)
        assert a == b
