"""Batch drivers, engine dispatch and the pooled map."""

import os
import pickle
import subprocess
import sys
from contextlib import nullcontext
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
    engine_rows,
    generate_networks,
    lane_rows,
    network_rows,
    pooled_imap,
    pooled_map,
)
from repro.perf.config import analysis_mode_set
from repro.perf.stats import counters
from repro.profibus import analyse


def _rows_on(engine, *args):
    """The grid's rows on one engine: ``analyse_many(*args)`` by default
    (``None``) or under the ``generic`` reference, the per-network
    kernels (``fast``) or the lanes (``vectorized``) at any size."""
    if engine == "fast":
        return network_rows(*args)
    if engine == "vectorized":
        return lane_rows(*args)
    with analysis_mode_set(engine) if engine else nullcontext():
        return analyse_many(*args)


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
        assert rows == _rows_on("generic", large_workload())
        assert rows == _rows_on("fast", large_workload())

    def test_explicit_fast_stays_scalar_on_large_grid(self):
        before = counters.vectorized
        _rows_on("fast", large_workload())
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
            _rows_on(mode, nets, ("dm", "lifo"))
        assert str(info.value) == (
            "unknown policy 'lifo'; pick from ['dm', 'edf', 'fcfs']"
        )


def _grid_of(streams):
    """Networks holding exactly ``streams`` streams in all: copies of one
    single-master network and a trimmed last one."""
    net = generate_networks(1, seed="grid", n_masters=1,
                            streams_per_master=10)[0]
    master = net.masters[0]
    full, rest = divmod(streams, len(master.streams))
    nets = [net] * full
    if rest:
        nets.append(replace(net, masters=(
            master.with_streams(master.streams[:rest]),)))
    assert sum(len(m.streams) for n in nets for m in n.masters) == streams
    return nets


@pytest.fixture
def packs(monkeypatch):
    """Every ``vector.pack_networks`` call's network count, in order."""
    from repro.perf import vector

    calls = []
    real = vector.pack_networks

    def counting(networks, *args, **kwargs):
        calls.append(len(networks))
        return real(networks, *args, **kwargs)

    monkeypatch.setattr(vector, "pack_networks", counting)
    return calls


class TestDispatchPacks:
    """The grid picks the engine, and only ``generic`` overrides it."""

    @pytest.mark.parametrize("scope", [None, "generic"])
    def test_one_pack_from_the_threshold_up(self, packs, scope):
        from repro.perf import vector

        lanes = vector.numpy_available() and scope is None
        rows = {}
        for streams in (VECTOR_MIN_STREAMS - 1, VECTOR_MIN_STREAMS):
            nets = _grid_of(streams)
            packs.clear()
            rows[streams] = _rows_on(scope, nets)
            assert packs == ([len(nets)] if lanes
                             and streams >= VECTOR_MIN_STREAMS else [])
        # the networks both grids share get the same rows on either side
        below, at = rows[VECTOR_MIN_STREAMS - 1], rows[VECTOR_MIN_STREAMS]
        assert below[:-3] == at[:-3]

    def test_engine_rows_pack_once_for_the_lane_leg(self, packs):
        from repro.fuzz.families import FAMILIES, generate_instance
        from repro.perf import vector

        # the grid of a 700-instance campaign at seed 0: 5,371 streams
        families = list(FAMILIES)
        nets = [generate_instance(0, families[i % len(families)], i)
                for i in range(700)]
        assert _grid_streams(nets) >= VECTOR_MIN_STREAMS
        seen, rows = [], {}
        for engine, engine_grid in engine_rows(nets):
            seen.append((engine, list(packs)))
            rows[engine] = engine_grid
        lane = [len(nets)] if vector.numpy_available() else []
        assert seen == [("generic", []), ("fast", []), ("vectorized", lane)]
        assert rows["generic"] == rows["fast"] == rows["vectorized"]
        assert len(rows["generic"]) == 3 * len(nets)


def _with_float_jitter(net):
    """One stream gets a float ``J``: ``stream_specs`` refuses non-int
    attributes, so fast-mode analysis takes the generic fallback."""
    from repro.profibus.network import Network

    m0 = net.masters[0]
    streams = [replace(m0.streams[0], J=1.0)] + list(m0.streams[1:])
    return Network(masters=(m0.with_streams(streams),) + net.masters[1:],
                   slaves=net.slaves, phy=net.phy, ttr=net.ttr)


class TestBatchResultRows:
    """``BatchResult`` is a ``NamedTuple``: fixed field names and order,
    rows equal to plain tuples, and one row type from every engine."""

    FIELDS = ("index", "policy", "schedulable", "worst_response",
              "worst_slack", "tcycle")

    def test_field_names_and_order(self):
        assert BatchResult._fields == self.FIELDS
        row = BatchResult(3, "dm", True, 120, 40, 900)
        assert tuple(row) == (3, "dm", True, 120, 40, 900)
        assert row == (3, "dm", True, 120, 40, 900)
        index, policy, sched, worst, slack, tcycle = row
        assert (index, policy, sched, worst, slack, tcycle) == tuple(
            getattr(row, name) for name in self.FIELDS)
        assert hash(row) == hash(tuple(row))
        assert pickle.loads(pickle.dumps(row)) == row

    @pytest.mark.parametrize("fallback_at", [(), (0,), (4,), (0, 3, 9)])
    def test_rows_equal_between_modes(self, fallback_at):
        # fallback networks are spliced between the packed ones in
        # index order, wherever they sit in the grid
        nets = small_workload(n=10, seed=11)
        for k in fallback_at:
            nets[k] = _with_float_jitter(nets[k])
        rows = {mode: _rows_on(mode, nets)
                for mode in ("generic", "fast", "vectorized")}
        assert rows["vectorized"] == rows["generic"] == rows["fast"]
        assert [(r.index, r.policy) for r in rows["vectorized"]] == [
            (i, p) for i in range(len(nets)) for p in ("fcfs", "dm", "edf")
        ]
        for mode_rows in rows.values():
            assert {type(r) for r in mode_rows} == {BatchResult}

    def test_grid_count_stops_at_the_threshold(self, monkeypatch):
        import repro.perf.batch as batch_mod

        nets = small_workload(n=6)
        per_net = [sum(len(m.streams) for m in net.masters) for net in nets]
        assert _grid_streams(nets) == sum(per_net) < VECTOR_MIN_STREAMS
        assert _grid_streams([]) == 0
        # counting stops after the first network that reaches the
        # dispatch threshold
        monkeypatch.setattr(batch_mod, "VECTOR_MIN_STREAMS", per_net[0] + 1)
        assert _grid_streams(nets) == sum(per_net[:2])
        monkeypatch.setattr(batch_mod, "VECTOR_MIN_STREAMS", 1)
        assert _grid_streams(nets) == per_net[0]


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
        analyse(net, "dm")  # populate the cached stream partitions
        clone = pickle.loads(pickle.dumps(net))
        assert clone == net
        for obj in (clone,) + clone.masters:
            assert not [k for k in vars(obj) if k.startswith("_")]
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
