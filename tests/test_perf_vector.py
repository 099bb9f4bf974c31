"""The SoA vector engine (`repro.perf.vector`) — packing, lane engine,
and the three-mode bit-equality contract.

Three properties carry the module:

* ``pack_networks`` must round-trip the object model *exactly* — the
  flat arrays read back as the same ``(Tcycle, (T, D, J)…)`` view the
  scalar kernels receive, and anything unrepresentable lands in
  ``fallback`` rather than being coerced;
* the numpy lane engine's convergence masking (retired lanes compacted
  out per sweep) must be observationally identical to full-width
  per-lane iteration — values, convergence flags *and* iteration
  counts — across thousands of random lane sets in all three recurrence
  kinds;
* ``vectorized`` mode must be bit-identical to ``generic`` and ``fast``
  through the public batch driver, with the numpy lanes and without
  numpy, where the scalar kernels run over the pack.

Numpy-only tests skip cleanly on numpy-free machines; the numpy-free
path is also exercised on numpy machines by patching the probe.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeops import DivergedError
from repro.corpus.mutants import run_mutation_harness
from repro.perf import vector
from repro.perf.batch import analyse_many, generate_networks
from repro.perf.stats import counters
from repro.perf.vector import (
    _PACK_LIMIT,
    MAX_ITER,
    _lanes_np,
    _pack_value,
    pack_networks,
)
from repro.profibus.network import stream_specs
from repro.profibus.timing import tcycle as compute_tcycle

REPO_CORPUS = Path(__file__).resolve().parent.parent / "corpus"

requires_numpy = pytest.mark.skipif(
    vector.numpy_version() is None, reason="numpy unavailable"
)

POLICIES = ("fcfs", "dm", "edf")


def _mixed_workload(n=30, seed="vectest"):
    nets = list(generate_networks(n, seed=seed))
    nets += generate_networks(n // 2, seed=f"{seed}-tight",
                              d_over_t=(0.05, 0.4))
    return nets


# ------------------------------------------------------------------ packing

class TestPackRoundTrip:
    def test_pack_round_trips_object_model(self):
        nets = _mixed_workload(40)
        pack = pack_networks(nets)
        assert pack.fallback == ()
        assert pack.n_packed == len(nets)
        for p, net in enumerate(nets):
            tc = compute_tcycle(net, net.require_ttr(), refined=False)
            want = (tc, tuple(stream_specs(m) for m in net.masters))
            assert pack.network_view(p) == want

    def test_pack_respects_ttr_override(self):
        nets = _mixed_workload(6, seed="ttr-override")
        probe = nets[0].require_ttr() + 256
        pack = pack_networks(nets, ttr=probe)
        for p, net in enumerate(nets):
            assert pack.tc[p] == compute_tcycle(net, probe, refined=False)

    def test_non_int_attributes_fall_back(self):
        nets = _mixed_workload(4, seed="fallback")
        broken = nets[1]
        m0 = broken.masters[0]
        streams = list(m0.streams)
        streams[0] = replace(streams[0], T=float(streams[0].T) + 0.5)
        broken = replace(broken, masters=(m0.with_streams(streams),)
                         + broken.masters[1:])
        nets[1] = broken
        pack = pack_networks(nets)
        assert pack.fallback == (1,)
        assert pack.indices == [0] + list(range(2, len(nets)))
        # the packed networks still round-trip
        for p, idx in enumerate(pack.indices):
            net = nets[idx]
            tc = compute_tcycle(net, net.require_ttr(), refined=False)
            assert pack.network_view(p) == (
                tc, tuple(stream_specs(m) for m in net.masters)
            )

    def test_magnitudes_beyond_pack_limit_fall_back(self):
        nets = _mixed_workload(3, seed="huge")
        huge = nets[0]
        m0 = huge.masters[0]
        streams = list(m0.streams)
        streams[0] = replace(streams[0], T=_PACK_LIMIT + 1, D=_PACK_LIMIT)
        huge = replace(huge, masters=(m0.with_streams(streams),)
                       + huge.masters[1:])
        pack = pack_networks([huge] + nets[1:])
        assert pack.fallback == (0,)

    def test_pack_value_is_the_identity_seam(self):
        # the vec-int32-truncation mutant replaces this; unmutated it
        # must pass every magnitude through untouched
        for v in (0, 1, 2**31, 2**32 + 4_000, _PACK_LIMIT):
            assert _pack_value(v) == v

    @given(
        st.lists(
            st.tuples(
                st.integers(3, 10_000),          # T
                st.integers(1, 10_000),          # D
                st.integers(0, 3_000),           # J
            ),
            min_size=0, max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_master_specs_round_trip_any_columns(self, specs):
        # pack-level property without network construction overhead: a
        # hand-packed single-master layout reads back exactly
        pack = vector.NetworkPack()
        pack.networks = (None,)
        pack.indices.append(0)
        pack.tc.append(100)
        pack.master_net.append(0)
        pack.master_tc.append(100)
        for t, d, j in specs:
            pack.stream_T.append(t)
            pack.stream_D.append(d)
            pack.stream_J.append(j)
        pack.master_stream_start.append(len(pack.stream_T))
        pack.net_master_start.append(1)
        pack.net_stream_start.append(len(pack.stream_T))
        assert pack.network_view(0) == (100, (tuple(specs),))


# -------------------------------------------------------------- lane engine

def _random_lanes(rng, n_lanes, kind):
    """Random lane batch guaranteed to terminate: per-lane utilisation
    stays below 1 for the unlimited ceil map, and the strict/capped
    kinds always carry an overshoot limit."""
    base, x0, limit, counts = [], [], [], []
    eC, eT, eJ, eCap = [], [], [], []
    for _ in range(n_lanes):
        cnt = rng.choice((0, 1, 1, 2, 2, 3, 4))
        b = rng.randint(0, 40)
        total_c = 0
        for _ in range(cnt):
            T = rng.randint(25, 90)
            C = rng.randint(1, 5)
            J = rng.randint(0, 30) if rng.random() < 0.5 else 0
            total_c += C
            eC.append(C)
            eT.append(T)
            eJ.append(J)
            eCap.append(rng.randint(1, 7))
        counts.append(cnt)
        base.append(b)
        # seed one map application below the fixed point, like the
        # pipelines do (any seed ≤ lfp is equivalent for a monotone map)
        x0.append(b if rng.random() < 0.5 else b + total_c)
        limit.append(rng.randint(10, 500))
    lim = limit if (kind != "ceil" or rng.random() < 0.5) else None
    cap = eCap if kind == "capped" else None
    return base, x0, lim, counts, eC, eT, eJ, cap


def _reference_lanes(kind, base, x0, limit, counts, eC, eT, eJ, eCap):
    """Full-width per-lane reference: every lane iterated on its own,
    with the scalar kernels' exit order, and one iteration counted per
    sweep the lane was active."""
    strict = kind != "ceil"
    capped = kind == "capped"
    n = len(base)
    values = [0] * n
    converged = [False] * n
    iters = 0
    pos = 0
    for lane in range(n):
        cnt = counts[lane]
        lo, hi = pos, pos + cnt
        pos = hi
        b = base[lane]
        lim = None if limit is None else limit[lane]
        x = x0[lane]
        for it in range(1, MAX_ITER + 1):
            total = b
            if capped:
                for e in range(lo, hi):
                    k = (x + eJ[e]) // eT[e] + 1
                    cap = eCap[e]
                    total += (k if k < cap else cap) * eC[e]
            elif strict:
                for e in range(lo, hi):
                    total += ((x + eJ[e]) // eT[e] + 1) * eC[e]
            else:
                for e in range(lo, hi):
                    total += -((-x - eJ[e]) // eT[e]) * eC[e]
            if total == x:
                values[lane] = total
                converged[lane] = True
                break
            if lim is not None and total > lim:
                values[lane] = total
                break
            x = total
        else:
            raise DivergedError(
                f"fixed-point iteration did not settle after {MAX_ITER}"
                " iterations",
                x,
            )
        iters += it
    return values, converged, iters


def _masked_lanes(kind, base, x0, limit, counts, eC, eT, eJ, eCap):
    """:func:`_lanes_np` on int64 arrays, read back as lists."""
    np = vector._load_numpy()

    def arr(v):
        return None if v is None else np.asarray(v, dtype=np.int64)

    values, converged, iters = _lanes_np(
        kind, arr(base), arr(x0), arr(limit), arr(counts),
        arr(eC), arr(eT), arr(eJ), arr(eCap))
    return values.tolist(), converged.tolist(), iters


@requires_numpy
class TestLaneEngineMasking:
    """The numpy engine retires converged/overshot lanes and compacts
    the arrays per sweep; every observable must match the full-width
    per-lane reference loop."""

    @pytest.mark.parametrize("kind", ("ceil", "strict", "capped"))
    def test_masked_engine_matches_reference_1000_plus(self, kind):
        rng = random.Random(f"lanes:{kind}")
        checked = 0
        for batch in range(6):
            args = _random_lanes(rng, 200, kind)
            want = _reference_lanes(kind, *args)
            got = _masked_lanes(kind, *args)
            assert got[0] == want[0], f"{kind} batch {batch}: values"
            assert got[1] == want[1], f"{kind} batch {batch}: converged"
            assert got[2] == want[2], f"{kind} batch {batch}: iterations"
            checked += len(args[0])
        assert checked >= 1000

    def test_empty_batch(self):
        assert _masked_lanes("ceil", [], [], None, [], [], [], [], None) \
            == ([], [], 0)

    def test_single_lane_overshoot(self):
        # limit below the fixed point: the lane exits by overshoot and
        # keeps the overshot total (observable in EDF deadline checks)
        args = (["strict", [10], [10], [12], [1], [5], [7], [0], None])
        want = _reference_lanes(*args)
        assert _masked_lanes(*args) == want
        assert want[1] == [False]


# -------------------------------------------------------- mode equivalence

def _assert_batch_modes_equal():
    nets = _mixed_workload(30, seed="threeway")
    generic = analyse_many(nets, POLICIES, mode="generic")
    fast = analyse_many(nets, POLICIES, mode="fast")
    assert fast == generic
    vec = analyse_many(_mixed_workload(30, seed="threeway"), POLICIES,
                       mode="vectorized")
    assert vec == generic


def _assert_rows_match_generic():
    from repro.perf.config import analysis_mode_set
    from repro.profibus.ttr import analyse

    for net in _mixed_workload(10, seed="rows"):
        for policy in POLICIES:
            with analysis_mode_set("generic"):
                res = analyse(net, policy)
            want = {
                "tcycle": res.tcycle,
                "rows": [[sr.master, sr.stream.name, sr.R]
                         for sr in res.per_stream],
            }
            assert vector.response_rows(net, policy) == want


class TestThreeModeEquality:
    def test_batch_modes_bit_identical(self):
        _assert_batch_modes_equal()

    def test_response_rows_match_generic(self):
        _assert_rows_match_generic()

    @requires_numpy
    def test_vectorized_iterations_counted(self):
        counters.reset()
        analyse_many(_mixed_workload(6, seed="count"), POLICIES,
                     mode="vectorized")
        snap = counters.snapshot()
        assert snap["vectorized"] > 0
        assert snap["total"] >= snap["vectorized"]

    def test_unpackable_network_falls_back_identically(self):
        net = _mixed_workload(2, seed="unpack")[0]
        m0 = net.masters[0]
        streams = [replace(s, T=float(s.T)) for s in m0.streams]
        broken = replace(net, masters=(m0.with_streams(streams),)
                         + net.masters[1:])
        rows = analyse_many([broken], POLICIES, mode="vectorized")
        assert rows == analyse_many([broken], POLICIES, mode="generic")


class TestWithoutNumpy:
    """With the probe reporting no numpy, ``vectorized`` runs the scalar
    kernels over the pack: the same rows, no lane iterations, and the
    packing seam still in the path."""

    @pytest.fixture(autouse=True)
    def _no_numpy(self, monkeypatch):
        monkeypatch.setattr(vector, "_load_numpy", lambda: None)

    def test_backend_name_is_scalar(self):
        assert vector.backend_name() == "scalar"
        assert not vector.numpy_available()

    def test_batch_modes_bit_identical_without_lanes(self):
        counters.reset()
        _assert_batch_modes_equal()
        assert counters.snapshot()["vectorized"] == 0

    def test_response_rows_match_generic(self):
        counters.reset()
        _assert_rows_match_generic()
        assert counters.snapshot()["vectorized"] == 0

    def test_int32_truncation_mutant_still_killed(self):
        # the scalar path still reads its specs out of the pack, so the
        # narrowed packing seam must still change a golden value
        report = run_mutation_harness(REPO_CORPUS,
                                      mutant_names=["vec-int32-truncation"])
        assert report.baseline_ok
        assert report.killed == 1, "\n".join(report.format_lines())
