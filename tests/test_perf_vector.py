"""The SoA vector engine (`repro.perf.vector`) — packing, lane engine,
and the three-engine bit-equality contract.

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
* the lane engine (``lane_rows``) must be bit-identical to the generic
  reference and the per-network kernels, with the numpy lanes and
  without numpy, where every network takes the per-network scalar path.

Numpy-only tests skip cleanly on numpy-free machines; the numpy-free
path is also exercised on numpy machines by patching the probe.
"""

import pickle
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.timeops import DivergedError
from repro.corpus.mutants import run_mutation_harness
from repro.perf import vector
from repro.perf.batch import (
    analyse_many,
    generate_networks,
    lane_rows,
    network_rows,
)
from repro.perf.config import analysis_mode_set
from repro.perf.stats import counters
from repro.perf.vector import (
    _PACK_LIMIT,
    MAX_ITER,
    _lanes_np,
    _pack_value,
    pack_networks,
)
from repro.profibus.cycle import MessageCycleSpec
from repro.profibus.network import Master, Network, Slave, stream_specs
from repro.profibus.phy import PhyParameters
from repro.profibus.stream import MessageStream
from repro.profibus.timing import longest_cycle, longest_high_cycle
from repro.profibus.timing import tcycle as compute_tcycle
from repro.scenarios import factory_cell_network

REPO_CORPUS = Path(__file__).resolve().parent.parent / "corpus"

requires_numpy = pytest.mark.skipif(
    vector.numpy_version() is None, reason="numpy unavailable"
)

POLICIES = ("fcfs", "dm", "edf")


def _rows_on(engine, *args):
    """The grid's rows on one engine: ``analyse_many(*args)`` under the
    ``generic`` reference, the per-network kernels (``fast``) or the
    lanes (``vectorized``) at any size."""
    if engine == "fast":
        return network_rows(*args)
    if engine == "vectorized":
        return lane_rows(*args)
    with analysis_mode_set(engine):
        return analyse_many(*args)


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
        pack = _hand_pack([(100, [specs])])
        assert pack.network_view(0) == (100, (tuple(specs),))


def _reference_view(net):
    """``(Tcycle, per-master (T, D, J) tuples)`` through the generic
    scalar helpers, which read no memo."""
    with analysis_mode_set("generic"):
        tc = compute_tcycle(net, net.require_ttr(), refined=False)
    return tc, tuple(tuple((s.T, s.D, s.J) for s in m.high_streams)
                     for m in net.masters)


def _assert_pack_parity(nets):
    pack = pack_networks(nets)
    assert pack.fallback == ()
    assert pack.indices == list(range(len(nets)))
    for p, net in enumerate(nets):
        want = _reference_view(net)
        assert pack.tc[p] == want[0], f"network {p}: Tcycle"
        assert pack.network_view(p) == want, f"network {p}: view"
    return pack


def _hand_built(phy, tag=0):
    """Every cycle-length source in one network: a short-ack cycle,
    per-spec retry overrides (including zero), an explicit ``C_bits``
    ahead of a stream with the same spec fields, and a low-priority
    stream carrying the master's longest (eq. (13)) cycle."""
    base = 40_000 + 1_000 * tag
    m1 = Master(1, (
        MessageStream("ack", T=base, D=base - 5_000, J=120,
                      spec=MessageCycleSpec(req_payload=4, short_ack=True)),
        MessageStream("retry3", T=base + 10_000,
                      spec=MessageCycleSpec(req_payload=8, resp_payload=8,
                                            max_retry=3)),
        MessageStream("retry0", T=base + 20_000, J=40,
                      spec=MessageCycleSpec(req_payload=2, resp_payload=2,
                                            max_retry=0)),
    ))
    m2 = Master(2, (
        MessageStream("fixed", T=base + 5_000, C_bits=777),
        MessageStream("plain", T=base + 7_000),
        MessageStream("bulk", T=9 * base, high_priority=False,
                      spec=MessageCycleSpec(req_payload=240,
                                            resp_payload=240, max_retry=2)),
    ))
    m3 = Master(3, (
        MessageStream("background", T=5 * base, high_priority=False,
                      spec=MessageCycleSpec(req_payload=16)),
    ))
    return Network(masters=(m1, m2, m3), slaves=(Slave(10), Slave(11)),
                   phy=phy, ttr=6_000 + tag)


def _patch_cycle_time(monkeypatch, fn):
    """Route every ``cycle_time`` the packer or a stream could call
    through ``fn``."""
    from repro.profibus import cycle, stream

    monkeypatch.setattr(cycle, "cycle_time", fn)
    monkeypatch.setattr(stream, "cycle_time", fn)


class TestPackParity:
    """``pack_networks`` derives each cycle length from a table shared
    by every network of the call; the packed ``Tcycle`` and spec
    columns must equal the generic scalar helpers network by network."""

    def test_fuzz_families_corpus_and_factory_cell_in_one_pack(self):
        from repro.corpus import load_corpus
        from repro.fuzz import FAMILIES, generate_instance

        nets = [generate_instance(0, family, index)
                for family in sorted(FAMILIES) for index in range(50)]
        nets += [entry.network() for entry in load_corpus(REPO_CORPUS)]
        nets.append(factory_cell_network())
        _assert_pack_parity(nets)

    def test_hand_built_cycle_sources(self):
        phy = PhyParameters()
        nets = [_hand_built(phy, tag=k) for k in range(3)]
        _assert_pack_parity(nets)
        m2 = nets[0].masters[1]
        bulk = m2.stream("bulk")
        with analysis_mode_set("generic"):
            # the low-priority stream sets C_M^k, above every high one
            assert longest_cycle(m2, phy) == bulk.cycle_bits(phy)
            assert longest_high_cycle(m2, phy) < bulk.cycle_bits(phy)
            # same spec fields, different cycle lengths
            assert m2.stream("plain").cycle_bits(phy) != 777

    def test_value_equal_and_interleaved_phys(self):
        phy_a = PhyParameters()
        phy_b = PhyParameters()
        slow = PhyParameters(baud_rate=93_750, tsdr_max=80, tid1=40,
                             tsl=250, max_retry=2)
        assert phy_a == phy_b and phy_a is not phy_b
        nets = []
        for k in range(6):
            nets.append(_hand_built((phy_a, phy_b)[k % 2], tag=k))
            nets.append(_hand_built(slow, tag=k))
        pack = _assert_pack_parity(nets)
        # the two PHYs really give different Tcycles for the same shape
        assert pack.tc[0] != pack.tc[1]
        # value-equal PHYs: the same Tdel, TTR grows by one per tag
        assert pack.tc[2] == pack.tc[0] + 1

    def test_cycle_time_called_once_per_distinct_key(self, monkeypatch):
        from repro.profibus.cycle import cycle_time

        # fresh unpickled instances, as the batch drivers see them
        nets = pickle.loads(pickle.dumps(
            generate_networks(1000, seed="pack-work")))
        streams = [s for net in nets for m in net.masters for s in m.streams]
        keys = {(net.phy, s.spec.req_payload, s.spec.resp_payload,
                 s.spec.short_ack, s.spec.max_retry)
                for net in nets for m in net.masters for s in m.streams
                if s.C_bits is None}
        calls = []

        def counting(spec, phy):
            calls.append(spec)
            return cycle_time(spec, phy)

        _patch_cycle_time(monkeypatch, counting)
        pack = pack_networks(nets)
        assert pack.fallback == ()
        assert 0 < len(calls) <= len(keys) < len(streams)


UNFRAMABLE = {
    "oversized-request": MessageCycleSpec(req_payload=300),
    "short-ack-with-data": MessageCycleSpec(resp_payload=4, short_ack=True),
    "negative-retry": MessageCycleSpec(max_retry=-1),
}


class TestPackErrors:
    """An unframable cycle spec fails packing with the scalar path's
    own message, and a failed key is never kept for a later call."""

    @staticmethod
    def _with_bad_stream(spec):
        net = _hand_built(PhyParameters())
        m2 = net.masters[1]
        bad = MessageStream("bad", T=70_000, spec=spec)
        return replace(net, masters=(net.masters[0],
                                     m2.with_streams(m2.streams + (bad,)),
                                     net.masters[2])), bad

    @pytest.mark.parametrize("case", sorted(UNFRAMABLE))
    def test_same_message_as_cycle_bits(self, case):
        net, bad = self._with_bad_stream(UNFRAMABLE[case])
        with pytest.raises(ValueError) as want:
            bad.cycle_bits(net.phy)
        message = str(want.value)
        good = _hand_built(PhyParameters(), tag=1)
        with pytest.raises(ValueError) as got:
            pack_networks([good, net])
        assert str(got.value) == message
        for mode in ("generic", "fast", "vectorized"):
            fresh, _ = self._with_bad_stream(UNFRAMABLE[case])
            with pytest.raises(ValueError) as got:
                _rows_on(mode, [fresh], POLICIES)
            assert str(got.value) == message, mode

    def test_failed_key_is_not_kept(self, monkeypatch):
        from repro.profibus.cycle import cycle_time

        flaky = MessageCycleSpec(req_payload=12, resp_payload=3)
        net, _ = self._with_bad_stream(flaky)
        want = _reference_view(net)
        calls = []

        def fail_once(spec, phy):
            if spec == flaky:
                calls.append(spec)
                if len(calls) == 1:
                    raise ValueError("transient")
            return cycle_time(spec, phy)

        _patch_cycle_time(monkeypatch, fail_once)
        with pytest.raises(ValueError, match="transient"):
            pack_networks([net])
        # the retry computes the key afresh and packs the right value
        pack = pack_networks([net])
        assert len(calls) == 2
        assert pack.network_view(0) == want
        pack_networks([net])
        assert len(calls) == 3  # a new call starts from an empty table


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


# ------------------------------------------- deadline-order policy staging

def _hand_pack(nets):
    """A pack laid out by hand: ``nets`` is ``[(tc, [specs, …]), …]``,
    one ``(T, D, J)`` column per master."""
    pack = vector.NetworkPack()
    pack.networks = tuple(None for _ in nets)
    for p, (tc, masters) in enumerate(nets):
        pack.indices.append(p)
        pack.tc.append(tc)
        for specs in masters:
            pack.master_net.append(p)
            pack.master_tc.append(tc)
            for t, d, j in specs:
                pack.stream_T.append(t)
                pack.stream_D.append(d)
                pack.stream_J.append(j)
            pack.master_stream_start.append(len(pack.stream_T))
        pack.net_master_start.append(len(pack.master_net))
        pack.net_stream_start.append(len(pack.stream_T))
    return pack


def _assert_flat_equals_scalar(pack):
    """``_dm_flat_np`` / ``_edf_flat_np`` read back per master equal the
    scalar kernels on that master's column."""
    from repro.perf import kernels

    dm = vector._dm_flat_np(pack)
    edf = vector._edf_flat_np(pack)
    for m in range(pack.n_masters):
        lo = pack.master_stream_start[m]
        hi = pack.master_stream_start[m + 1]
        specs, tc = pack.master_specs(m), pack.master_tc[m]
        resp, _none, valid = dm
        assert [int(resp[s]) if valid[s] else None for s in range(lo, hi)] \
            == kernels.dm_master_response_times(specs, tc), f"dm master {m}"
        resp, crit, valid = edf
        assert [(int(resp[s]), int(crit[s])) if valid[s] else (None, None)
                for s in range(lo, hi)] \
            == kernels.edf_master_response_times(specs, tc), \
            f"edf master {m}"


def _huge_deadline_nets():
    """Four rings of three masters whose deadlines and periods are near
    10¹² while every cycle is small: only keys built on ``D`` get big."""
    big = 10**12
    return [
        Network(masters=tuple(
            Master(10 * k + i, (
                MessageStream(f"s{k}{i}a", T=big + i, D=big - 7 * k),
                MessageStream(f"s{k}{i}b", T=big + 3, D=big // 2, J=5),
            )) for i in range(1, 4)),
            slaves=(Slave(100),), phy=PhyParameters(), ttr=5_000)
        for k in range(4)
    ]


def _spy_lanes(monkeypatch):
    """Record ``(kind, counts)`` of every lane batch the pipelines run."""
    seen = []
    real = vector._lanes_np

    def spy(kind, base, x, limit, counts, *rest):
        seen.append((kind, counts.tolist()))
        return real(kind, base, x, limit, counts, *rest)

    monkeypatch.setattr(vector, "_lanes_np", spy)
    return seen


@requires_numpy
class TestDeadlineOrderStaging:
    """The DM priority order and the EDF deadline scopes both read the
    pack's one deadline order; every staged array must still equal the
    scalar kernels master by master."""

    def test_order_is_master_then_deadline_then_declaration(self):
        pack = _hand_pack([
            (7, [[(100, 50, 0), (80, 50, 5), (120, 30, 0), (90, 50, 1)],
                 [(60, 10, 0)]]),
            (5, [[(40, 40, 0), (40, 20, 3), (40, 40, 2)]]),
        ])
        master_of = [m for m in range(pack.n_masters)
                     for _s in pack.master_specs(m)]
        want = sorted(range(len(pack.stream_D)),
                      key=lambda s: (master_of[s], pack.stream_D[s], s))
        dord = pack.deadline_order()
        assert dord["order"].tolist() == want
        assert dord["key"].tolist() == sorted(dord["key"].tolist())
        assert pack.deadline_order() is dord  # built once per pack

    def test_deadline_ties_follow_declaration_order(self):
        # equal D inside a master: the declaration index ranks them, and
        # the DM responses depend on it (different T and J per tie)
        pack = _hand_pack([
            (7, [[(100, 50, 0), (80, 50, 5), (120, 50, 0), (90, 40, 0)]]),
            (9, [[(200, 90, 30), (150, 90, 0)], [(300, 120, 0)] * 3]),
        ])
        _assert_flat_equals_scalar(pack)

    def test_single_stream_masters(self):
        pack = _hand_pack([
            (10, [[(100, 30, 0)], [(50, 50, 20)], [(40, 5, 0)]]),
            (3, [[(9, 9, 9)]]),
        ])
        _assert_flat_equals_scalar(pack)

    def test_lanes_with_an_empty_scope(self, monkeypatch):
        # at offset 0 the strictly tightest stream has no other stream
        # with D_j <= D_i in scope: its lane carries no entries
        seen = _spy_lanes(monkeypatch)
        pack = _hand_pack([(6, [[(90, 12, 0), (100, 70, 0), (400, 300, 4)]])])
        _assert_flat_equals_scalar(pack)
        capped = [counts for kind, counts in seen if kind == "capped"]
        assert capped and 0 in capped[0]

    def test_jitter_points_that_coincide_with_deadline_points(self):
        # J_j = T_j puts a − J_j on the previous deadline point, and
        # J_j = D_j − D_l on stream l's: the dedup must merge them
        specs = [(50, 20, 0), (60, 45, 60), (70, 40, 20), (55, 55, 15)]
        pack = _hand_pack([(4, [specs])])
        raw = []
        for t, d, j in specs:
            for k in range(8):
                a = d - specs[0][1] + k * t
                if 0 <= a <= 400:
                    raw.append(a)
                    if j and a - j >= 0:
                        raw.append(a - j)
        assert len(raw) > len(set(raw))
        _assert_flat_equals_scalar(pack)

    def test_ambiguous_utilisation_guard_reruns_scalar(self, monkeypatch):
        # U == 1 exactly sits inside the float margin for both policies:
        # those masters re-run through the scalar kernels inside the
        # pack, the others stay on the lanes
        from repro.perf import kernels

        calls = {"dm": 0, "edf": 0}
        real_dm = kernels.dm_master_response_times
        real_edf = kernels.edf_master_response_times

        def dm(*args, **kwargs):
            calls["dm"] += 1
            return real_dm(*args, **kwargs)

        def edf(*args, **kwargs):
            calls["edf"] += 1
            return real_edf(*args, **kwargs)

        pack = _hand_pack([
            (10, [[(20, 20, 0), (20, 15, 0)], [(100, 60, 0), (70, 50, 3)]]),
            (1, [[(3, 3, 0), (3, 2, 0), (3, 1, 0)]]),
        ])
        monkeypatch.setattr(kernels, "dm_master_response_times", dm)
        monkeypatch.setattr(kernels, "edf_master_response_times", edf)
        dm_flat = vector._dm_flat_np(pack)
        edf_flat = vector._edf_flat_np(pack)
        assert calls == {"dm": 2, "edf": 2}
        monkeypatch.undo()
        _assert_flat_equals_scalar(pack)
        assert dm_flat[0].tolist() == vector._dm_flat_np(pack)[0].tolist()
        assert edf_flat[0].tolist() == vector._edf_flat_np(pack)[0].tolist()

    def test_overflowing_deadline_key_goes_scalar(self, monkeypatch):
        # huge deadlines, everything else small: with the int64 ceiling
        # lowered to masters·(Dmax+1), only the deadline-order key can
        # trip; both policy passes raise, and their networks take the
        # per-network scalar path with the generic rows
        nets = _huge_deadline_nets()
        pack = pack_networks(nets)
        ceiling = pack.n_masters * (max(pack.stream_D) + 1)
        monkeypatch.setattr(vector, "_SAFE_TOTAL", ceiling)
        with pytest.raises(vector._VectorRangeError):
            pack.deadline_order()
        before = counters.vectorized
        rows = _rows_on("vectorized", nets, POLICIES)
        assert counters.vectorized == before  # no lane ran
        assert rows == _rows_on("generic", nets, POLICIES)
        fresh = pack_networks(nets)
        for policy in ("dm", "edf"):
            with pytest.raises(vector._VectorRangeError):
                vector._flat_values(fresh, policy)

    def test_only_the_overflowing_policy_goes_per_network(self,
                                                           monkeypatch):
        # a ceiling just above masters·(Dmax+1) spares the shared
        # deadline key and every DM bound, and trips EDF's offset-window
        # key masters·(Lmax+Dmax+1): only EDF's rows take _analyse_one
        from repro.perf import batch

        nets = _huge_deadline_nets()
        want = _rows_on("generic", nets, POLICIES)
        pack = pack_networks(nets)
        ceiling = pack.n_masters * (max(pack.stream_D) + 1) + 1
        monkeypatch.setattr(vector, "_SAFE_TOTAL", ceiling)
        with pytest.raises(vector._VectorRangeError):
            vector._edf_flat_np(pack)
        before = counters.vectorized
        assert _rows_on("vectorized", nets, ("dm",)) \
            == [row for row in want if row.policy == "dm"]
        dm_iterations = counters.vectorized - before
        assert dm_iterations > 0  # DM stays on its lanes
        calls = []
        real = batch._analyse_one

        def spy(index, network, policy):
            calls.append((index, policy))
            return real(index, network, policy)

        monkeypatch.setattr(batch, "_analyse_one", spy)
        before = counters.vectorized
        rows = _rows_on("vectorized", nets, POLICIES)
        assert counters.vectorized - before >= dm_iterations
        assert calls == [(i, "edf") for i in range(len(nets))]
        assert rows == want

    @pytest.mark.parametrize("shift", range(0, 64, 6))
    def test_any_tripped_guard_keeps_generic_rows(self, monkeypatch, shift):
        # lowering the int64 ceiling step by step trips the guards in
        # every combination (deadline key, offset key, lane bounds);
        # whichever trips, the rows stay the generic ones
        nets = _mixed_workload(8, seed="guards")
        want = _rows_on("generic", nets, POLICIES)
        monkeypatch.setattr(vector, "_SAFE_TOTAL", 1 << shift)
        assert _rows_on("vectorized", nets, POLICIES) == want

    @given(st.lists(
        st.tuples(
            st.integers(1, 12),                        # tc
            st.lists(st.lists(st.tuples(
                st.integers(24, 400),                  # T
                st.integers(1, 500),                   # D
                st.integers(0, 60),                    # J
            ), min_size=1, max_size=5), min_size=1, max_size=3),
        ),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=60, deadline=None)
    def test_random_packs_equal_scalar_kernels(self, nets):
        from fractions import Fraction

        for tc, masters in nets:
            for specs in masters:
                u = sum(Fraction(tc, t) for t, _d, _j in specs)
                # near-saturated masters have long busy periods the
                # scalar reference would crawl through
                assume(not Fraction(9, 10) < u <= Fraction(11, 10))
        _assert_flat_equals_scalar(_hand_pack(nets))


# -------------------------------------------------------- mode equivalence

def _assert_batch_modes_equal():
    nets = _mixed_workload(30, seed="threeway")
    generic = _rows_on("generic", nets, POLICIES)
    fast = _rows_on("fast", nets, POLICIES)
    assert fast == generic
    vec = _rows_on("vectorized",
                           _mixed_workload(30, seed="threeway"), POLICIES)
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
        _rows_on("vectorized", _mixed_workload(6, seed="count"),
                         POLICIES)
        snap = counters.snapshot()
        assert snap["vectorized"] > 0
        assert snap["total"] >= snap["vectorized"]

    def test_unpackable_network_falls_back_identically(self):
        net = _mixed_workload(2, seed="unpack")[0]
        m0 = net.masters[0]
        streams = [replace(s, T=float(s.T)) for s in m0.streams]
        broken = replace(net, masters=(m0.with_streams(streams),)
                         + net.masters[1:])
        rows = _rows_on("vectorized", [broken], POLICIES)
        assert rows == _rows_on("generic", [broken], POLICIES)


class TestWithoutNumpy:
    """With the probe reporting no numpy, the lane engine builds no pack
    and runs the per-network scalar path: the same rows, no lane
    iterations, and the packing seam out of reach."""

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

    def test_int32_truncation_mutant_not_applicable(self):
        # nothing is packed, so the narrowed packing seam reaches no
        # output: the harness reports the mutant not applicable, never
        # as a survivor
        report = run_mutation_harness(REPO_CORPUS,
                                      mutant_names=["vec-int32-truncation"])
        lines = "\n".join(report.format_lines())
        assert report.baseline_ok
        assert report.ok, lines
        assert report.killed == 0
        assert report.survivors == []
        assert report.not_applicable == ["vec-int32-truncation"]
        assert "numpy absent" in report.outcomes[0].not_applicable
        assert "n/a       vec-int32-truncation" in lines
        assert "SURVIVED" not in lines
        assert lines.endswith("0/0 mutants killed, 1 not applicable")

    def test_vectorized_builds_no_pack(self, monkeypatch):
        packs = []
        real = vector.pack_networks

        def spy(*args, **kwargs):
            packs.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(vector, "pack_networks", spy)
        nets = _mixed_workload(12, seed="nopack")
        rows = _rows_on("vectorized", nets, POLICIES)
        assert packs == []
        assert rows == _rows_on("generic", nets, POLICIES)
