"""Sweeps and the admission bisections on spec columns.

Scaling every deadline moves only ``D``: ``Tcycle``, ``C`` and the
``(T, J)`` columns stay those of the base network.  A TTR moves only
``Tcycle = TTR + Tdel``, and ``Tdel`` depends only on cycle lengths.  So
``deadline_scale_sweep``, ``ttr_sweep``, ``api._tightening_limit``
and the DM/EDF ``ttr.max_feasible_ttr`` evaluate ``(T, D, J)`` columns
read once per call (``timing.network_columns``) instead of building and
analysing a network per point.  These tests hold the column path to the
object path it replaced:

* row for row against the pre-change construction (a scaled or
  ``with_ttr`` ``Network`` per point through ``_grid_rows``) and against
  the generic reference, over every fuzz family, the corpus, the factory
  cell and hand-built edge cases; deadline-scale rows and tightening
  limits also with the EDF kernel's busy-period memo dropped;
* the two bisections against their old predicates, for both ``Tdel``
  bounds and all three policies;
* call counts: cycle lengths are derived a number of times independent
  of grid length and bisection depth (and never from a scan, which
  holds them), and a deadline-scale sweep runs the kernels once per
  distinct ``(policy, column)``;
* no analysis writes anything onto the model objects.
"""

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from repro import api
from repro.api import AnalysisRequest
from repro.core.sensitivity import smallest_feasible_factor
from repro.corpus import load_corpus
from repro.fuzz import FAMILIES, generate_instance
from repro.perf import kernels
from repro.perf.batch import (
    dm_order,
    dm_order_responses,
    master_partial,
    summarise_columns,
)
from repro.perf.stats import counters
from repro.perf.config import analysis_mode_set
from repro.profibus import sweep, ttr
from repro.profibus.cycle import MessageCycleSpec
from repro.profibus.network import Master, Network, Slave
from repro.profibus import stream as stream_mod
from repro.profibus.phy import PhyParameters
from repro.profibus.serialization import network_to_dict
from repro.profibus.stream import MessageStream
from repro.profibus.timing import columns_or_network, network_columns
from repro.scenarios import factory_cell_network

REPO_CORPUS = Path(__file__).resolve().parent.parent / "corpus"
POLICIES = ("fcfs", "dm", "edf")
#: the 37-point grid of the api-request sweeps, plus both extremes
GRID = tuple(round(0.2 + 0.05 * k, 2) for k in range(37))
FACTORS = GRID + (0.0001, 1e6)


def _legacy_scale(network, factor):
    """The pre-column ``_scale_deadlines``: a scaled network per factor,
    with the old ``clamp`` spelling."""
    masters = []
    for m in network.masters:
        streams = [s.with_deadline(max(1, min(s.T, int(round(s.D * factor)))))
                   for s in m.streams]
        masters.append(m.with_streams(streams))
    return Network(masters=tuple(masters), slaves=network.slaves,
                   phy=network.phy, ttr=network.ttr)


def _legacy_rows(network, factors, policies=POLICIES):
    entries = [(f, _legacy_scale(network, f)) for f in factors]
    return sweep._grid_rows("deadline_scale", entries, policies)


def _generic_rows(network, factors, policies=POLICIES):
    with analysis_mode_set("generic"):
        return sweep.deadline_scale_sweep(network, factors, policies)


def _legacy_ttr_rows(network, ttr_values, policies=POLICIES):
    """The pre-column ``ttr_sweep``: a ``with_ttr`` network per point."""
    ring = network.ring_latency()
    entries = []
    for value in ttr_values:
        t = int(round(value))
        entries.append((value, network.with_ttr(t) if t >= ring else None))
    return sweep._grid_rows("ttr", entries, policies)


def _generic_ttr_rows(network, ttr_values, policies=POLICIES):
    with analysis_mode_set("generic"):
        return sweep.ttr_sweep(network, ttr_values, policies)


def _ttr_grid(network):
    """37 TTRs from below the ring latency to well past the largest
    deadline, with float spellings that round either way."""
    ring = network.ring_latency()
    top = max((s.D for m in network.masters for s in m.high_streams),
              default=ring)
    step = max(1, (top + ring) // 34)
    grid = [ring - 1, ring, ring + 0.4] + [ring + k * step
                                          for k in range(1, 34)]
    return grid + [ring + 2.6]


@lru_cache(maxsize=None)
def _instance(family, index):
    """Fuzz instance ``index`` of ``family`` (seed 0), generated once per
    session and shared by every class below: no analysis writes to a
    network (:class:`TestModelObjectsUntouched`, which builds its own)."""
    return generate_instance(0, family, index)


@lru_cache(maxsize=None)
def _corpus_and_cell():
    nets = [entry.network() for entry in load_corpus(REPO_CORPUS)]
    nets.append(factory_cell_network())
    return tuple(nets)


def _corpus_networks():
    """The corpus networks and the factory cell, loaded once."""
    return list(_corpus_and_cell())


@contextmanager
def _no_busy_memo():
    """Every EDF kernel run solves its own busy period: the kernel's
    per-call ``busy`` memo is dropped."""
    real = kernels.edf_master_response_times

    def plain(specs, tc, limit_factor=4, busy=None):
        return real(specs, tc, limit_factor)

    kernels.edf_master_response_times = plain
    try:
        yield
    finally:
        kernels.edf_master_response_times = real


#: (search, network id, policy, refined) → (network, outcome)
_SEARCHES: dict = {}


def _search(fn, net, policy, refined):
    """``_outcome(fn, net, policy, refined)`` of a headroom search, run
    once per session: the bisection-parity and headroom-oracle classes
    hold the same searches on the same networks to different oracles.
    The entry keeps its network alive, so its id is never reused."""
    key = (fn, id(net), policy, refined)
    if key not in _SEARCHES:
        _SEARCHES[key] = (net, _outcome(fn, net, policy, refined))
    return _SEARCHES[key][1]


def _tightening_limit(net, policy, refined):
    """An admitted stream's deadline-tightening search over ``net``: its
    columns, or the network itself where the reader declines them."""
    return api._tightening_limit(columns_or_network(net, refined), policy,
                                 refined)


def _scale_columns(columns, factor):
    """Every master's ``(T, D, J)`` column with only ``D`` scaled."""
    return [sweep.scale_column(specs, factor) for specs in columns]


def _memo_free_rows(network, factors, policies=POLICIES):
    with _no_busy_memo():
        return sweep.deadline_scale_sweep(network, factors, policies)


def _hand_built():
    """Low-priority streams (scaled by the object path, never
    analysed), a master with no high-priority stream, and ``D > T``
    inputs."""
    m1 = Master(1, (
        MessageStream("fast", T=20_000, D=9_000, J=300),
        MessageStream("late", T=30_000, D=45_000),  # D > T
        MessageStream("bulk", T=400_000, D=7, high_priority=False,
                      spec=MessageCycleSpec(req_payload=200)),
    ))
    m2 = Master(2, (
        MessageStream("background", T=90_000, D=120_000,
                      high_priority=False),
    ))
    m3 = Master(3, (
        MessageStream("a", T=25_000, D=24_000, J=1_000),
        MessageStream("b", T=26_000, D=52_000),  # D > T
        MessageStream("c", T=60_000, D=15_000,
                      spec=MessageCycleSpec(req_payload=32,
                                            resp_payload=32)),
    ))
    return Network(masters=(m1, m2, m3), slaves=(Slave(10),),
                   phy=PhyParameters(), ttr=3_000)


def _non_int():
    """One stream with a non-int jitter: the column path declines it."""
    m1 = Master(1, (
        MessageStream("exact", T=20_000, D=12_000, J=Fraction(1, 2)),
        MessageStream("plain", T=35_000, D=30_000),
    ))
    return Network(masters=(m1,), slaves=(Slave(10),), phy=PhyParameters(),
                   ttr=2_000)


def _outcome(fn, *args, **kwargs):
    """The value, or the exception type and message."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return type(exc).__name__, str(exc)


class TestScaledDeadline:
    def test_matches_old_clamp_on_finite_products(self):
        for D in (1, 7, 999, 30_000, 45_000):
            for T in (1, 1_000, 30_000):
                for f in FACTORS + (0.5, 1.5, 2.5, 1 / 3, Fraction(7, 3)):
                    assert sweep.scaled_deadline(D, T, f) == \
                        max(1, min(T, int(round(D * f))))

    def test_overflowing_product_is_t(self):
        assert sweep.scaled_deadline(30_000, 50_000, 1e308) == 50_000
        assert sweep.scaled_deadline(30_000, 50_000, 10 ** 400) == 50_000


def _same_rows(rows, reference):
    """Equal rows and byte-equal CSV."""
    return (rows == reference
            and sweep.rows_to_csv(rows) == sweep.rows_to_csv(reference))


class TestSweepParity:
    """Column-path rows, with the EDF busy-period memo and without it,
    against the object path and the generic reference."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fuzz_family(self, family):
        for index in range(50):
            net = _instance(family, index)
            rows = sweep.deadline_scale_sweep(net, FACTORS)
            legacy = _legacy_rows(net, FACTORS)
            assert _same_rows(rows, legacy), (family, index)
            assert _same_rows(_memo_free_rows(net, FACTORS), legacy), \
                (family, index)
            if index % 10 == 0:
                assert rows == _generic_rows(net, FACTORS), (family, index)

    def test_corpus_and_factory_cell(self):
        for net in _corpus_networks():
            rows = sweep.deadline_scale_sweep(net, FACTORS)
            legacy = _legacy_rows(net, FACTORS)
            assert _same_rows(rows, legacy)
            assert _same_rows(_memo_free_rows(net, FACTORS), legacy)
            assert rows == _generic_rows(net, FACTORS)

    def test_hand_built_edge_cases(self):
        net = _hand_built()
        # the all-low master M2 has no column
        assert [name for name, _streams in network_columns(net).names] \
            == ["M1", "M3"]
        rows = sweep.deadline_scale_sweep(net, FACTORS)
        legacy = _legacy_rows(net, FACTORS)
        assert _same_rows(rows, legacy)
        assert _same_rows(_memo_free_rows(net, FACTORS), legacy)
        assert rows == _generic_rows(net, FACTORS)

    def test_non_int_stream_takes_the_object_path(self, monkeypatch):
        net = _non_int()
        assert network_columns(net) is None
        calls = []
        scale = sweep._scale_deadlines
        monkeypatch.setattr(
            sweep, "_scale_deadlines",
            lambda n, f: calls.append(f) or scale(n, f))
        rows = sweep.deadline_scale_sweep(net, FACTORS)
        assert calls == list(FACTORS)
        assert rows == _legacy_rows(net, FACTORS)
        assert rows == _generic_rows(net, FACTORS)

    def test_policy_subsets_and_order(self):
        net = factory_cell_network()
        for policies in (("edf",), ("dm", "fcfs"), ("edf", "dm", "edf")):
            assert sweep.deadline_scale_sweep(net, GRID, policies) == \
                _legacy_rows(net, GRID, policies)

    def test_errors_match_the_object_path(self):
        net = factory_cell_network()
        with pytest.raises(ValueError, match="positive"):
            sweep.deadline_scale_sweep(net, [1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            sweep.deadline_scale_sweep(net, [float("nan")])
        with pytest.raises(ValueError, match="unknown policy"):
            sweep.deadline_scale_sweep(net, [1.0], ("rm",))
        no_ttr = Network(masters=net.masters, slaves=net.slaves,
                         phy=net.phy)
        for mode in ("fast", "generic"):
            with analysis_mode_set(mode):
                with pytest.raises(ValueError):
                    sweep.deadline_scale_sweep(no_ttr, [1.0])
        assert sweep.deadline_scale_sweep(net, []) == []


def _bisection_networks():
    nets = [_instance(family, index)
            for family in sorted(FAMILIES) for index in range(0, 50, 10)]
    nets += _corpus_networks()
    nets += [_hand_built(), _non_int()]
    return nets


def _legacy_tightening_limit(net, policy, refined):
    def feasible(factor):
        scaled = _legacy_scale(net, float(factor))
        return ttr.analyse(scaled, policy, refined=refined).schedulable

    limit = smallest_feasible_factor(feasible,
                                     precision=api.HEADROOM_PRECISION)
    return None if limit is None else float(limit)


def _legacy_max_feasible_ttr(network, policy, refined=False):
    """The pre-column DM/EDF search: a full ``ttr.analyse`` per probe."""
    if policy == "fcfs":
        return ttr.max_feasible_ttr(network, policy, refined=refined)

    def feasible(t):
        if t < network.ring_latency():
            return False
        return ttr.analyse(network, policy, t, refined=refined).schedulable

    lo = network.ring_latency()
    if not feasible(lo):
        return None
    hi = max(max((s.D for m in network.masters for s in m.high_streams),
                 default=lo), lo)
    if feasible(hi):
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestBisectionParity:
    @pytest.mark.parametrize("refined", [False, True])
    def test_deadline_tightening_limit(self, refined):
        for net in _bisection_networks():
            for policy in POLICIES:
                got = _search(_tightening_limit, net, policy,
                              refined)
                assert got == _outcome(_legacy_tightening_limit, net,
                                       policy, refined), (policy, net)
                with _no_busy_memo():
                    assert got == _outcome(_tightening_limit,
                                           net, policy, refined)
                with analysis_mode_set("generic"):
                    assert got == _outcome(_tightening_limit,
                                           net, policy, refined)

    @pytest.mark.parametrize("refined", [False, True])
    def test_max_feasible_ttr(self, refined):
        nets = _bisection_networks()
        got = [[_search(ttr.max_feasible_ttr, net, policy, refined)
                for policy in POLICIES] for net in nets]
        old = [[_outcome(_legacy_max_feasible_ttr, net, policy,
                         refined=refined)
                for policy in POLICIES] for net in nets]
        assert got == old
        with analysis_mode_set("generic"):
            for net, row in zip(nets, got):
                if max(s.T for m in net.masters for s in m.streams) > 2 ** 32:
                    # probe:wide-values: its EDF bisection diverges after
                    # seconds of generic iteration; old == new holds above
                    continue
                assert row == [_outcome(ttr.max_feasible_ttr, net, policy,
                                        refined=refined)
                               for policy in POLICIES]


class TestTtrSweepParity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fuzz_family(self, family):
        for index in range(50):
            net = _instance(family, index)
            grid = _ttr_grid(net)
            rows = sweep.ttr_sweep(net, grid)
            assert rows == _legacy_ttr_rows(net, grid), (family, index)
            if index % 10 == 0:
                assert rows == _generic_ttr_rows(net, grid), (family, index)

    def test_corpus_factory_cell_and_edge_cases(self):
        for net in _corpus_networks() + [_hand_built(), _non_int()]:
            grid = _ttr_grid(net)
            rows = _outcome(sweep.ttr_sweep, net, grid)
            assert rows == _outcome(_legacy_ttr_rows, net, grid)
            if max(s.T for m in net.masters for s in m.streams) > 2 ** 32:
                # probe:wide-values: the kernels diverge past its ring
                # latency, and the generic iteration takes seconds to
                # give up; old == new holds above
                continue
            assert rows == _outcome(_generic_ttr_rows, net, grid)

    def test_network_without_ttr_and_policy_subsets(self):
        net = factory_cell_network()
        no_ttr = Network(masters=net.masters, slaves=net.slaves, phy=net.phy)
        grid = _ttr_grid(net)
        for policies in (POLICIES, ("edf",), ("dm", "fcfs", "dm")):
            assert sweep.ttr_sweep(no_ttr, grid, policies) == \
                _legacy_ttr_rows(net, grid, policies)

    def test_infeasible_and_empty_grids_match(self):
        net = factory_cell_network()
        ring = net.ring_latency()
        assert sweep.ttr_sweep(net, []) == []
        below = [1, ring - 1, ring - 0.6]
        assert sweep.ttr_sweep(net, below) == _legacy_ttr_rows(net, below)
        # an all-infeasible grid analyses nothing, so no policy check
        assert sweep.ttr_sweep(net, below, ("rm",)) == \
            _legacy_ttr_rows(net, below, ("rm",))
        with pytest.raises(ValueError, match="unknown policy"):
            sweep.ttr_sweep(net, [ring], ("rm",))


def _count_cycle_time(monkeypatch):
    """Record every frame-bit derivation a stream makes."""
    calls = []
    real = stream_mod.cycle_time
    monkeypatch.setattr(stream_mod, "cycle_time",
                        lambda spec, phy: calls.append(spec)
                        or real(spec, phy))
    return calls


class TestCallCounts:
    """Cycle lengths are derived a number of times independent of the
    grid length or the bisection depth; a deadline-scale sweep builds no
    scaled network and runs each kernel once per distinct
    ``(policy, column)``."""

    @pytest.mark.parametrize("net", [
        factory_cell_network(),
        _instance("multi-master-ring", 3),
        _hand_built(),
    ], ids=["factory-cell", "multi-master-ring", "hand-built"])
    def test_sweep_point_costs(self, net, monkeypatch):
        scale_calls, kernel_calls = [], []
        cycle_calls = _count_cycle_time(monkeypatch)
        monkeypatch.setattr(sweep, "_scale_deadlines",
                            lambda *a: scale_calls.append(a))
        for policy, name in (("dm", "dm_master_response_times"),
                             ("edf", "edf_master_response_times")):
            real = getattr(kernels, name)

            def counted(specs, tc, *args, _policy=policy, _real=real):
                kernel_calls.append((_policy, specs))
                return _real(specs, tc, *args)

            monkeypatch.setattr(kernels, name, counted)
        sweep.deadline_scale_sweep(net, GRID[:1])
        one_point = len(cycle_calls)
        del cycle_calls[:]
        del kernel_calls[:]
        rows = sweep.deadline_scale_sweep(net, GRID)
        assert len(rows) == len(GRID) * len(POLICIES)
        assert one_point > 0 and len(cycle_calls) == one_point
        assert scale_calls == []
        # EDF: one kernel call per distinct (master, column); DM: at
        # most one per (master, DM order group), fewer than columns
        columns = network_columns(net)
        tc, columns = columns.tcycle(), columns.specs
        scaled = [(m, specs) for factor in GRID
                  for m, specs in enumerate(_scale_columns(columns, factor))
                  if specs]
        edf = [specs for policy, specs in kernel_calls if policy == "edf"]
        dm = [specs for policy, specs in kernel_calls if policy == "dm"]
        assert sorted(edf) == sorted({specs for _m, specs in scaled})
        groups = {(m, dm_order(specs)) for m, specs in scaled}
        assert 0 < len(dm) <= len(groups) < len(edf)
        # one run per group: ((T, J) column, DM order) of the runs differ
        assert len({(tuple((t, j) for t, _d, j in specs), dm_order(specs))
                    for specs in dm}) == len(dm)

    def test_ttr_sweep_derives_cycles_once(self, monkeypatch):
        net = factory_cell_network()
        grid = _ttr_grid(net)
        calls = _count_cycle_time(monkeypatch)
        network_columns(net)
        one_tdel = len(calls)
        for points in (grid[1:2], grid):
            del calls[:]
            sweep.ttr_sweep(net, points)
            assert len(calls) == one_tdel > 0, len(points)

    @pytest.mark.parametrize("refined", [False, True])
    def test_max_feasible_ttr_derives_cycles_once(self, refined,
                                                  monkeypatch):
        net = factory_cell_network()
        ring = net.ring_latency()
        calls = _count_cycle_time(monkeypatch)
        network_columns(net, refined)
        one_tdel = len(calls)
        probes = []

        def counted(policy, specs, tc):
            probes.append(tc)
            return master_partial(policy, specs, tc)

        monkeypatch.setattr("repro.perf.batch.master_partial", counted)
        for policy in ("dm", "edf"):
            for hi in (ring + 1, 10 ** 9):
                del calls[:]
                ttr.max_feasible_ttr(net, policy, refined=refined, hi=hi)
                assert len(calls) == one_tdel > 0, (policy, hi)
        # the two upper bounds really bisect to different depths
        assert len(set(probes)) > 8


    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("policy", ["dm", "edf"])
    def test_admission_reads_tdel_once_for_both_searches(
            self, policy, refined, monkeypatch):
        """Once: from the scan, which holds every ``C``.  An admission
        derives no cycle length from a stream object."""
        net = factory_cell_network()
        stream = {"name": "joining", "T": 120_000, "D": 60_000}
        address = net.masters[0].address
        request = AnalysisRequest(
            op="admission", network=network_to_dict(net), policy=policy,
            refined=refined, admission_master=address,
            admission_stream=stream)
        scan, fingerprint = api.keyed_network(request)
        after_net = api._admit_stream(scan, address, stream).network()
        calls = _count_cycle_time(monkeypatch)
        bits = []
        real_bits = MessageStream.cycle_bits
        monkeypatch.setattr(MessageStream, "cycle_bits",
                            lambda s, phy: bits.append(s)
                            or real_bits(s, phy))
        result = api.compute_result(request, scan, fingerprint)
        assert calls == [] and bits == []
        # a read of the joined network's objects would derive them
        network_columns(after_net, refined)
        assert len(calls) > 0 and len(bits) > 0
        headroom = result.payload["headroom"]
        assert result.payload["admitted"]
        assert headroom["max_feasible_ttr"] is not None
        assert headroom["deadline_tightening_limit"] is not None
        # the shared read gives the separate searches' answers
        assert headroom["max_feasible_ttr"] == ttr.max_feasible_ttr(
            after_net, policy, refined=refined)
        assert headroom["deadline_tightening_limit"] == \
            _tightening_limit(after_net, policy, refined)


def _model_objects(net):
    return ([net] + list(net.masters)
            + [s for m in net.masters for s in m.streams])


def _state(objects):
    return [dict(vars(obj)) for obj in objects]


class TestModelObjectsUntouched:
    """No analysis, sweep, admission headroom search or TTR search
    leaves anything on the network, master or stream objects it was
    given."""

    @pytest.mark.parametrize("net", [
        factory_cell_network(),
        generate_instance(0, "jitter-heavy", 0),  # fresh: its vars are read
        _hand_built(),
    ], ids=["factory-cell", "jitter-heavy", "hand-built"])
    def test_vars_unchanged(self, net):
        objects = _model_objects(net)
        # the structural views the models cache on first use
        for master in net.masters:
            master.high_streams, master.low_streams
        ring = net.ring_latency()
        before = _state(objects)
        for policy in POLICIES:
            ttr.analyse(net, policy)
            ttr.max_feasible_ttr(net, policy)
            # an admission's searches, over the columns and the objects
            api._headroom(network_columns(net), policy, False)
            api._headroom(net, policy, False)
        sweep.ttr_sweep(net, [ring, ring + 500, ring + 5_000])
        sweep.deadline_scale_sweep(net, GRID)
        sweep.baud_sweep(net)
        assert _state(objects) == before


def _fuzz_networks(per_family):
    return [_instance(family, index)
            for family in sorted(FAMILIES) for index in range(per_family)]


def _oracle_networks():
    """Every fuzz family, the corpus networks and the factory cell."""
    return _fuzz_networks(12) + _corpus_networks()


def _late_jitter_master():
    """One master whose lowest-priority stream fails at instance 0 of
    every scaled column while its level-i busy period spans more than
    100 instances (the jitter alone covers 100 periods).  A kernel run
    that hid the failure behind a huge deadline would iterate all of
    them; one on the group's max column stops where each member does."""
    m = Master(1, (
        MessageStream("hp", T=2_000, D=1_000, C_bits=100),
        MessageStream("lp", T=3_000, D=2_900, J=300_000, C_bits=100),
    ))
    return Network(masters=(m,), slaves=(Slave(10),), phy=PhyParameters(),
                   ttr=900)


def _fast_iterations(fn, *args):
    before = counters.fast
    fn(*args)
    return counters.fast - before


class TestDmOrderGroups:
    """``dm_order_responses`` gives every column the kernel's own
    answer, however the columns group and whichever run serves them."""

    def test_bulk_and_incremental_reads_match_the_kernel(self):
        from random import Random

        rng = Random(5)
        for _ in range(60):
            n = rng.randint(1, 5)
            tc = rng.randint(200, 2_000)
            tj = [(rng.randint(tc, 12 * tc), rng.choice((0, 0, tc // 3)))
                  for _ in range(n)]
            base = [rng.randint(tc, 10 * tc) for _ in range(n)]
            columns = [
                tuple((t, sweep.scaled_deadline(d, t, f), j)
                      for (t, j), d in zip(tj, base))
                for f in (1.0, 0.9, 0.6, 0.45, 0.3, 1.7, 0.2)
            ]
            expected = [kernels.dm_master_response_times(c, tc)
                        for c in columns]
            assert dm_order_responses(columns, tc, {}) == expected
            runs = {}
            assert [dm_order_responses([c], tc, runs)[0]
                    for c in columns] == expected

    def test_one_run_serves_a_dominated_column(self, monkeypatch):
        columns = [((20_000, 9_000, 0), (30_000, 24_000, 0)),
                   ((20_000, 6_000, 0), (30_000, 12_000, 0))]
        calls = []
        real = kernels.dm_master_response_times
        monkeypatch.setattr(kernels, "dm_master_response_times",
                            lambda specs, tc: calls.append(specs)
                            or real(specs, tc))
        runs = {}
        got = [dm_order_responses([c], 4_000, runs)[0] for c in columns]
        assert calls == columns[:1]
        assert got == [real(c, 4_000) for c in columns]


class TestBoundedWork:
    """A deadline-scale sweep iterates no more than evaluating each
    distinct ``(policy, column)`` once, which is no more than
    evaluating each grid point on its own."""

    @staticmethod
    def _check(net, factors=GRID):
        columns = network_columns(net)
        tc, columns = columns.tcycle(), columns.specs
        points = [_scale_columns(columns, f) for f in factors]

        def each_point():
            for point in points:
                for policy in POLICIES:
                    summarise_columns(policy, tc, point)

        def each_column():
            for policy in POLICIES:
                for specs in {c for point in points for c in point if c}:
                    master_partial(policy, specs, tc)

        swept = _fast_iterations(sweep.deadline_scale_sweep, net, factors)
        once = _fast_iterations(each_column)
        assert swept <= once <= _fast_iterations(each_point)
        return swept, once

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fuzz_family(self, family):
        for index in range(20):
            self._check(_instance(family, index))

    def test_corpus_and_factory_cell(self):
        for net in _corpus_networks():
            self._check(net, FACTORS)

    def test_instance_zero_failure_with_a_long_busy_period(self):
        net = _late_jitter_master()
        columns = network_columns(net)
        tc, columns = columns.tcycle(), columns.specs
        (_hp, (T, _D, J)), = columns
        L = kernels.busy_period([(tc, t, j) for t, _d, j in columns[0]])
        assert -(-(L + J) // T) >= 100
        factors = GRID[:17]  # every lp deadline clamps below T + J
        swept, once = self._check(net, factors)
        assert swept < once
        rows = sweep.deadline_scale_sweep(net, factors, ("dm",))
        assert rows == _legacy_rows(net, factors, ("dm",))


def _legacy_column_max_ttr(net, policy, refined):
    """The network-wide bisection over ``summarise_columns`` that the
    master-wise search replaced (a test oracle only)."""
    ring = lo = net.ring_latency()
    columns = network_columns(net, refined)

    def feasible(t):
        return summarise_columns(policy, columns.tcycle(t),
                                 columns.specs).schedulable

    if not feasible(lo):
        return None
    hi = max(max((s.D for m in net.masters for s in m.high_streams),
                 default=lo), lo)
    if feasible(hi):
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _legacy_column_tightening(net, policy, refined):
    """The all-masters deadline-tightening bisection over
    ``summarise_columns`` (a test oracle only)."""
    columns = network_columns(net, refined)
    tc, columns = columns.tcycle(), columns.specs

    def feasible(factor):
        scaled = _scale_columns(columns, float(factor))
        return summarise_columns(policy, tc, scaled).schedulable

    limit = smallest_feasible_factor(feasible,
                                     precision=api.HEADROOM_PRECISION)
    return None if limit is None else float(limit)


class TestHeadroomOracles:
    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("policy", ["dm", "edf"])
    def test_master_wise_max_feasible_ttr(self, policy, refined):
        for net in _oracle_networks():
            assert _search(ttr.max_feasible_ttr, net, policy, refined) == \
                _outcome(_legacy_column_max_ttr, net, policy, refined), net

    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_deadline_tightening_limit(self, policy, refined):
        for net in _oracle_networks():
            assert _search(_tightening_limit, net, policy,
                           refined) == \
                _outcome(_legacy_column_tightening, net, policy,
                         refined), net


def _legacy_baud_rows(network, bauds, policies=POLICIES):
    """The pre-column ``baud_sweep``: a rescaled network per rate."""
    entries = []
    for baud in bauds:
        net = sweep._rescale_network(network, baud)
        entries.append((baud, net if net.ttr >= net.ring_latency() else None))
    return sweep._grid_rows("baud", entries, policies)


#: every standard rate, the native one, and rates that drop the TTR
#: below the ring latency
BAUDS = (9_600, 19_200, 45_450, 93_750, 187_500, 500_000, 1_500_000,
         3_000_000, 6_000_000, 12_000_000, 1_000, 250)


class TestBaudSweepParity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fuzz_family(self, family):
        for index in range(30):
            net = _instance(family, index)
            grid = BAUDS + (net.phy.baud_rate,)
            assert sweep.baud_sweep(net, grid) == \
                _legacy_baud_rows(net, grid), (family, index)

    def test_corpus_factory_cell_and_edge_cases(self):
        for net in _corpus_networks() + [_hand_built(), _non_int()]:
            rows = _outcome(sweep.baud_sweep, net, BAUDS)
            assert rows == _outcome(_legacy_baud_rows, net, BAUDS)
            if max(s.T for m in net.masters for s in m.streams) > 2 ** 32:
                continue  # probe:wide-values: see TestTtrSweepParity
            with analysis_mode_set("generic"):
                assert rows == _outcome(sweep.baud_sweep, net, BAUDS)

    def test_errors_and_degenerate_grids_match(self):
        net = factory_cell_network()
        no_ttr = Network(masters=net.masters, slaves=net.slaves,
                         phy=net.phy)
        for network, grid, policies in (
                (net, [], POLICIES),
                (net, [250, 1_000], ("rm",)),  # all infeasible: no check
                (net, [500_000], ("rm",)),
                (net, [500_000, 0], POLICIES),
                (net, [500_000, -9_600], POLICIES),
                (net, [10 ** 400], POLICIES),
                (net, [500_000], ("edf", "dm", "edf")),
                (no_ttr, [500_000], POLICIES)):
            assert _outcome(sweep.baud_sweep, network, grid, policies) == \
                _outcome(_legacy_baud_rows, network, grid, policies), grid
