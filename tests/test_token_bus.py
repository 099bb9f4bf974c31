"""Integration-level tests for the PROFIBUS token-bus simulator."""

import pytest

from repro.profibus import (
    Master,
    MessageStream,
    Network,
    PhyParameters,
    tcycle,
    token_pass_time,
)
from repro.profibus.timing import longest_cycle
from repro.sim import (
    TokenBusConfig,
    simulate_token_bus,
    staggered_offsets,
    synchronous_offsets,
)


def _mini_net(ttr=2_000, **stream_kw):
    phy = PhyParameters()
    m1 = Master(1, (MessageStream("a", T=20_000, C_bits=500, **stream_kw),))
    m2 = Master(2, (MessageStream("b", T=30_000, C_bits=700),))
    return Network(masters=(m1, m2), phy=phy, ttr=ttr)


class TestBasicOperation:
    def test_idle_ring_rotates_at_ring_latency(self):
        phy = PhyParameters()
        net = Network(masters=(Master(1), Master(2), Master(3)),
                      phy=phy, ttr=5_000)
        res = simulate_token_bus(net, 100_000)
        for ms in res.masters.values():
            assert ms.max_trr == net.ring_latency()
            assert ms.high_sent == ms.low_sent == 0

    def test_all_messages_delivered(self):
        net = _mini_net()
        res = simulate_token_bus(net, 200_000)
        # 200000/20000 = 11 releases (t=0..200000) minus possibly in-flight
        assert res.stream("M1", "a").completed >= 9
        assert res.stream("M2", "b").completed >= 5

    def test_response_includes_queuing_and_cycle(self):
        net = _mini_net()
        res = simulate_token_bus(net, 200_000)
        # responses must be at least the cycle length
        assert res.stream("M1", "a").max_response >= 500

    def test_deterministic(self):
        net = _mini_net()
        a = simulate_token_bus(net, 150_000)
        b = simulate_token_bus(net, 150_000)
        assert a.stream("M1", "a").responses == b.stream("M1", "a").responses
        assert a.max_trr == b.max_trr
        assert a.events == b.events

    def test_trace_responses_flag(self):
        net = _mini_net()
        cfg = TokenBusConfig(trace_responses=True)
        res = simulate_token_bus(net, 100_000, config=cfg)
        st = res.stream("M1", "a")
        assert st.responses is not None
        assert len(st.responses) == st.completed
        assert max(st.responses) == st.max_response


class TestLateTokenRule:
    def test_one_high_message_per_late_token(self):
        # minimal TTR: the token is permanently "late"; each master still
        # sends exactly one high-priority message per visit
        phy = PhyParameters()
        m1 = Master(1, tuple(
            MessageStream(f"s{i}", T=50_000, C_bits=800) for i in range(4)
        ))
        net = Network(masters=(m1,), phy=phy,
                      ttr=token_pass_time(phy))  # == ring latency
        res = simulate_token_bus(net, 100_000,
                                 traffic=synchronous_offsets(net))
        ms = res.masters["M1"]
        # per visit at most one high message -> high_sent <= token_visits
        assert ms.high_sent <= ms.token_visits

    def test_generous_ttr_allows_batching(self):
        phy = PhyParameters()
        m1 = Master(1, tuple(
            MessageStream(f"s{i}", T=50_000, C_bits=800) for i in range(4)
        ))
        net = Network(masters=(m1,), phy=phy, ttr=50_000)
        res = simulate_token_bus(net, 60_000,
                                 traffic=synchronous_offsets(net))
        ms = res.masters["M1"]
        # all four synchronously-released messages go out back-to-back in
        # one token holding: the last completes after 4 cycles plus at
        # most one token wait, with no token passes in between
        assert ms.high_sent >= 4
        assert res.stream("M1", "s3").max_response < 4 * 800 + 2 * token_pass_time(phy)


class TestTthOverrun:
    def test_overrun_recorded(self):
        # a master with a cycle longer than its TTH must overrun
        phy = PhyParameters()
        m1 = Master(1, (MessageStream("big", T=10_000, C_bits=3_000),))
        net = Network(masters=(m1,), phy=phy, ttr=200)
        res = simulate_token_bus(net, 60_000)
        assert res.masters["M1"].tth_overruns > 0
        assert res.masters["M1"].max_overrun > 0


class TestLowPriorityTraffic:
    def test_low_streams_served_when_budget(self):
        phy = PhyParameters()
        m1 = Master(1, (
            MessageStream("h", T=20_000, C_bits=500),
            MessageStream("l", T=20_000, C_bits=500, high_priority=False),
        ))
        net = Network(masters=(m1,), phy=phy, ttr=20_000)
        res = simulate_token_bus(net, 200_000)
        assert res.masters["M1"].low_sent > 0
        assert res.stream("M1", "l").completed > 0

    def test_always_pending_low_consumes_budget(self):
        net = _mini_net(ttr=5_000)
        lap = {m.name: longest_cycle(m, net.phy) for m in net.masters}
        cfg = TokenBusConfig(low_always_pending=lap)
        res = simulate_token_bus(net, 300_000, config=cfg)
        assert all(ms.low_sent > 0 for ms in res.masters.values())
        # background lows lengthen rotations
        plain = simulate_token_bus(net, 300_000)
        assert res.max_trr > plain.max_trr


class TestCycleLengths:
    def test_cycle_time_derived_once_per_stream(self, factory_cell,
                                                monkeypatch):
        from repro.profibus import stream as stream_mod

        calls = []
        real = stream_mod.cycle_time
        monkeypatch.setattr(stream_mod, "cycle_time",
                            lambda spec, phy: calls.append(spec)
                            or real(spec, phy))
        res = simulate_token_bus(factory_cell, 3_000_000)
        streams = [s for m in factory_cell.masters for s in m.streams]
        assert len(calls) == len(streams)
        released = sum(st.released for st in res.streams.values())
        assert released > 10 * len(streams)


class TestTcycleBound:
    def test_warm_start_respects_eq14(self, factory_cell):
        lap = {m.name: longest_cycle(m, factory_cell.phy)
               for m in factory_cell.masters}
        cfg = TokenBusConfig(low_always_pending=lap)
        res = simulate_token_bus(factory_cell, 3_000_000, config=cfg)
        assert res.max_trr <= tcycle(factory_cell)

    def test_cold_start_can_exceed_eq14_documented(self):
        # the DESIGN.md cold-start finding, pinned as a regression test:
        # seed-1 network exceeds TTR + Tdel without warm start
        from repro.gen import network_with_ttr_headroom, random_network

        net = network_with_ttr_headroom(
            random_network(n_masters=4, streams_per_master=3, seed=1)
        )
        lap = {m.name: longest_cycle(m, net.phy) for m in net.masters}
        cold = TokenBusConfig(low_always_pending=lap, warm_start=False)
        res = simulate_token_bus(net, 3_000_000, config=cold)
        bound = tcycle(net)
        assert res.max_trr > bound
        assert res.max_trr <= bound + net.ring_latency()


class TestApArchitecture:
    def test_stack_limited_to_one(self):
        phy = PhyParameters()
        m1 = Master(1, tuple(
            MessageStream(f"s{i}", T=60_000, D=60_000, C_bits=600)
            for i in range(5)
        ))
        net = Network(masters=(m1,), phy=phy, ttr=1_000)
        cfg = TokenBusConfig(policy="ap-dm")
        res = simulate_token_bus(net, 400_000, config=cfg)
        assert res.stream("M1", "s0").completed > 0

    def test_dm_ap_prefers_tight_deadline(self, single_master):
        # under load, the tight-deadline stream's worst response with the
        # AP-DM queue beats the stock FCFS queue's
        fcfs = simulate_token_bus(
            single_master, 2_000_000,
            config=TokenBusConfig(policy="stock-fcfs"),
        )
        dm = simulate_token_bus(
            single_master, 2_000_000,
            config=TokenBusConfig(policy="ap-dm"),
        )
        assert (
            dm.stream("M1", "s0").max_response
            <= fcfs.stream("M1", "s0").max_response
        )

    def test_mixed_policies_per_master(self, factory_cell):
        cfg = TokenBusConfig(
            policy="stock-fcfs",
            policies={"cell": "ap-edf", "robot": "ap-dm"},
        )
        res = simulate_token_bus(factory_cell, 1_000_000, config=cfg)
        assert res.stream("cell", "axis-setpoint").completed > 0
        assert res.stream("robot", "grip-cmd").completed > 0

    def test_deeper_stack_reintroduces_inversion(self, single_master):
        # ablation: with a deep stack, the tight stream's worst response
        # under AP-DM degrades towards FCFS behaviour
        shallow = simulate_token_bus(
            single_master, 2_000_000,
            config=TokenBusConfig(policy="ap-dm", stack_depth=1),
        )
        deep = simulate_token_bus(
            single_master, 2_000_000,
            config=TokenBusConfig(policy="ap-dm", stack_depth=8),
        )
        assert (
            deep.stream("M1", "s0").max_response
            >= shallow.stream("M1", "s0").max_response
        )


class TestMissAccounting:
    def test_miss_detected_when_deadline_tight(self):
        phy = PhyParameters()
        m1 = Master(1, (
            MessageStream("tight", T=50_000, D=520, C_bits=500),
            MessageStream("other", T=50_000, C_bits=500),
        ))
        net = Network(masters=(m1,), phy=phy, ttr=2_000)
        res = simulate_token_bus(net, 500_000)
        assert res.any_miss
        assert res.stream("M1", "tight").missed > 0
