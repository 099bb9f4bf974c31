"""Coverage of smaller paths not exercised elsewhere."""

import pytest

from repro.profibus import analyse, tdel, tdel_refined
from repro.sim import validate_uniproc
from repro.sim.trace import BusTrace, render_timeline


class TestRefinedAnalyses:
    @pytest.mark.parametrize("policy", ["fcfs", "dm", "edf"])
    def test_refined_never_worse(self, factory_cell, policy):
        plain = analyse(factory_cell, policy, refined=False)
        refined = analyse(factory_cell, policy, refined=True)
        assert refined.tcycle <= plain.tcycle
        for a, b in zip(refined.per_stream, plain.per_stream):
            if b.R is not None and a.R is not None:
                assert a.R <= b.R

    def test_refined_strictly_helps_when_two_masters_have_long_lows(self):
        from repro.profibus import Master, MessageStream, Network, PhyParameters

        phy = PhyParameters()
        masters = tuple(
            Master(k, (
                MessageStream(f"h{k}", T=100_000, D=50_000, C_bits=300),
                MessageStream(f"l{k}", T=100_000, C_bits=4_000,
                              high_priority=False),
            ))
            for k in (1, 2)
        )
        net = Network(masters=masters, phy=phy, ttr=2_000)
        assert tdel_refined(net) < tdel(net)
        assert analyse(net, "dm", refined=True).tcycle < analyse(
            net, "dm", refined=False
        ).tcycle


class TestValidateUniprocJitter:
    def test_release_jitter_once_path(self):
        from repro.core import Task, TaskSet, assign_deadline_monotonic
        from repro.core import preemptive_rta

        ts = assign_deadline_monotonic(TaskSet([
            Task(C=1, T=10, J=4, name="a"),
            Task(C=3, T=15, name="b"),
        ]))
        bounds = {rt.task.name: rt.value for rt in preemptive_rta(ts).per_task}
        rep = validate_uniproc(ts, bounds, horizon=600,
                               release_jitter_once=True)
        assert rep.all_sound


class TestTimelineDefaults:
    def test_end_defaults_to_last_event(self):
        from repro.sim.trace import TOKEN_ARRIVAL, BusEvent

        trace = BusTrace()
        trace.record(BusEvent(time=0, kind=TOKEN_ARRIVAL, master="M1"))
        trace.record(BusEvent(time=50, kind=TOKEN_ARRIVAL, master="M1"))
        art = render_timeline(trace, width=20)
        assert "t=0 .. t=50" in art

    def test_cycles_empty_when_only_tokens(self):
        from repro.sim.trace import TOKEN_ARRIVAL, BusEvent

        trace = BusTrace()
        trace.record(BusEvent(time=0, kind=TOKEN_ARRIVAL, master="M1"))
        assert trace.cycles() == []
        assert trace.bus_utilisation() == 0.0


class TestScaleToUtilization:
    def test_targets_are_met_roughly(self):
        from repro.gen import random_taskset, scale_to_utilization

        ts = random_taskset(5, 0.3, seed=2, t_min=100, t_max=1000)
        up = scale_to_utilization(ts, 0.9)
        assert up.utilization == pytest.approx(0.9, abs=0.1)
        down = scale_to_utilization(up, 0.2)
        assert down.utilization == pytest.approx(0.2, abs=0.1)
