#!/usr/bin/env python
"""Per-stage cost of the trace path, in µs per recorded event.

Runs the trace-check benchmark's cases (``perfbench`` ``trace-check``:
the factory cell and twelve shallow-load rings × fcfs/dm/edf) through
each stage of the path it times end to end, separately:

    simulate  simulate_token_bus with a BusTrace attached
    export    the trace document of the recorded events
    dumps     json.dumps of the document
    loads     json.loads back
    ingest    trace_from_doc
    check     monitor_trace (one analysis per case, then every event fed)

The four document stages run twice per case, side by side: on the
columnar ``trace/v2`` document that ``trace_doc`` writes, and on the
row-wise ``trace/v1`` document of the same events (one event object
each), which ``trace_from_doc`` still reads.  Each stage keeps its
fastest time per case over ``--passes`` passes, with the garbage
collector off; the sums are divided by the number of events.  The
document sizes are those of ``json.dumps``.  The script exits 1 if the
monitor report the stages compose, from either document, differs from
the one the whole benchmark call (``trace_check_call``) answers.  It
puts its
checkout's ``src/`` and root (for ``perfbench``) first on ``sys.path``,
so it times the tree it sits in, from any directory:

    python scripts/trace_stages.py --seed 1 --passes 5
"""

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

DOC_STAGES = ("export", "dumps", "loads", "ingest")
FORMATS = ("v1", "v2")


def v1_doc(recorder, horizon):
    """The ``trace/v1`` document of a recorded run."""
    from repro.monitor.trace_io import _event_docs
    from repro.schemas import TRACE_SCHEMA_V1

    return {"schema": TRACE_SCHEMA_V1, "format": "native",
            "horizon": horizon, "dropped": recorder.dropped,
            "events": _event_docs(recorder.events)}


def stage_times(seed: int, passes: int):
    """``(events, {stage: best seconds summed over the cases},
    {format: document bytes})``; the document stages are keyed
    ``(stage, format)``."""
    from perfbench.workloads import SIM_POLICY, TRACE_MAX_EVENTS, trace_cases
    from repro.monitor import monitor_trace, trace_doc, trace_from_doc
    from repro.sim import BusTrace, TokenBusConfig, simulate_token_bus

    export = {"v1": v1_doc, "v2": trace_doc}
    cases = trace_cases(seed)
    nets = [case.network() for case in cases]
    stages = ["simulate", "check"] + [
        (stage, fmt) for stage in DOC_STAGES for fmt in FORMATS]
    best = {stage: [float("inf")] * len(cases) for stage in stages}
    size = dict.fromkeys(FORMATS, 0)
    events = 0

    def keep(stage, i, seconds):
        best[stage][i] = min(best[stage][i], seconds)

    gc.disable()
    try:
        for _ in range(passes):
            events = 0
            size = dict.fromkeys(FORMATS, 0)
            for i, (case, net) in enumerate(zip(cases, nets)):
                recorder = BusTrace(max_events=TRACE_MAX_EVENTS)
                config = TokenBusConfig(policy=SIM_POLICY[case.policy],
                                        tracer=recorder)
                t0 = perf_counter()
                simulate_token_bus(net, case.horizon, config=config)
                keep("simulate", i, perf_counter() - t0)
                events += len(recorder.events)
                for fmt in FORMATS:
                    marks = [perf_counter()]
                    doc = export[fmt](recorder, case.horizon)
                    marks.append(perf_counter())
                    text = json.dumps(doc)
                    marks.append(perf_counter())
                    doc = json.loads(text)
                    marks.append(perf_counter())
                    ingested = trace_from_doc(doc)
                    marks.append(perf_counter())
                    for k, stage in enumerate(DOC_STAGES):
                        keep((stage, fmt), i, marks[k + 1] - marks[k])
                    size[fmt] += len(text)
                t0 = perf_counter()
                monitor_trace(net, ingested, case.policy)
                keep("check", i, perf_counter() - t0)
    finally:
        gc.enable()
    return events, {stage: sum(times) for stage, times in best.items()}, size


def differing_cases(seed: int):
    """``(case, format)`` of every case whose staged monitor report, from
    the ``format`` document, differs from the whole call's."""
    from perfbench.workloads import (SIM_POLICY, TRACE_MAX_EVENTS,
                                     trace_cases, trace_check_call)
    from repro.monitor import monitor_trace, trace_doc, trace_from_doc
    from repro.sim import BusTrace, TokenBusConfig, simulate_token_bus

    export = {"v1": v1_doc, "v2": trace_doc}
    differ = []
    for i, case in enumerate(trace_cases(seed)):
        whole = trace_check_call(case, case.network())[1]["payload"]["report"]
        recorder = BusTrace(max_events=TRACE_MAX_EVENTS)
        net = case.network()
        simulate_token_bus(net, case.horizon, config=TokenBusConfig(
            policy=SIM_POLICY[case.policy], tracer=recorder))
        for fmt in FORMATS:
            doc = json.loads(json.dumps(export[fmt](recorder, case.horizon)))
            staged = monitor_trace(net, trace_from_doc(doc), case.policy)
            if staged.to_dict() != whole:
                differ.append((i, fmt))
    return differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    events, seconds, size = stage_times(args.seed, args.passes)

    def us(stage):
        return seconds[stage] / events * 1e6

    print(f"{'stage':9s} {'v1 µs/event':>12s} {'v2 µs/event':>12s}")
    shared = us("simulate") + us("check")
    totals = dict.fromkeys(FORMATS, shared)
    print(f"{'simulate':9s} {us('simulate'):12.2f} {us('simulate'):12.2f}")
    for stage in DOC_STAGES:
        for fmt in FORMATS:
            totals[fmt] += us((stage, fmt))
        print(f"{stage:9s} {us((stage, 'v1')):12.2f} "
              f"{us((stage, 'v2')):12.2f}")
    print(f"{'check':9s} {us('check'):12.2f} {us('check'):12.2f}")
    print(f"{'total':9s} {totals['v1']:12.2f} {totals['v2']:12.2f}  "
          f"({events} events)")
    print(f"{'document':9s} {size['v1'] / events:12.1f} "
          f"{size['v2'] / events:12.1f}  bytes/event")
    differ = differing_cases(args.seed)
    for i, fmt in differ:
        print(f"case {i}: the staged report from the {fmt} document "
              "differs from the whole call's")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
