#!/usr/bin/env python
"""Per-stage cost of the trace path, in µs per recorded event.

Runs the trace-check benchmark's cases (``perfbench`` ``trace-check``:
the factory cell and twelve shallow-load rings × fcfs/dm/edf) through
each stage of the path it times end to end, separately:

    simulate  simulate_token_bus with a BusTrace attached
    export    trace_doc (the trace/v1 document)
    dumps     json.dumps of the document
    loads     json.loads back
    ingest    trace_from_doc
    check     monitor_trace (one analysis per case, then every event fed)

Each stage keeps its fastest time per case over ``--passes`` passes,
with the garbage collector off; the sums are divided by the number of
events.  Run from the repository root (``perfbench`` is imported from
there):

    PYTHONPATH=src:. python scripts/trace_stages.py --seed 1 --passes 5
"""

import argparse
import gc
import json
import sys
from time import perf_counter

from perfbench.workloads import SIM_POLICY, TRACE_MAX_EVENTS, trace_cases
from repro.monitor import monitor_trace, trace_doc, trace_from_doc
from repro.sim import BusTrace, TokenBusConfig, simulate_token_bus

STAGES = ("simulate", "export", "dumps", "loads", "ingest", "check")


def stage_times(seed: int, passes: int):
    """``(events, {stage: best seconds summed over the cases})``."""
    cases = trace_cases(seed)
    nets = [case.network() for case in cases]
    best = {stage: [float("inf")] * len(cases) for stage in STAGES}
    events = 0
    gc.disable()
    try:
        for _ in range(passes):
            events = 0
            for i, (case, net) in enumerate(zip(cases, nets)):
                recorder = BusTrace(max_events=TRACE_MAX_EVENTS)
                config = TokenBusConfig(policy=SIM_POLICY[case.policy],
                                        tracer=recorder)
                marks = [perf_counter()]
                simulate_token_bus(net, case.horizon, config=config)
                marks.append(perf_counter())
                doc = trace_doc(recorder, horizon=case.horizon)
                marks.append(perf_counter())
                text = json.dumps(doc)
                marks.append(perf_counter())
                doc = json.loads(text)
                marks.append(perf_counter())
                ingested = trace_from_doc(doc)
                marks.append(perf_counter())
                monitor_trace(net, ingested, case.policy)
                marks.append(perf_counter())
                events += len(recorder.events)
                for k, stage in enumerate(STAGES):
                    best[stage][i] = min(best[stage][i],
                                         marks[k + 1] - marks[k])
    finally:
        gc.enable()
    return events, {stage: sum(times) for stage, times in best.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    events, seconds = stage_times(args.seed, args.passes)
    total = 0.0
    for stage in STAGES:
        us = seconds[stage] / events * 1e6
        total += us
        print(f"{stage:9s} {us:6.2f} µs/event  "
              f"{events / seconds[stage] / 1e3:8.0f}k events/s")
    print(f"{'total':9s} {total:6.2f} µs/event  ({events} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
