#!/usr/bin/env python
"""Per-stage cost of a deadline-scale sweep, in µs per sweep.

Runs the api-request benchmark's sweeps (``perfbench`` ``api-request``:
the deadline-scale sweep requests among its 400, each over the 37-point
``SWEEP_GRID`` and fcfs/dm/edf) through each stage of
``deadline_scale_sweep``, separately:

    scale    every master's deadlines scaled over the grid, and its
             distinct columns
    fcfs     the closed-form FCFS partial of every distinct column
    dm       the DM kernel per order group, and the folds
    edf      the EDF kernel per distinct column (one busy period per
             master), and the folds
    combine  each point's per-master partials combined into rows
    csv      rows_to_csv of the rows
    sweep    the whole deadline_scale_sweep call, for comparison with
             the sum

Each stage keeps its fastest time per sweep over ``--passes`` passes,
with the garbage collector off; the sums are divided by the number of
sweeps.  The networks are parsed once, outside the timed stages.  The
script puts its checkout's ``src/`` and root (for ``perfbench``) first
on ``sys.path``, so it times the tree it sits in, from any directory:

    python scripts/sweep_stages.py --seed 1 --passes 5
"""

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

STAGES = ("scale", "fcfs", "dm", "edf", "combine", "csv", "sweep")


def sweep_cases(seed: int):
    """``(network, factors, policies)`` of every sweep request."""
    from perfbench.workloads import api_requests
    from repro.api import POLICIES
    from repro.profibus.serialization import network_from_dict

    cases = []
    for op, line in api_requests(seed):
        if op == "sweep":
            doc = json.loads(line)
            cases.append((network_from_dict(doc["network"]),
                          doc["sweep_values"],
                          tuple(doc.get("policies", POLICIES))))
    return cases


def stage_times(seed: int, passes: int):
    """``(sweeps, {stage: best seconds summed over the sweeps})``."""
    from repro.perf.batch import spec_columns
    from repro.profibus import sweep

    cases = sweep_cases(seed)
    best = {stage: [float("inf")] * len(cases) for stage in STAGES}

    def keep(stage, i, seconds):
        best[stage][i] = min(best[stage][i], seconds)

    gc.disable()
    try:
        for _ in range(passes):
            for i, (net, factors, policies) in enumerate(cases):
                tc, columns = spec_columns(net)
                t0 = perf_counter()
                masters = []
                deadlines: dict = {}
                for specs in columns:
                    if specs:
                        points, distinct = sweep._master_points(specs,
                                                                factors)
                        masters.append(points)
                        deadlines.update(distinct)
                keep("scale", i, perf_counter() - t0)
                partials = {}
                for policy in dict.fromkeys(policies):
                    t0 = perf_counter()
                    partials[policy] = sweep._distinct_partials(
                        policy, tc, deadlines)
                    keep(policy, i, perf_counter() - t0)
                t0 = perf_counter()
                rows = sweep._combined_rows("deadline_scale", factors,
                                            policies, tc, masters, partials)
                t1 = perf_counter()
                sweep.rows_to_csv(rows)
                t2 = perf_counter()
                whole = sweep.deadline_scale_sweep(net, factors, policies)
                t3 = perf_counter()
                keep("combine", i, t1 - t0)
                keep("csv", i, t2 - t1)
                keep("sweep", i, t3 - t2)
                if whole != rows:
                    raise SystemExit(f"sweep {i}: the stages' rows differ "
                                     "from deadline_scale_sweep's")
    finally:
        gc.enable()
    return len(cases), {stage: sum(t for t in times if t != float("inf"))
                        for stage, times in best.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    sweeps, seconds = stage_times(args.seed, args.passes)
    print(f"{'stage':8s} {'µs/sweep':>10s}")
    total = 0.0
    for stage in STAGES:
        us = seconds[stage] / sweeps * 1e6
        if stage == "sweep":
            print(f"{'sum':8s} {total:10.0f}")
        else:
            total += us
        print(f"{stage:8s} {us:10.0f}")
    print(f"({sweeps} sweeps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
