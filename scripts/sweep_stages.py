#!/usr/bin/env python
"""Per-stage cost of a deadline-scale sweep and of an admission, in µs.

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

and the benchmark's admissions through each stage of
``repro.api.compute_result``, in µs per admission:

    key        the request keyed: one validating pass over its network
               document and the fingerprint (``keyed_network``)
    before     the analyse payload of the scan
    join       the candidate joined to the scan (``_admit_stream``)
    read       the joined scan's columns, which the after payload and
               both headroom searches read
    after      the analyse payload of the joined columns
    max-ttr    the admitted stream's max feasible TTR search
    tighten    its deadline-tightening search
    assemble   the answer from the parts (broken streams, payload)
    admission  the whole compute_result call, for comparison with the
               sum of the stages after the key

Each stage keeps its fastest time per sweep (or admission) over
``--passes`` passes, with the garbage collector off; the sums are
divided by the number of sweeps (admissions).  The sweeps' networks are
parsed once, outside the timed stages.  The script exits 1 if the
stages' rows differ from ``deadline_scale_sweep``'s, or the assembled
admission answer from ``compute_result``'s.  It puts its checkout's
``src/`` and root (for ``perfbench``) first on ``sys.path``, so it
times the tree it sits in, from any directory:

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
ADMISSION_STAGES = ("key", "before", "join", "read", "after", "max-ttr",
                    "tighten", "assemble", "admission")


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
    from repro.profibus import sweep
    from repro.profibus.timing import network_columns

    cases = sweep_cases(seed)
    best = {stage: [float("inf")] * len(cases) for stage in STAGES}

    def keep(stage, i, seconds):
        best[stage][i] = min(best[stage][i], seconds)

    gc.disable()
    try:
        for _ in range(passes):
            for i, (net, factors, policies) in enumerate(cases):
                columns = network_columns(net)
                tc = columns.tcycle()
                t0 = perf_counter()
                masters = []
                deadlines = []
                for specs in columns.specs:
                    points, distinct = sweep._master_points(specs, factors)
                    masters.append(points)
                    deadlines.append(distinct)
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


def admission_times(seed: int, passes: int):
    """``(admissions, {stage: best seconds summed over them})``."""
    from perfbench.workloads import api_requests
    from repro import api
    from repro.profibus import ttr
    from repro.profibus.timing import columns_or_network

    requests = [api.AnalysisRequest.from_dict(json.loads(line))
                for op, line in api_requests(seed) if op == "admission"]
    best = {stage: [float("inf")] * len(requests)
            for stage in ADMISSION_STAGES}

    def keep(stage, i, seconds):
        best[stage][i] = min(best[stage][i], seconds)

    gc.disable()
    try:
        for _ in range(passes):
            for i, request in enumerate(requests):
                policy, refined = request.policy, request.refined
                t0 = perf_counter()
                scan, fingerprint = api.keyed_network(request)
                t1 = perf_counter()
                before = api._analysis_payload(scan, policy, refined)
                t2 = perf_counter()
                joined = api._admit_stream(scan, request.admission_master,
                                           request.admission_stream)
                t3 = perf_counter()
                source = columns_or_network(joined, refined)
                t4 = perf_counter()
                after = api._analysis_payload(source, policy, refined)
                t5 = perf_counter()
                headroom = {"max_feasible_ttr": None,
                            "deadline_tightening_limit": None}
                t6 = t7 = t5
                if after["schedulable"]:
                    max_ttr = ttr.max_feasible_ttr(source, policy, refined)
                    t6 = perf_counter()
                    limit = api._tightening_limit(source, policy, refined)
                    t7 = perf_counter()
                    headroom = {"max_feasible_ttr": max_ttr,
                                "deadline_tightening_limit": limit}
                result = api._admission_result(request, fingerprint, before,
                                               after, headroom)
                t8 = perf_counter()
                whole = api.compute_result(request, scan, fingerprint)
                t9 = perf_counter()
                for stage, seconds in zip(
                        ADMISSION_STAGES,
                        (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4,
                         t6 - t5, t7 - t6, t8 - t7, t9 - t8)):
                    keep(stage, i, seconds)
                if whole.to_dict() != result.to_dict():
                    raise SystemExit(f"admission {i}: the stages' answer "
                                     "differs from compute_result's")
    finally:
        gc.enable()
    return len(requests), {stage: sum(t for t in times
                                      if t != float("inf"))
                           for stage, times in best.items()}


def _table(name: str, stages, count: int, seconds: dict, whole: str,
           first: str) -> None:
    """One stage table; ``whole`` is the whole-call row, printed after
    the sum of the stages from ``first`` on."""
    print(f"{'stage':9s} {f'µs/{name}':>13s}")
    total = 0.0
    counting = False
    for stage in stages:
        us = seconds[stage] / count * 1e6
        counting = counting or stage == first
        if stage == whole:
            print(f"{'sum':9s} {total:13.0f}")
        elif counting:
            total += us
        print(f"{stage:9s} {us:13.0f}")
    print(f"({count} {name}s)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    sweeps, seconds = stage_times(args.seed, args.passes)
    _table("sweep", STAGES, sweeps, seconds, "sweep", "scale")
    print()
    admissions, seconds = admission_times(args.seed, args.passes)
    _table("admission", ADMISSION_STAGES, admissions, seconds, "admission",
           "before")
    return 0


if __name__ == "__main__":
    sys.exit(main())
