#!/usr/bin/env python
"""Per-stage cost of one batch call, in ms per 1000 networks.

Runs the batch benchmark's networks (``perfbench`` ``batch``: 5000
networks in slices of 1000, each slice one ``analyse_many`` call over
fcfs/dm/edf) through each stage of the SoA engine, separately:

    pack   vector.pack_networks (the networks arrive freshly unpickled)
    fcfs   the FCFS pass, which also builds the int64 arrays
    dm     the DM pass (the first to read the pack's deadline order)
    edf    the EDF pass
    emit   the per-network folds and the BatchResult rows (the lane
           engine, batch.lane_rows, over the staged pack)
    grid   the stream count analyse_many dispatches on
    call   the whole analyse_many call, for comparison with the sum

Each stage keeps its fastest time per slice over ``--passes`` passes,
with the garbage collector off; the sums are divided by the number of
slices.  Exits 1 if the emitted rows of a slice differ from
``analyse_many``'s rows on the same slice.  The script puts its
checkout's ``src/`` and root (for ``perfbench``) first on ``sys.path``,
so it times the tree it sits in, from any directory:

    python scripts/batch_stages.py --seed 1 --passes 5
"""

import argparse
import gc
import pickle
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import BATCH_SLICE, POLICIES, batch_networks  # noqa: E402
from repro.perf import batch, vector  # noqa: E402

STAGES = ("pack", "fcfs", "dm", "edf", "emit", "grid", "call")


def stage_times(seed: int, passes: int):
    """``(slices, {stage: best seconds summed over the slices}, indices
    of the slices whose emitted rows differ from analyse_many's)``."""
    nets = batch_networks(seed)
    blobs = [pickle.dumps(nets[i:i + BATCH_SLICE])
             for i in range(0, len(nets), BATCH_SLICE)]
    best = {stage: [float("inf")] * len(blobs) for stage in STAGES}
    pack_networks = vector.pack_networks
    differ = set()
    gc.disable()
    try:
        for _ in range(passes):
            for i, blob in enumerate(blobs):
                slice_nets = pickle.loads(blob)
                marks = [perf_counter()]
                pack = pack_networks(slice_nets)
                marks.append(perf_counter())
                for policy in POLICIES:
                    vector._flat_values(pack, policy)
                    marks.append(perf_counter())
                # the row emit over the staged pack: every pass cached
                vector.pack_networks = lambda _nets, _pack=pack: _pack
                try:
                    emitted = batch.lane_rows(slice_nets, POLICIES)
                finally:
                    vector.pack_networks = pack_networks
                marks.append(perf_counter())
                batch._grid_streams(slice_nets)
                marks.append(perf_counter())
                slice_nets = pickle.loads(blob)
                marks.append(perf_counter())
                rows = batch.analyse_many(slice_nets, POLICIES)
                marks.append(perf_counter())
                if emitted != rows:
                    differ.add(i)
                spans = [b - a for a, b in zip(marks, marks[1:])]
                del spans[6]  # the second unpickle
                for stage, seconds in zip(STAGES, spans):
                    best[stage][i] = min(best[stage][i], seconds)
    finally:
        gc.enable()
    return (len(blobs), {stage: sum(t) for stage, t in best.items()},
            sorted(differ))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    slices, seconds, differ = stage_times(args.seed, args.passes)
    for stage in STAGES:
        if stage == "call":
            staged = sum(seconds[s] for s in STAGES[:-1]) / slices * 1e3
            print(f"{'sum':6s} {staged:7.2f} ms per {BATCH_SLICE} networks")
        print(f"{stage:6s} {seconds[stage] / slices * 1e3:7.2f} ms "
              f"per {BATCH_SLICE} networks")
    if differ:
        print(f"emitted rows differ from analyse_many on slices {differ}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
