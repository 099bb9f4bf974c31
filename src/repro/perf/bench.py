"""Throughput benchmark driver — the ``repro-cli bench`` backend.

Measures the same workload once per analysis mode on one machine:

* ``generic_serial`` — the exact generic path (fast kernels disabled),
  the baseline every speedup is quoted against;
* ``fast_serial`` — integer kernels + interference caching, one process;
* ``vectorized_serial`` — the structure-of-arrays batch kernels
  (:mod:`repro.perf.vector`): the whole workload packed once and every
  fixed-point recurrence advanced across all networks per instruction
  stream.  The ``vector_backend`` field records whether the numpy
  lanes ran (``"numpy"``) or the scalar kernels over the pack
  (``"scalar"``).

Every mode runs through :func:`repro.perf.batch.analyse_many` with an
explicit ``mode``, so each row measures its engine at every workload
size.

Workloads are regenerated (same seed → value-equal, fresh instances)
for every timed run, so the instance-keyed analysis memos never carry
results across modes or rounds; generation time is excluded from every
measurement.  Results go to a machine-readable ``BENCH_*.json``
artefact (schema documented in PERF.md) so perf trajectories can be
compared across commits.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import vector
from .batch import DEFAULT_POLICIES, BatchResult, analyse_many, generate_networks
from .config import ANALYSIS_MODES
from .stats import counters
from ..schemas import BENCH_SCHEMA as SCHEMA

#: Deadline-tightness levels cycled across the generated networks so the
#: workload spans the easy/marginal/infeasible regimes like the E5 curve.
TIGHTNESS_CYCLE = (1.0, 0.5, 0.3, 0.2, 0.12)


def _workload(n_networks: int, seed: int):
    """The bench workload: ``n`` networks cycling through the tightness
    levels, minimal-headroom TTR, reproducible from ``seed``."""
    per_level = -(-n_networks // len(TIGHTNESS_CYCLE))
    nets = []
    for li, x in enumerate(TIGHTNESS_CYCLE):
        nets.extend(
            generate_networks(
                per_level,
                seed=seed * 7_654_321 + li,
                d_over_t=(x * 0.6, x),
            )
        )
    return nets[:n_networks]


class _ModeRun:
    """Best-of-rounds timings for one mode."""

    __slots__ = ("wall", "cpu", "iterations", "rows")

    def __init__(self) -> None:
        self.wall = float("inf")
        self.cpu = float("inf")
        self.iterations = 0
        self.rows: List[BatchResult] = []

    def observe(self, wall: float, cpu: float, iterations: int,
                rows: List[BatchResult]) -> None:
        if wall < self.wall:
            self.wall = wall
        if cpu < self.cpu:
            self.cpu = cpu
            self.iterations = iterations
            self.rows = rows


def _run_once(n_networks: int, seed: int, policies: Sequence[str],
              mode: str, into: _ModeRun) -> None:
    nets = _workload(n_networks, seed)  # fresh instances, cold memos
    counters.reset()
    w0, c0 = time.perf_counter(), time.process_time()
    rows = analyse_many(nets, policies, mode=mode)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    into.observe(wall, cpu,
                 counters.fast + counters.generic + counters.vectorized,
                 rows)


def run_benchmark(
    n_networks: int = 500,
    seed: int = 0,
    rounds: int = 3,
    policies: Sequence[str] = DEFAULT_POLICIES,
    check: bool = True,
    modes: Optional[Tuple[str, ...]] = None,
) -> dict:
    """Run the modes and assemble the ``BENCH_batch.json`` payload.

    ``modes`` restricts the benchmark to a subset of
    :data:`repro.perf.config.ANALYSIS_MODES` (default: all three).
    Rounds are interleaved across modes so transient machine load hits
    every mode equally; the per-mode best is reported.  ``cpu_seconds``
    (process CPU time) drives the speedup ratios — on a multi-tenant
    machine wall clock charges one mode for another tenant's burst.
    """
    if n_networks < 1:
        raise ValueError("bench needs at least one network")
    selected = tuple(modes) if modes else ANALYSIS_MODES
    bad = [m for m in selected if m not in ANALYSIS_MODES]
    if bad:
        raise ValueError(
            f"unknown bench mode(s) {bad}; pick from {list(ANALYSIS_MODES)}"
        )
    n_analyses = n_networks * len(policies)

    serial: Dict[str, _ModeRun] = {m: _ModeRun() for m in selected}
    for _ in range(max(1, rounds)):
        for m in selected:
            _run_once(n_networks, seed, policies, m, serial[m])

    consistent: Optional[bool] = None  # None = equality check skipped
    if check:
        row_sets = [run.rows for run in serial.values()]
        if len(row_sets) > 1:
            consistent = all(rows == row_sets[0] for rows in row_sets[1:])

    def _mode(run: _ModeRun):
        out = {
            "seconds": run.wall,
            "cpu_seconds": run.cpu,
            "analyses_per_sec": n_analyses / run.wall,
            "analyses_per_cpu_sec": n_analyses / run.cpu,
            "iterations": run.iterations,
        }
        if "generic" in serial and run is not serial["generic"]:
            out["speedup_vs_generic"] = serial["generic"].cpu / run.cpu
        if "fast" in serial and run not in (serial["fast"], serial.get("generic")):
            out["speedup_vs_fast"] = serial["fast"].cpu / run.cpu
        return out

    mode_rows = {f"{m}_serial": _mode(serial[m])
                 for m in ANALYSIS_MODES if m in serial}

    sample = next(iter(serial.values()))
    schedulable = sum(1 for r in sample.rows if r.schedulable)
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "platform": sys.platform,
            "numpy": vector.numpy_version(),  # None = unavailable
            "vector_backend": vector.backend_name(),
        },
        "workload": {
            "networks": n_networks,
            "policies": list(policies),
            "analyses": n_analyses,
            "seed": seed,
            "rounds": rounds,
            "tightness_cycle": list(TIGHTNESS_CYCLE),
            "schedulable_rows": schedulable,
        },
        "modes": mode_rows,
        "consistent": consistent,
    }


def write_benchmark(report: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def format_report(report: dict) -> List[str]:
    """Human-readable summary lines for the CLI."""
    wl = report["workload"]
    machine = report.get("machine", {})
    backend = machine.get("vector_backend")
    numpy_note = (f"numpy {machine['numpy']}" if machine.get("numpy")
                  else "no numpy")
    lines = [
        f"bench: {wl['networks']} networks × {len(wl['policies'])} policies "
        f"= {wl['analyses']} analyses (best of {wl['rounds']} rounds, "
        f"seed {wl['seed']}; vector backend: {backend}, {numpy_note})",
    ]
    for name, mode in report["modes"].items():
        speed = mode["analyses_per_sec"]
        extra = ""
        if "speedup_vs_generic" in mode:
            extra = f"  ({mode['speedup_vs_generic']:.2f}x vs generic"
            if "speedup_vs_fast" in mode:
                extra += f", {mode['speedup_vs_fast']:.2f}x vs fast"
            extra += ")"
        lines.append(
            f"  {name:<19} {speed:>10.0f} analyses/s  "
            f"{mode['iterations']:>9} iterations{extra}"
        )
    consistent = report["consistent"]
    verdict = ("not checked" if consistent is None
               else "ok" if consistent else "MISMATCH")
    lines.append(f"cross-mode result agreement: {verdict}")
    return lines
