"""E5 — Acceptance ratio vs deadline tightness: the §5 claim at scale.

For each deadline-tightness level ``x`` (deadlines drawn in
``[0.6x·T, x·T]``), generate random 3-master networks with a minimal TTR
and report the fraction schedulable per policy.  The expected shape:
everyone passes at loose deadlines, FCFS decays first as deadlines
tighten, the priority policies hold on longest, and everything dies at
extreme tightness — "priority-based dispatching allows the support of
messages with more tight deadlines", quantified.
"""

import pytest

from conftest import print_table
from repro.perf.batch import acceptance_curve

N_PER_POINT = 12
TIGHTNESS = (1.0, 0.5, 0.3, 0.2, 0.12, 0.07)


def _acceptance(d_over_t_max: float):
    return acceptance_curve((d_over_t_max,), N_PER_POINT)[d_over_t_max]


def test_e5_acceptance_ratio(benchmark):
    rows = []
    raw = acceptance_curve(TIGHTNESS, N_PER_POINT)
    for tight in TIGHTNESS:
        counts = raw[tight]
        rows.append((
            tight,
            f"{counts['fcfs'] / N_PER_POINT:.2f}",
            f"{counts['dm'] / N_PER_POINT:.2f}",
            f"{counts['edf'] / N_PER_POINT:.2f}",
        ))
    print_table(
        f"E5 acceptance ratio vs deadline tightness (n={N_PER_POINT}/point)",
        ("max D/T", "FCFS", "DM", "EDF"),
        rows,
    )
    # dominance at every point
    for tight, counts in raw.items():
        assert counts["dm"] >= counts["fcfs"]
        assert counts["edf"] >= counts["fcfs"]
    # the claim has content: the priority policies strictly win somewhere
    assert any(c["dm"] > c["fcfs"] for c in raw.values())
    # and the curve decays: loose deadlines accept more than tight ones
    assert raw[TIGHTNESS[0]]["fcfs"] > raw[TIGHTNESS[-1]]["fcfs"]
    assert raw[TIGHTNESS[0]]["dm"] > raw[TIGHTNESS[-1]]["dm"]
    benchmark.pedantic(lambda: _acceptance(0.3), rounds=1, iterations=1)
