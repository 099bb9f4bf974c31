"""Worst-case response-time analysis under EDF — eqs. (6)–(10).

Under EDF the critical instant is *not* the synchronous release: the
worst case for task ``i`` is found by scanning release offsets ``a`` of
one ``i``-instance while every other task is released synchronously at
time 0 at maximum rate (Spuri [32]; George et al. [31] for the
non-preemptive variant).

Preemptive (eqs. (6)–(8))::

    rᵢ(a) = max(Cᵢ, Lᵢ(a) − a)
    Lᵢ(a) = Wᵢ(a, Lᵢ(a)) + (1 + ⌊a/Tᵢ⌋)·Cᵢ
    Wᵢ(a,t) = Σ_{j≠i, Dⱼ ≤ a+Dᵢ} min(⌈t/Tⱼ⌉, 1 + ⌊(a+Dᵢ−Dⱼ)/Tⱼ⌋)·Cⱼ

Non-preemptive (eqs. (9)–(10)) — the busy period now precedes the
*start* of the instance, and a later-deadline task can block for at most
``Cⱼ − 1``::

    rᵢ(a) = max(Cᵢ, Cᵢ + Lᵢ(a) − a)
    Lᵢ(a) = max_{Dⱼ > a+Dᵢ}(Cⱼ − 1) + Wᵢ*(a, Lᵢ(a)) + ⌊a/Tᵢ⌋·Cᵢ
    Wᵢ*(a,t) = Σ_{j≠i, Dⱼ ≤ a+Dᵢ} min(1+⌊t/Tⱼ⌋, 1+⌊(a+Dᵢ−Dⱼ)/Tⱼ⌋)·Cⱼ

In both cases ``a`` ranges over ``{k·Tⱼ + Dⱼ − Dᵢ ≥ 0} ∩ [0, L]`` where
``L`` is the synchronous busy period (eq. (8)/(10)); we additionally add
the jitter-shifted points ``k·Tⱼ + Dⱼ − Jⱼ − Dᵢ`` when jitter is present
so the scan stays safe.  Release jitter enters the interference terms as
in the holistic analyses of Spuri [34] / Tindell & Clark [33]; response
times are reported **from the actual release** — add ``Jᵢ`` for the
delay from the notional arrival (done by :mod:`repro.apsched.end_to_end`).
"""

from __future__ import annotations

from typing import Iterable, List, Set

from .blocking import blocking_from
from .busy_period import synchronous_busy_period
from .results import AnalysisResult, ResponseTime
from .task import Task, TaskSet
from .timeops import Number, ceil_div, fixed_point, floor_div


def _candidate_offsets(
    taskset: TaskSet, task: Task, horizon: Number
) -> List[Number]:
    """The eq. (8)/(10) scan set for ``a``, deduplicated and sorted."""
    points: Set[Number] = {0}
    for j in taskset:
        base = j.D - task.D
        k = 0
        while True:
            a = base + k * j.T
            if a > horizon:
                break
            if a >= 0:
                points.add(a)
            if j.J:
                aj = a - j.J
                if 0 <= aj <= horizon:
                    points.add(aj)
            k += 1
    return sorted(points)


def _interference_preemptive(
    taskset: TaskSet, task: Task, a: Number, t: Number
) -> Number:
    total: Number = 0
    dl = a + task.D
    for j in taskset:
        if j is task or j.D > dl:
            continue
        by_time = ceil_div(t + j.J, j.T) if t > 0 else 0
        by_deadline = 1 + floor_div(a + task.D - j.D + j.J, j.T)
        total = total + min(by_time, by_deadline) * j.C
    return total


def _interference_nonpreemptive(
    taskset: TaskSet, task: Task, a: Number, t: Number
) -> Number:
    total: Number = 0
    dl = a + task.D
    for j in taskset:
        if j is task or j.D > dl:
            continue
        by_time = 1 + floor_div(t + j.J, j.T)
        by_deadline = 1 + floor_div(a + task.D - j.D + j.J, j.T)
        total = total + min(by_time, by_deadline) * j.C
    return total


def edf_preemptive_response_at(
    taskset: TaskSet, task: Task, a: Number, limit: Number
) -> Number:
    """``rᵢ(a)`` of eq. (6); ``limit`` bounds the busy-period iteration."""
    own = (1 + floor_div(a + task.J, task.T)) * task.C

    def step(L: Number) -> Number:
        return _interference_preemptive(taskset, task, a, L) + own

    L, _its, converged = fixed_point(step, own, limit=limit)
    if not converged:
        return L - a if L - a > task.C else task.C  # already past limit
    r = L - a
    return r if r > task.C else task.C


def edf_nonpreemptive_response_at(
    taskset: TaskSet,
    task: Task,
    a: Number,
    limit: Number,
    blocking_subtract_one: bool = True,
) -> Number:
    """``rᵢ(a)`` of eq. (9).

    ``blocking_subtract_one=False`` charges the full ``Cⱼ`` as blocking —
    the continuous-time-safe variant eq. (18) uses for messages (a
    request may be staged "marginally before" the token passes).
    """
    own = floor_div(a + task.J, task.T) * task.C
    B = blocking_from(
        (j for j in taskset if j.D > a + task.D),
        subtract_one=blocking_subtract_one,
    )

    def step(L: Number) -> Number:
        return B + _interference_nonpreemptive(taskset, task, a, L) + own

    L, _its, converged = fixed_point(step, step(0), limit=limit)
    r = task.C + L - a
    return r if r > task.C else task.C


def edf_response_time(
    taskset: TaskSet,
    task: Task,
    preemptive: bool = True,
    limit_factor: Number = 4,
    blocking_subtract_one: bool = True,
) -> ResponseTime:
    """Worst-case EDF response time of ``task`` (eq. (7)).

    The per-offset busy-period iteration is capped at
    ``limit_factor * (L + D + J)``; an offset whose iteration escapes the
    cap contributes a response beyond the deadline, so the task is
    reported unschedulable (never an infinite loop).
    """
    if taskset.utilization > 1.0 + 1e-12:
        return ResponseTime(task=task, value=None)
    b_seed = 0
    if not preemptive:
        b_seed = blocking_from(taskset, subtract_one=blocking_subtract_one)
    if b_seed > 0 and taskset.utilization > 1.0 - 1e-12:
        # U == 1: a blocking-seeded busy period never drains, but r_i(a)
        # is eventually periodic in ``a`` with the hyperperiod, so one
        # hyperperiod past the plain busy period is an exhaustive scan.
        L0 = synchronous_busy_period(taskset, include_jitter=True)
        H = taskset.hyperperiod() or max(t.T for t in taskset)
        L = L0 + H + max(t.D for t in taskset)
    else:
        L = synchronous_busy_period(taskset, include_jitter=True, blocking=b_seed)
    limit = limit_factor * (L + task.D + task.J) + task.C
    best: Number = 0
    best_a: Number = 0
    offsets = _candidate_offsets(taskset, task, L)

    for a in offsets:
        if preemptive:
            r = edf_preemptive_response_at(taskset, task, a, limit)
        else:
            r = edf_nonpreemptive_response_at(
                taskset, task, a, limit,
                blocking_subtract_one=blocking_subtract_one,
            )
        if r > best:
            best, best_a = r, a
    return ResponseTime(task=task, value=best, critical_a=best_a)


def edf_rta(taskset: TaskSet, preemptive: bool = True) -> AnalysisResult:
    """Whole-set EDF response-time analysis (eqs. (6)–(10))."""
    per_task = tuple(
        edf_response_time(taskset, t, preemptive=preemptive) for t in taskset
    )
    return AnalysisResult(
        schedulable=all(rt.schedulable for rt in per_task),
        per_task=per_task,
        test="edf-preemptive-rta" if preemptive else "edf-nonpreemptive-rta",
    )
