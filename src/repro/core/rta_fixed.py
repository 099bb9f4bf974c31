"""Fixed-priority worst-case response-time analysis (§2.1).

Implements, for a task set with assigned fixed priorities:

* **Preemptive RTA** (Joseph & Pandya [23]) — the classic critical-instant
  recursion ``rᵢ = Cᵢ + Σ_{j∈hp(i)} ⌈rᵢ/Tⱼ⌉·Cⱼ``;
* **Non-preemptive RTA** (Audsley et al. [24]) — the paper's eq. (1)–(2):
  ``rᵢ = wᵢ + Cᵢ`` with ``wᵢ = Bᵢ + Σ_{j∈hp(i)} ⌈wᵢ/Tⱼ⌉·Cⱼ`` and
  ``Bᵢ = max_{j∈lp(i)} Cⱼ``;
* the **release-jitter extension** (Tindell & Clark [33]) of both, used
  by the PROFIBUS message analysis of §4.3: interference terms become
  ``⌈(wᵢ + Jⱼ)/Tⱼ⌉`` and the reported response time gains ``+ Jᵢ``.

All recursions are solved by the shared monotone fixed-point driver and
bounded by the task deadline (plus jitter), so unschedulable tasks are
reported with ``value=None`` rather than looping.

A subtlety of the classic Audsley non-preemptive recursion: ``wᵢ`` is the
worst-case *queuing* delay (time to start), so interference is counted
over ``[0, wᵢ]``; releases of higher-priority work at exactly ``wᵢ`` do
not preempt the now-started task.  We therefore iterate
``wᵢ = Bᵢ + Σ ⌈(wᵢ + Jⱼ + ε)/Tⱼ⌉·Cⱼ`` with the standard "epsilon via
+1-then-floor" trick on exact numbers — concretely we use
``floor((w + J)/T) + 1`` which equals ``⌈(w+J+ε)/Tⱼ⌉`` for arbitrarily
small ε.  With ``C`` granularity ≥ 1 time unit this matches the
literature (George et al. TR 2966) and is *never* optimistic; the paper's
plain-ceiling print of eq. (1) is recovered with ``strict_start=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .blocking import nonpreemptive_blocking
from .results import AnalysisResult, ResponseTime
from .task import Task, TaskSet
from .timeops import Number, ceil_div, fixed_point, floor_div


def preemptive_response_time(
    taskset: TaskSet,
    task: Task,
    limit_factor: Number = 1,
) -> ResponseTime:
    """Joseph–Pandya recursion for one task (with optional jitter).

    The iteration is abandoned (→ ``value=None``) once it exceeds
    ``limit_factor * (D + J)``; ``limit_factor`` > 1 lets callers measure
    *how* unschedulable a task is.
    """
    hp = taskset.hp(task)
    limit = limit_factor * (task.D + task.J)

    def step(r: Number) -> Number:
        total = task.C
        for j in hp:
            total = total + ceil_div(r + j.J, j.T) * j.C
        return total

    value, its, converged = fixed_point(step, task.C, limit=limit)
    if not converged:
        return ResponseTime(task=task, value=None, iterations=its)
    return ResponseTime(task=task, value=value + task.J, iterations=its)


def preemptive_rta(taskset: TaskSet) -> AnalysisResult:
    """Whole-set preemptive fixed-priority RTA."""
    per_task = tuple(preemptive_response_time(taskset, t) for t in taskset)
    return AnalysisResult(
        schedulable=all(rt.schedulable for rt in per_task),
        per_task=per_task,
        test="fp-preemptive-rta",
    )


def preemptive_response_time_arbitrary(
    taskset: TaskSet,
    task: Task,
    max_instances: int = 100_000,
) -> ResponseTime:
    """Preemptive FP response time for **arbitrary deadlines** (D > T
    allowed) — Lehoczky's level-i busy-period analysis.

    The Joseph–Pandya recursion assumes each instance completes before
    the next arrives; with ``D > T`` several instances of ``task`` can be
    live at once and a later one can respond worst.  We scan every
    instance ``q`` in the level-i busy period::

        wᵢ(q) = (q+1)·Cᵢ + Σ_{j∈hp(i)} ⌈(wᵢ(q) + Jⱼ)/Tⱼ⌉·Cⱼ
        Rᵢ    = Jᵢ + max_q ( wᵢ(q) − q·Tᵢ )

    Matches :func:`preemptive_response_time` whenever the result is
    ≤ T (property-tested).  Included as the §2 survey's natural
    completion; the paper itself only needs ``D ≤ T``.
    """
    from .busy_period import synchronous_busy_period

    hp = taskset.hp(task)
    level = TaskSet(hp + [task])
    try:
        L = synchronous_busy_period(level, include_jitter=True)
    except ValueError:
        return ResponseTime(task=task, value=None)
    n_instances = ceil_div(L + task.J, task.T)
    if n_instances > max_instances:
        return ResponseTime(task=task, value=None)

    worst: Number = 0
    its_total = 0
    # responses are unbounded only past the busy period; inside it the
    # iteration is capped generously and misses are detected afterwards
    limit = L + task.D + task.J
    for q in range(max(1, n_instances)):
        own = (q + 1) * task.C

        def step(w: Number) -> Number:
            total: Number = own
            for j in hp:
                total = total + ceil_div(w + j.J, j.T) * j.C
            return total

        value, its, converged = fixed_point(step, own, limit=limit)
        its_total += its
        if not converged:
            return ResponseTime(task=task, value=None, iterations=its_total)
        r = value - q * task.T
        if r > worst:
            worst = r
    return ResponseTime(task=task, value=worst + task.J, iterations=its_total)


def nonpreemptive_start_time(
    taskset: TaskSet,
    task: Task,
    strict_start: bool = True,
    limit: Optional[Number] = None,
    instance: int = 0,
) -> Optional[tuple]:
    """Solve the eq. (1) inner recursion for ``wᵢ(q)`` (queuing delay of
    the ``q``-th instance in the level-i busy period).

    ``wᵢ(q) = Bᵢ + q·Cᵢ + Σ_{j∈hp(i)} ⌈(wᵢ(q) + Jⱼ)/Tⱼ⌉·Cⱼ``

    Returns ``(w, iterations)`` or ``None`` when ``w`` exceeds ``limit``.
    """
    hp = taskset.hp(task)
    B = nonpreemptive_blocking(taskset, task) + instance * task.C

    if limit is None:
        limit = instance * task.T + task.D + task.J - task.C

    def step(w: Number) -> Number:
        total: Number = B
        for j in hp:
            if strict_start:
                k = floor_div(w + j.J, j.T) + 1
            else:
                k = ceil_div(w + j.J, j.T)
            total = total + k * j.C
        return total

    start = step(0)
    value, its, converged = fixed_point(step, start, limit=limit)
    if not converged:
        return None
    return value, its


def nonpreemptive_response_time(
    taskset: TaskSet,
    task: Task,
    strict_start: bool = True,
    max_instances: int = 100_000,
) -> ResponseTime:
    """Eq. (1) with the multi-instance correction.

    The paper (following Audsley et al. [24]) iterates only the *first*
    instance released in the synchronous busy period.  That is unsound
    when the level-i busy period extends past ``Tᵢ`` — a later instance,
    released while higher-priority backlog persists, can respond worse
    (the flaw Davis et al. 2007 corrected in the equivalent CAN
    analysis).  We therefore examine every instance released inside the
    level-i busy period ``Lᵢ`` (the blocking-seeded busy period of
    ``hp(i) ∪ {i}``) and report

        Rᵢ = Jᵢ + max_q ( wᵢ(q) + Cᵢ − q·Tᵢ ),   q = 0 .. ⌈Lᵢ/Tᵢ⌉ − 1

    Any instance exceeding its deadline short-circuits to unschedulable
    (``value=None``).  A level utilisation of 1 with non-zero blocking
    makes ``Lᵢ`` unbounded; the task is then reported unschedulable
    (conservative — the whole set is overloaded in that case).
    """
    from .busy_period import synchronous_busy_period

    hp = taskset.hp(task)
    B = nonpreemptive_blocking(taskset, task)
    try:
        L = synchronous_busy_period(
            TaskSet(hp + [task]), include_jitter=True, blocking=B
        )
    except ValueError:
        return ResponseTime(task=task, value=None)
    n_instances = ceil_div(L + task.J, task.T)
    if n_instances > max_instances:
        return ResponseTime(task=task, value=None)

    worst: Number = 0
    its_total = 0
    for q in range(max(1, n_instances)):
        solved = nonpreemptive_start_time(
            taskset, task, strict_start=strict_start, instance=q
        )
        if solved is None:
            return ResponseTime(task=task, value=None, iterations=its_total)
        w, its = solved
        its_total += its
        r = w + task.C - q * task.T
        if r > worst:
            worst = r
        if r + task.J > task.D:
            return ResponseTime(task=task, value=None, iterations=its_total)
    return ResponseTime(task=task, value=worst + task.J, iterations=its_total)


def nonpreemptive_rta(
    taskset: TaskSet, strict_start: bool = True
) -> AnalysisResult:
    """Whole-set non-preemptive fixed-priority RTA (eq. (1)–(2))."""
    per_task = tuple(
        nonpreemptive_response_time(taskset, t, strict_start=strict_start)
        for t in taskset
    )
    return AnalysisResult(
        schedulable=all(rt.schedulable for rt in per_task),
        per_task=per_task,
        test="fp-nonpreemptive-rta",
        detail={"strict_start": strict_start},
    )


def feasible_at_lowest_nonpreemptive(
    task: Task, higher: list, lower: list = ()
) -> bool:
    """Audsley-OPA oracle for the non-preemptive test.

    ``task`` sits below every task in ``higher`` and above every task in
    ``lower`` — the latter matter through the eq. (2) blocking term (a
    lower-priority task's cycle can have just started).  For use with
    :func:`repro.core.priority.assign_audsley`.
    """
    n_high = len(higher)
    probe = TaskSet(
        [t.with_priority(i) for i, t in enumerate(higher)]
        + [task.with_priority(n_high)]
        + [t.with_priority(n_high + 1 + i) for i, t in enumerate(lower)]
    )
    rt = nonpreemptive_response_time(probe, probe[n_high])
    return rt.schedulable
