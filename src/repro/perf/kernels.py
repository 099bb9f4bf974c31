"""Monomorphic integer kernels for the whole-master message analyses.

The §4.3 transfer turns every PROFIBUS bound into a §2 uniprocessor
recurrence with ``C = Tcycle``, so the only recurrences the system runs
hot are eq. (16) (DM, :func:`dm_master_response_times`) and eqs.
(17)–(18) (EDF, :func:`edf_master_response_times`) over one master's
``(T, D, J)`` stream specs.  The generic reference —
:mod:`repro.core` driven by :func:`repro.core.timeops.fixed_point` —
re-dispatches on the ``Number`` union (``_is_exact`` checks,
``Fraction`` promotion, ``almost_equal``) at every step.  Over plain
ints none of that is needed: ceilings are one integer division and
convergence is plain ``==``.

The kernels are exact mirrors of the generic analyses:

* same iteration maps, same seeds wherever the non-converged overshoot
  value is observable, same limit semantics — so the *values* produced
  are bit-identical to the generic path (property-tested over random
  networks in ``tests/test_perf_kernels.py`` and by the fuzz kernel
  oracle and corpus check);
* the deadline-bounded EDF interference caps (which do not depend on the
  iterate) are evaluated once per offset instead of once per step;
* where the caller discards the non-converged value (the eq. (16)
  start-time recursions), iteration starts from the standard
  utilisation-based lower bound on the least fixed point, skipping the
  early iterates.

Only iteration *counts* may differ (they are reported, not part of any
analysis verdict): a seed jump reaches the same fixed point in fewer
steps.
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Sequence, Tuple

from ..core.timeops import DivergedError
from .stats import counters as _counters

MAX_ITER = 1_000_000

#: One interfering task, reduced to the three integers the maps read.
CTJ = Tuple[int, int, int]


def seed_from(
    params: Optional[Tuple[int, int, int, int]], base: int, floor_seed: int
) -> int:
    """The utilisation-based lower bound on the least fixed point of
    ``x = base + Σ ⌈(x+Jⱼ)/Tⱼ⌉·Cⱼ`` (and of the strict ``⌊·⌋+1``
    variant, whose map dominates the ceiling one), never below
    ``floor_seed``.

    Any fixed point satisfies ``x ≥ base + Σ (x+Jⱼ)·Cⱼ/Tⱼ``, hence
    ``x ≥ (base + Σ CⱼJⱼ/Tⱼ) / (1 − U)`` for ``U < 1``.  With
    ``Σ CⱼJⱼ/Tⱼ = P/Q`` and ``U = A/B`` this is
    ``x ≥ (base·Q + P)·B / (Q·(B − A))``; ``params`` is
    ``(P, Q, B, Q·(B−A))`` (as :func:`dm_master_response_times`
    accumulates it), so evaluating the bound is two integer
    multiplications and a ceiling division, exact by construction.
    ``None`` means the bound is unavailable (no interferers or
    ``U ≥ 1``)."""
    if params is None:
        return floor_seed
    p, q, b, d = params
    bound = -((-(base * q + p) * b) // d)
    return bound if bound > floor_seed else floor_seed


def _iterate(
    base: int,
    hp: Sequence[CTJ],
    x: int,
    limit: Optional[int],
    strict: bool,
    max_iter: int = MAX_ITER,
) -> Tuple[int, int, bool]:
    """Iterate ``x ← base + Σ k(x)·Cⱼ`` with ``k = ⌊(x+J)/T⌋+1`` when
    ``strict`` else ``k = ⌈(x+J)/T⌉``.  Same convergence/limit contract
    as :func:`repro.core.timeops.fixed_point` (the maps are monotone by
    construction, so the decrease guard is unnecessary here)."""
    for it in range(1, max_iter + 1):
        total = base
        if strict:
            for C, T, J in hp:
                total += ((x + J) // T + 1) * C
        else:
            for C, T, J in hp:
                total += -((-x - J) // T) * C
        if total == x:
            _counters.fast += it
            return total, it, True
        if limit is not None and total > limit:
            _counters.fast += it
            return total, it, False
        x = total
    raise DivergedError(
        f"fixed-point iteration did not settle after {max_iter} iterations",
        x,
    )


def busy_period(entries: Sequence[CTJ], blocking: int = 0,
                max_iter: int = MAX_ITER) -> int:
    """Synchronous busy period over all-int ``(C, T, J)`` entries.

    Mirrors the :func:`repro.core.busy_period.synchronous_busy_period`
    iteration and seed (the utilisation guards stay in the caller).
    """
    start = blocking
    for C, _T, _J in entries:
        start += C
    value, _its, _conv = _iterate(blocking, entries, start, None, False,
                                  max_iter)
    return value


def np_start(
    B: int,
    hp: Sequence[CTJ],
    strict: bool,
    limit: int,
    step0: int,
    params: Optional[Tuple[int, int, int, int]],
) -> Tuple[int, int, bool]:
    """Eq. (1) inner recursion ``w = B + Σ k(w)·Cⱼ``.

    ``step0`` is the generic seed (one application of the map to 0); the
    kernel may jump above it via the utilisation bound (``params``, see
    :func:`seed_from`; ``None`` for "no bound available"), reporting
    unconverged for jumped solutions beyond ``limit`` exactly as the
    generic climb would (the caller discards the value either way)."""
    seed = seed_from(params, B, step0)
    value, its, converged = _iterate(B, hp, seed, limit, strict)
    if converged and seed > step0 and value > limit:
        return value, its, False
    return value, its, converged


# --------------------------------------------------------------------- EDF
#
# The eq. (9)-(10) offset scans re-derive, at every offset ``a`` and
# every iterate, which tasks are in scope (``D_j <= a + D_i``) and the
# deadline-bounded interference caps.  edf_master_response_times sorts
# the interference set by deadline once per master, so each offset
# reduces to a prefix slice and a tight min/sum loop.


def edf_np_response_at(
    task_C: int,
    own: int,
    B: int,
    interferers: Sequence[Tuple[int, int, int, int]],
    a: int,
    limit: int,
) -> int:
    """Eq. (9) at one offset: iterate
    ``L ← B + own + Σ min(1+⌊(L+J)/T⌋, cap)·C`` from the generic seed
    (one application of the map to 0).  Returns ``r(a)`` exactly as the
    generic path does — including the overshoot value when the iteration
    escapes ``limit``."""
    base = B + own
    x = base
    for C, T, J, cap in interferers:
        by_time = 1 + J // T
        x += (by_time if by_time < cap else cap) * C
    for it in range(1, MAX_ITER + 1):
        total = base
        for C, T, J, cap in interferers:
            by_time = 1 + (x + J) // T
            total += (by_time if by_time < cap else cap) * C
        if total == x:
            break
        x = total
        if total > limit:
            break
    else:
        raise DivergedError(
            f"fixed-point iteration did not settle after {MAX_ITER} iterations",
            x,
        )
    _counters.fast += it
    r = task_C + x - a
    return r if r > task_C else task_C


def candidate_offsets(specs: Sequence[Tuple[int, int, int]], D_i: int,
                      horizon: int) -> List[int]:
    """Array mirror of :func:`repro.core.edf_rta._candidate_offsets`:
    the eq. (8)/(10) scan set over ``(T, D, J)`` stream specs."""
    points = {0}
    for T, D, J in specs:
        base = D - D_i
        k = 0
        while True:
            a = base + k * T
            if a > horizon:
                break
            if a >= 0:
                points.add(a)
            if J:
                aj = a - J
                if 0 <= aj <= horizon:
                    points.add(aj)
            k += 1
    return sorted(points)


def dm_master_response_times(
    specs: Sequence[Tuple[int, int, int]], tc: int,
    max_instances: int = 100_000,
) -> List[Optional[int]]:
    """Eq. (16) for one master, entirely over integer arrays.

    ``specs`` holds ``(T, D, J)`` per high-priority stream in declaration
    order; every message costs one token cycle (``C = tc``).  Returns
    the worst-case response per stream (``None`` = unschedulable),
    bit-identical to DM-assigning a token task set and running
    :func:`repro.core.rta_fixed.nonpreemptive_response_time` on it —
    including the float utilisation guards, evaluated in the same
    summation order the TaskSet path uses.
    """
    n = len(specs)
    order = sorted(range(n), key=lambda i: (specs[i][1], i))
    prio = [0] * n
    for p, i in enumerate(order):
        prio[i] = p
    # lint: disable=REP001 — utilisation guard seam: mirrors the generic
    # path's float U-test bit-for-bit; verdicts stay integer
    utils = [tc / specs[i][0] for i in range(n)]
    out: List[Optional[int]] = [None] * n
    # Walking in priority-rank order makes every per-task input an
    # extension of the previous one: the interference array is a prefix
    # of the rank-ordered (C, T, J) list, and the seed-bound rationals
    # and zero-step sum accumulate one entry per rank.
    arr_full = [(tc, specs[i][0], specs[i][2]) for i in order]
    p_, q_ = 0, 1  # Σ CⱼJⱼ/Tⱼ as P/Q
    a_, b_ = 0, 1  # Σ Cⱼ/Tⱼ as A/B
    step0_tail = 0  # Σ (⌊J/T⌋ + 1)·C over hp (strict zero-step)
    last_rank = n - 1
    for rank, i in enumerate(order):
        T, D, J = specs[i]
        # Priorities are the distinct ranks 0..n-1, so "some task has
        # lower priority" is exactly "not the last rank".
        B = tc if rank < last_rank else 0
        # Float guard in the same summation order as the TaskSet path
        # (hp in declaration order, probed task last).
        u = 0.0  # lint: disable=REP001 — utilisation guard seam
        pi = prio[i]
        for j in range(n):
            if prio[j] < pi:
                u += utils[j]
        u += utils[i]
        arr = arr_full[:rank]
        params = (p_, q_, b_, q_ * (b_ - a_)) if a_ < b_ and rank else None
        # lint: disable=REP001 — utilisation guard seam (same epsilons
        # as repro.core.utilization; the guard only gates, never rounds
        # a response value)
        if not (u > 1.0 + 1e-12 or (B > 0 and u > 1.0 - 1e-12)):
            L = busy_period(arr + [(tc, T, J)], B)
            n_inst = -((-(L + J)) // T)
            if n_inst <= max_instances:
                worst = 0
                feasible = True
                for q in range(n_inst if n_inst > 1 else 1):
                    Bq = B + q * tc
                    limit_q = q * T + D + J - tc
                    w, _its, converged = np_start(
                        Bq, arr, True, limit_q, Bq + step0_tail, params
                    )
                    if not converged:
                        feasible = False
                        break
                    r = w + tc - q * T
                    if r > worst:
                        worst = r
                    if r + J > D:
                        feasible = False
                        break
                if feasible:
                    out[i] = worst + J
        # Extend the accumulators with this rank's entry for the next.
        if J:
            p_, q_ = p_ * T + tc * J * q_, q_ * T
            g = gcd(p_, q_)
            if g > 1:
                p_ //= g
                q_ //= g
        a_, b_ = a_ * T + tc * b_, b_ * T
        g = gcd(a_, b_)
        if g > 1:
            a_ //= g
            b_ //= g
        step0_tail += (J // T + 1) * tc
    return out


def edf_master_response_times(
    specs: Sequence[Tuple[int, int, int]], tc: int,
    limit_factor: int = 4,
) -> List[Tuple[Optional[int], Optional[int]]]:
    """Eqs. (17)–(18) for one master, entirely over integer arrays.

    Mirrors :func:`repro.core.edf_rta.edf_response_time` with
    ``preemptive=False, blocking_subtract_one=False`` on the staged
    ``C = tc`` token task set.  Returns ``(R, critical_a)`` per stream
    in declaration order (``R = None`` when utilisation exceeds 1).
    """
    n = len(specs)
    utils = 0.0  # lint: disable=REP001 — utilisation guard seam
    for T, _D, _J in specs:
        utils += tc / T  # lint: disable=REP001 — utilisation guard seam
    # lint: disable=REP001 — utilisation guard seam (same epsilons as
    # the generic path; gates only, never rounds a response value)
    if utils > 1.0 + 1e-12:
        return [(None, None)] * n
    entries_j = tuple((tc, T, J) for T, _D, J in specs)
    # b_seed = blocking_from(all tasks, subtract_one=False) = tc (> 0).
    if utils > 1.0 - 1e-12:  # lint: disable=REP001 — utilisation guard seam
        # U == 1: blocking-seeded busy period never drains; scan one
        # hyperperiod past the plain busy period (mirrors the generic
        # branch, hyperperiod = lcm of the integer periods).
        L0 = busy_period(entries_j, 0)
        H = 1
        for T, _D, _J in specs:
            H = H * T // gcd(H, T)
        L = L0 + H + max(D for _T, D, _J in specs)
    else:
        L = busy_period(entries_j, tc)
    max_d = max(D for _T, D, _J in specs)
    sorted_entries = sorted(
        ((D, tc, T, J), i) for i, (T, D, J) in enumerate(specs)
    )
    out: List[Tuple[Optional[int], Optional[int]]] = []
    for i in range(n):
        T, D, J = specs[i]
        limit = limit_factor * (L + D + J) + tc
        others = [e for e, idx in sorted_entries if idx != i]
        best = 0
        best_a = 0
        for a in candidate_offsets(specs, D, L):
            dl = a + D
            scope = []
            for Dj, Cj, Tj, Jj in others:
                if Dj > dl:
                    break
                scope.append((Cj, Tj, Jj, 1 + (dl - Dj + Jj) // Tj))
            B = tc if max_d > dl else 0
            own = ((a + J) // T) * tc
            r = edf_np_response_at(tc, own, B, scope, a, limit)
            if r > best:
                best, best_a = r, a
        out.append((best, best_a))
    return out
