"""Busy-period computations.

The *synchronous busy period* ``L`` is the longest interval of continuous
processor demand when all tasks are released together at their maximum
rate.  It solves the fixed point

    L = W(L),   W(t) = Σᵢ ⌈(t + Jᵢ)/Tᵢ⌉ · Cᵢ

(the paper's §2.2, used as the horizon for the ``a`` values in eqs. (8)
and (10)).  It exists iff total utilisation ≤ 1 (for U == 1 it equals the
hyperperiod-scale fixed point and still converges for integer inputs).

Also provided: the Ripoll et al. bound used to cap the processor-demand
test horizon (``tmax`` of eq. (3)).
"""

from __future__ import annotations

from typing import Optional

from .task import TaskSet
from .timeops import Number, ceil_div, fixed_point


def synchronous_busy_period(
    taskset: TaskSet,
    include_jitter: bool = False,
    blocking: Number = 0,
    max_iter: int = 1_000_000,
) -> Number:
    """Length of the synchronous processor busy period.

    ``blocking`` seeds the busy period with an initial non-preemptive
    blocking term (used for the non-preemptive analyses).  Raises
    ``ValueError`` when utilisation exceeds 1 (the busy period would be
    unbounded).
    """
    if taskset.utilization > 1.0 + 1e-12:
        raise ValueError(
            f"busy period unbounded: utilisation {taskset.utilization:.6f} > 1"
        )
    if blocking > 0 and taskset.utilization > 1.0 - 1e-12:
        raise ValueError(
            "busy period unbounded: utilisation is 1 and the blocking seed "
            "can never be absorbed"
        )

    def w(t: Number) -> Number:
        total: Number = blocking
        for task in taskset:
            j = task.J if include_jitter else 0
            total = total + ceil_div(t + j, task.T) * task.C
        return total

    start: Number = blocking + sum(t.C for t in taskset)
    value, _its, converged = fixed_point(w, start, limit=None, max_iter=max_iter)
    if not converged:  # pragma: no cover - limit=None never reports False
        raise RuntimeError("busy period iteration failed to converge")
    return value


def demand_horizon(taskset: TaskSet) -> Number:
    """Upper bound ``tmax`` for the processor-demand test of eq. (3).

    The demand inequality can only fail before

        max( L,  max Dᵢ,  (Σ (Tᵢ−Dᵢ)·Uᵢ) / (1−U) )

    where the last term is the La-&-Ripoll bound (finite only when
    ``U < 1``).  We return the *smallest* safe horizon available:
    ``min(L, ripoll)`` when both are finite — checking beyond either is
    unnecessary — floored at ``max Dᵢ`` so at least every first deadline
    is inspected.
    """
    u = taskset.utilization
    max_d = max(t.D for t in taskset)
    candidates = []
    if u <= 1.0 + 1e-12:
        candidates.append(synchronous_busy_period(taskset))
    if u < 1.0 - 1e-12:
        num = sum((float(t.T) - float(t.D)) * t.utilization for t in taskset)
        if num > 0:
            candidates.append(num / (1.0 - u))
    if not candidates:
        # U == 1 with no slack information: fall back to the busy period
        candidates.append(synchronous_busy_period(taskset))
    horizon = min(candidates)
    return horizon if horizon > max_d else max_d
