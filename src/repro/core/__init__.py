"""Single-processor real-time schedulability theory (§2 of the paper).

The subpackage is self-contained (no PROFIBUS dependencies) and is reused
verbatim by :mod:`repro.profibus` with ``C → Tcycle`` — exactly the
transfer the paper performs in §4.3.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "blocking_from": "blocking",
    "edf_blocking_at": "blocking",
    "nonpreemptive_blocking": "blocking",
    "demand_horizon": "busy_period",
    "synchronous_busy_period": "busy_period",
    "dbf": "demand",
    "dbf_with_jitter": "demand",
    "deadline_points": "demand",
    "processor_demand_test": "demand",
    "qpa_test": "demand",
    "george_test": "edf_nonpreemptive",
    "pessimism_gap": "edf_nonpreemptive",
    "zheng_shin_test": "edf_nonpreemptive",
    "edf_response_time": "edf_rta",
    "edf_rta": "edf_rta",
    "assign_audsley": "priority",
    "assign_deadline_monotonic": "priority",
    "assign_dj_monotonic": "priority",
    "assign_rate_monotonic": "priority",
    "priorities_are_dm": "priority",
    "priorities_are_rm": "priority",
    "AnalysisResult": "results",
    "FeasibilityResult": "results",
    "ResponseTime": "results",
    "breakdown_utilization": "sensitivity",
    "critical_scaling_factor": "sensitivity",
    "largest_feasible_factor": "sensitivity",
    "scale_execution_times": "sensitivity",
    "smallest_feasible_factor": "sensitivity",
    "feasible_at_lowest_nonpreemptive": "rta_fixed",
    "nonpreemptive_response_time": "rta_fixed",
    "nonpreemptive_rta": "rta_fixed",
    "preemptive_response_time": "rta_fixed",
    "preemptive_response_time_arbitrary": "rta_fixed",
    "preemptive_rta": "rta_fixed",
    "Task": "task",
    "TaskSet": "task",
    "make_taskset": "task",
    "DivergedError": "timeops",
    "ceil_div": "timeops",
    "fixed_point": "timeops",
    "floor_div": "timeops",
    "hyperperiod": "timeops",
    "lcm_all": "timeops",
    "pos": "timeops",
    "UtilizationResult": "utilization",
    "density_test": "utilization",
    "edf_utilization_test": "utilization",
    "hyperbolic_test": "utilization",
    "liu_layland_bound": "utilization",
    "rm_utilization_test": "utilization",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
