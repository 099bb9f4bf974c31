"""PROFIBUS network model and message schedulability analyses (§3–§4).

Layering:

* :mod:`~repro.profibus.phy`, :mod:`~repro.profibus.frames`,
  :mod:`~repro.profibus.cycle` — the DIN 19245 timing substrate (bit
  times, telegrams, message-cycle lengths);
* :mod:`~repro.profibus.stream`, :mod:`~repro.profibus.network` — the
  system model (streams, masters, logical ring);
* :mod:`~repro.profibus.timing` — token-cycle bounds, eqs. (13)–(14);
* :mod:`~repro.profibus.fcfs` / :mod:`~repro.profibus.dm` /
  :mod:`~repro.profibus.edf` — the three message analyses,
  eqs. (11)–(12) and (16)–(18);
* :mod:`~repro.profibus.ttr` — TTR derivation, eq. (15) and the
  binary-search generalisation.

Every name below is re-exported lazily (:mod:`repro._lazy`).  For
:mod:`~repro.profibus.sweep` it is also what keeps the imports acyclic:
the sweeps drive :mod:`repro.perf.batch`, which imports the analyses of
this package, so an eager re-export here would be a cycle whenever the
batch engine loads first.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "BandwidthReport": "bandwidth",
    "bandwidth_advantage": "bandwidth",
    "high_demand_per_rotation": "bandwidth",
    "low_priority_bandwidth": "bandwidth",
    "MessageCycleSpec": "cycle",
    "attempt_time": "cycle",
    "cycle_time": "cycle",
    "failed_attempt_time": "cycle",
    "token_pass_time": "cycle",
    "dm_analysis": "dm",
    "dm_response_time_paper_form": "dm",
    "dm_response_times": "dm",
    "edf_analysis": "edf",
    "edf_response_times": "edf",
    "fcfs_analysis": "fcfs",
    "fcfs_max_feasible_ttr": "fcfs:max_feasible_ttr",
    "djm_analysis": "fp",
    "fp_analysis": "fp",
    "fp_response_times": "fp",
    "opa_analysis": "fp",
    "stack_depth_analysis": "fp",
    "SD2_MAX_PAYLOAD": "frames",
    "SHORT_ACK": "frames",
    "TOKEN_FRAME": "frames",
    "Frame": "frames",
    "FrameType": "frames",
    "frame_for_payload": "frames",
    "gap_aware_cm": "gap",
    "gap_aware_tcycle": "gap",
    "gap_aware_tdel": "gap",
    "gap_cycle_bits": "gap",
    "Master": "network",
    "Network": "network",
    "Slave": "network",
    "BITS_PER_CHAR": "phy",
    "STANDARD_BAUD_RATES": "phy",
    "PhyParameters": "phy",
    "bits_to_seconds": "phy",
    "char_time_bits": "phy",
    "seconds_to_bits": "phy",
    "NetworkAnalysis": "results",
    "StreamResponse": "results",
    "ScenarioFormatError": "serialization",
    "load_network": "serialization",
    "network_from_dict": "serialization",
    "network_to_dict": "serialization",
    "save_network": "serialization",
    "MessageStream": "stream",
    "SweepRow": "sweep",
    "baud_sweep": "sweep",
    "deadline_scale_sweep": "sweep",
    "rows_to_csv": "sweep",
    "ttr_sweep": "sweep",
    "TokenCycleReport": "timing",
    "longest_cycle": "timing",
    "longest_high_cycle": "timing",
    "tcycle": "timing",
    "tdel": "timing",
    "tdel_refined": "timing",
    "token_cycle_report": "timing",
    "analyse": "ttr",
    "max_feasible_ttr": "ttr",
    "schedulable_with_ttr": "ttr",
    "ttr_advantage": "ttr",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
