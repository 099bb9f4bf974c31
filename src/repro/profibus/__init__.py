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
"""

from .cycle import (
    MessageCycleSpec,
    attempt_time,
    cycle_time,
    failed_attempt_time,
    token_pass_time,
)
from .dm import dm_analysis, dm_response_time_paper_form, dm_response_times
from .edf import edf_analysis, edf_response_times
from .fcfs import fcfs_analysis
from .fp import (
    djm_analysis,
    fp_analysis,
    fp_response_times,
    opa_analysis,
    stack_depth_analysis,
)
from .fcfs import max_feasible_ttr as fcfs_max_feasible_ttr
from .gap import (
    gap_aware_cm,
    gap_aware_tcycle,
    gap_aware_tdel,
    gap_cycle_bits,
)
from .frames import (
    SD2_MAX_PAYLOAD,
    SHORT_ACK,
    TOKEN_FRAME,
    Frame,
    FrameType,
    frame_for_payload,
)
from .network import Master, Network, Slave
from .phy import (
    BITS_PER_CHAR,
    STANDARD_BAUD_RATES,
    PhyParameters,
    bits_to_seconds,
    char_time_bits,
    seconds_to_bits,
)
from .bandwidth import (
    BandwidthReport,
    bandwidth_advantage,
    high_demand_per_rotation,
    low_priority_bandwidth,
)
from .results import NetworkAnalysis, StreamResponse
from .serialization import (
    ScenarioFormatError,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from .stream import MessageStream
from .timing import (
    TokenCycleReport,
    longest_cycle,
    longest_high_cycle,
    tcycle,
    tdel,
    tdel_refined,
    token_cycle_report,
)
from .ttr import analyse, max_feasible_ttr, schedulable_with_ttr, ttr_advantage

__all__ = [
    "BITS_PER_CHAR",
    "BandwidthReport",
    "ScenarioFormatError",
    "bandwidth_advantage",
    "high_demand_per_rotation",
    "load_network",
    "low_priority_bandwidth",
    "network_from_dict",
    "network_to_dict",
    "save_network",
    "Frame",
    "FrameType",
    "Master",
    "MessageCycleSpec",
    "MessageStream",
    "Network",
    "NetworkAnalysis",
    "PhyParameters",
    "SD2_MAX_PAYLOAD",
    "SHORT_ACK",
    "STANDARD_BAUD_RATES",
    "Slave",
    "SweepRow",
    "baud_sweep",
    "deadline_scale_sweep",
    "rows_to_csv",
    "ttr_sweep",
    "StreamResponse",
    "TOKEN_FRAME",
    "TokenCycleReport",
    "analyse",
    "attempt_time",
    "bits_to_seconds",
    "char_time_bits",
    "cycle_time",
    "djm_analysis",
    "dm_analysis",
    "fp_analysis",
    "fp_response_times",
    "opa_analysis",
    "stack_depth_analysis",
    "dm_response_time_paper_form",
    "dm_response_times",
    "edf_analysis",
    "edf_response_times",
    "failed_attempt_time",
    "fcfs_analysis",
    "fcfs_max_feasible_ttr",
    "frame_for_payload",
    "gap_aware_cm",
    "gap_aware_tcycle",
    "gap_aware_tdel",
    "gap_cycle_bits",
    "longest_cycle",
    "longest_high_cycle",
    "max_feasible_ttr",
    "schedulable_with_ttr",
    "seconds_to_bits",
    "tcycle",
    "tdel",
    "tdel_refined",
    "token_cycle_report",
    "token_pass_time",
    "ttr_advantage",
]

#: Re-exported on first access: :mod:`~repro.profibus.sweep` drives
#: :mod:`repro.perf.batch`, which imports this package, so an eager
#: import here would be a cycle whenever the batch engine loads first.
_SWEEP_NAMES = ("SweepRow", "baud_sweep", "deadline_scale_sweep",
                "rows_to_csv", "ttr_sweep")


def __getattr__(name):
    if name not in _SWEEP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sweep

    return getattr(sweep, name)
