"""Differential soundness fuzzing.

The paper's central claim is *soundness*: the eq. (11)/(16)/(17)
response-time bounds must dominate anything the token bus actually
does.  This subpackage adversarially tests that claim — and the
invariants the surrounding tooling relies on — by generating diverse
random network families at scale and cross-checking independent oracles
on every instance:

* analysis vs token-bus simulation (non-completing messages count
  *against* the bound);
* generic exact fixed-point path vs the ``repro.perf`` integer kernels
  (bit-equality);
* scenario JSON round-trip identity;
* the sweep layer vs an independent restatement of its scaling
  contract.

The per-instance oracles — above all the token-bus soundness
simulations, the dominant cost — run over the
:func:`repro.perf.batch.pooled_imap` process pool (``--workers N``), so
overnight budgets (10⁵+ instances) are feasible; a streaming JSONL
checkpoint (``--checkpoint``) lets an interrupted campaign resume with
identical counters.  Soundness runs whose horizon comes back
``incomplete`` are geometrically extended before a skip is ever
recorded.  Any failure is shrunk to a locally-minimal network before
being reported in ``FUZZ_report.json`` (schema ``profibus-rt/fuzz/v2``
in PERF.md, with per-(family × oracle) counters and a wall-clock phase
breakdown).  Front end: ``repro-cli fuzz --budget 200 --seed 0``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "COUNTERS": "campaign",
    "ORACLE_KERNEL": "campaign",
    "ORACLE_ROUNDTRIP": "campaign",
    "ORACLE_SOUNDNESS": "campaign",
    "ORACLE_SWEEP": "campaign",
    "ORACLES": "campaign",
    "CampaignConfig": "campaign",
    "CampaignResult": "campaign",
    "CounterExample": "campaign",
    "run_campaign": "campaign",
    "FAMILIES": "families",
    "family_rng": "families",
    "generate_instance": "families",
    "OracleOutcome": "oracles",
    "check_kernel_equivalence": "oracles",
    "check_roundtrip": "oracles",
    "check_soundness": "oracles",
    "check_sweep_scaling": "oracles",
    "reference_scaled_deadlines": "oracles",
    "FUZZ_SCHEMA": "report",
    "report_to_dict": "report",
    "validate_report_dict": "report",
    "write_report": "report",
    "shrink_network": "shrink",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
