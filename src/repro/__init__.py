"""repro — reproduction of Tovar & Vasques (IPPS/WPDRTS 1999):
"From Task Scheduling in Single Processor Environments to Message
Scheduling in a PROFIBUS Fieldbus Network".

Public surface:

* :mod:`repro.core` — single-processor schedulability theory (§2);
* :mod:`repro.profibus` — PROFIBUS model and message analyses (§3–§4);
* :mod:`repro.apsched` — AP-level jitter and end-to-end delays (§4.1–4.2);
* :mod:`repro.sim` — discrete-event simulators (token bus, uniprocessor);
* :mod:`repro.gen` — workload generators;
* :mod:`repro.scenarios` — reference networks for examples and benches.

Subpackages are imported on first attribute access (``repro.sim``), so
``import repro.api`` or the daemon loads only what it runs.
"""

__version__ = "1.0.0"

_SUBPACKAGES = ("apsched", "core", "gen", "profibus", "scenarios", "sim")

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name):
    if name not in _SUBPACKAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return import_module(f".{name}", __name__)
