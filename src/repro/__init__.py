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

Nothing is imported with the package: each subpackage loads on its
first access (``repro.sim``), and each subpackage facade loads a
submodule only when one of its names is first read (:mod:`repro._lazy`).
``import repro.api`` or the daemon therefore loads only what it runs.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_SUBPACKAGES = ("apsched", "core", "gen", "profibus", "scenarios", "sim")

__all__ = [*_SUBPACKAGES, "__version__"]

__getattr__ = lazy_exports(globals(), dict.fromkeys(_SUBPACKAGES))
