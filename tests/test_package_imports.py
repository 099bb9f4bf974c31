"""Package import graph: packages and their names load on first access.

``repro`` resolves ``apsched``/``core``/``gen``/``profibus``/
``scenarios``/``sim`` through a module ``__getattr__``, and every
subpackage facade re-exports its names the same way
(:mod:`repro._lazy`), so the analysis API, the CLI and the daemon import
only what they run.  Each check starts a fresh interpreter:
``sys.modules`` of the test process is already full.
"""

import importlib
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _run(code: str) -> None:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("entry", ["repro.api", "repro.service.server"])
def test_serving_entry_points_do_not_load_the_simulator(entry):
    _run(
        "import sys\n"
        f"import {entry}\n"
        "assert 'repro.sim' not in sys.modules, 'repro.sim imported'\n"
        "import repro\n"
        "assert callable(repro.sim.simulate_token_bus)\n"
        "assert 'repro.sim' in sys.modules\n"
    )


@pytest.mark.parametrize("first", [
    "import repro.perf.batch",
    "import repro.profibus.sweep",
    "import repro.profibus",
    "from repro.profibus import ttr_sweep",
    "import repro.cli",
])
def test_any_first_import_resolves(first):
    # profibus re-exports the sweeps lazily: the batch engine imports
    # profibus, and profibus.sweep imports the batch engine
    _run(
        f"{first}\n"
        "import repro\n"
        "from repro.profibus import SweepRow, rows_to_csv\n"
        "from repro.perf.batch import analyse_many, generate_networks\n"
        "assert repro.profibus.ttr_sweep is repro.profibus.sweep.ttr_sweep\n"
        "assert len(analyse_many(generate_networks(2, seed='imports'))) == 6\n"
    )


FACADES = ("repro", "repro.apsched", "repro.core", "repro.corpus",
           "repro.fuzz", "repro.gen", "repro.lint", "repro.monitor",
           "repro.perf", "repro.profibus", "repro.service", "repro.sim")


@pytest.mark.parametrize("entry, absent", [
    ("import repro.api",
     ["asyncio", "concurrent.futures", "multiprocessing", "numpy",
      "repro.fuzz", "repro.monitor", "repro.corpus", "repro.lint",
      "repro.perf.vector"]),
    ("import repro.fuzz.families",
     ["repro.fuzz.campaign", "repro.fuzz.oracles", "repro.fuzz.shrink",
      "repro.fuzz.report"]),
    ("from repro.service import ServiceClient, protocol",
     ["asyncio", "repro.service.server"]),
    ("import repro.cli", ["repro.sim", "repro.fuzz", "repro.monitor"]),
])
def test_an_entry_point_loads_only_what_it_runs(entry, absent):
    _run(
        "import sys\n"
        f"{entry}\n"
        f"loaded = [m for m in {absent!r} if m in sys.modules]\n"
        "assert not loaded, f'loaded {loaded}'\n"
    )


def test_a_name_shared_with_its_submodule_stays_the_function():
    # the first import of a submodule binds it on its package, under
    # the name the package also exports
    _run(
        "import repro.profibus.edf, repro.gen.uunifast\n"
        "from repro.core import edf_rta\n"
        "from repro.gen import uunifast\n"
        "assert callable(edf_rta) and callable(uunifast)\n"
    )


@pytest.mark.parametrize("facade", FACADES)
def test_star_import_resolves_every_listed_name(facade):
    _run(
        f"from {facade} import *\n"
        f"import {facade} as pkg\n"
        "missing = [n for n in pkg.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
    )


def test_every_listed_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    with pytest.raises(AttributeError):
        repro.no_such_subpackage  # noqa: B018
    for facade in FACADES[1:]:
        pkg = importlib.import_module(facade)
        for name in pkg.__all__:
            value = getattr(pkg, name)
            assert value is not None
            assert pkg.__dict__[name] is value  # cached on first access
        with pytest.raises(AttributeError):
            pkg.no_such_name  # noqa: B018
    import repro.profibus as profibus
    from repro.profibus import fcfs

    assert profibus.fcfs_max_feasible_ttr is fcfs.max_feasible_ttr
