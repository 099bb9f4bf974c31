"""Package import graph: the top-level subpackages load on first access.

``repro`` resolves ``apsched``/``core``/``gen``/``profibus``/
``scenarios``/``sim`` through a module ``__getattr__``, so the analysis
API and the daemon import only what they run.  Each check starts a
fresh interpreter: ``sys.modules`` of the test process is already full.
"""

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


def test_every_listed_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    with pytest.raises(AttributeError):
        repro.no_such_subpackage  # noqa: B018
    import repro.profibus as profibus

    for name in profibus.__all__:
        assert getattr(profibus, name) is not None
    with pytest.raises(AttributeError):
        profibus.no_such_name  # noqa: B018
