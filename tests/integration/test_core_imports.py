"""The simulator core imports nothing beyond the standard library.

``import repro`` once pulled in numpy for the clean-phase kernel (0.14 s and
12.5 MB on every user, the sharded engine's workers included).  The kernel is
set algebra now; a fresh interpreter holds that no import brings numpy back.

Nor does the core load the section 7 baselines: they are harness-side
drivers, and the credit helpers the termination backend shares with two of
them live in :mod:`repro.core.termination`.  That backend itself loads on
first use, and the harness only when a caller imports it.

The sharded engine loads on first use too: ``repro.ParallelSimulation``,
``repro.sim.ParallelSimulation`` and ``repro.sim.assign_shards`` resolve
through module ``__getattr__``, so a sequential run never compiles
:mod:`repro.sim.parallel` nor imports ``multiprocessing`` and ``pickle``.
The checks above import the engine as well, so they cover it.
"""

import os
import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _run_in_fresh_interpreter(code, engine=True):
    existing = os.environ.get("PYTHONPATH")
    pythonpath = SRC if not existing else SRC + os.pathsep + existing
    prelude = "import sys, repro; " + ("import repro.sim.parallel; " if engine else "")
    result = subprocess.run(
        [sys.executable, "-c", prelude + code],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_importing_the_core_does_not_import_numpy():
    _run_in_fresh_interpreter("assert 'numpy' not in sys.modules")


def test_importing_the_core_does_not_import_the_baselines():
    _run_in_fresh_interpreter(
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.baselines')); "
        "assert not loaded, loaded"
    )


def test_importing_the_core_loads_neither_the_rival_backend_nor_the_harness():
    _run_in_fresh_interpreter(
        "loaded = sorted(m for m in sys.modules "
        "if m == 'repro.core.termination' or m.startswith('repro.harness')); "
        "assert not loaded, loaded"
    )


def test_a_sequential_run_loads_no_sharded_engine_and_its_names_still_resolve():
    _run_in_fresh_interpreter(
        "from repro import Simulation, SimulationConfig; "
        "sim = Simulation.create(SimulationConfig(seed=1)); "
        "sim.add_sites(['P', 'Q']); sim.run_until(50.0); "
        "loaded = sorted(m for m in ('repro.sim.parallel', 'multiprocessing', 'pickle') "
        "if m in sys.modules); "
        "assert not loaded, loaded; "
        "import repro.sim; "
        "assert repro.ParallelSimulation is repro.sim.ParallelSimulation; "
        "assert repro.sim.assign_shards.__module__ == 'repro.sim.parallel'; "
        "assert 'repro.sim.parallel' in sys.modules",
        engine=False,
    )
