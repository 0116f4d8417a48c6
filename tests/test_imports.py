"""The import layering rule and the ``repro`` export contract.

The simulator (``repro.sim``, ``repro.workloads`` and the layers under
them) imports no host layer, so a process that only simulates pays
only for the simulator at start-up. The layers that run jobs on
threads (``repro.service``, ``repro.fleet``) load every campaign kind
at import, before any thread can fork a pool worker. Each layering case
runs in a fresh interpreter, because this test session has long since
imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a simulator-only import must not load.
HOST_MODULES = (
    "asyncio",
    "multiprocessing",
    "concurrent.futures",
    "repro.supervisor",
    "repro.sweep",
    "repro.journal",
    "repro.service",
    "repro.fleet",
    "repro.recovery",
    "repro.chaos",
    "repro.verify",
    "repro.experiments",
    "repro.analysis",
    "repro.cli",
)

#: The campaign kinds a threaded job layer must have loaded at import.
JOB_LAYERS = ("repro.sweep", "repro.chaos", "repro.recovery")

#: Simulator modules no GPU cell uses; only their own users load them.
UNUSED_BY_GPU_CELLS = (
    "repro.accel.stream",
    "repro.accel.faulty",
    "repro.osmodel.scheduler",
    "repro.osmodel.vmm",
    "repro.core.sparse_table",
    "repro.mem.coherence",
)

#: Simulator packages that resolve their exports on first read.
LAZY_PACKAGES = ("repro.accel", "repro.core", "repro.mem", "repro.osmodel")


def _fresh(statement: str, probe: str = "list(sys.modules)"):
    """Run ``statement`` in a new interpreter; return ``probe`` afterwards."""
    script = f"import json, sys\n{statement}\nprint(json.dumps({probe}))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.sim.system",
        "import repro.sim.runner",
        "import repro.workloads",
        "from repro import run_single, SafetyMode, GPUThreading, System",
    ],
)
def test_simulator_imports_load_no_host_layer(statement):
    loaded = set(_fresh(statement))
    assert [name for name in HOST_MODULES if name in loaded] == []


def test_runner_loads_no_module_a_gpu_cell_does_not_use():
    loaded = set(_fresh("import repro.sim.runner"))
    assert [name for name in UNUSED_BY_GPU_CELLS if name in loaded] == []


@pytest.mark.parametrize("package", ["repro.service", "repro.fleet"])
def test_threaded_layers_load_campaign_kinds_at_import(package):
    loaded = set(_fresh(f"import {package}"))
    assert [name for name in JOB_LAYERS if name not in loaded] == []


class TestExports:
    def test_every_exported_name_resolves(self):
        statement = textwrap.dedent(
            """
            import repro
            names = [n for n in repro.__all__ if getattr(repro, n) is None]
            """
        )
        assert _fresh(statement, "names") == []

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_package_export_resolves(self, package):
        statement = textwrap.dedent(
            f"""
            import {package} as package
            names = [n for n in package.__all__ if getattr(package, n) is None]
            """
        )
        assert _fresh(statement, "names") == []

    def test_process_is_the_os_process(self):
        from repro import osmodel
        from repro.sim import engine

        assert repro.Process is osmodel.Process
        assert repro.Process is not engine.Process

    def test_dir_covers_all(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018

    def test_submodules_still_import_by_name(self):
        statement = textwrap.dedent(
            """
            from repro import recovery, supervisor, sweep
            names = [m.__name__ for m in (recovery, supervisor, sweep)]
            """
        )
        assert _fresh(statement, "names") == [
            "repro.recovery",
            "repro.supervisor",
            "repro.sweep",
        ]
