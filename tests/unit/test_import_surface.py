"""What a process imports: each entry point loads only the modules it runs.

Every check names modules, never times (timings are noisy on shared
runners), and runs in a fresh interpreter so nothing this suite already
imported can hide a regression.  This module itself imports no more of
``repro`` than the executor, so a pool worker that unpickles its chunk
function inherits nothing else from it.
"""

import json
import multiprocessing
import sys

import pytest

from repro.sim import executor
from repro.sim.executor import ExecutionPlan, map_trials

#: Prints the sorted ``sys.modules`` keys as JSON on the last line.
PRINT_MODULES = "import json, sys; print(json.dumps(sorted(sys.modules)))"

#: The modules the engine's uplink and localization chunks import inside
#: the function, which the forkserver preloads.
CHUNK_IMPORTS = ("repro.radar.fmcw", "repro.core.uplink", "repro.core.localization")


def _run(fresh_python, code):
    """``(stdout before the module list, modules loaded)`` after ``code``."""
    *printed, last = fresh_python("-c", f"{code}\n{PRINT_MODULES}").strip().splitlines()
    return "\n".join(printed), set(json.loads(last))


def _serve(modules):
    return sorted(name for name in modules if name.startswith("repro.serve"))


def test_import_repro_loads_only_the_package(fresh_python):
    _, modules = _run(fresh_python, "import repro")
    assert {name for name in modules if name.startswith("repro")} == {"repro", "repro._exports"}


def test_engine_import_leaves_out_radar_serve_and_http(fresh_python):
    _, modules = _run(fresh_python, "import repro.sim.engine")
    assert _serve(modules) == []
    for name in (
        "repro.core.isac", "repro.radar.fmcw", "repro.obs.exporter",
        "http.server", "asyncio",
    ):
        assert name not in modules, name


def test_cli_help_leaves_out_serve_asyncio_and_numpy(fresh_python):
    code = (
        "import sys, runpy\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert stop.code in (0, None), stop.code"
    )
    printed, modules = _run(fresh_python, code)
    assert printed.startswith("usage: repro")
    assert _serve(modules) == []
    assert "asyncio" not in modules
    assert "numpy" not in modules


def _loaded_chunk(_payload, _spec, indices):
    """Which of :data:`CHUNK_IMPORTS` the worker holds before any chunk code."""
    loaded = [name in sys.modules for name in CHUNK_IMPORTS]
    return [loaded for _ in indices]


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="needs the forkserver start method",
)
def test_forkserver_workers_inherit_the_chunk_imports(monkeypatch):
    monkeypatch.setenv(executor.START_METHOD_ENV, "forkserver")
    monkeypatch.setattr(executor._costs, "choose", lambda *args: None)
    executor._retire_all()  # fresh workers: their first chunk is this one
    results, report = map_trials(
        _loaded_chunk, None, 2, rng=0, plan=ExecutionPlan(workers=2, chunk_size=1)
    )
    assert report.backend == "process"
    assert results == [[True] * len(CHUNK_IMPORTS)] * 2
