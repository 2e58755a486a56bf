"""The program's import surface, as scripts outside ``tests/`` and a fresh
interpreter see it.

No other test imports ``examples/``, ``benchmarks/`` or ``perfbench/``.
These tests read each script with ``ast`` and resolve every ``repro``
module and name it imports, so a deletion that breaks one of them fails
here instead of when someone runs the script.  They also install
perfbench's layer wrappers (reading perfbench, never changing it) and pin
that importing the package and fitting never loads ``scipy.stats``, that
importing it and serving fitted models loads no SciPy module at all (the
optimizer is imported where a fit calls it), and that forked tasks start
with the optimizer already loaded.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import PAPER_PIPELINE_NAMES, PipelineRegistry
from repro.serve import publish_model
from repro.store import LocalFSBackend

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("examples", "benchmarks", "perfbench")
    for path in (ROOT / folder).glob("*.py")
)


def _is_repro(module_name: str | None) -> bool:
    return bool(module_name) and module_name.split(".")[0] == "repro"


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``repro`` import in ``path``.

    ``name`` is None for ``import repro.x`` and the imported name for
    ``from repro.x import name``.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if _is_repro(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_repro(node.module):
            found += [(node.module, alias.name) for alias in node.names]
    return found


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_repro_imports_resolve(script):
    for module_name, name in _repro_imports(ROOT / script):
        module = importlib.import_module(module_name)
        if name is None or name == "*" or hasattr(module, name):
            continue
        # ``from package import submodule`` also resolves a submodule.
        importlib.import_module(f"{module_name}.{name}")


def test_every_script_folder_found():
    assert {path.split("/")[0] for path in SCRIPTS} == {"examples", "benchmarks", "perfbench"}


def _load_perfbench_tracing():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_layer_wrappers_install_and_uninstall():
    tracing = _load_perfbench_tracing()

    class _CheckedTracer(tracing.Tracer):
        """Records each function patch that found no reference to wrap."""

        def __init__(self):
            super().__init__()
            self.unreferenced: list[str] = []

        def patch_function(self, fn, name, after=None):
            before = len(self._patches)
            super().patch_function(fn, name, after)
            if len(self._patches) == before:
                self.unreferenced.append(f"{fn.__module__}.{fn.__qualname__}")

    tracer = _CheckedTracer()
    try:
        tracing.install_wrappers(tracer)
        installed = list(tracer._patches)
        assert installed
        assert tracer.unreferenced == []
        for owner, attr, original in installed:
            current = getattr(owner, attr)
            assert getattr(current, "__perfbench_original__", None) is original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original, (owner, attr)


_IMPORT_AND_FIT = """
import sys

import numpy as np

import repro
import repro.anomaly
import repro.serve
import repro.stream

t = np.arange(72.0)
repro.AutoAITS(prediction_horizon=6).fit(10.0 + np.sin(2.0 * np.pi * t / 12.0))
print('scipy.stats' in sys.modules)
"""


def _fresh_python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_import_and_fit_never_load_scipy_stats():
    # Some SciPy releases load scipy.stats from the optimizers themselves;
    # there the package cannot keep it out.
    baseline = _fresh_python(
        "import sys, scipy.optimize, scipy.special; print('scipy.stats' in sys.modules)"
    )
    if baseline == "True":
        pytest.skip("scipy.optimize or scipy.special loads scipy.stats on this SciPy")
    assert _fresh_python(_IMPORT_AND_FIT) == "False"


_SCIPY_MODULES = "[name for name in sys.modules if name.split('.')[0] == 'scipy']"

_IMPORT_SURFACE = f"""
import sys

import repro, repro.anomaly, repro.exec, repro.serve, repro.serve.__main__, repro.store, repro.stream

print({_SCIPY_MODULES})
"""


def test_importing_the_package_loads_no_scipy():
    assert _fresh_python(_IMPORT_SURFACE) == "[]"


_SERVE_THEN_FIT = f"""
import json
import sys

import numpy as np

from repro.core.registry import PipelineRegistry
from repro.serve import hydrate_model, resolve_model
from repro.store import LocalFSBackend

store, prefix, names = sys.argv[1], sys.argv[2], sys.argv[3:]
backend = LocalFSBackend(store)
shapes = []
for name in names:
    digest, _ = resolve_model(backend, name, doc_prefix=prefix)
    shapes.append(np.asarray(hydrate_model(backend, digest).predict(6)).shape)
serving = {_SCIPY_MODULES}
t = np.arange(60.0)
PipelineRegistry().create("HW_Additive", lookback=8, horizon=6).fit(
    10.0 + 0.1 * t + np.sin(2.0 * np.pi * t / 12.0)
)
print(json.dumps([shapes, serving, "scipy.optimize" in sys.modules]))
"""


def test_serving_every_pipeline_loads_no_scipy_until_a_fit_optimizes(tmp_path):
    t = np.arange(60.0)
    series = 10.0 + 0.1 * t + np.sin(2.0 * np.pi * t / 12.0)
    backend = LocalFSBackend(tmp_path / "store")
    prefix = str(tmp_path / "models")
    for name in PAPER_PIPELINE_NAMES:
        model = PipelineRegistry().create(name, lookback=8, horizon=6).fit(series)
        publish_model(model, backend, name, doc_prefix=prefix)
    output = _fresh_python(_SERVE_THEN_FIT, str(tmp_path / "store"), prefix, *PAPER_PIPELINE_NAMES)
    assert json.loads(output) == [[[6, 1]] * len(PAPER_PIPELINE_NAMES), [], True]


_FORKED_TASKS = f"""
import sys

from repro.exec import ProcessExecutor


def optimizer_loaded(_):
    return "scipy.optimize" in sys.modules


before = {_SCIPY_MODULES}
outcomes = ProcessExecutor(2, start_method="fork").map_tasks(optimizer_loaded, [0, 1, 2])
print([before] + [outcome.value for outcome in outcomes])
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_forked_tasks_start_with_the_optimizer_loaded():
    # Fork children inherit only what their parent imported: without the
    # parent-side import, every forked smoothing or SVR fit would import
    # SciPy's optimizer itself.
    assert _fresh_python(_FORKED_TASKS) == "[[], True, True, True]"
