"""Public-API surface tests: the imports README and examples rely on."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_quickstart_imports(self):
        from repro import ParallelTrainer, TrainingConfig  # noqa: F401
        from repro.data import make_image_dataset  # noqa: F401
        from repro.models import tiny_alexnet  # noqa: F401

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_import_loads_no_fabric_and_no_second_simulator(self):
        # every runner cold start pays for what `import repro` loads:
        # the fabric and the epoch simulator stay behind their own
        # imports (crossval loads the latter when it runs)
        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        probe = (
            "import sys, repro; print(' '.join(sorted(m for m in "
            "sys.modules if m.startswith('repro.'))))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        loaded = result.stdout.split()
        assert "repro.telemetry.crossval" in loaded  # the probe saw repro
        assert not [m for m in loaded if m.startswith("repro.fabric")]
        assert not [m for m in loaded if m.startswith("repro.simulator")]


SUBPACKAGES = [
    "repro.quantization",
    "repro.comm",
    "repro.nn",
    "repro.optim",
    "repro.models",
    "repro.data",
    "repro.core",
    "repro.simulator",
    "repro.study",
]


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_module_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, module_name

    def test_public_classes_documented(self):
        import repro

        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"
