"""The figure scripts import against the current library.

Each ``scripts/*.py`` is loaded as a module without running its guarded
``main()``, so a name the library no longer has fails here rather than at
the next figure run.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_figure_scripts_found():
    names = {p.stem for p in SCRIPTS}
    assert {"fig2_condition_number", "fig3_field_map", "fig5_error_sweep"} <= names


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_loads(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # each script prepends src/
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
