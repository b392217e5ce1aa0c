"""The figure scripts import against the current library, and write where they say.

Each ``scripts/*.py`` is loaded as a module without running its guarded
``main()``, so a name the library no longer has fails here rather than at
the next figure run.  Each script is also run from a copy of the repository
layout, from another working directory, on a short grid: its output lands
under the copy's root, and the committed ``out/`` files stay as they are.
"""
import hashlib
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest
import yaml

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


def test_figure_scripts_found():
    names = {p.stem for p in SCRIPTS}
    assert {"fig2_condition_number", "fig3_field_map", "fig5_error_sweep"} <= names


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_loads(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # each script prepends src/
    assert callable(load_script(path).main)


def load_script(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def anchors() -> dict:
    return {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in (REPO / "out").rglob("*.csv")}


@pytest.mark.parametrize("script,config,grid,argv,written", [
    pytest.param("fig2_condition_number", "fig2_cond.yaml", [420.0, 850.0], [],
                 "out/fig2/cond.csv", id="fig2"),
    pytest.param("fig3_field_map", "fig3_nonoverlap.yaml", [900.0], ["--grid-size", "5"],
                 "out/fig3/field_map.csv", id="fig3"),
    pytest.param("fig5_error_sweep", "fig5_sweep.yaml", [500.0, 1600.0], [],
                 "out/fig5/sweep.csv", id="fig5"),
])
def test_output_lands_under_the_repository_root(tmp_path, monkeypatch, script, config, grid,
                                                argv, written):
    root = tmp_path / "copy"
    (root / "scripts").mkdir(parents=True)
    (root / "configs").mkdir()
    shutil.copy(REPO / "scripts" / f"{script}.py", root / "scripts")
    raw = yaml.safe_load((REPO / "configs" / config).read_text())
    raw["signal"]["frequencies"] = grid
    (root / "configs" / config).write_text(yaml.safe_dump(raw))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    before = anchors()
    monkeypatch.chdir(elsewhere)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", [script, *argv])
    load_script(root / "scripts" / f"{script}.py").main()
    assert (root / written).is_file()
    assert list(elsewhere.iterdir()) == []
    assert anchors() == before
