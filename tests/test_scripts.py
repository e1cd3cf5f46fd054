"""The experiment scripts run, and the golden fixture generator still
describes the bundled golden buildings."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from conftest import FINAL_FIXTURE, INITIAL_FIXTURE
from ecodom.dataio import building_to_dict

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name: str, cwd: pathlib.Path) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py")],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["run_gain_breakdown", "run_roof_offset_experiment"])
def test_experiment_script_runs(tmp_path, name):
    assert _run_script(name, tmp_path)


def test_comfort_pipeline_writes_scatter(tmp_path):
    assert "discomfort" in _run_script("run_comfort_pipeline", tmp_path)
    lines = (tmp_path / "psychro_scatter.csv").read_text().splitlines()
    assert lines[0] == "kind,temperature_c,humidity_ratio_g_kg,inside"
    assert sum(line.startswith("point,") for line in lines) == 168


@pytest.mark.parametrize("upgraded,fixture", [(False, INITIAL_FIXTURE),
                                              (True, FINAL_FIXTURE)],
                         ids=["initial", "final"])
def test_fixture_generator_matches_bundled_golden(upgraded, fixture):
    spec = importlib.util.spec_from_file_location(
        "make_golden_fixtures", SCRIPTS / "make_golden_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    generated = building_to_dict(module.make_building(upgraded))
    assert generated == json.loads(fixture.read_text("utf-8"))
