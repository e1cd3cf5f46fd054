"""The reference experiment prints its pinned report, carries the figures
of the experiment scripts it replaced, the golden fixture generator
still describes the bundled golden buildings, and the same-bytes check
runs."""

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

from conftest import FINAL_FIXTURE, INITIAL_FIXTURE
from ecodom.dataio import building_to_dict

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


REFERENCE_REPORT = """\
roof offsets against the intermediate flat (criterion 4)
  intermediate: mean resultant 29.86 C
  compliant roof: mean +0.66 C, max +0.96 C, hours >= 1 C: 0%
  degraded roof: mean +3.59 C, max +7.60 C, hours >= 1 C: 86%
envelope gain shares (criterion 5)
  uninsulated: roof 0.55, walls 0.22, windows 0.23, peak resultant 35.95 C
  compliant: roof 0.25, walls 0.18, windows 0.57, peak resultant 33.04 C
cross ventilation (criterion 6)
  25% porosity, 4 m/s: 108.0 ACH
golden dwellings, outdoor humidity ratio carried indoors
  La Decouverte (initial): mean resultant 27.93 C, peak 31.81 C, \
discomfort 62.5%, exceedance mean 1.14 C, max 2.81 C
  La Decouverte (final): mean resultant 27.81 C, peak 31.57 C, \
discomfort 62.5%, exceedance mean 1.02 C, max 2.57 C
"""


def _run_script(name: str, cwd: pathlib.Path) -> str:
    # -I: no PYTHONPATH, no user site, no script directory on the path, so
    # the script must find the package from its own checkout
    proc = subprocess.run([sys.executable, "-I", str(SCRIPTS / f"{name}.py")],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reference_experiment_report_is_pinned(tmp_path):
    assert _run_script("reference_experiment", tmp_path) == REFERENCE_REPORT
    assert not any(tmp_path.iterdir())


# What each experiment script that the reference report replaced printed,
# verbatim, with the report section that now carries its figures and the
# factor from the report's units to the script's (shares became fractions).
REPLACED_SCRIPT_OUTPUT = {
    "run_roof_offset_experiment": ("roof offsets", (1,) * 7, """\
reference (intermediate level): mean resultant 29.86 C
under compliant roof: mean offset +0.66 C, max +0.96 C, hours >= 1 C: 0%
under degraded roof: mean offset +3.59 C, max +7.60 C, hours >= 1 C: 86%
"""),
    "run_gain_breakdown": ("envelope gain shares", (100, 100, 100, 1) * 2, """\
uninsulated: roof 55%  walls 22%  windows 23%  (peak resultant 36.0 C)
compliant: roof 25%  walls 18%  windows 57%  (peak resultant 33.0 C)
"""),
}

# a decimal figure, or a whole percentage; skips "1 C" and "criterion 4"
FIGURE = re.compile(r"[-+]?\d+\.\d+|[-+]?\d+(?=%)")


def _report_section(report: str, heading: str) -> str:
    lines = iter(report.splitlines())
    next(line for line in lines if line.startswith(heading))
    section = []
    for line in lines:
        if not line.startswith("  "):
            break
        section.append(line)
    return "\n".join(section)


@pytest.mark.parametrize("name", ["run_gain_breakdown", "run_roof_offset_experiment"])
def test_experiment_script_runs(tmp_path, name):
    heading, scales, printed = REPLACED_SCRIPT_OUTPUT[name]
    report = _report_section(_run_script("reference_experiment", tmp_path), heading)
    old = FIGURE.findall(printed)
    new = [float(figure) for figure in FIGURE.findall(report)]
    assert len(new) == len(old) == len(scales)
    for value, scale, figure in zip(new, scales, old):
        # both round the same value, and the report at least as finely as
        # the script did, so they may differ by one unit of the script's
        # last printed digit and no more
        unit = 10.0 ** -len(figure.partition(".")[2])
        assert abs(value * scale - float(figure)) <= unit, (name, figure, value)


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
    # the writer's bytes, key order included
    assert json.dumps(generated, indent=2) + "\n" == fixture.read_text("utf-8")


def test_same_bytes_runs_on_this_interpreter(tmp_path):
    proc = subprocess.run([sys.executable, "-I", str(SCRIPTS / "same_bytes.py"),
                           sys.executable],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["output", "%d.%d.%d" % sys.version_info[:3]]
    assert len(lines) == 1 + 12 + 1 and lines[-1] == "all equal"
    assert not any(tmp_path.iterdir())


def test_same_bytes_refuses_what_is_not_python(tmp_path):
    proc = subprocess.run([sys.executable, "-I", str(SCRIPTS / "same_bytes.py"),
                           str(tmp_path / "python")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
