"""Fuzz test of the CLI exit-code contract.

Whatever an input file holds, ``ecodom`` exits 0, 1 or 2; on 2 it prints
exactly one ``error:`` line, it never prints a traceback or an
``internal error``, and on 0 or 1 every number in the JSON report and
the written CSV files is finite.  Every input file kind is covered:
building, weather, indoor series, scenario, comfort zone and catalogue,
each as arbitrary JSON or text, as a mutated golden document (values
replaced, deleted or, for numbers, set to an extreme finite magnitude
such as 1e308 or 5e-324), or with random CSV cells.  A JSON document
given one key that its format does not define, in any of its objects,
exits 2 with an error that names the key's path.  The examples are
derandomized so the suite stays deterministic; raise ``MAX_EXAMPLES``
locally to search further.
"""

import contextlib
import copy
import importlib.resources as resources
import io
import json
import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FINAL_FIXTURE, INITIAL_FIXTURE
from ecodom.archetypes import synthetic_weather
from ecodom.catalogue import tables_checksum
from ecodom.cli import main
from ecodom.dataio import write_weather

MAX_EXAMPLES = 40

FUZZ = settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True)

SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
           | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
           | st.sampled_from([0, -1, 360, 1e308, -1e308, 5e-324, "nan", "", "x\ny"]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6),
                                                                  inner, max_size=4),
    max_leaves=8)
RAW_TEXT = (st.text(max_size=40)
            | st.sampled_from(["", "{", "NaN", "[1, 2]", '{"a": Infinity}', "1e999",
                               '{"x": ' + "9" * 400 + "}", "\ufeff{}", "[" * 5000,
                               '{"name": "\\ud800"}']))
EXTREMES = st.sampled_from([1e308, -1e308, 5e-324, -5e-324])
CELLS = (st.text(max_size=8)
         | st.sampled_from(["", "nan", "inf", "-inf", "-1", "1e400", "101", "-300",
                            "2026-13-01T00:00:00", "1,2", "70", "0"]))

GOLDEN = {path: json.loads(path.read_text("utf-8"))
          for path in (INITIAL_FIXTURE, FINAL_FIXTURE)}
CATALOGUE = json.loads(resources.files("ecodom.data").joinpath("catalogue.json")
                       .read_text("utf-8"))
SCENARIO = {"floor_area_m2": 60.0, "volume_m3": 150.0, "mass_class": "light",
            "internal_gains_w": [100.0] * 24, "delta_cp": 0.5,
            "window_shade_fraction": 0.5, "roof_exposed": False}
ZONE = {"vertices": [[22, 4], [29, 4], [29, 17], [22, 17]],
        "extension_c_per_m_s": 2.0, "max_extended_temp_c": 32.0}


def _weather_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weather.csv"
        write_weather(synthetic_weather(days=2), path)
        return path.read_text("utf-8").splitlines()


def _indoor_lines() -> list[str]:
    base = datetime(2026, 2, 1, tzinfo=timezone.utc)
    lines = ["timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s"]
    for i in range(12):
        ts = (base + timedelta(minutes=30 * i)).isoformat()
        lines.append(f"{ts},bedroom,{27 + i % 5},,{60 + i},0.2")
        lines.append(f"{ts},living,{26 + i % 3},{27.5},{55 + i},")
    return lines


WEATHER_LINES = _weather_lines()
INDOOR_LINES = _indoor_lines()


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(data, doc, actions=("replace", "delete", "extreme")):
    """``doc`` with one to three values replaced or deleted, or numbers set
    to extreme finite magnitudes."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        action = data.draw(st.sampled_from(actions))
        paths = list(_paths(doc))[1:]
        if action == "extreme":
            paths = [p for p in paths if type(_at(doc, p)) in (int, float)]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = _at(doc, path[:-1])
        if action == "replace":
            parent[path[-1]] = data.draw(JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(EXTREMES)
    return doc


def _with_unknown_key(data, doc) -> tuple[dict, str]:
    """A copy of ``doc`` with one key that no format defines inserted in
    one of its objects, and that key's path as an error names it."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from([p for p in _paths(doc) if isinstance(_at(doc, p), dict)]))
    target = _at(doc, path)
    key = "x" + data.draw(st.text(alphabet="abc_019 .[]", max_size=4))
    target[key] = data.draw(JSON_VALUES)
    where = ""
    for part in path + (key,):
        where += f"[{part}]" if isinstance(part, int) else f".{part}" if where else part
    return doc, where


def _json_file(data, golden) -> bytes:
    """Bytes of a JSON file: arbitrary text, an arbitrary JSON value or a
    mutated copy of ``golden``."""
    kind = data.draw(st.sampled_from(["raw", "value", "mutated", "mutated"]))
    if kind == "raw":
        return data.draw(RAW_TEXT).encode("utf-8", "surrogatepass")
    doc = data.draw(JSON_VALUES) if kind == "value" else _mutated(data, golden)
    return json.dumps(doc).encode("utf-8")


def _csv_file(data, lines) -> bytes:
    """Bytes of a CSV file with a few cells or whole lines replaced."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        row = data.draw(st.integers(0, len(lines) - 1))
        if data.draw(st.integers(0, 4)) == 0:
            lines[row] = data.draw(st.text(max_size=20))
            continue
        cells = lines[row].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(CELLS)
        lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


def _refuse_constant(name):
    raise AssertionError(f"report holds {name}")


def _assert_finite_output(stdout: str, csv_paths) -> None:
    if stdout.startswith("{"):
        json.loads(stdout, parse_constant=_refuse_constant)
    for path in csv_paths:
        for line in path.read_text("utf-8").splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (path.name, line)


def _run(files: dict[str, bytes], argv: list[str]) -> tuple[int, str]:
    """Write ``files``, run the CLI on ``argv`` (names resolved in the
    temporary directory) and check the exit-code contract; return the
    exit code and the standard error."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            (Path(tmp) / name).write_bytes(content)
        argv = [str(Path(tmp) / a) if a in files or a.endswith(".out") else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code in (0, 1):
            _assert_finite_output(out.getvalue(), Path(tmp).glob("*.out"))
    stderr = err.getvalue()
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr and "internal error" not in stderr, stderr
    if code == 2:
        assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
    return code, stderr


@FUZZ
@given(st.data())
def test_check_building_file(data):
    golden = GOLDEN[data.draw(st.sampled_from(sorted(GOLDEN)))]
    _run({"building.json": _json_file(data, golden)},
         ["check", "building.json", "--format",
          data.draw(st.sampled_from(["text", "json"]))])


@FUZZ
@given(st.data())
def test_check_catalogue_file(data):
    doc = _mutated(data, CATALOGUE)
    if data.draw(st.booleans()) and isinstance(doc.get("tables"), (dict, list)):
        doc["checksum"] = tables_checksum(doc["tables"])
    content = (json.dumps(doc).encode("utf-8") if data.draw(st.integers(0, 3))
               else _json_file(data, CATALOGUE))
    _run({"catalogue.json": content},
         ["check", str(FINAL_FIXTURE), "--catalogue", "catalogue.json"])


@FUZZ
@given(st.data())
def test_simulate_building_weather_and_scenario(data):
    target = data.draw(st.sampled_from(["building", "weather", "scenario"]))
    files = {
        "building.json": FINAL_FIXTURE.read_bytes(),
        "weather.csv": ("\n".join(WEATHER_LINES) + "\n").encode("utf-8"),
        "scenario.json": json.dumps(SCENARIO).encode("utf-8"),
    }
    if target == "building":
        files["building.json"] = _json_file(data, GOLDEN[FINAL_FIXTURE])
    elif target == "weather":
        files["weather.csv"] = _csv_file(data, WEATHER_LINES)
    else:
        files["scenario.json"] = _json_file(data, SCENARIO)
    _run(files, ["simulate", "building.json", "--weather", "weather.csv",
                 "--scenario", "scenario.json", "--out", "result.out"])


@FUZZ
@given(st.data())
def test_extreme_magnitudes(data):
    building = _mutated(data, GOLDEN[FINAL_FIXTURE], actions=["extreme"])
    scenario = (_mutated(data, SCENARIO, actions=["extreme"])
                if data.draw(st.booleans()) else SCENARIO)
    files = {
        "building.json": json.dumps(building).encode("utf-8"),
        "weather.csv": ("\n".join(WEATHER_LINES) + "\n").encode("utf-8"),
        "scenario.json": json.dumps(scenario).encode("utf-8"),
    }
    _run(files, ["check", "building.json", "--format", "json"])
    _run(files, ["simulate", "building.json", "--weather", "weather.csv",
                 "--scenario", "scenario.json", "--out", "result.out"])


@FUZZ
@given(st.data())
def test_comfort_indoor_and_zone(data):
    files = {"indoor.csv": ("\n".join(INDOOR_LINES) + "\n").encode("utf-8"),
             "zone.json": json.dumps(ZONE).encode("utf-8")}
    if data.draw(st.booleans()):
        files["indoor.csv"] = _csv_file(data, INDOOR_LINES)
    else:
        files["zone.json"] = _json_file(data, ZONE)
    _run(files, ["comfort", "indoor.csv", "--zone", "zone.json",
                 "--scatter", "scatter.out"])


@FUZZ
@given(st.data())
def test_unknown_key_named_by_its_path(data):
    kind = data.draw(st.sampled_from(["building", "scenario", "zone", "catalogue"]))
    golden = {"building": GOLDEN[data.draw(st.sampled_from(sorted(GOLDEN)))],
              "scenario": SCENARIO, "zone": ZONE, "catalogue": CATALOGUE}[kind]
    doc, where = _with_unknown_key(data, golden)
    if kind == "catalogue":
        doc["checksum"] = tables_checksum(doc["tables"])
    files = {f"{kind}.json": json.dumps(doc).encode("utf-8")}
    if kind == "building":
        argv = ["check", "building.json"]
    elif kind == "catalogue":
        argv = ["check", str(FINAL_FIXTURE), "--catalogue", "catalogue.json"]
    elif kind == "scenario":
        files["weather.csv"] = ("\n".join(WEATHER_LINES) + "\n").encode("utf-8")
        argv = ["simulate", str(FINAL_FIXTURE), "--weather", "weather.csv",
                "--scenario", "scenario.json"]
    else:
        files["indoor.csv"] = ("\n".join(INDOOR_LINES) + "\n").encode("utf-8")
        argv = ["comfort", "indoor.csv", "--zone", "zone.json"]
    code, stderr = _run(files, argv)
    assert code == 2 and stderr.endswith(f"{kind}.json: unknown key {where}\n"), stderr
