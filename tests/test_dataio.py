import copy
import hashlib
import inspect
import json
import pathlib
import pickle
import subprocess
import sys
from datetime import datetime, timedelta, timezone

import pytest

import ecodom
from ecodom.archetypes import compliant_zone, synthetic_weather
from ecodom.building import BuildingValidationError, validate
from ecodom.catalogue import CATALOGUE_FORMAT
from ecodom.comfort import ZONE_FORMAT, humidity_ratio, logger_points
from ecodom.errors import Range
from ecodom.dataio import (
    BUILDING_FORMAT,
    INDOOR_COLUMNS,
    INDOOR_FORMAT,
    WEATHER_COLUMNS,
    WEATHER_FORMAT,
    IndoorSeries,
    SchemaVersionError,
    SeriesFormatError,
    building_from_dict,
    building_to_dict,
    load_building,
    load_indoor,
    load_weather,
    write_indoor,
    write_weather,
)
from ecodom.thermal import SCENARIO_FORMAT, WeatherGapError, simulate
from oracles import (
    IndoorRecord,
    indoor_records,
    indoor_series,
    psychro_points,
    weather_records,
    weather_series,
)


@pytest.fixture
def clean_week(tmp_path):
    series = synthetic_weather(days=7)
    path = tmp_path / "weather.csv"
    write_weather(series, path)
    return series, path


class TestWeatherIO:
    def test_seven_day_fixture(self, clean_week):
        series, path = clean_week
        loaded = load_weather(path)
        assert len(loaded.timestamps) == 168

    def test_round_trip_exact(self, clean_week, tmp_path):
        series, path = clean_week
        loaded = load_weather(path)
        assert weather_records(loaded) == weather_records(series)
        again = tmp_path / "again.csv"
        write_weather(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_out_of_range_rh_reports_line(self, clean_week, tmp_path):
        _, path = clean_week
        lines = path.read_text().splitlines()
        parts = lines[10].split(",")
        parts[2] = "130.0"
        lines[10] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(SeriesFormatError, match="line 11"):
            load_weather(bad)

    def test_malformed_value_reports_line_and_column(self, clean_week, tmp_path):
        _, path = clean_week
        lines = path.read_text().splitlines()
        parts = lines[5].split(",")
        parts[5] = "breezy"
        lines[5] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(SeriesFormatError, match="line 6.*wind_speed"):
            load_weather(bad)

    @pytest.mark.parametrize("column,index,token", [
        ("temp_air_c", 1, "nan"), ("wind_speed_m_s", 5, "inf")])
    def test_non_finite_value_reports_line_and_column(self, clean_week, tmp_path,
                                                      column, index, token):
        _, path = clean_week
        lines = path.read_text().splitlines()
        parts = lines[7].split(",")
        parts[index] = token
        lines[7] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(SeriesFormatError, match=f"line 8.*{column}.*finite"):
            load_weather(bad)

    def test_nonmonotonic_timestamps(self, clean_week, tmp_path):
        _, path = clean_week
        lines = path.read_text().splitlines()
        lines[3], lines[4] = lines[4], lines[3]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(SeriesFormatError, match="not after"):
            load_weather(bad)

    def test_gap_detection_counts_deleted_hours(self, clean_week, tmp_path):
        _, path = clean_week
        lines = path.read_text().splitlines()
        del lines[30]
        del lines[45]
        del lines[45]  # two adjacent hours plus one isolated: k = 3
        gappy = tmp_path / "gappy.csv"
        gappy.write_text("\n".join(lines) + "\n")
        loaded = load_weather(gappy)
        with pytest.raises(WeatherGapError) as err:
            simulate(compliant_zone(), loaded)
        assert len(err.value.missing) == 3

    def test_spacing_not_a_multiple_of_the_step_rejected(self, clean_week, tmp_path):
        series, _ = clean_week
        # one 90-minute spacing among hourly rows
        records = weather_records(series)
        records = records[:40] + tuple(
            r._replace(timestamp=r.timestamp + timedelta(minutes=30))
            for r in records[40:])
        path = tmp_path / "skewed.csv"
        write_weather(weather_series(records), path)
        loaded = load_weather(path)
        with pytest.raises(SeriesFormatError, match="multiple"):
            simulate(compliant_zone(), loaded)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("time,temp\n")
        with pytest.raises(SeriesFormatError, match="header"):
            load_weather(path)

    def test_written_header_and_first_row_pinned(self, tmp_path):
        path = tmp_path / "day.csv"
        write_weather(synthetic_weather(days=1), path)
        assert path.read_text("utf-8").splitlines()[:2] == [
            "timestamp,temp_air_c,rh_pct,solar_direct_w_m2,solar_diffuse_w_m2,"
            "wind_speed_m_s,wind_dir_deg",
            "2026-01-04T20:00:00+00:00,25.025126,82.071068,0.0,0.0,4.0,90.0"]

    def test_more_missing_steps_than_records_refused(self, tmp_path):
        path = tmp_path / "jump.csv"
        path.write_text(
            "timestamp,temp_air_c,rh_pct,solar_direct_w_m2,solar_diffuse_w_m2,"
            "wind_speed_m_s,wind_dir_deg\n"
            "2026-01-01T00:00:00+00:00,25.0,80.0,0.0,0.0,4.0,90.0\n"
            "2026-01-01T01:00:00+00:00,25.0,80.0,0.0,0.0,4.0,90.0\n"
            "2046-01-01T01:00:00+00:00,25.0,80.0,0.0,0.0,4.0,90.0\n")
        loaded = load_weather(path)
        with pytest.raises(SeriesFormatError,
                           match="misses 175319 steps of 3600s, more than its 3 records"):
            simulate(compliant_zone(), loaded)


class TestSyntheticWeather:
    def test_extremes_sampled_exactly(self):
        series = synthetic_weather(days=1)
        temps = list(series.temp_air_c)
        assert len(temps) == 24
        assert max(temps) == pytest.approx(31.0, abs=0.01)
        assert min(temps) == pytest.approx(24.0, abs=0.01)

    def test_solar_zero_at_night(self):
        series = synthetic_weather(days=2)
        night = [r for r in weather_records(series)
                 if r.solar_direct_w_m2 == 0.0 and r.solar_diffuse_w_m2 == 0.0]
        assert len(night) >= 16  # roughly half the records

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_weather(synthetic_weather(days=3), a)
        write_weather(synthetic_weather(days=3), b)
        assert a.read_bytes() == b.read_bytes()

    def test_day_count_validated(self):
        with pytest.raises(ValueError):
            synthetic_weather(days=0)

    @pytest.mark.parametrize("days,digest", [
        (1, "e4f7bbd058f9670f41931a4ec1e163b47fad772a6575b8a043b4f0c2ff8a794a"),
        (7, "90ee48afa921a9de1bc7f5f2789e896c251b23ebd6489735c31119be4cb7096c"),
    ])
    def test_written_bytes_pinned(self, tmp_path, days, digest):
        # every column, rh_pct and wind_dir_deg included
        path = tmp_path / "week.csv"
        write_weather(synthetic_weather(days), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("module,absent", [
    # the check path reads building files without importing the sun or
    # the thermal model
    ("ecodom.dataio", ("ecodom.solar", "ecodom.thermal", "dataclasses")),
    # records are named tuples, so no command pays for dataclass code
    # generation or for `inspect`, which `dataclasses` imports; only a
    # catalogue load imports `hashlib`, for its checksum
    ("ecodom.cli", ("dataclasses", "hashlib")),
], ids=["ecodom.dataio", "ecodom.cli"])
def test_file_io_loads_no_model(module, absent):
    src = str(pathlib.Path(ecodom.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            "print('\\n'.join(sorted(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True).stdout.split()
    assert module in loaded
    assert [name for name in absent if name in loaded] == []


def _points(records):
    """The comfort points of logger rows, one per row."""
    return psychro_points(logger_points(indoor_series(records)))


def _indoor(ts_minutes, zone="z1", temp=28.0, resultant=None, rh=60.0, speed=None):
    base = datetime(2026, 2, 1, tzinfo=timezone.utc)
    return IndoorRecord(
        timestamp=base + timedelta(minutes=ts_minutes), zone=zone,
        temp_air_c=temp, temp_resultant_c=resultant, rh_pct=rh,
        air_speed_m_s=speed)


class TestIndoorIO:
    def test_round_trip(self, tmp_path):
        records = (
            _indoor(0, temp=28.0, resultant=28.5, speed=0.3),
            _indoor(30, temp=28.2),
            _indoor(0, zone="z2", temp=27.0),
        )
        path = tmp_path / "indoor.csv"
        write_indoor(indoor_series(records), path)
        loaded = load_indoor(path)
        assert indoor_records(loaded) == records
        assert loaded.zones == ("z1", "z1", "z2")

    def test_optional_fields_blank(self, tmp_path):
        path = tmp_path / "indoor.csv"
        path.write_text(
            "timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s\n"
            "2026-02-01T00:00:00+00:00,z1,28.0,,60.0,\n")
        [rec] = indoor_records(load_indoor(path))
        assert rec.temp_resultant_c is None
        assert rec.air_speed_m_s is None
        # the comfort point takes the dry bulb and still air
        [point] = _points([rec])
        assert point.temperature_c == 28.0
        assert point.air_speed_m_s == 0.0

    def test_written_rows_pinned(self, tmp_path):
        records = (
            _indoor(0, zone="bedroom", rh=61.5),
            _indoor(0, zone="living", temp=27.25, resultant=27.5, rh=55.0, speed=0.3))
        path = tmp_path / "indoor.csv"
        write_indoor(indoor_series(records), path)
        assert path.read_text("utf-8") == (
            "timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s\n"
            "2026-02-01T00:00:00+00:00,bedroom,28.0,,61.5,\n"
            "2026-02-01T00:00:00+00:00,living,27.25,27.5,55.0,0.3\n")

    def test_resultant_preferred_for_comfort(self):
        rec = _indoor(0, temp=28.0, resultant=29.1)
        assert _points([rec])[0].temperature_c == 29.1

    def test_humidity_ratio_is_the_airs_under_a_resultant(self):
        rec = _indoor(0, temp=28.0, resultant=29.1, rh=60.0)
        [point] = _points([rec])
        assert point.humidity_ratio_g_kg == humidity_ratio(28.0, 60.0)
        assert point.humidity_ratio_g_kg != humidity_ratio(29.1, 60.0)

    def test_out_of_order_zone_row_names_its_line(self, tmp_path):
        path = tmp_path / "indoor.csv"
        path.write_text(
            "timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s\n"
            "2026-02-01T00:30:00+00:00,a,28.0,,60.0,\n"
            "2026-02-01T00:00:00+00:00,a,28.0,,60.0,\n")
        with pytest.raises(SeriesFormatError, match="line 3: .* zone a$"):
            load_indoor(path)

    def test_interleaved_zones_allowed(self, tmp_path):
        path = tmp_path / "indoor.csv"
        write_indoor(indoor_series((
            _indoor(0, zone="a"), _indoor(0, zone="b"),
            _indoor(30, zone="a"), _indoor(30, zone="b"))), path)
        loaded = load_indoor(path)
        assert loaded.zones.count("a") == 2

    def test_non_finite_value_reports_line_and_column(self, tmp_path):
        path = tmp_path / "indoor.csv"
        path.write_text(
            "timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s\n"
            "2026-02-01T00:00:00+00:00,z1,28.0,,60.0,\n"
            "2026-02-01T00:30:00+00:00,z1,nan,,60.0,\n")
        with pytest.raises(SeriesFormatError, match="line 3.*temp_air_c"):
            load_indoor(path)

    @pytest.mark.parametrize("row", [
        "2026-02-01T00:30:00+00:00,z1,28.0,,60.0,-0.5",
        "2026-02-01T00:30:00+00:00,z1,28.0,75.0,60.0,",
        "2026-02-01T00:30:00+00:00,z1,-30.0,,60.0,"],
        ids=["negative-air-speed", "hot-resultant", "cold-air"])
    def test_out_of_range_comfort_inputs_report_line(self, tmp_path, row):
        path = tmp_path / "indoor.csv"
        path.write_text(
            "timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s\n"
            "2026-02-01T00:00:00+00:00,z1,28.0,,60.0,\n" + row + "\n")
        with pytest.raises(SeriesFormatError, match="line 3"):
            load_indoor(path)

    @pytest.mark.parametrize("zone", ["", "  "], ids=["empty", "spaces"])
    def test_blank_zone_refused(self, tmp_path, zone):
        path = tmp_path / "indoor.csv"
        path.write_text(
            "timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s\n"
            "2026-02-01T00:00:00+00:00,z1,28.0,,60.0,\n"
            f"2026-02-01T00:00:00+00:00,{zone},28.0,,60.0,\n")
        with pytest.raises(SeriesFormatError, match="^line 3: zone is blank$"):
            load_indoor(path)

    def test_shared_timestamps_parsed_once(self, tmp_path):
        instants = 50
        records = [_indoor(10 * i, zone=zone, temp=26.0 + 0.01 * i)
                   for i in range(instants) for zone in ("a", "b")]
        path = tmp_path / "indoor.csv"
        write_indoor(indoor_series(records), path)
        loaded = load_indoor(path)
        assert indoor_records(loaded) == tuple(records)
        # the two rows of an instant hold the one parse of its text
        assert len(set(map(id, loaded.timestamps))) == instants
        assert all(a is b for a, b in zip(loaded.timestamps[::2], loaded.timestamps[1::2]))

    def test_zone_major_file_parses_every_row(self, tmp_path):
        # only the previous row's parse is reused: no table of every text
        records = [_indoor(10 * i, zone=zone) for zone in ("a", "b") for i in range(20)]
        path = tmp_path / "indoor.csv"
        write_indoor(indoor_series(records), path)
        loaded = load_indoor(path)
        assert indoor_records(loaded) == tuple(records)
        assert len(set(map(id, loaded.timestamps))) == len(records)


#: One out-of-range cell per bounded column, and the line it raises.
OUT_OF_RANGE_CELLS = [
    ("weather", "temp_air_c", "60.5", "temp_air_c 60.5 outside [-20, 60]"),
    ("weather", "rh_pct", "-1", "rh_pct -1.0 outside [0, 100]"),
    ("weather", "solar_direct_w_m2", "-2.5", "solar_direct_w_m2 -2.5 must be >= 0"),
    ("weather", "solar_diffuse_w_m2", "-1e-3", "solar_diffuse_w_m2 -0.001 must be >= 0"),
    ("weather", "wind_speed_m_s", "-0.5", "wind_speed_m_s -0.5 must be >= 0"),
    ("indoor", "temp_air_c", "-20.5", "temp_air_c -20.5 outside [-20, 60]"),
    ("indoor", "temp_resultant_c", "75", "temp_resultant_c 75.0 outside [-20, 60]"),
    ("indoor", "rh_pct", "100.5", "rh_pct 100.5 outside [0, 100]"),
    ("indoor", "air_speed_m_s", "-0.1", "air_speed_m_s -0.1 must be >= 0"),
]
TABLES = {"weather": WEATHER_FORMAT, "indoor": INDOOR_FORMAT}


class TestSeriesTables:
    def test_columns_named_once_and_unchanged(self):
        assert WEATHER_COLUMNS == (
            "timestamp", "temp_air_c", "rh_pct", "solar_direct_w_m2", "solar_diffuse_w_m2",
            "wind_speed_m_s", "wind_dir_deg")
        assert INDOOR_COLUMNS == (
            "timestamp", "zone", "temp_air_c", "temp_resultant_c", "rh_pct", "air_speed_m_s")
        for table, columns in ((WEATHER_FORMAT, WEATHER_COLUMNS),
                               (INDOOR_FORMAT, INDOOR_COLUMNS)):
            assert tuple(name for name, _, _, _ in table) == columns
            assert len(set(columns)) == len(columns)

    def test_written_header_is_the_table(self, tmp_path):
        path = tmp_path / "series.csv"
        write_weather(synthetic_weather(days=1), path)
        assert path.read_text().splitlines()[0] == ",".join(WEATHER_COLUMNS)
        write_indoor(indoor_series([_indoor(0)]), path)
        assert path.read_text().splitlines()[0] == ",".join(INDOOR_COLUMNS)

    def test_every_bounded_column_has_a_case(self):
        bounded = {(kind, name) for kind, table in TABLES.items()
                   for name, _, low, high in table if (low, high) != (None, None)}
        assert {(kind, name) for kind, name, _, _ in OUT_OF_RANGE_CELLS} == bounded

    @pytest.mark.parametrize("kind,column,text,line", OUT_OF_RANGE_CELLS,
                             ids=[f"{k}-{c}" for k, c, _, _ in OUT_OF_RANGE_CELLS])
    def test_out_of_range_cell_raises_its_rule(self, tmp_path, kind, column, text, line):
        load = _series_with_cell(tmp_path, kind, 3, column, text)
        with pytest.raises(SeriesFormatError) as caught:
            load()
        assert str(caught.value) == f"line 4: {line}"

    # float() also reads these, as 28, 28, 29 and 29
    @pytest.mark.parametrize("text", ["2_8", "\u0662\u0668", " 29 ", "29\t"],
                             ids=["underscore", "arabic-indic-digits", "spaces", "tab"])
    @pytest.mark.parametrize("kind", ["weather", "indoor"])
    def test_number_cell_outside_the_grammar_names_its_line(self, tmp_path, kind, text):
        load = _series_with_cell(tmp_path, kind, 3, "temp_air_c", text)
        with pytest.raises(SeriesFormatError) as caught:
            load()
        assert str(caught.value) == f"line 4: column 'temp_air_c' is not a number: {text!r}"

    @pytest.mark.parametrize("zone", ["living_room", "s\u00e9jour", "salle d'eau"])
    def test_zone_name_may_hold_what_a_number_may_not(self, tmp_path, zone):
        # such a zone fails the scan of the whole chunk, so each number
        # column is scanned on its own, and still refuses a bad cell
        load = _series_with_cell(tmp_path, "indoor", 3, "rh_pct", "60", zone=zone)
        assert load().zones == (zone,) * 6
        load = _series_with_cell(tmp_path, "indoor", 3, "rh_pct", "6_0", zone=zone)
        with pytest.raises(SeriesFormatError) as caught:
            load()
        assert str(caught.value) == "line 4: column 'rh_pct' is not a number: '6_0'"


def _series_with_cell(tmp_path, kind, row, column, text, zone="z1"):
    """Write a small series file of ``kind``, each row of ``zone``, to
    tmp_path/series.csv with the cell ``column`` of line ``row + 1``
    set to ``text``; return a call that loads it."""
    path = tmp_path / "series.csv"
    if kind == "weather":
        write_weather(synthetic_weather(days=1), path)
        load, columns = load_weather, WEATHER_COLUMNS
    else:
        write_indoor(indoor_series([_indoor(10 * i, zone=zone, resultant=28.5, speed=0.2)
                                    for i in range(6)]), path)
        load, columns = load_indoor, INDOOR_COLUMNS
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[columns.index(column)] = text
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return lambda: load(path)


class TestIndoorRecord:
    def test_fields_are_read_only(self):
        series = indoor_series([_indoor(0)])
        for name in IndoorSeries._fields:
            with pytest.raises(AttributeError):
                setattr(series, name, None)

    def test_equal_and_hash_by_value(self):
        # columns are arrays, which compare by value and have no hash
        a, b = (indoor_series([_indoor(0, resultant=28.5, speed=0.3), _indoor(0, zone="z2")])
                for _ in range(2))
        assert a is not b and a == b
        assert a != indoor_series([_indoor(0, resultant=28.5, speed=0.4), _indoor(0, zone="z2")])
        # a blank cell differs from a measured 0.0
        assert indoor_series([_indoor(0)]) != indoor_series([_indoor(0, speed=0.0)])
        with pytest.raises(TypeError):
            hash(a)

    def test_repr_names_every_field(self):
        assert repr(indoor_series([_indoor(0, zone="bedroom", resultant=28.5, speed=0.3)])) == (
            "IndoorSeries(timestamps=(datetime.datetime(2026, 2, 1, 0, 0, "
            "tzinfo=datetime.timezone.utc),), zones=('bedroom',), "
            "temp_air_c=array('d', [28.0]), temp_resultant_c=array('d', [28.5]), "
            "rh_pct=array('d', [60.0]), air_speed_m_s=array('d', [0.3]), "
            "blank_resultant=b'\\x00', blank_air_speed=b'\\x00')")

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal(self, clone):
        series = indoor_series([_indoor(0, resultant=28.5, speed=0.3), _indoor(0, zone="z2")])
        twin = clone(series)
        assert twin == series and type(twin) is IndoorSeries
        assert logger_points(twin) == logger_points(series)
        assert list(logger_points(twin).temperature_c) == [28.5, 28.0]


JSON_FORMATS = {"building": BUILDING_FORMAT, "catalogue": CATALOGUE_FORMAT,
                "scenario": SCENARIO_FORMAT, "zone": ZONE_FORMAT}
FORMATS_MD = (pathlib.Path(__file__).parent.parent / "docs" / "formats.md").read_text("utf-8")
#: The number keys held to no range, each with the reason.
UNBOUNDED = {
    ("building", "walls[].overhang_height_m"):
        "its rule spans overhang_depth_m, so it stays in building.validate",
    ("building", "rooms[].floor_level"): "a storey number; below ground is negative",
    ("zone", "vertices[][]"): "the polygon rule of comfort_zone_from_dict holds them",
    ("zone", "max_extended_temp_c"): "a cap at or below the warm edge just means no extension",
}
ANY = {float: "any finite number", int: "any integer"}


def _number_keys(formats: dict, kind: str):
    """The path and the rule (a ``Range``, or ``float`` or ``int`` for none)
    of each number a document of ``kind`` holds, in the walk's order: an
    item of a list written ``[]``, and a table whose cells share one form
    written ``*``."""
    found = {}

    def walk(form, path):
        prefix = f"{path}." if path else ""
        if isinstance(form, str):
            for name, item, _ in formats[form][2]:
                walk(item, prefix + name)
        elif isinstance(form, Range) or form in (float, int):
            found.setdefault(path, form)
        elif isinstance(form, frozenset):
            for item in sorted(form, key=lambda f: type(f) in (list, tuple)):
                walk(item, path)
        elif type(form) in (list, tuple):
            for item in form:
                walk(item, f"{path}[]")
        elif isinstance(form, dict):
            if int in form or len(set(map(id, form.values()))) == 1:
                walk(next(iter(form.values())), prefix + "*")
            else:
                for name, item in form.items():
                    walk(item, prefix + name)

    walk(kind, "")
    return found.items()


class TestBuildingIO:
    def test_fixture_parses_and_validates(self, initial_building):
        assert initial_building.name.startswith("La Decouverte")
        assert initial_building.dwelling_type == 4

    def test_round_trip_dict(self, final_building):
        assert building_from_dict(building_to_dict(final_building)) == final_building

    def test_unknown_schema_version(self, tmp_path, final_building):
        doc = building_to_dict(final_building)
        doc["schema_version"] = 99
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError, match="99"):
            load_building(path)

    def test_internal_opening_facade_is_refused_not_dropped(self, final_building):
        # the file has no key for it, so save_building could not keep it
        room = final_building.rooms[0]
        door = room.internal_openings[0]._replace(facade_id="north")
        rooms = ((room._replace(internal_openings=(door,) + room.internal_openings[1:]),)
                 + final_building.rooms[1:])
        issues = validate(final_building._replace(rooms=rooms))
        assert [str(i) for i in issues] == [
            "opening door_l0.facade_id: internal opening names no facade"]

    def test_format_table_names_every_record_field(self):
        # a record field added without a file key fails here, in every
        # declared JSON format, and so does a form naming no object kind
        def named_kinds(form):
            if isinstance(form, str):
                yield form
            elif isinstance(form, (list, tuple)):
                for item in form:
                    yield from named_kinds(item)
            elif isinstance(form, dict):
                for item in form.values():
                    yield from named_kinds(item)

        for formats in (BUILDING_FORMAT, SCENARIO_FORMAT, ZONE_FORMAT, CATALOGUE_FORMAT):
            for kind, (record, _, keys) in formats.items():
                names = [name for name, _, _ in keys]
                # a record's fields, or the parameters of a function that builds it
                parameters = (getattr(record, "_fields", None)
                              or inspect.signature(record).parameters)
                fields = [f for f in parameters if (kind, f) != ("internal_opening", "facade_id")]
                assert sorted(names) == sorted(fields), kind
                for name, form, _ in keys:
                    assert set(named_kinds(form)) <= set(formats), name

    def test_every_number_key_has_a_range_or_is_unbounded_on_purpose(self):
        unbounded = {(document, path) for document, formats in JSON_FORMATS.items()
                     for path, rule in _number_keys(formats, document) if rule in ANY}
        assert unbounded == set(UNBOUNDED)

    @pytest.mark.parametrize("document", JSON_FORMATS)
    def test_documented_ranges_are_the_tables(self, document):
        rows = [f"| `{path}` | {ANY[rule] if rule in ANY else rule.rule()} |"
                for path, rule in _number_keys(JSON_FORMATS[document], document)]
        table = "\n".join(["| key | rule |", "| --- | --- |", *rows])
        assert f"\n{table}\n\n" in FORMATS_MD

    def test_unknown_keys_reported_after_the_whole_document_is_read(self, final_building):
        doc = building_to_dict(final_building)
        doc["colour"] = "light"
        doc["walls"][2]["insulation"]["depth_cm"] = 1.0
        doc["rooms"][0]["internal_openings"][0]["facade_id"] = "north"
        with pytest.raises(SeriesFormatError) as caught:
            building_from_dict(doc)
        assert str(caught.value) == ("unknown key colour, walls[2].insulation.depth_cm, "
                                     "rooms[0].internal_openings[0].facade_id")

    def test_duplicate_opening_id_rejected(self, tmp_path, final_building):
        doc = building_to_dict(final_building)
        doc["rooms"][0]["external_openings"][0]["id"] = \
            doc["rooms"][1]["external_openings"][0]["id"]
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BuildingValidationError, match="duplicate"):
            load_building(path)

    def test_missing_field_reported(self, tmp_path, final_building):
        doc = building_to_dict(final_building)
        del doc["roof"]
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SeriesFormatError, match="roof"):
            load_building(path)

    @pytest.mark.parametrize("token,message", [
        ("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "Infinity"),
        ("1e999", "1e999"), ("1" + "0" * 400, "too large")],
        ids=["nan", "inf", "minus-inf", "float-overflow", "int-overflow"])
    def test_non_finite_number_rejected(self, tmp_path, final_building, token, message):
        doc = building_to_dict(final_building)
        doc["roof"]["insulation"]["thickness_cm"] = "THICKNESS"
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc).replace('"THICKNESS"', token))
        with pytest.raises(SeriesFormatError, match=message):
            load_building(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("{ nope")
        with pytest.raises(SeriesFormatError, match="JSON"):
            load_building(path)

    @pytest.mark.parametrize("section,key,value", [
        ("roof", "area_m2", "nan"), ("roof", "area_m2", None), ("roof", "color", 3),
        ("walls", "id", ["w"]), ("water_heater", "certified", "no"),
        (None, "dwelling_type", 4.5), (None, "roof", [])],
        ids=["string-nan", "null-area", "numeric-enum", "list-id", "string-bool",
             "float-count", "list-section"])
    def test_wrong_json_type_rejected(self, tmp_path, final_building, section, key, value):
        doc = building_to_dict(final_building)
        target = doc if section is None else doc[section]
        (target[0] if isinstance(target, list) else target)[key] = value
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SeriesFormatError, match=key):
            load_building(path)
