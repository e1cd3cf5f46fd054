import hashlib
import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from conftest import FINAL_FIXTURE, INITIAL_FIXTURE
from ecodom.archetypes import synthetic_weather
from ecodom.cli import EXIT_INPUT_ERROR, EXIT_NONCOMPLIANT, EXIT_OK, main
from ecodom.comfort import logger_points
from ecodom.dataio import write_indoor, write_weather
from oracles import IndoorRecord, indoor_series, psychro_points


@pytest.fixture
def weather_csv(tmp_path):
    path = tmp_path / "weather.csv"
    write_weather(synthetic_weather(days=2), path)
    return path


class TestCheck:
    def test_final_fixture_exits_zero(self, capsys):
        assert main(["check", str(FINAL_FIXTURE)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_initial_fixture_exits_one_and_lists_failures(self, capsys):
        assert main(["check", str(INITIAL_FIXTURE)]) == EXIT_NONCOMPLIANT
        out = capsys.readouterr().out
        assert "overall: FAIL" in out
        assert "roof.insulation" in out
        assert "ventilation.porosity" in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/building.json"]) == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null"])
    def test_non_object_building_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "building.json"
        path.write_text(text)
        assert main(["check", str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_json_format_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", str(INITIAL_FIXTURE), "--format", "json",
                     "--out", str(out)])
        assert code == EXIT_NONCOMPLIANT
        doc = json.loads(out.read_text())
        assert doc["overall"] == "fail"
        assert any(f["rule_id"] == "roof.insulation" and f["verdict"] == "fail"
                   for f in doc["findings"])

    def test_check_validates_once(self, monkeypatch, capsys):
        import ecodom.building as building
        import ecodom.rules as rules
        calls = []

        def counted(description, _fn=building.validate):
            calls.append(description.name)
            return _fn(description)

        monkeypatch.setattr(building, "validate", counted)
        monkeypatch.setattr(rules, "validate", counted, raising=False)
        assert main(["check", str(FINAL_FIXTURE)]) == EXIT_OK
        assert len(calls) == 1

    def test_json_report_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["check", str(INITIAL_FIXTURE), "--format", "json", "--out", str(a)])
        main(["check", str(INITIAL_FIXTURE), "--format", "json", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_si_rule_flag(self, capsys):
        # the final fixture sits exactly at Si = min = max of (2.0, 2.0),
        # so both strictness settings pass it
        assert main(["check", str(FINAL_FIXTURE), "--si-rule", "max"]) == EXIT_OK

    def test_catalogue_override(self, tmp_path, capsys):
        import importlib.resources as resources
        from ecodom.catalogue import tables_checksum
        doc = json.loads(resources.files("ecodom.data")
                         .joinpath("catalogue.json").read_text())
        doc["tables"]["porosity_threshold"] = 0.9
        doc["checksum"] = tables_checksum(doc["tables"])
        doc["catalogue_version"] = "strict"
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(doc))
        assert main(["check", str(FINAL_FIXTURE),
                     "--catalogue", str(strict)]) == EXIT_NONCOMPLIANT
        assert "strict" in capsys.readouterr().out

    def test_corrupt_catalogue_exits_two(self, tmp_path, capsys):
        import importlib.resources as resources
        doc = json.loads(resources.files("ecodom.data")
                         .joinpath("catalogue.json").read_text())
        doc["tables"]["porosity_threshold"] = 0.9  # checksum now stale
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(FINAL_FIXTURE),
                     "--catalogue", str(bad)]) == EXIT_INPUT_ERROR


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path, weather_csv, capsys):
        out = tmp_path / "result.csv"
        code = main(["simulate", str(FINAL_FIXTURE),
                     "--weather", str(weather_csv), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 48
        summary = capsys.readouterr().out
        assert "resultant temperature" in summary
        assert "gain shares" in summary

    def test_paired_run_prints_offset(self, tmp_path, weather_csv, capsys):
        scenario = tmp_path / "intermediate.json"
        scenario.write_text('{"roof_exposed": false}')
        code = main(["simulate", str(FINAL_FIXTURE),
                     "--weather", str(weather_csv),
                     "--paired", str(FINAL_FIXTURE)])
        assert code == EXIT_OK
        assert "offset" in capsys.readouterr().out

    def test_paired_run_shares_the_sun_track(self, weather_csv, solar_calls, capsys):
        # One sun-position column for the series, one irradiance column
        # per distinct orientation of the two buildings together, and one
        # shading column per distinct overhang geometry of the two
        # together: the final building has 6 surfaces under overhangs in
        # 4 geometries, the initial one 3 in 2 of those 4.
        orientations, geometries = set(), set()
        for path in (FINAL_FIXTURE, INITIAL_FIXTURE):
            doc = json.loads(path.read_text())
            orientations.add((0.0, 0.0))
            orientations.update((s["azimuth_deg"], 90.0)
                                for s in doc["walls"] + doc["windows"])
            geometries.update((s["overhang_depth_m"], s["overhang_height_m"], 0.0,
                               s["azimuth_deg"]) for s in doc["walls"]
                              if s["overhang_depth_m"] > 0 and not s["full_shading"])
            geometries.update((s["overhang_depth_m"], s["height_m"], s["overhang_offset_m"],
                               s["azimuth_deg"]) for s in doc["windows"]
                              if s["overhang_depth_m"] > 0 and not s["mobile_shading"])
        assert len(geometries) == 4
        assert main(["simulate", str(FINAL_FIXTURE), "--weather", str(weather_csv),
                     "--paired", str(INITIAL_FIXTURE)]) == EXIT_OK
        assert solar_calls == {"position": 1, "irradiance": len(orientations),
                               "shading": len(geometries)}

    def test_paired_run_checks_the_weather_grid_once(self, weather_csv, monkeypatch,
                                                     capsys):
        import ecodom.thermal as thermal
        calls = []

        def counted(timestamps, _fn=thermal.weather_grid):
            calls.append(len(timestamps))
            return _fn(timestamps)

        monkeypatch.setattr(thermal, "weather_grid", counted)
        assert main(["simulate", str(FINAL_FIXTURE), "--weather", str(weather_csv),
                     "--paired", str(INITIAL_FIXTURE)]) == EXIT_OK
        assert calls == [48]

    def test_invalid_scenario_key_exits_two_naming_it(self, tmp_path,
                                                      weather_csv, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"window_transmitance": 0.9}')
        code = main(["simulate", str(FINAL_FIXTURE),
                     "--weather", str(weather_csv),
                     "--scenario", str(scenario)])
        assert code == EXIT_INPUT_ERROR
        assert "window_transmitance" in capsys.readouterr().err

    def test_scenario_applies(self, tmp_path, weather_csv, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"mass_class": "light", "internal_gains_w": 200}')
        assert main(["simulate", str(FINAL_FIXTURE),
                     "--weather", str(weather_csv),
                     "--scenario", str(scenario)]) == EXIT_OK

    def test_missing_weather_exits_two(self, capsys):
        assert main(["simulate", str(FINAL_FIXTURE),
                     "--weather", "/nope.csv"]) == EXIT_INPUT_ERROR

    def test_result_csv_deterministic(self, tmp_path, weather_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", str(FINAL_FIXTURE), "--weather", str(weather_csv),
              "--out", str(a)])
        main(["simulate", str(FINAL_FIXTURE), "--weather", str(weather_csv),
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def _indoor_series_csv(tmp_path, split=(90, 10)):
    base = datetime(2026, 2, 1, tzinfo=timezone.utc)
    records = []
    inside, outside = split
    for i in range(inside):
        records.append(IndoorRecord(base + timedelta(hours=i), "flat", 26.0,
                                    None, 55.0, None))
    for i in range(outside):
        records.append(IndoorRecord(base + timedelta(hours=inside + i), "flat",
                                    36.0, None, 55.0, None))
    path = tmp_path / "indoor.csv"
    write_indoor(indoor_series(records), path)
    return path


class TestComfort:
    def test_ninety_ten_split(self, tmp_path, capsys):
        path = _indoor_series_csv(tmp_path)
        assert main(["comfort", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "discomfort 10.0%" in out

    def test_scatter_export(self, tmp_path):
        path = _indoor_series_csv(tmp_path)
        scatter = tmp_path / "scatter.csv"
        main(["comfort", str(path), "--scatter", str(scatter)])
        lines = scatter.read_text().splitlines()
        assert len([l for l in lines if l.startswith("point,")]) == 100

    def test_scatter_deterministic(self, tmp_path):
        path = _indoor_series_csv(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["comfort", str(path), "--scatter", str(a)])
        main(["comfort", str(path), "--scatter", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_two_zone_offset(self, tmp_path, capsys):
        base = datetime(2026, 2, 1, tzinfo=timezone.utc)
        records = []
        for i in range(24):
            ts = base + timedelta(hours=i)
            records.append(IndoorRecord(ts, "under_roof", 29.2, None, 55.0, None))
        for i in range(24):
            ts = base + timedelta(hours=i)
            records.append(IndoorRecord(ts, "intermediate", 28.0, None, 55.0, None))
        path = tmp_path / "two.csv"
        write_indoor(indoor_series(records), path)
        assert main(["comfort", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "offset (under_roof - intermediate): mean 1.20 C" in out

    def test_zone_override(self, tmp_path, capsys):
        path = _indoor_series_csv(tmp_path, split=(100, 0))
        zone = tmp_path / "zone.json"
        zone.write_text('{"vertices": [[20, 3], [24, 3], [24, 15], [20, 15]]}')
        main(["comfort", str(path), "--zone", str(zone)])
        # 26 C samples fall outside the narrower zone
        assert "discomfort 100.0%" in capsys.readouterr().out

    def test_unknown_zone_file(self, tmp_path, capsys):
        path = _indoor_series_csv(tmp_path)
        assert main(["comfort", str(path),
                     "--zone", "/nope.json"]) == EXIT_INPUT_ERROR

    def test_empty_series_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s\n")
        assert main(["comfort", str(empty)]) == EXIT_INPUT_ERROR

    def test_one_polygon_test_per_sample(self, tmp_path, monkeypatch):
        import ecodom.comfort as comfort
        base = datetime(2026, 2, 1, tzinfo=timezone.utc)
        speeds = (None, 0.0, 0.3, 0.3, 1.0, 4.0, None, 0.3)
        records = [IndoorRecord(base + timedelta(minutes=10 * i), zone,
                                24.0 + 0.1 * i, None if i % 5 else 27.0, 55.0,
                                speeds[i % len(speeds)])
                   for zone in ("bedroom", "living") for i in range(60)]
        path = tmp_path / "two.csv"
        write_indoor(indoor_series(records), path)
        calls = {"polygon": 0, "extended": []}
        point_in_polygon = comfort._point_in_polygon
        extended_vertices = comfort.ComfortZone.extended_vertices

        def count_polygon(*args):
            calls["polygon"] += 1
            return point_in_polygon(*args)

        def count_extended(zone, speed):
            calls["extended"].append(speed)
            return extended_vertices(zone, speed)

        monkeypatch.setattr(comfort, "_point_in_polygon", count_polygon)
        monkeypatch.setattr(comfort.ComfortZone, "extended_vertices", count_extended)
        scatter = tmp_path / "scatter.csv"
        assert main(["comfort", str(path), "--scatter", str(scatter)]) == EXIT_OK
        # one test per sample inside the bounding box of its extended
        # polygon, widened by the edge epsilon; a sample outside it is
        # outside the polygon without one
        points = psychro_points(logger_points(indoor_series(records)))
        in_box = 0
        for t, w, speed in points:
            polygon = extended_vertices(comfort.DEFAULT_ZONE, speed)
            in_box += (min(x for x, _ in polygon) - 1e-9 <= t <= max(x for x, _ in polygon) + 1e-9
                       and min(y for _, y in polygon) - 1e-9 <= w
                       <= max(y for _, y in polygon) + 1e-9)
        assert calls["polygon"] == in_box and 0 < in_box < len(records) == 120
        assert sorted(calls["extended"]) == [0.0, 0.3, 1.0, 4.0]


    def test_humidity_ratio_is_the_airs(self, tmp_path, capsys):
        # 22 C air at 90 % holds 15.0 g/kg, inside the zone; the same RH
        # taken at the 26 C resultant would read 19.1 g/kg, outside it
        from ecodom.comfort import humidity_ratio
        base = datetime(2026, 2, 1, tzinfo=timezone.utc)
        records = [IndoorRecord(base + timedelta(hours=i), "flat", 22.0, 26.0, 90.0, None)
                   for i in range(4)]
        path = tmp_path / "indoor.csv"
        write_indoor(indoor_series(records), path)
        scatter = tmp_path / "scatter.csv"
        assert main(["comfort", str(path), "--scatter", str(scatter)]) == EXIT_OK
        assert "discomfort 0.0%" in capsys.readouterr().out
        row = scatter.read_text().splitlines()[1]
        assert row == f"point,26.0,{humidity_ratio(22.0, 90.0)!r},1"

    def test_blank_zone_exits_two(self, tmp_path, capsys):
        path = tmp_path / "indoor.csv"
        path.write_text(
            "timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s\n"
            "2026-02-01T00:00:00+00:00,,28.0,,60.0,\n")
        err = _assert_one_error_line(main(["comfort", str(path)]), capsys)
        assert err == "error: line 2: zone is blank\n"

    def test_two_zone_logger_output_pinned(self, tmp_path, capsys):
        path = _logger_csv(tmp_path, random.Random(5), instants=720)
        scatter = tmp_path / "scatter.csv"
        assert main(["comfort", str(path), "--scatter", str(scatter)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "offset (bedroom - living)" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "667a695193545bb7e10e7e479bc507c400a83a5c9b33e87cf4948a3b639f3e80")
        assert hashlib.sha256(scatter.read_bytes()).hexdigest() == (
            "32117daa5cdb3e8625e8c97e016078f113473338bed7b478c85702a619878733")


def _logger_csv(tmp_path, rng, instants):
    """Two zones sharing 10-minute timestamps, with blank resultant and
    air-speed cells and speeds of 0 to 1.5 m/s, as a logger writes them."""
    base = datetime(2026, 2, 1, tzinfo=timezone.utc)
    lines = ["timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s"]
    for i in range(instants):
        ts = (base + timedelta(minutes=10 * i)).isoformat()
        for k, zone in enumerate(("bedroom", "living")):
            air = rng.uniform(24.0, 33.0) + 0.8 * k
            resultant = "" if rng.random() < 0.1 else f"{air + rng.uniform(0.0, 1.2):.2f}"
            speed = "" if rng.random() < 0.2 else f"{rng.uniform(0.0, 1.5):.2f}"
            lines.append(f"{ts},{zone},{air:.2f},{resultant},"
                         f"{rng.uniform(40.0, 95.0):.1f},{speed}")
    path = tmp_path / "logger.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _bundled_catalogue() -> dict:
    import importlib.resources as resources
    return json.loads(resources.files("ecodom.data")
                      .joinpath("catalogue.json").read_text())


def _cell(row, column, value):
    """An edit of a CSV file's lines that sets one cell."""
    def edit(lines):
        cells = lines[row].split(",")
        cells[column] = value
        return lines[:row] + [",".join(cells)] + lines[row + 1:]
    return edit


def _document_argv(kind, path, weather_csv, tmp_path) -> list[str]:
    """The command that reads ``path`` as the JSON document of ``kind``."""
    if kind == "building":
        return ["check", str(path)]
    if kind == "catalogue":
        return ["check", str(FINAL_FIXTURE), "--catalogue", str(path)]
    if kind == "scenario":
        return ["simulate", str(FINAL_FIXTURE), "--weather", str(weather_csv),
                "--scenario", str(path)]
    return ["comfort", str(_indoor_series_csv(tmp_path)), "--zone", str(path)]


def _assert_one_error_line(code, capsys) -> str:
    assert code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


class TestInputBoundary:
    """Each input once crashed with a traceback (exit 1) or was silently
    accepted; all must exit 2 with a single error line."""

    @pytest.mark.parametrize("text", [
        '{"exterior_film_w_m2k": 0}',
        '{"internal_gains_w": null}',
        '{"delta_cp": null}',
        '{"roof_exposed": "false"}',
        '{"internal_gains_w": NaN}',
        '{"window_transmittance": -3}',
        '{"window_shade_fraction": 5}',
    ], ids=["zero-film", "null-gains", "null-delta-cp", "string-bool", "nan-gains",
            "negative-transmittance", "shade-above-one"])
    def test_bad_scenario_value(self, tmp_path, weather_csv, capsys, text):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        code = main(["simulate", str(FINAL_FIXTURE), "--weather", str(weather_csv),
                     "--scenario", str(scenario)])
        _assert_one_error_line(code, capsys)

    @pytest.mark.parametrize("text", [
        '{"vertices": [[20, 3], [24, 3], [24, 15]], "extension_c_per_m_s": null}',
        '{"vertices": [[20, 3], [24, 3], [24, NaN]]}',
    ], ids=["null-extension", "nan-vertex"])
    def test_bad_zone_value(self, tmp_path, capsys, text):
        zone = tmp_path / "zone.json"
        zone.write_text(text)
        code = main(["comfort", str(_indoor_series_csv(tmp_path)), "--zone", str(zone)])
        _assert_one_error_line(code, capsys)

    def test_malformed_zone_file_named_once(self, tmp_path, capsys):
        zone = tmp_path / "zone.json"
        zone.write_text('{"vertices": 5}')
        code = main(["comfort", str(_indoor_series_csv(tmp_path)), "--zone", str(zone)])
        err = _assert_one_error_line(code, capsys)
        assert err.count(str(zone)) == 1

    @pytest.mark.parametrize("table,key,value", [
        ("porosity_threshold", None, None),
        ("window_shading_ratio", "east", float("nan")),
        ("porosity_threshold", None, -0.5),
        ("tank_volume_per_collector_l_m2", "min", 150.0),
    ], ids=["null-threshold", "nan-window-cell", "negative-threshold",
            "inverted-tank-bounds"])
    def test_bad_rechecksummed_catalogue_cell(self, tmp_path, capsys, table, key, value):
        from ecodom.catalogue import tables_checksum
        doc = _bundled_catalogue()
        if key is None:
            doc["tables"][table] = value
        else:
            doc["tables"][table][key] = value
        doc["checksum"] = tables_checksum(doc["tables"])
        path = tmp_path / "catalogue.json"
        path.write_text(json.dumps(doc))
        code = main(["check", str(FINAL_FIXTURE), "--catalogue", str(path)])
        assert str(path) in _assert_one_error_line(code, capsys)

    def test_deeply_nested_building(self, tmp_path, capsys):
        path = tmp_path / "building.json"
        path.write_text("[" * 5000)
        _assert_one_error_line(main(["check", str(path)]), capsys)

    def test_lone_surrogate_in_building_name(self, tmp_path, capsys):
        doc = json.loads(FINAL_FIXTURE.read_text())
        doc["name"] = "\udc00"
        path = tmp_path / "building.json"
        path.write_text(json.dumps(doc))
        err = _assert_one_error_line(main(["check", str(path)]), capsys)
        assert "surrogate" in err

    def test_non_object_catalogue(self, tmp_path, capsys):
        path = tmp_path / "catalogue.json"
        path.write_text("5")
        code = main(["check", str(FINAL_FIXTURE), "--catalogue", str(path)])
        _assert_one_error_line(code, capsys)

    def test_wall_azimuth_360_through_simulate(self, tmp_path, weather_csv, capsys):
        from ecodom.dataio import building_to_dict, load_building
        doc = building_to_dict(load_building(FINAL_FIXTURE))
        doc["walls"][0]["azimuth_deg"] = 360.0
        path = tmp_path / "building.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--weather", str(weather_csv)])
        err = _assert_one_error_line(code, capsys)
        assert "wall north.azimuth_deg" in err

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_duplicate_wall_id_exits_two(self, tmp_path, weather_csv, capsys, command):
        from ecodom.dataio import building_to_dict, load_building
        doc = building_to_dict(load_building(FINAL_FIXTURE))
        doc["walls"].append(dict(doc["walls"][1], id="north"))
        path = tmp_path / "building.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "simulate":
            argv += ["--weather", str(weather_csv)]
        err = _assert_one_error_line(main(argv), capsys)
        assert "wall north.id: duplicate wall id" in err

    @pytest.mark.parametrize("edit,line", [
        (lambda doc: doc.update(schema_version=2),
         "building schema version 2 not supported (expected 1)"),
        (lambda doc: doc["walls"].append(dict(doc["walls"][1], id="north")),
         "wall north.id: duplicate wall id"),
    ], ids=["schema-version-2", "duplicate-wall-id"])
    def test_building_error_line_names_its_file(self, tmp_path, capsys, edit, line):
        doc = json.loads(FINAL_FIXTURE.read_text())
        edit(doc)
        path = tmp_path / "building.json"
        path.write_text(json.dumps(doc))
        assert _assert_one_error_line(main(["check", str(path)]), capsys) == (
            f"error: {path}: {line}\n")

    @pytest.mark.parametrize("edit,line", [
        (lambda doc: doc["walls"][3].pop("id"), "missing field 'walls[3].id'"),
        (lambda doc: doc["roof"].update(area_m2="x"),
         "'roof.area_m2' must be a finite number, got 'x'"),
        (lambda doc: doc.pop("roof"), "missing field 'roof'"),
    ], ids=["nested-missing", "nested-mistyped", "top-level-missing"])
    def test_json_key_error_names_its_path(self, tmp_path, capsys, edit, line):
        doc = json.loads(FINAL_FIXTURE.read_text())
        edit(doc)
        path = tmp_path / "building.json"
        path.write_text(json.dumps(doc))
        assert _assert_one_error_line(main(["check", str(path)]), capsys) == (
            f"error: {path}: missing or malformed field: {line}\n")

    def test_facade_pair_of_one_facade_exits_two(self, tmp_path, capsys):
        from ecodom.dataio import building_to_dict, load_building
        doc = building_to_dict(load_building(FINAL_FIXTURE))
        for pair in doc["facade_pairs"]:
            pair["facade_2_id"] = pair["facade_1_id"]
        path = tmp_path / "building.json"
        path.write_text(json.dumps(doc))
        err = _assert_one_error_line(main(["check", str(path)]), capsys)
        assert "facade pair north_l0/north_l0.facade_id: must name two different" in err

    def test_repeated_facade_pair_exits_two(self, tmp_path, capsys):
        # a repeated pair would count its apertures twice in the zone model
        from ecodom.dataio import building_to_dict, load_building
        doc = building_to_dict(load_building(FINAL_FIXTURE))
        doc["facade_pairs"].append(dict(doc["facade_pairs"][0]))
        path = tmp_path / "building.json"
        path.write_text(json.dumps(doc))
        err = _assert_one_error_line(main(["check", str(path)]), capsys)
        assert "facade pair north_l0/south_l0.facade_id: duplicate facade pair" in err

    def test_paired_out_without_paired_exits_two(self, tmp_path, weather_csv, capsys):
        out = tmp_path / "b.csv"
        code = main(["simulate", str(FINAL_FIXTURE), "--weather", str(weather_csv),
                     "--paired-out", str(out)])
        assert "--paired-out needs --paired" in _assert_one_error_line(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        ("check B --out B", "--out B names the same file as building"),
        ("check B --catalogue C --out C", "--out C names the same file as --catalogue"),
        ("simulate B --weather W --out B", "--out B names the same file as building"),
        ("simulate B --weather W --out W", "--out W names the same file as --weather"),
        ("simulate B --weather W --scenario S --out S",
         "--out S names the same file as --scenario"),
        ("simulate B --weather W --paired P --paired-out P",
         "--paired-out P names the same file as --paired"),
        ("simulate B --weather W --paired P --out O --paired-out O",
         "--paired-out O names the same file as --out"),
        ("comfort I --scatter I", "--scatter I names the same file as indoor"),
        ("comfort I --zone Z --scatter sub/../Z",
         "--scatter sub/../Z names the same file as --zone"),
    ], ids=["check-building", "check-catalogue", "simulate-building", "simulate-weather",
            "simulate-scenario", "simulate-paired", "simulate-outputs", "comfort-indoor",
            "comfort-zone-other-spelling"])
    def test_output_naming_an_input_exits_two(self, tmp_path, weather_csv, capsys,
                                              argv, message):
        (tmp_path / "sub").mkdir()
        (tmp_path / "B").write_bytes(FINAL_FIXTURE.read_bytes())
        (tmp_path / "P").write_bytes(INITIAL_FIXTURE.read_bytes())
        (tmp_path / "C").write_bytes(
            (FINAL_FIXTURE.parent / "catalogue.json").read_bytes())
        (tmp_path / "W").write_bytes(weather_csv.read_bytes())
        (tmp_path / "S").write_text("{}")
        (tmp_path / "I").write_bytes(_indoor_series_csv(tmp_path).read_bytes())
        (tmp_path / "Z").write_text('{"vertices": [[20, 3], [24, 3], [24, 15]]}')
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

        def expand(text):
            return [str(tmp_path / word) if word.isupper() or word.startswith("sub/")
                    else word for word in text.split()]

        err = _assert_one_error_line(main(expand(argv)), capsys)
        assert " ".join(expand(message)) in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    def test_output_naming_the_env_catalogue_exits_two(self, tmp_path, monkeypatch,
                                                       capsys):
        catalogue = tmp_path / "catalogue.json"
        text = (FINAL_FIXTURE.parent / "catalogue.json").read_text()
        catalogue.write_text(text)
        monkeypatch.setenv("ECODOM_CATALOGUE", str(catalogue))
        code = main(["check", str(FINAL_FIXTURE), "--out", str(catalogue)])
        assert "names the same file as --catalogue" in _assert_one_error_line(code, capsys)
        assert catalogue.read_text() == text

    @pytest.mark.parametrize("edit,key", [
        (lambda doc: doc["walls"][0].update(
            overhang_deph_m=doc["walls"][0].pop("overhang_depth_m")),
         "walls[0].overhang_deph_m"),
        (lambda doc: doc.update(colour="light"), "colour"),
        (lambda doc: doc["rooms"][0]["internal_openings"][0].update(facade_id=None),
         "rooms[0].internal_openings[0].facade_id"),
        (lambda doc: (doc["roof"].update(colour="light"),
                      doc["water_heater"].update(area_m2=2.0)),
         "roof.colour, water_heater.area_m2"),
    ], ids=["misspelt-wall-key", "top-level", "null-internal-facade", "two-objects"])
    def test_unknown_building_key_exits_two(self, tmp_path, capsys, edit, key):
        doc = json.loads(FINAL_FIXTURE.read_text())
        edit(doc)
        path = tmp_path / "building.json"
        path.write_text(json.dumps(doc))
        err = _assert_one_error_line(main(["check", str(path)]), capsys)
        assert f"{path}: unknown key {key}\n" in err

    def test_unknown_zone_key_exits_two(self, tmp_path, capsys):
        zone = tmp_path / "zone.json"
        zone.write_text('{"vertices": [[20, 3], [24, 3], [24, 15]], "max_extended_c": 30}')
        code = main(["comfort", str(_indoor_series_csv(tmp_path)), "--zone", str(zone)])
        err = _assert_one_error_line(code, capsys)
        assert f"{zone}: unknown key max_extended_c\n" in err

    @pytest.mark.parametrize("kind,edit,key", [
        ("building", lambda doc: doc["walls"][0].update(x=1), "walls[0].x"),
        ("scenario", lambda doc: doc.update(volume_m=150), "volume_m"),
        ("zone", lambda doc: doc.update(extension=2.0), "extension"),
        ("catalogue", lambda doc: doc.update(comment="revised"), "comment"),
        ("catalogue", lambda doc: doc["tables"].update(porosity_treshold=0.3),
         "tables.porosity_treshold"),
        ("catalogue", lambda doc: doc["tables"]["window_shading_ratio"].update(nort=5),
         "tables.window_shading_ratio.nort"),
    ], ids=["building", "scenario", "zone", "catalogue-top-level", "catalogue-table",
            "catalogue-cell"])
    def test_unknown_json_key_exits_two(self, tmp_path, weather_csv, capsys, kind, edit, key):
        # one wording for every document: the file, then the key's path
        path = tmp_path / f"{kind}.json"
        if kind == "building":
            doc = json.loads(FINAL_FIXTURE.read_text())
            argv = ["check", str(path)]
        elif kind == "scenario":
            doc = {"volume_m3": 150}
            argv = ["simulate", str(FINAL_FIXTURE), "--weather", str(weather_csv),
                    "--scenario", str(path)]
        elif kind == "zone":
            doc = {"vertices": [[20, 3], [24, 3], [24, 15]]}
            argv = ["comfort", str(_indoor_series_csv(tmp_path)), "--zone", str(path)]
        else:
            doc = _bundled_catalogue()
            argv = ["check", str(FINAL_FIXTURE), "--catalogue", str(path)]
        edit(doc)
        if kind == "catalogue":
            from ecodom.catalogue import tables_checksum
            doc["checksum"] = tables_checksum(doc["tables"])
        path.write_text(json.dumps(doc))
        err = _assert_one_error_line(main(argv), capsys)
        assert err == f"error: {path}: unknown key {key}\n"

    @pytest.mark.parametrize("kind", ["building", "catalogue", "scenario", "zone"])
    def test_duplicate_json_key_exits_two(self, tmp_path, weather_csv, capsys, kind):
        # without the rule the last of two equal keys would win silently
        path = tmp_path / f"{kind}.json"
        if kind == "building":
            roof = dict(json.loads(FINAL_FIXTURE.read_text())["roof"], insulation=None)
            text = FINAL_FIXTURE.read_text().rstrip()
            path.write_text(f'{text[:-1]}, "roof": {json.dumps(roof)}}}\n')
            key = "roof"
        elif kind == "catalogue":
            text = (FINAL_FIXTURE.parent / "catalogue.json").read_text()
            assert text.count('"porosity_threshold": 0.25,') == 1
            path.write_text(text.replace('"porosity_threshold": 0.25,',
                                         '"porosity_threshold": 0.5, "porosity_threshold": 0.25,'))
            key = "porosity_threshold"
        elif kind == "scenario":
            path.write_text('{"volume_m3": 120, "volume_m3": 150}')
            key = "volume_m3"
        else:
            path.write_text('{"vertices": [[20, 3], [24, 3], [24, 15]], '
                            '"vertices": [[20, 3], [25, 3], [25, 15]]}')
            key = "vertices"
        argv = _document_argv(kind, path, weather_csv, tmp_path)
        err = _assert_one_error_line(main(argv), capsys)
        assert f"{path}: not valid JSON: duplicate key '{key}'" in err

    # JSON text may write any code point as an escape; a lone surrogate,
    # in either case of its hex digits, has no UTF-8 form and is refused
    # before the document is read
    @pytest.mark.parametrize("escape", ["\\ud800", "\\uD800", "\\udFFF"])
    @pytest.mark.parametrize("kind", ["building", "catalogue", "scenario", "zone"])
    def test_lone_surrogate_escape_exits_two(self, tmp_path, weather_csv, capsys,
                                             kind, escape):
        path = tmp_path / f"{kind}.json"
        path.write_text('{"name": "' + escape + '"}')
        err = _assert_one_error_line(main(_document_argv(kind, path, weather_csv, tmp_path)),
                                     capsys)
        assert f"{path}: not valid JSON: " in err and "surrogates not allowed" in err

    # an escaped pair is one code point; an escaped backslash before
    # "ud800" is no escape
    @pytest.mark.parametrize("text,name", [('"\\ud83d\\ude00"', "\U0001f600"),
                                           ('"\\\\ud800"', "\\ud800")],
                             ids=["pair", "backslash"])
    def test_escape_that_is_no_lone_surrogate_loads(self, tmp_path, capsys, text, name):
        doc = json.loads(FINAL_FIXTURE.read_text())
        path = tmp_path / "building.json"
        path.write_text(json.dumps(dict(doc, name="NAME")).replace('"NAME"', text))
        assert main(["check", str(path)]) == EXIT_OK
        assert name in capsys.readouterr().out

    @pytest.mark.parametrize("kind,change,fragment", [
        ("weather", _cell(10, 3, "-1.0"), "line 11: solar_direct_w_m2 -1.0 must be >= 0"),
        ("weather", _cell(5, 5, "-0.5"), "line 6: wind_speed_m_s -0.5 must be >= 0"),
        ("weather", _cell(7, 1, "-300"), "line 8: temp_air_c -300.0 outside [-20, 60]"),
        ("weather", lambda lines: lines[:13], "weather must cover at least 24 hours"),
        ("weather", lambda lines: lines[:1] + lines[1::2],
         "weather step must be one hour or finer"),
        ("indoor", _cell(3, 4, "101"), "line 4: rh_pct 101.0 outside [0, 100]"),
        ("indoor", lambda lines: _cell(3, 3, "30.0")(_cell(3, 2, "70.0")(lines)),
         "line 4: temp_air_c 70.0 outside [-20, 60]"),
        ("building", (("roof", "area_m2"), 0), "roof.area_m2: must be > 0"),
        ("building", (("windows", 0, "glazed_area_m2"), 0),
         "window glz_bedroom_l0.glazed_area_m2: must be > 0"),
        ("building", (("windows", 0, "overhang_offset_m"), -1),
         "window glz_bedroom_l0.overhang_offset_m: must be >= 0"),
        ("building", (("windows", 0, "overhang_depth_m"), -1),
         "window glz_bedroom_l0.overhang_depth_m: must be >= 0"),
        ("building", (("rooms", 0, "external_openings", 0, "facade_id"), None),
         "opening glz_bedroom_l0.facade_id: external opening must name its facade"),
        ("building", (("facade_pairs", 0, "facade_2_id"), "nowhere"),
         "facade pair north_l0/nowhere.facade_id: unknown facade 'nowhere'"),
        ("building", (("rooms", 0, "internal_openings", 1, "id"), "door_l0"),
         "opening door_l0.id: duplicate opening id"),
        ("building", (("walls", 0, "area_m2"), 0), "wall north.area_m2: must be > 0"),
        ("building", (("rooms", 0, "external_openings", 0, "net_area_m2"), -1),
         "opening glz_bedroom_l0.net_area_m2: must be >= 0"),
        ("building", (("latitude",), 91), "building.latitude: must be in [-90, 90]"),
        ("building", (("rooms",), []),
         "building.rooms: at least one main room is required"),
        ("building", (("schema_version",), True),
         "building schema version True not supported (expected 1)"),
        ("building", (("schema_version",), 1.0),
         "building schema version 1.0 not supported (expected 1)"),
        ("scenario", '{"volume_m3": 0}', "scenario.volume_m3: must be > 0"),
        ("zone", '{"vertices": [[20, 3], [24, 3]]}',
         "zone.vertices: must hold at least 3 vertices"),
        ("zone", '{"vertices": [[22, 4], [29, 4], [29, 17], [22, 17], [22, 10], [22, 12]]}',
         "zone.vertices: must be a simple polygon"),
    ], ids=["negative-irradiance", "negative-wind", "weather-cold-air", "under-a-day",
            "two-hour-step", "indoor-rh-101", "indoor-hot-air", "roof-area-zero",
            "glazed-area-zero", "negative-offset", "window-negative-depth", "null-external-facade",
            "pair-unknown-facade", "duplicate-opening", "wall-area-zero",
            "negative-opening-area", "latitude-91",
            "no-main-room", "schema-version-true", "schema-version-float",
            "scenario-volume-zero", "zone-two-vertices", "zone-edges-overlap"])
    def test_input_rule_exits_two(self, tmp_path, weather_csv, capsys,
                                  kind, change, fragment):
        if kind == "building":
            argv = ["check", str(_edited_final(tmp_path, change))]
        elif kind == "scenario":
            scenario = tmp_path / "scenario.json"
            scenario.write_text(change)
            argv = ["simulate", str(FINAL_FIXTURE), "--weather", str(weather_csv),
                    "--scenario", str(scenario)]
        elif kind == "zone":
            zone = tmp_path / "zone.json"
            zone.write_text(change)
            argv = ["comfort", str(_indoor_series_csv(tmp_path)), "--zone", str(zone)]
        else:
            source = weather_csv if kind == "weather" else _indoor_series_csv(tmp_path)
            edited = tmp_path / "edited.csv"
            edited.write_text("\n".join(change(source.read_text().splitlines())) + "\n")
            argv = (["simulate", str(FINAL_FIXTURE), "--weather", str(edited)]
                    if kind == "weather" else ["comfort", str(edited)])
        assert fragment in _assert_one_error_line(main(argv), capsys)

    # Each value rule of a building record is named by its entity and
    # field, and every broken rule of one file in the same error line
    @pytest.mark.parametrize("edits,lines", [
        ({("roof", "insulation", "conductivity_w_mk"): 0},
         ["roof.insulation.conductivity_w_mk: must be > 0"]),
        ({("roof", "insulation", "thickness_cm"): -1},
         ["roof.insulation.thickness_cm: must be >= 0"]),
        ({("walls", 0, "insulation", "conductivity_w_mk"): 0},
         ["wall north.insulation.conductivity_w_mk: must be > 0"]),
        ({("walls", 0, "insulation", "thickness_cm"): -1},
         ["wall north.insulation.thickness_cm: must be >= 0"]),
        ({("roof", "area_m2"): 0}, ["roof.area_m2: must be > 0"]),
        ({("walls", 0, "area_m2"): 0}, ["wall north.area_m2: must be > 0"]),
        ({("walls", 0, "overhang_depth_m"): -1},
         ["wall north.overhang_depth_m: must be >= 0"]),
        ({("windows", 0, "glazed_area_m2"): 0},
         ["window glz_bedroom_l0.glazed_area_m2: must be > 0"]),
        ({("windows", 0, "overhang_depth_m"): -1},
         ["window glz_bedroom_l0.overhang_depth_m: must be >= 0"]),
        ({("windows", 0, "overhang_offset_m"): -1},
         ["window glz_bedroom_l0.overhang_offset_m: must be >= 0"]),
        ({("rooms", 0, "external_openings", 0, "net_area_m2"): -1},
         ["opening glz_bedroom_l0.net_area_m2: must be >= 0"]),
        ({("rooms", 0, "internal_openings", 0, "net_area_m2"): -1},
         ["opening door_l0.net_area_m2: must be >= 0"]),
        ({("water_heater", "collector_area_m2"): -1},
         ["water heater.collector_area_m2: must be >= 0"]),
        ({("water_heater", "tank_volume_l"): -1}, ["water heater.tank_volume_l: must be >= 0"]),
        ({("water_heater", "annual_productivity_kwh_m2"): -1},
         ["water heater.annual_productivity_kwh_m2: must be >= 0"]),
        ({("roof", "area_m2"): 0, ("walls", 0, "area_m2"): 0,
          ("windows", 0, "overhang_offset_m"): -1, ("latitude",): 91},
         ["building.latitude: must be in [-90, 90]", "roof.area_m2: must be > 0",
          "wall north.area_m2: must be > 0",
          "window glz_bedroom_l0.overhang_offset_m: must be >= 0"]),
    ], ids=["roof-conductivity", "roof-thickness", "wall-conductivity", "wall-thickness",
            "roof-area", "wall-area", "wall-depth", "window-area", "window-depth",
            "window-offset", "external-opening-area", "internal-opening-area",
            "collector-area", "tank-volume", "productivity", "four-faults"])
    def test_building_value_rule_exits_two(self, tmp_path, capsys, edits, lines):
        building = _edited_final(tmp_path, *edits.items())
        err = _assert_one_error_line(main(["check", str(building)]), capsys)
        assert err == f"error: {building}: {'; '.join(lines)}\n"

    # A scenario or zone file's range faults are named together, in field
    # order, as a building's are; the rules in code run only on a file
    # with none; a missing key or a wrong type keeps its label and stops
    # the read at the first one
    @pytest.mark.parametrize("kind,text,lines", [
        ("scenario", '{"volume_m3": 0, "window_transmittance": 2, "discharge_coefficient": 5}',
         ["scenario.volume_m3: must be > 0", "scenario.discharge_coefficient: must be in (0, 1]",
          "scenario.window_transmittance: must be in [0, 1]"]),
        ("zone", '{"vertices": [[20, 3], [24, 3]], "extension_c_per_m_s": -1}',
         ["zone.extension_c_per_m_s: must be >= 0"]),
        ("scenario", '{"volume_m3": "x", "delta_cp": 0}',
         ["missing or malformed field: 'volume_m3' must be a finite number, got 'x'"]),
        ("zone", '{"extension_c_per_m_s": -1}',
         ["missing or malformed field: missing field 'vertices'"]),
        ("scenario", '{"volume_m3": 0, "mass_class": "medium"}',
         ["scenario.volume_m3: must be > 0"]),
        ("scenario", '{"mass_class": "medium"}',
         ["scenario.mass_class: must be 'light' or 'heavy'"]),
        ("scenario", '{"internal_gains_w": -1e6}', ["scenario.internal_gains_w: must be >= 0"]),
        ("scenario", '{"internal_gains_w": [100, 100, -1' + ', 100' * 21 + ']}',
         ["scenario.internal_gains_w[2]: must be >= 0"]),
        ("scenario", '{"discharge_coefficient": 5.0}',
         ["scenario.discharge_coefficient: must be in (0, 1]"]),
    ], ids=["scenario-three-faults", "zone-two-faults", "scenario-wrong-type",
            "zone-missing-key", "scenario-range-before-mass-class", "scenario-mass-class",
            "scenario-negative-gains", "scenario-negative-hour", "scenario-cd-above-one"])
    def test_document_faults_share_one_line(self, tmp_path, weather_csv, capsys,
                                            kind, text, lines):
        path = tmp_path / f"{kind}.json"
        path.write_text(text)
        err = _assert_one_error_line(main(_document_argv(kind, path, weather_csv, tmp_path)),
                                     capsys)
        assert err == f"error: {path}: {'; '.join(lines)}\n"

    # Python 3.11 widened datetime.fromisoformat; each form names the
    # instant the row held, so only the grammar can refuse it
    @pytest.mark.parametrize("form", [
        lambda ts: ts.strftime("%Y%m%dT%H%M%S"),
        lambda ts: "%d-W%02d-%dT%s" % (*ts.isocalendar(), ts.strftime("%H:%M")),
        lambda ts: ts.strftime("%Y-%m-%dT%H:%M:%S.0+00:00"),
    ], ids=["basic-format", "week-date", "one-digit-fraction"])
    @pytest.mark.parametrize("kind", ["weather", "indoor"])
    def test_timestamp_outside_the_grammar_exits_two(self, tmp_path, weather_csv, capsys,
                                                     kind, form):
        source = weather_csv if kind == "weather" else _indoor_series_csv(tmp_path)
        lines = source.read_text().splitlines()
        stamp = form(datetime.fromisoformat(lines[1].split(",")[0]))
        edited = tmp_path / "edited.csv"
        edited.write_text("\n".join(_cell(1, 0, stamp)(lines)) + "\n")
        argv = (["simulate", str(FINAL_FIXTURE), "--weather", str(edited)]
                if kind == "weather" else ["comfort", str(edited)])
        err = _assert_one_error_line(main(argv), capsys)
        assert f"line 2: bad timestamp {stamp!r}" in err

    def test_misaligned_zones_print_no_offset(self, tmp_path, capsys):
        base = datetime(2026, 2, 1, tzinfo=timezone.utc)
        records = [IndoorRecord(base + timedelta(hours=i), "a", 27.0, None, 55.0, None)
                   for i in range(4)]
        records += [IndoorRecord(base + timedelta(hours=i, minutes=30), "b", 26.0,
                                 None, 55.0, None) for i in range(4)]
        path = tmp_path / "indoor.csv"
        write_indoor(indoor_series(records), path)
        assert main(["comfort", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "discomfort" in captured.out and "offset" not in captured.out
        assert captured.err == ""

    def test_program_defect_exits_three(self, monkeypatch, capsys):
        import ecodom.cli as cli

        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "compliance_report", broken)
        assert main(["check", str(FINAL_FIXTURE)]) == cli.EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err
        assert err == "internal error: ZeroDivisionError: division by zero\n"


def _edited_final(tmp_path, *edits):
    """The final golden with each ``(path, value)`` edit made."""
    doc = json.loads(FINAL_FIXTURE.read_text())
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    out = tmp_path / "building.json"
    out.write_text(json.dumps(doc))
    return out


class TestOutOfScale:
    """Finite but extreme magnitudes once overflowed into nan or Infinity
    output with exit 0 or 1, or crashed with exit 3; all must exit 2 with
    one error line."""

    @pytest.mark.parametrize("command,path,value", [
        ("simulate", ("roof", "area_m2"), 1e308),
        ("simulate", ("roof", "area_m2"), 5e-324),
        ("simulate", ("walls", 0, "area_m2"), 1e308),
        ("check", ("roof", "insulation", "conductivity_w_mk"), 1e308),
        ("check", ("walls", 2, "insulation", "conductivity_w_mk"), 1e308),
    ], ids=["roof-area-huge", "roof-area-tiny", "wall-area-huge",
            "roof-conductivity-huge", "wall-conductivity-huge"])
    def test_overflow_exits_two(self, tmp_path, weather_csv, capsys,
                                command, path, value):
        building = str(_edited_final(tmp_path, (path, value)))
        argv = (["simulate", building, "--weather", str(weather_csv)]
                if command == "simulate" else ["check", building, "--format", "json"])
        err = _assert_one_error_line(main(argv), capsys)
        assert "not finite" in err

    @pytest.mark.parametrize("area", [1e308, 1e-200])
    def test_out_of_scale_apertures_exit_two(self, tmp_path, weather_csv, capsys, area):
        doc = json.loads(FINAL_FIXTURE.read_text())
        for room in doc["rooms"]:
            for opening in room["external_openings"]:
                opening["net_area_m2"] = area
        path = tmp_path / "building.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--weather", str(weather_csv)])
        assert "aperture areas" in _assert_one_error_line(code, capsys)

    def test_far_timestamp_jump_exits_two(self, tmp_path, capsys):
        path = tmp_path / "jump.csv"
        path.write_text(
            "timestamp,temp_air_c,rh_pct,solar_direct_w_m2,solar_diffuse_w_m2,"
            "wind_speed_m_s,wind_dir_deg\n"
            "2026-01-01T00:00:00+00:00,25.0,80.0,0.0,0.0,4.0,90.0\n"
            "2026-01-01T01:00:00+00:00,25.0,80.0,0.0,0.0,4.0,90.0\n"
            "2046-01-01T01:00:00+00:00,25.0,80.0,0.0,0.0,4.0,90.0\n")
        code = main(["simulate", str(FINAL_FIXTURE), "--weather", str(path)])
        assert "more than its 3 records" in _assert_one_error_line(code, capsys)
