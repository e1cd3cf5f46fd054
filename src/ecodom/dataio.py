"""File ingestion: weather series, indoor monitoring series and building
description files.  No model code: the reference hot-season week lives
with the archetype flats in :mod:`ecodom.archetypes`.

All series files are CSV with ISO-8601 UTC timestamps and fixed, versioned
headers; building descriptions are JSON (see docs/formats.md), read
and written by the one table :data:`BUILDING_FORMAT`.  Floats are
written with Python's shortest repr so load(write(series)) round-trips
exactly.

A series is held as columns: a tuple of timestamps and one ``array('d')``
per value column, with no object per row.  A series file is parsed about
a thousand lines at a time, each chunk's cells turned into its columns
at once, and the columns are then checked in bulk.  When a check fails, the
rows are walked with the per-row checks, in file order, so the error
names the first bad line.  A row of an indoor file that repeats the
previous row's timestamp, as the zones of an interleaved logger file do,
reuses its parse.
"""

import json
import math
import re
import sys
from array import array
from collections import deque
from datetime import datetime, timezone
from itertools import accumulate, chain, compress, islice, repeat
from operator import lt, ne, not_
from pathlib import Path
from typing import NamedTuple

from . import building as bm
from .comfort import T_MAX_C, T_MIN_C
from .errors import JSON_TYPES, REQUIRED, InputError, load_json, read_format, within

BUILDING_SCHEMA_VERSION = 1

WEATHER_COLUMNS = ("timestamp", "temp_air_c", "rh_pct", "solar_direct_w_m2",
                   "solar_diffuse_w_m2", "wind_speed_m_s", "wind_dir_deg")
INDOOR_COLUMNS = ("timestamp", "zone", "temp_air_c", "temp_resultant_c",
                  "rh_pct", "air_speed_m_s")


class SeriesFormatError(InputError):
    """Malformed series; the message names the offending line or record."""


class SchemaVersionError(InputError):
    """Building file declares a schema version this code does not read."""


def _read_lines(path: str | Path, columns: tuple[str, ...]) -> list[str]:
    """The lines of a series file, its header checked."""
    lines = Path(path).read_text("utf-8").splitlines()
    if not lines or tuple(lines[0].split(",")) != columns:
        raise SeriesFormatError(f"line 1: expected header {','.join(columns)}")
    return lines


def _rows(lines: list[str], columns: tuple[str, ...]):
    """Yield ``(line_no, cells)`` for each non-blank line after the header."""
    for line_no, line in enumerate(islice(lines, 1, None), start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise SeriesFormatError(
                f"line {line_no}: expected {len(columns)} columns, got {len(cells)}")
        yield line_no, cells


#: Lines per chunk of the bulk parse: its cell lists stay small next to
#: the columns.
_CHUNK_LINES = 1024


def _cell_chunks(lines: list[str], width: int):
    """Yield the cells of the lines after the header, ``_CHUNK_LINES``
    lines at a time, as one flat list per chunk, ``width`` cells to a
    line; whitespace-only lines are skipped.  A line of another width
    raises ValueError."""
    commas = {width - 1}
    for start in range(1, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        if set(map(str.count, chunk, repeat(","))) != commas:
            chunk = [line for line in chunk if line.strip()]
            if chunk and set(map(str.count, chunk, repeat(","))) != commas:
                raise ValueError("a line has another number of cells")
        if chunk:
            yield ",".join(chunk).split(",")


def _write_rows(path: str | Path, columns: tuple[str, ...], rows) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(cells) for cells in rows)
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


#: The timestamp grammar, the same on every supported Python: that of
#: ``datetime.fromisoformat`` on Python 3.10, plus a final ``Z`` for UTC.
#: A date, then optionally any one separator character, a time
#: HH[:MM[:SS[.fff[fff]]]] and an offset +HH:MM[:SS[.ffffff]] or Z.
#: Compiled on first use, so a command that reads no series never pays it.
_TIMESTAMP = (r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
              r"(?:.[0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
              r"(?P<offset>[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?|Z)?)?")

#: The form isoformat() writes at UTC, a "d" for each digit, and the
#: place and character of each of its other characters.
_UTC_FORM = "dddd-dd-ddTdd:dd:dd+00:00"
_UTC_FIXED = tuple((i, c) for i, c in enumerate(_UTC_FORM) if c != "d")


def _parse_timestamp(text: str, line_no: int) -> datetime:
    # The form isoformat() writes, YYYY-MM-DDTHH:MM:SS+HH:MM, passes on
    # the place of its separators alone: any other character than a
    # digit between them fails every Python's parse.
    iso = text
    try:
        if len(text) != 25 or text[4::3] != "--T::+:":
            match = re.fullmatch(_TIMESTAMP, text, re.DOTALL)
            if match is None:
                raise ValueError("not in the timestamp grammar")
            offset = match["offset"]
            if offset is None:  # naive, so UTC; a date alone is its midnight
                iso = text + ("T00:00+00:00" if len(text) == 10 else "+00:00")
            elif offset == "Z":
                iso = text[:-1] + "+00:00"
        ts = datetime.fromisoformat(iso)
    except ValueError as exc:
        raise SeriesFormatError(f"line {line_no}: bad timestamp {text!r}") from exc
    return ts.astimezone(timezone.utc)


def _parse_timestamps(texts: list[str]):
    """The instants of a chunk's timestamp texts.  When every text has
    the form isoformat() writes in UTC, they go through
    ``datetime.fromisoformat`` in one map, each already at UTC; else
    each goes through :func:`_parse_timestamp`, and a bad text raises
    ValueError that the row walk then reports by its line."""
    joined = "".join(texts)
    if set(map(len, texts)) == {len(_UTC_FORM)} and all(
            joined[i::len(_UTC_FORM)].count(c) == len(texts) for i, c in _UTC_FIXED):
        return map(datetime.fromisoformat, texts)
    return map(_parse_timestamp, texts, repeat(0))


def _parse_float(text: str, column: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise SeriesFormatError(
            f"line {line_no}: column {column!r} is not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise SeriesFormatError(
            f"line {line_no}: column {column!r} is not a finite number: {text!r}")
    return value


def _parse_temperature(text: str, column: str, line_no: int) -> float:
    """An air or resultant temperature, weather or indoor, in the range
    the psychrometric model supports."""
    value = _parse_float(text, column, line_no)
    if not T_MIN_C <= value <= T_MAX_C:
        raise SeriesFormatError(f"line {line_no}: {column} {value} outside "
                                f"the supported [{T_MIN_C}, {T_MAX_C}] degC")
    return value


def _increasing(timestamps) -> bool:
    return all(map(lt, timestamps, islice(timestamps, 1, None)))


class WeatherSeries:
    """Weather columns in file order: the timestamps and one
    ``array('d')`` per value column.  ``thermal.simulate`` checks their
    grid.

    Not a tuple: ``thermal.simulate`` holds its stage 1 per (latitude,
    longitude) in ``sun_tracks``, which this module never reads.  A
    series holding that memo compares by identity; compare the columns
    for equal weather.
    """

    __slots__ = ("timestamps", "temp_air_c", "rh_pct", "solar_direct_w_m2",
                 "solar_diffuse_w_m2", "wind_speed_m_s", "wind_dir_deg",
                 "sun_tracks", "__weakref__")

    def __init__(self, timestamps: tuple[datetime, ...], temp_air_c: array,
                 rh_pct: array, solar_direct_w_m2: array, solar_diffuse_w_m2: array,
                 wind_speed_m_s: array, wind_dir_deg: array):
        self.timestamps = timestamps
        self.temp_air_c = temp_air_c
        self.rh_pct = rh_pct
        self.solar_direct_w_m2 = solar_direct_w_m2  # direct normal irradiance
        self.solar_diffuse_w_m2 = solar_diffuse_w_m2  # diffuse horizontal irradiance
        self.wind_speed_m_s = wind_speed_m_s
        self.wind_dir_deg = wind_dir_deg
        self.sun_tracks: dict = {}


def load_weather(path: str | Path) -> WeatherSeries:
    """Parse a weather CSV: every value finite, the temperature in the
    psychrometric range, the humidity in [0, 100], the irradiances and
    the wind speed not negative, and each timestamp after the one
    before.  The grid is checked when the series is simulated
    (:func:`ecodom.thermal.weather_grid`)."""
    lines = _read_lines(path, WEATHER_COLUMNS)
    width = len(WEATHER_COLUMNS)
    timestamps: list[datetime] = []
    columns = [array("d") for _ in WEATHER_COLUMNS[1:]]
    temp, rh, direct, diffuse, wind, wind_dir = columns
    try:
        for cells in _cell_chunks(lines, width):
            timestamps.extend(_parse_timestamps(cells[0::width]))
            for k, column in enumerate(columns, start=1):
                column.extend(map(float, cells[k::width]))
        if not (within(temp, T_MIN_C, T_MAX_C) and within(rh, 0.0, 100.0)
                and within(direct, 0.0) and within(diffuse, 0.0)
                and within(wind, 0.0) and within(wind_dir) and _increasing(timestamps)):
            raise ValueError("a weather value is out of its rule")
    except ValueError as exc:
        _check_weather_rows(lines)
        raise AssertionError("the row checks passed a file the bulk checks refused") from exc
    return WeatherSeries(tuple(timestamps), *columns)


def _check_weather_rows(lines: list[str]) -> None:
    """Raise the error of the first bad row, checking each row's values
    and that its timestamp comes after the previous row's."""
    last_ts: datetime | None = None
    for line_no, cells in _rows(lines, WEATHER_COLUMNS):
        ts = _parse_timestamp(cells[0], line_no)
        if last_ts is not None and ts <= last_ts:
            raise SeriesFormatError(
                f"line {line_no}: timestamp {cells[0]} not after previous record")
        last_ts = ts
        _parse_temperature(cells[1], "temp_air_c", line_no)
        rh, direct, diffuse, wind, _ = (_parse_float(text, column, line_no) for text, column
                                        in zip(cells[2:], WEATHER_COLUMNS[2:]))
        if not 0.0 <= rh <= 100.0:
            raise SeriesFormatError(f"line {line_no}: rh_pct {rh} outside [0, 100]")
        if direct < 0 or diffuse < 0:
            raise SeriesFormatError(f"line {line_no}: solar irradiance must be >= 0")
        if wind < 0:
            raise SeriesFormatError(f"line {line_no}: wind speed must be >= 0")


def write_weather(series: WeatherSeries, path: str | Path) -> None:
    _write_rows(path, WEATHER_COLUMNS, zip(
        map(datetime.isoformat, series.timestamps),
        *(map(repr, column) for column in (
            series.temp_air_c, series.rh_pct, series.solar_direct_w_m2,
            series.solar_diffuse_w_m2, series.wind_speed_m_s, series.wind_dir_deg))))


# ---------------------------------------------------------------------------
# indoor monitoring series

class IndoorSeries(NamedTuple):
    """Logger samples in file order, as columns.  The rows of one instant
    share one timestamp object.  A blank ``temp_resultant_c`` or
    ``air_speed_m_s`` cell is a 1 in that column's mask, ``blank_resultant``
    or ``blank_air_speed``, and 0.0 in the column itself.
    ``comfort.logger_points`` turns the columns into comfort points."""

    timestamps: tuple[datetime, ...]
    zones: tuple[str, ...]
    temp_air_c: array
    temp_resultant_c: array
    rh_pct: array
    air_speed_m_s: array
    blank_resultant: bytes
    blank_air_speed: bytes


#: An optional cell's text as the column parses it: a blank reads 0.0,
#: which lies in every range its column is checked against.
_BLANK_AS_ZERO = {"": "0"}


def _extend_optional(column: array, mask: bytearray, cells: list[str]) -> None:
    column.extend(map(float, map(_BLANK_AS_ZERO.get, cells, cells)))
    mask.extend(map(not_, cells))


def _increasing_per_zone(zones, timestamps) -> bool:
    """True when each zone's timestamps increase in file order."""
    own: dict[str, list] = {zone: [] for zone in dict.fromkeys(zones)}
    # append each row's timestamp to its zone's list, with no Python loop
    deque(map(list.append, map(own.__getitem__, zones), timestamps), maxlen=0)
    return all(map(_increasing, own.values()))


def load_indoor(path: str | Path) -> IndoorSeries:
    """Logger samples in file order; the only place they are checked.
    Every value is finite, the temperatures in the psychrometric range,
    the humidity in [0, 100] and the air speed not negative; no zone is
    blank and each zone's timestamps increase."""
    lines = _read_lines(path, INDOOR_COLUMNS)
    timestamps: list[datetime] = []
    zones: list[str] = []
    air, resultant, rh, speed = (array("d") for _ in range(4))
    blank_resultant, blank_speed = bytearray(), bytearray()
    text, instant = None, None  # the previous row's timestamp text and its parse
    width = len(INDOOR_COLUMNS)
    try:
        for cells in _cell_chunks(lines, width):
            texts = cells[0::width]
            # a row whose text repeats the row before it reuses its parse:
            # parsed[k] is the instant of the chunk's k-th fresh text
            fresh = list(map(ne, texts, chain((text,), texts)))
            parsed = [instant, *_parse_timestamps(list(compress(texts, fresh)))]
            timestamps.extend(map(parsed.__getitem__, accumulate(fresh)))
            text, instant = texts[-1], parsed[-1]
            zones.extend(map(sys.intern, cells[1::width]))
            air.extend(map(float, cells[2::width]))
            _extend_optional(resultant, blank_resultant, cells[3::width])
            rh.extend(map(float, cells[4::width]))
            _extend_optional(speed, blank_speed, cells[5::width])
        if not (within(rh, 0.0, 100.0) and within(air, T_MIN_C, T_MAX_C)
                and within(resultant, T_MIN_C, T_MAX_C) and within(speed, 0.0)
                and all(map(str.strip, dict.fromkeys(zones)))
                and _increasing_per_zone(zones, timestamps)):
            raise ValueError("an indoor value is out of its rule")
    except ValueError as exc:
        _check_indoor_rows(lines)
        raise AssertionError("the row checks passed a file the bulk checks refused") from exc
    return IndoorSeries(tuple(timestamps), tuple(zones), air, resultant, rh, speed,
                        bytes(blank_resultant), bytes(blank_speed))


def _check_indoor_rows(lines: list[str]) -> None:
    """Raise the error of the first bad row, checking each row's values
    and that its timestamp comes after the previous row of its zone."""
    last_ts: dict[str, datetime] = {}
    text, timestamp = None, None
    for line_no, parts in _rows(lines, INDOOR_COLUMNS):
        rh = _parse_float(parts[4], "rh_pct", line_no)
        if not 0.0 <= rh <= 100.0:
            raise SeriesFormatError(f"line {line_no}: rh_pct {rh} outside [0, 100]")
        if parts[0] != text:
            text, timestamp = parts[0], _parse_timestamp(parts[0], line_no)
        zone = parts[1]
        prev = last_ts.get(zone)
        if prev is None:
            # a zone's first row: a blank name never gets past it
            if not zone.strip():
                raise SeriesFormatError(f"line {line_no}: zone is blank")
        elif timestamp <= prev:
            raise SeriesFormatError(f"line {line_no}: timestamp {parts[0]} not after "
                                    f"previous record of zone {zone}")
        last_ts[zone] = timestamp
        _parse_temperature(parts[2], "temp_air_c", line_no)
        if parts[3] != "":
            _parse_temperature(parts[3], "temp_resultant_c", line_no)
        if parts[5] != "":
            speed = _parse_float(parts[5], "air_speed_m_s", line_no)
            if speed < 0:
                raise SeriesFormatError(f"line {line_no}: air_speed_m_s {speed} must be >= 0")


def _optional_cells(column: array, mask: bytes):
    return ("" if blank else repr(value) for value, blank in zip(column, mask))


def write_indoor(series: IndoorSeries, path: str | Path) -> None:
    _write_rows(path, INDOOR_COLUMNS, zip(
        map(datetime.isoformat, series.timestamps), series.zones,
        map(repr, series.temp_air_c),
        _optional_cells(series.temp_resultant_c, series.blank_resultant),
        map(repr, series.rh_pct),
        _optional_cells(series.air_speed_m_s, series.blank_air_speed)))


# ---------------------------------------------------------------------------
# building description files

#: The building file format, stated once: ``errors.read_format`` reads by
#: it, and :func:`_write` writes by it, each object kind's keys in the
#: order they are listed.  ``schema_version`` is not a record field.
BUILDING_FORMAT = {
    "building": (bm.BuildingDescription, (
        ("name", str, REQUIRED),
        ("latitude", float, REQUIRED),
        ("longitude", float, REQUIRED),
        ("dwelling_type", int, REQUIRED),
        ("vegetation_note", str, ""),
        ("roof", "roof", REQUIRED),
        ("walls", ["wall"], ()),
        ("windows", ["window"], ()),
        ("rooms", ["room"], ()),
        ("facade_pairs", ["facade_pair"], ()),
        ("water_heater", "water_heater", REQUIRED),
    )),
    "roof": (bm.RoofSpec, (
        ("color", bm.ColorClass, REQUIRED),
        ("attic", bm.AtticRegime, bm.AtticRegime.NONE),
        ("area_m2", float, REQUIRED),
        ("insulation", "insulation", bm.NO_INSULATION),
    )),
    "insulation": (bm.InsulationLayer, (
        ("material", str, REQUIRED),
        ("conductivity_w_mk", float, REQUIRED),
        ("thickness_cm", float, REQUIRED),
        ("humidity_protected", bool, False),
    )),
    "wall": (bm.WallSpec, (
        ("id", str, REQUIRED),
        ("construction", bm.WallConstruction, REQUIRED),
        ("color", bm.ColorClass, REQUIRED),
        ("azimuth_deg", float, REQUIRED),
        ("area_m2", float, REQUIRED),
        ("overhang_depth_m", float, 0.0),
        ("overhang_height_m", float, 0.0),
        ("insulation", "insulation", bm.NO_INSULATION),
        ("full_shading", bool, False),
    )),
    "window": (bm.WindowSpec, (
        ("id", str, REQUIRED),
        ("azimuth_deg", float, REQUIRED),
        ("glazed_area_m2", float, REQUIRED),
        ("height_m", float, REQUIRED),
        ("shading_case", bm.ShadingCase, bm.ShadingCase.CASE_2),
        ("overhang_depth_m", float, 0.0),
        ("overhang_offset_m", float, 0.0),
        ("mobile_shading", bool, False),
    )),
    "room": (bm.Room, (
        ("id", str, REQUIRED),
        ("kind", bm.RoomKind, REQUIRED),
        ("floor_level", int, 0),
        ("under_roof", bool, False),
        ("facades", ["facade"], ()),
        ("external_openings", ["external_opening"], ()),
        ("internal_openings", ["internal_opening"], ()),
    )),
    "facade": (bm.FacadeMembership, (
        ("facade_id", str, REQUIRED),
        ("gross_area_m2", float, REQUIRED),
    )),
    "external_opening": (bm.Opening, (
        ("id", str, REQUIRED),
        ("net_area_m2", float, REQUIRED),
        ("facade_id", str, None),
    )),
    "internal_opening": (bm.Opening, (
        ("id", str, REQUIRED),
        ("net_area_m2", float, REQUIRED),
    )),
    "facade_pair": (bm.FacadePair, (
        ("facade_1_id", str, REQUIRED),
        ("facade_2_id", str, REQUIRED),
        ("facade_1_area_m2", float, REQUIRED),
        ("facade_2_area_m2", float, REQUIRED),
    )),
    "water_heater": (bm.WaterHeaterSpec, (
        ("kind", bm.WaterHeaterKind, REQUIRED),
        ("collector_area_m2", float, 0.0),
        ("tank_volume_l", float, 0.0),
        ("annual_productivity_kwh_m2", float, 0.0),
        ("certified", bool, False),
    )),
}

def _write(record, kind: str) -> dict:
    """The object of ``kind`` that describes ``record``."""
    doc = {}
    for name, form, _ in BUILDING_FORMAT[kind][1]:
        value = getattr(record, name)
        if isinstance(form, str):
            value = _write(value, form)
        elif isinstance(form, list):
            value = [_write(item, form[0]) for item in value]
        elif form not in JSON_TYPES:
            value = value.value
        doc[name] = value
    return doc


def building_from_dict(doc: dict) -> bm.BuildingDescription:
    """Construct a description from a parsed building file; a malformed or
    unknown key raises SeriesFormatError.  Semantic problems are left to
    :func:`building.validate`."""
    doc = dict(doc)
    version = doc.pop("schema_version", None)
    # JSON true and 1.0 compare equal to 1, yet are not the version 1
    if type(version) is not int or version != BUILDING_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"building schema version {version!r} not supported "
            f"(expected {BUILDING_SCHEMA_VERSION})")
    return read_format(doc, "building", BUILDING_FORMAT, SeriesFormatError)


def building_to_dict(b: bm.BuildingDescription) -> dict:
    return {"schema_version": BUILDING_SCHEMA_VERSION, **_write(b, "building")}


def load_building(path: str | Path) -> bm.BuildingDescription:
    """Load and validate a building description file (docs/formats.md)."""
    description = load_json(path, building_from_dict, SeriesFormatError)
    issues = bm.validate(description)
    if issues:
        raise bm.BuildingValidationError(issues)
    return description


def save_building(b: bm.BuildingDescription, path: str | Path) -> None:
    Path(path).write_text(json.dumps(building_to_dict(b), indent=2) + "\n", "utf-8")
