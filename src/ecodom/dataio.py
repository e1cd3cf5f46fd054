"""File ingestion: weather series, indoor monitoring series and building
description files.  No model code: the reference hot-season week lives
with the archetype flats in :mod:`ecodom.archetypes`.

All series files are CSV with ISO-8601 UTC timestamps and fixed, versioned
headers; building descriptions are JSON (see docs/formats.md), whose
format is the one table :data:`BUILDING_FORMAT` that both the building
reader and the building writer walk.  Floats are written with Python's
shortest repr so load(write(series)) round-trips exactly.  A row of an
indoor file that repeats the previous row's timestamp, as the zones of
an interleaved logger file do, reuses its parse.
"""

import json
import math
import re
from collections.abc import Sequence
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from . import building as bm
from .comfort import T_MAX_C, T_MIN_C
from .errors import REQUIRED, InputError, field, read_json

BUILDING_SCHEMA_VERSION = 1

WEATHER_COLUMNS = ("timestamp", "temp_air_c", "rh_pct", "solar_direct_w_m2",
                   "solar_diffuse_w_m2", "wind_speed_m_s", "wind_dir_deg")
INDOOR_COLUMNS = ("timestamp", "zone", "temp_air_c", "temp_resultant_c",
                  "rh_pct", "air_speed_m_s")


class SeriesFormatError(InputError):
    """Malformed series; the message names the offending line or record."""


class SchemaVersionError(InputError):
    """Building file declares a schema version this code does not read."""


def _read_rows(path: str | Path, columns: tuple[str, ...]):
    """Yield ``(line_no, cells)`` for each non-blank row after the header."""
    lines = Path(path).read_text("utf-8").splitlines()
    if not lines or tuple(lines[0].split(",")) != columns:
        raise SeriesFormatError(f"line 1: expected header {','.join(columns)}")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise SeriesFormatError(
                f"line {line_no}: expected {len(columns)} columns, got {len(cells)}")
        yield line_no, cells


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
              r"(?:[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?|Z)?)?")


def _parse_timestamp(text: str, line_no: int) -> datetime:
    # The form isoformat() writes, YYYY-MM-DDTHH:MM:SS+HH:MM, passes on
    # the place of its separators alone: any other character than a
    # digit between them fails every Python's parse.
    iso = text
    try:
        if len(text) != 25 or text[4::3] != "--T::+:":
            if not re.fullmatch(_TIMESTAMP, text, re.DOTALL):
                raise ValueError("not in the timestamp grammar")
            if text[-1] == "Z":
                iso = text[:-1] + "+00:00"
        ts = datetime.fromisoformat(iso)
    except ValueError as exc:
        raise SeriesFormatError(f"line {line_no}: bad timestamp {text!r}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


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


class WeatherRecord(NamedTuple):
    timestamp: datetime
    temp_air_c: float
    rh_pct: float
    solar_direct_w_m2: float   # direct normal irradiance
    solar_diffuse_w_m2: float  # diffuse horizontal irradiance
    wind_speed_m_s: float
    wind_dir_deg: float


class WeatherSeries:
    """Weather records in file order; ``thermal.simulate`` checks their grid.

    Not a tuple: ``thermal.simulate`` holds its stage 1 per (latitude,
    longitude) in ``sun_tracks``, which this module never reads.  A
    series holding that memo compares by identity; compare ``records``
    for equal weather.
    """

    __slots__ = ("records", "sun_tracks", "__weakref__")

    def __init__(self, records: tuple[WeatherRecord, ...]):
        self.records = records
        self.sun_tracks: dict = {}


def load_weather(path: str | Path) -> WeatherSeries:
    """Parse a weather CSV, checking each row's values and that its
    timestamp comes after the previous row's.  The grid is checked when
    the series is simulated (:func:`ecodom.thermal.weather_grid`)."""
    records = []
    last_ts: datetime | None = None
    for line_no, cells in _read_rows(path, WEATHER_COLUMNS):
        ts = _parse_timestamp(cells[0], line_no)
        if last_ts is not None and ts <= last_ts:
            raise SeriesFormatError(
                f"line {line_no}: timestamp {cells[0]} not after previous record")
        last_ts = ts
        rec = WeatherRecord(
            ts,
            _parse_temperature(cells[1], "temp_air_c", line_no),
            _parse_float(cells[2], "rh_pct", line_no),
            _parse_float(cells[3], "solar_direct_w_m2", line_no),
            _parse_float(cells[4], "solar_diffuse_w_m2", line_no),
            _parse_float(cells[5], "wind_speed_m_s", line_no),
            _parse_float(cells[6], "wind_dir_deg", line_no),
        )
        if not 0.0 <= rec.rh_pct <= 100.0:
            raise SeriesFormatError(f"line {line_no}: rh_pct {rec.rh_pct} outside [0, 100]")
        if rec.solar_direct_w_m2 < 0 or rec.solar_diffuse_w_m2 < 0:
            raise SeriesFormatError(f"line {line_no}: solar irradiance must be >= 0")
        if rec.wind_speed_m_s < 0:
            raise SeriesFormatError(f"line {line_no}: wind speed must be >= 0")
        records.append(rec)
    return WeatherSeries(records=tuple(records))


def write_weather(series: WeatherSeries, path: str | Path) -> None:
    _write_rows(path, WEATHER_COLUMNS, (
        (r.timestamp.isoformat(),
         repr(r.temp_air_c), repr(r.rh_pct),
         repr(r.solar_direct_w_m2), repr(r.solar_diffuse_w_m2),
         repr(r.wind_speed_m_s), repr(r.wind_dir_deg))
        for r in series.records))


# ---------------------------------------------------------------------------
# indoor monitoring series

class IndoorRecord(NamedTuple):
    """One logger sample, as the file holds it: a blank cell is None.
    ``comfort.logger_points`` turns records into comfort points."""

    timestamp: datetime
    zone: str
    temp_air_c: float
    temp_resultant_c: float | None
    rh_pct: float
    air_speed_m_s: float | None


def load_indoor(path: str | Path) -> tuple[IndoorRecord, ...]:
    """Logger samples in file order; the only place they are checked."""
    records = []
    last_ts: dict[str, datetime] = {}
    # a row that repeats the previous row's timestamp text reuses its parse
    text, timestamp = None, None
    for line_no, parts in _read_rows(path, INDOOR_COLUMNS):
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
        air = _parse_temperature(parts[2], "temp_air_c", line_no)
        resultant = (None if parts[3] == ""
                     else _parse_temperature(parts[3], "temp_resultant_c", line_no))
        speed = None if parts[5] == "" else _parse_float(parts[5], "air_speed_m_s", line_no)
        if speed is not None and speed < 0:
            raise SeriesFormatError(f"line {line_no}: air_speed_m_s {speed} must be >= 0")
        records.append(IndoorRecord(timestamp, zone, air, resultant, rh, speed))
    return tuple(records)


def write_indoor(records: Sequence[IndoorRecord], path: str | Path) -> None:
    _write_rows(path, INDOOR_COLUMNS, (
        (r.timestamp.isoformat(), r.zone, repr(r.temp_air_c),
         "" if r.temp_resultant_c is None else repr(r.temp_resultant_c),
         repr(r.rh_pct),
         "" if r.air_speed_m_s is None else repr(r.air_speed_m_s))
        for r in records))


# ---------------------------------------------------------------------------
# building description files

#: The building file format, stated once: the reader and the writer both
#: walk it.  Each object kind names the record it becomes and its keys,
#: in the order :func:`save_building` writes them.  A key is ``(name,
#: kind, default)``, named as its record's field.  Its kind is a JSON
#: type (``float`` takes any finite number), an enum read from its value,
#: the name of an object kind, or that name in a list for a list of those
#: objects.  ``null`` reads as absent for an optional object (an
#: insulation layer) and for a key whose default is None, and for no
#: other key.  The top-level ``schema_version`` is not a record field.
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

_JSON_TYPES = (str, float, int, bool)


def _read(doc, kind: str, where: str, unknown: list[str]):
    """The record of ``kind`` that the object ``doc`` at path ``where``
    describes; appends the path of each key that ``kind`` lacks to
    ``unknown``.  A missing key, or a value of the wrong JSON type or one
    a record refuses, raises ValueError or TypeError."""
    if not isinstance(doc, dict):
        raise TypeError(f"{where} must be an object, got {doc!r}")
    record, keys = BUILDING_FORMAT[kind]
    prefix = f"{where}." if where else ""
    known = {name for name, _, _ in keys}
    unknown.extend(prefix + key for key in doc if key not in known)
    values = {}
    for name, form, default in keys:
        if doc.get(name) is None and default is not REQUIRED and (
                default is None or isinstance(form, str)):
            values[name] = default  # absent, or a null the key accepts
        elif isinstance(form, str):
            values[name] = _read(field(doc, name, dict), form, prefix + name, unknown)
        elif isinstance(form, list):
            values[name] = tuple(
                _read(item, form[0], f"{prefix}{name}[{i}]", unknown)
                for i, item in enumerate(field(doc, name, list, ())))
        elif form in _JSON_TYPES:
            values[name] = field(doc, name, form, default)
        else:  # an enum, read from its value
            values[name] = form(field(doc, name, str, default))
    return record(**values)


def _write(record, kind: str) -> dict:
    """The object of ``kind`` that describes ``record``."""
    doc = {}
    for name, form, _ in BUILDING_FORMAT[kind][1]:
        value = getattr(record, name)
        if isinstance(form, str):
            value = _write(value, form)
        elif isinstance(form, list):
            value = [_write(item, form[0]) for item in value]
        elif form not in _JSON_TYPES:
            value = value.value
        doc[name] = value
    return doc


def building_from_dict(doc: dict) -> bm.BuildingDescription:
    """Construct a description from a parsed building file.

    A missing key, or a value of the wrong JSON type or one a record
    refuses, raises ValueError or TypeError at once.  Keys the format
    does not define raise SeriesFormatError, naming each path, once every
    present key has been read.  Semantic problems are left to
    :func:`building.validate`.
    """
    doc = dict(doc)
    version = doc.pop("schema_version", None)
    # JSON true and 1.0 compare equal to 1, yet are not the version 1
    if type(version) is not int or version != BUILDING_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"building schema version {version!r} not supported "
            f"(expected {BUILDING_SCHEMA_VERSION})")
    unknown: list[str] = []
    description = _read(doc, "building", "", unknown)
    if unknown:
        raise SeriesFormatError(f"unknown key {', '.join(unknown)}")
    return description


def building_to_dict(b: bm.BuildingDescription) -> dict:
    return {"schema_version": BUILDING_SCHEMA_VERSION, **_write(b, "building")}


def load_building(path: str | Path) -> bm.BuildingDescription:
    """Load and validate a building description file; a key the format
    does not define is refused by its path."""
    doc = read_json(path, SeriesFormatError)
    try:
        description = building_from_dict(doc)
    except SeriesFormatError as exc:
        raise SeriesFormatError(f"{path}: {exc}") from None
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise SeriesFormatError(f"{path}: missing or malformed field: {exc}") from exc
    issues = bm.validate(description)
    if issues:
        raise bm.BuildingValidationError(issues)
    return description


def save_building(b: bm.BuildingDescription, path: str | Path) -> None:
    Path(path).write_text(json.dumps(building_to_dict(b), indent=2) + "\n", "utf-8")
