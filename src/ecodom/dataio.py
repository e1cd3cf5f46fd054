"""File ingestion: weather series, indoor monitoring series and building
description files.  No model code: the reference hot-season week lives
with the archetype flats in :mod:`ecodom.archetypes`.

Each file format is stated once, as a table that one reader and one
writer walk: the series files are CSV with ISO-8601 UTC timestamps, by
:data:`WEATHER_FORMAT` and :data:`INDOOR_FORMAT`, and building
descriptions JSON, by :data:`BUILDING_FORMAT` (see docs/formats.md).
Floats are written with Python's shortest repr so load(write(series))
round-trips exactly.

A series is held as columns: a tuple of timestamps and one ``array('d')``
per value column, with no object per row.  A series file is parsed about
a thousand lines at a time, each chunk's cells turned into its columns
at once, and the columns are then checked in bulk.  When a check fails,
the rows are walked by the same table, in file order, so the error names
the first bad line.  A row of an indoor file that repeats the previous
row's timestamp, as the zones of an interleaved logger file do, reuses
its parse.
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
from .errors import (
    JSON_TYPES, NON_NEGATIVE, POSITIVE, REQUIRED, InputError, Range, load_json, read_format,
    within,
)

BUILDING_SCHEMA_VERSION = 1


class SeriesFormatError(InputError):
    """Malformed series; the message names the offending line or record."""


class SchemaVersionError(SeriesFormatError):
    """Building file declares a schema version this code does not read."""


def _read_lines(path: str | Path, columns: tuple[str, ...]) -> list[str]:
    """The lines of a series file, its header checked."""
    lines = Path(path).read_text("utf-8").splitlines()
    if not lines or tuple(lines[0].split(",")) != columns:
        raise SeriesFormatError(f"line 1: expected header {','.join(columns)}")
    return lines


#: Lines per chunk of the bulk parse: its cell lists stay small next to
#: the columns.
_CHUNK_LINES = 1024


def _plain(text: str) -> bool:
    """True when ``text`` holds none of the characters that ``float``
    reads besides the number cell grammar: only ASCII, and no underscore,
    space or tab (a line holds no other ASCII whitespace)."""
    return text.isascii() and "_" not in text and " " not in text and "\t" not in text


def _cell_chunks(lines: list[str], width: int):
    """Yield the cells of the lines after the header, ``_CHUNK_LINES``
    lines at a time, as one flat list per chunk, ``width`` cells to a
    line, with whether the chunk's text is :func:`_plain`; whitespace-only
    lines are skipped.  A line of another width raises ValueError."""
    commas = {width - 1}
    for start in range(1, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        if set(map(str.count, chunk, repeat(","))) != commas:
            chunk = [line for line in chunk if line.strip()]
            if chunk and set(map(str.count, chunk, repeat(","))) != commas:
                raise ValueError("a line has another number of cells")
        if chunk:
            text = ",".join(chunk)
            yield text.split(","), _plain(text)


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
        if not _plain(text):
            raise ValueError("not in the number grammar")
        value = float(text)
    except ValueError as exc:
        raise SeriesFormatError(
            f"line {line_no}: column {column!r} is not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise SeriesFormatError(
            f"line {line_no}: column {column!r} is not a finite number: {text!r}")
    return value


def _increasing(timestamps, zones=None) -> bool:
    """True when the timestamps increase in file order, each zone's
    apart when ``zones`` is given."""
    if zones is None:
        return all(map(lt, timestamps, islice(timestamps, 1, None)))
    own: dict[str, list] = {zone: [] for zone in dict.fromkeys(zones)}
    # append each row's timestamp to its zone's list, with no Python loop
    deque(map(list.append, map(own.__getitem__, zones), timestamps), maxlen=0)
    return all(map(_increasing, own.values()))


def _load(path: str | Path, table: tuple) -> list:
    """The columns of the series file ``path`` that ``table`` declares, in
    file order, then the blank mask of each optional column.  Every rule
    is checked in bulk; a file that breaks one raises the error of its
    first bad row (:func:`_check_rows`)."""
    kinds = [kind for _, kind, _, _ in table]
    lines = _read_lines(path, tuple(name for name, _, _, _ in table))
    columns = [[] if kind in (datetime, str) else array("d") for kind in kinds]
    masks = [bytearray() for kind in kinds if kind not in (datetime, str, float)]
    zones = columns[kinds.index(str)] if str in kinds else None
    text, instant = None, None  # the previous row's timestamp text and its parse
    width = len(table)
    try:
        for cells, plain in _cell_chunks(lines, width):
            blanks = iter(masks)
            for k, (column, kind) in enumerate(zip(columns, kinds)):
                texts = cells[k::width]
                # a zone or a timestamp may fail the chunk's scan, a number may not
                if not (plain or kind in (datetime, str) or _plain("".join(texts))):
                    raise ValueError("a number cell is outside the cell grammar")
                if kind is float:
                    column.extend(map(float, texts))
                elif kind is str:
                    column.extend(map(sys.intern, texts))
                elif kind is not datetime:  # a blank reads 0.0
                    column.extend(map(float, map({"": "0"}.get, texts, texts)))
                    next(blanks).extend(map(not_, texts))
                elif zones is None:
                    column.extend(_parse_timestamps(texts))
                else:
                    # a row whose text repeats the row before it reuses its
                    # parse: parsed[i] is the instant of the chunk's i-th fresh text
                    fresh = list(map(ne, texts, chain((text,), texts)))
                    parsed = [instant, *_parse_timestamps(list(compress(texts, fresh)))]
                    column.extend(map(parsed.__getitem__, accumulate(fresh)))
                    text, instant = texts[-1], parsed[-1]
        if not (all(within(column, low, high) for column, (_, kind, low, high)
                    in zip(columns, table) if kind not in (datetime, str))
                and (zones is None or all(map(str.strip, dict.fromkeys(zones))))
                and _increasing(columns[0], zones)):
            raise ValueError("a value is out of its rule")
    except ValueError as exc:
        _check_rows(lines, table)
        raise AssertionError("the row checks passed a file the bulk checks refused") from exc
    return [*columns, *map(bytes, masks)]


def _check_rows(lines: list[str], table: tuple) -> None:
    """Raise the error of the first bad row.  A row is checked in order:
    its timestamp; its zone, then the timestamp after the previous row's
    (of its zone, when there is a zone column); then each number cell in
    column order, parsed, then held to its range."""
    kinds = [kind for _, kind, _, _ in table]
    zone_at = kinds.index(str) if str in kinds else None
    last: dict = {}  # each zone's last instant; the file's under None
    text, instant = None, None
    for line_no, line in enumerate(islice(lines, 1, None), start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(table):
            raise SeriesFormatError(
                f"line {line_no}: expected {len(table)} columns, got {len(cells)}")
        if cells[0] != text:
            text, instant = cells[0], _parse_timestamp(cells[0], line_no)
        zone = None if zone_at is None else cells[zone_at]
        if zone is not None and not zone.strip():
            raise SeriesFormatError(f"line {line_no}: zone is blank")
        previous = last.get(zone)
        if previous is not None and instant <= previous:
            of_zone = "" if zone is None else f" of zone {zone}"
            raise SeriesFormatError(
                f"line {line_no}: timestamp {text} not after previous record{of_zone}")
        last[zone] = instant
        for cell, (name, kind, low, high) in zip(cells, table):
            if kind is float or kind not in (datetime, str) and cell:
                value = _parse_float(cell, name, line_no)
                if not ((low is None or low <= value) and (high is None or value <= high)):
                    raise SeriesFormatError(
                        f"line {line_no}: {name} {value} {Range(low, high).rule('outside')}")


def _write_series(path: str | Path, table: tuple, columns) -> None:
    """Write ``columns``, as :func:`_load` returns them, as the file of
    ``table``: timestamps by ``isoformat``, numbers by ``repr``, and a
    blank optional cell empty."""
    masks = iter(columns[len(table):])
    cells = []
    for column, (_, kind, _, _) in zip(columns, table):
        if kind is datetime:
            column = map(datetime.isoformat, column)
        elif kind is float:
            column = map(repr, column)
        elif kind is not str:
            column = ("" if blank else repr(value) for value, blank in zip(column, next(masks)))
        cells.append(column)
    lines = [",".join(name for name, _, _, _ in table), *map(",".join, zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


# ---------------------------------------------------------------------------
# weather series

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


#: A series file's columns in file order, each (name, kind, low, high):
#: first the timestamp, of kind ``datetime``; a ``str`` zone, whose rows
#: are ordered apart; a ``float`` cell holds a finite number in [low,
#: high], a bound of None being open, and a ``float | None`` cell holds
#: one or is blank, which reads 0.0, so 0 lies in its range.  The
#: temperatures are held to the range the psychrometric model supports.
WEATHER_FORMAT = (
    ("timestamp", datetime, None, None),
    ("temp_air_c", float, T_MIN_C, T_MAX_C),
    ("rh_pct", float, 0.0, 100.0),
    ("solar_direct_w_m2", float, 0.0, None),
    ("solar_diffuse_w_m2", float, 0.0, None),
    ("wind_speed_m_s", float, 0.0, None),
    ("wind_dir_deg", float, None, None),
)
WEATHER_COLUMNS = tuple(name for name, _, _, _ in WEATHER_FORMAT)


def load_weather(path: str | Path) -> WeatherSeries:
    """Parse a weather CSV by :data:`WEATHER_FORMAT`, each timestamp after
    the one before.  The grid is checked when the series is simulated
    (:func:`ecodom.thermal.weather_grid`)."""
    timestamps, *columns = _load(path, WEATHER_FORMAT)
    return WeatherSeries(tuple(timestamps), *columns)


def write_weather(series: WeatherSeries, path: str | Path) -> None:
    _write_series(path, WEATHER_FORMAT, [series.timestamps, *(
        getattr(series, name) for name in WEATHER_COLUMNS[1:])])


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


#: The logger file's columns, as :data:`WEATHER_FORMAT` states them.
INDOOR_FORMAT = (
    ("timestamp", datetime, None, None),
    ("zone", str, None, None),
    ("temp_air_c", float, T_MIN_C, T_MAX_C),
    ("temp_resultant_c", float | None, T_MIN_C, T_MAX_C),
    ("rh_pct", float, 0.0, 100.0),
    ("air_speed_m_s", float | None, 0.0, None),
)
INDOOR_COLUMNS = tuple(name for name, _, _, _ in INDOOR_FORMAT)


def load_indoor(path: str | Path) -> IndoorSeries:
    """Logger samples in file order, parsed and checked by
    :data:`INDOOR_FORMAT`; the only place they are checked."""
    timestamps, zones, *columns = _load(path, INDOOR_FORMAT)
    return IndoorSeries(tuple(timestamps), tuple(zones), *columns)


def write_indoor(series: IndoorSeries, path: str | Path) -> None:
    _write_series(path, INDOOR_FORMAT, series)


# ---------------------------------------------------------------------------
# building description files

#: The building file format, stated once: ``errors.read_format`` reads by
#: it, and :func:`_write` writes by it, each object kind's keys in the
#: order they are listed.  An insulation layer or a facade membership
#: names no entity: its range faults are named within its roof, wall or
#: room.  ``schema_version`` is not a record field.
_AZIMUTH = Range(0.0, 360.0, high_open=True)
BUILDING_FORMAT = {
    "building": (bm.BuildingDescription, "building", (
        ("name", str, REQUIRED),
        ("latitude", Range(-90.0, 90.0), REQUIRED),
        ("longitude", Range(-180.0, 180.0), REQUIRED),
        ("dwelling_type", Range(1, kind=int), REQUIRED),
        ("vegetation_note", str, ""),
        ("roof", "roof", REQUIRED),
        ("walls", ["wall"], ()),
        ("windows", ["window"], ()),
        ("rooms", ["room"], ()),
        ("facade_pairs", ["facade_pair"], ()),
        ("water_heater", "water_heater", REQUIRED),
    )),
    "roof": (bm.RoofSpec, "roof", (
        ("color", bm.ColorClass, REQUIRED),
        ("attic", bm.AtticRegime, bm.AtticRegime.NONE),
        ("area_m2", POSITIVE, REQUIRED),
        ("insulation", "insulation", bm.NO_INSULATION),
    )),
    "insulation": (bm.InsulationLayer, None, (
        ("material", str, REQUIRED),
        ("conductivity_w_mk", POSITIVE, REQUIRED),
        ("thickness_cm", NON_NEGATIVE, REQUIRED),
        ("humidity_protected", bool, False),
    )),
    "wall": (bm.WallSpec, "wall {id}", (
        ("id", str, REQUIRED),
        ("construction", bm.WallConstruction, REQUIRED),
        ("color", bm.ColorClass, REQUIRED),
        ("azimuth_deg", _AZIMUTH, REQUIRED),
        ("area_m2", POSITIVE, REQUIRED),
        ("overhang_depth_m", NON_NEGATIVE, 0.0),
        ("overhang_height_m", float, 0.0),
        ("insulation", "insulation", bm.NO_INSULATION),
        ("full_shading", bool, False),
    )),
    "window": (bm.WindowSpec, "window {id}", (
        ("id", str, REQUIRED),
        ("azimuth_deg", _AZIMUTH, REQUIRED),
        ("glazed_area_m2", POSITIVE, REQUIRED),
        ("height_m", POSITIVE, REQUIRED),
        ("shading_case", bm.ShadingCase, bm.ShadingCase.CASE_2),
        ("overhang_depth_m", NON_NEGATIVE, 0.0),
        ("overhang_offset_m", NON_NEGATIVE, 0.0),
        ("mobile_shading", bool, False),
    )),
    "room": (bm.Room, "room {id}", (
        ("id", str, REQUIRED),
        ("kind", bm.RoomKind, REQUIRED),
        ("floor_level", int, 0),
        ("under_roof", bool, False),
        ("facades", ["facade"], ()),
        ("external_openings", ["external_opening"], ()),
        ("internal_openings", ["internal_opening"], ()),
    )),
    "facade": (bm.FacadeMembership, None, (
        ("facade_id", str, REQUIRED),
        ("gross_area_m2", POSITIVE, REQUIRED),
    )),
    "external_opening": (bm.Opening, "opening {id}", (
        ("id", str, REQUIRED),
        ("net_area_m2", NON_NEGATIVE, REQUIRED),
        ("facade_id", str, None),
    )),
    "internal_opening": (bm.Opening, "opening {id}", (
        ("id", str, REQUIRED),
        ("net_area_m2", NON_NEGATIVE, REQUIRED),
    )),
    "facade_pair": (bm.FacadePair, "facade pair {facade_1_id}/{facade_2_id}", (
        ("facade_1_id", str, REQUIRED),
        ("facade_2_id", str, REQUIRED),
        ("facade_1_area_m2", POSITIVE, REQUIRED),
        ("facade_2_area_m2", POSITIVE, REQUIRED),
    )),
    "water_heater": (bm.WaterHeaterSpec, "water heater", (
        ("kind", bm.WaterHeaterKind, REQUIRED),
        ("collector_area_m2", NON_NEGATIVE, 0.0),
        ("tank_volume_l", NON_NEGATIVE, 0.0),
        ("annual_productivity_kwh_m2", NON_NEGATIVE, 0.0),
        ("certified", bool, False),
    )),
}

def _write(record, kind: str) -> dict:
    """The object of ``kind`` that describes ``record``."""
    doc = {}
    for name, form, _ in BUILDING_FORMAT[kind][2]:
        value = getattr(record, name)
        if isinstance(form, str):
            value = _write(value, form)
        elif isinstance(form, list):
            value = [_write(item, form[0]) for item in value]
        elif not (form in JSON_TYPES or isinstance(form, Range)):
            value = value.value
        doc[name] = value
    return doc


def building_from_dict(doc: dict) -> bm.BuildingDescription:
    """Construct a description from a parsed building file; a malformed or
    unknown key, or a number out of its range, raises SeriesFormatError.
    The rules across fields and the references are left to
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
        raise bm.BuildingValidationError(issues, path)
    return description


def save_building(b: bm.BuildingDescription, path: str | Path) -> None:
    Path(path).write_text(json.dumps(building_to_dict(b), indent=2) + "\n", "utf-8")
