"""File ingestion: weather series, indoor monitoring series and building
description files.  No model code: the reference hot-season week lives
with the archetype flats in :mod:`ecodom.archetypes`.

All series files are CSV with ISO-8601 UTC timestamps and fixed, versioned
headers; building descriptions are JSON (see docs/formats.md).  Floats are
written with Python's shortest repr so load(write(series)) round-trips
exactly.  A row of an indoor file that repeats the previous row's
timestamp, as the zones of an interleaved logger file do, reuses its
parse.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from . import building as bm
from .comfort import T_MAX_C, T_MIN_C
from .errors import InputError, field, read_json

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


def _parse_timestamp(text: str, line_no: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
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

    Not a tuple: ``len()`` counts records, and ``thermal.simulate`` holds
    its stage 1 per (latitude, longitude) in ``sun_tracks``, which this
    module never reads.  A series holding that memo compares by identity;
    compare ``records`` for equal weather.
    """

    __slots__ = ("records", "sun_tracks", "__weakref__")

    def __init__(self, records: tuple[WeatherRecord, ...]):
        self.records = records
        self.sun_tracks: dict = {}

    def __len__(self) -> int:
        return len(self.records)


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
            timestamp=ts,
            temp_air_c=_parse_temperature(cells[1], "temp_air_c", line_no),
            rh_pct=_parse_float(cells[2], "rh_pct", line_no),
            solar_direct_w_m2=_parse_float(cells[3], "solar_direct_w_m2", line_no),
            solar_diffuse_w_m2=_parse_float(cells[4], "solar_diffuse_w_m2", line_no),
            wind_speed_m_s=_parse_float(cells[5], "wind_speed_m_s", line_no),
            wind_dir_deg=_parse_float(cells[6], "wind_dir_deg", line_no),
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
    """One logger sample."""

    timestamp: datetime
    zone: str
    temp_air_c: float
    temp_resultant_c: float | None
    rh_pct: float
    air_speed_m_s: float | None

    @property
    def comfort_temperature_c(self) -> float:
        """Resultant temperature when measured, else dry bulb."""
        if self.temp_resultant_c is not None:
            return self.temp_resultant_c
        return self.temp_air_c


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

def _insulation_from_dict(doc: dict | None) -> bm.InsulationLayer:
    if doc is None:
        return bm.NO_INSULATION
    return bm.InsulationLayer(
        material_name=field(doc, "material", str),
        conductivity_w_mk=field(doc, "conductivity_w_mk", float),
        thickness_cm=field(doc, "thickness_cm", float),
        humidity_protected=field(doc, "humidity_protected", bool, False),
    )


def _insulation_to_dict(layer: bm.InsulationLayer) -> dict:
    return {
        "material": layer.material_name,
        "conductivity_w_mk": layer.conductivity_w_mk,
        "thickness_cm": layer.thickness_cm,
        "humidity_protected": layer.humidity_protected,
    }


def _openings(docs: list[dict]) -> tuple[bm.Opening, ...]:
    return tuple(bm.Opening(
        id=field(d, "id", str),
        net_area_m2=field(d, "net_area_m2", float),
        facade_id=None if d.get("facade_id") is None else field(d, "facade_id", str),
    ) for d in docs)


def building_from_dict(doc: dict) -> bm.BuildingDescription:
    """Construct a description from parsed JSON.

    A missing field or a value of the wrong JSON type raises
    ValueError/TypeError, as does a value a constructor refuses; semantic
    problems are left to :func:`building.validate`.
    """
    version = doc.get("schema_version")
    if version != BUILDING_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"building schema version {version!r} not supported "
            f"(expected {BUILDING_SCHEMA_VERSION})")
    roof_doc = field(doc, "roof", dict)
    roof = bm.RoofSpec(
        color=bm.ColorClass(field(roof_doc, "color", str)),
        attic=bm.AtticRegime(field(roof_doc, "attic", str, "none")),
        insulation=_insulation_from_dict(roof_doc.get("insulation")),
        area_m2=field(roof_doc, "area_m2", float),
    )
    walls = tuple(bm.WallSpec(
        id=field(w, "id", str),
        construction=bm.WallConstruction(field(w, "construction", str)),
        color=bm.ColorClass(field(w, "color", str)),
        azimuth_deg=field(w, "azimuth_deg", float),
        area_m2=field(w, "area_m2", float),
        overhang_depth_m=field(w, "overhang_depth_m", float, 0.0),
        overhang_height_m=field(w, "overhang_height_m", float, 0.0),
        insulation=_insulation_from_dict(w.get("insulation")),
        full_shading=field(w, "full_shading", bool, False),
    ) for w in field(doc, "walls", list, []))
    windows = tuple(bm.WindowSpec(
        id=field(w, "id", str),
        azimuth_deg=field(w, "azimuth_deg", float),
        glazed_area_m2=field(w, "glazed_area_m2", float),
        height_m=field(w, "height_m", float),
        shading_case=bm.ShadingCase(field(w, "shading_case", str, "case2")),
        overhang_depth_m=field(w, "overhang_depth_m", float, 0.0),
        overhang_offset_m=field(w, "overhang_offset_m", float, 0.0),
        mobile_shading=field(w, "mobile_shading", bool, False),
    ) for w in field(doc, "windows", list, []))
    rooms = tuple(bm.Room(
        id=field(r, "id", str),
        kind=bm.RoomKind(field(r, "kind", str)),
        floor_level=field(r, "floor_level", int, 0),
        under_roof=field(r, "under_roof", bool, False),
        facades=tuple(bm.FacadeMembership(field(m, "facade_id", str),
                                          field(m, "gross_area_m2", float))
                      for m in field(r, "facades", list, [])),
        external_openings=_openings(field(r, "external_openings", list, [])),
        internal_openings=_openings(field(r, "internal_openings", list, [])),
    ) for r in field(doc, "rooms", list, []))
    pairs = tuple(bm.FacadePair(
        facade_1_id=field(p, "facade_1_id", str),
        facade_2_id=field(p, "facade_2_id", str),
        facade_1_area_m2=field(p, "facade_1_area_m2", float),
        facade_2_area_m2=field(p, "facade_2_area_m2", float),
    ) for p in field(doc, "facade_pairs", list, []))
    heater_doc = field(doc, "water_heater", dict)
    heater = bm.WaterHeaterSpec(
        kind=bm.WaterHeaterKind(field(heater_doc, "kind", str)),
        collector_area_m2=field(heater_doc, "collector_area_m2", float, 0.0),
        tank_volume_l=field(heater_doc, "tank_volume_l", float, 0.0),
        annual_productivity_kwh_m2=field(heater_doc, "annual_productivity_kwh_m2",
                                         float, 0.0),
        certified=field(heater_doc, "certified", bool, False),
    )
    return bm.BuildingDescription(
        name=field(doc, "name", str),
        latitude=field(doc, "latitude", float),
        longitude=field(doc, "longitude", float),
        dwelling_type=field(doc, "dwelling_type", int),
        roof=roof,
        walls=walls,
        windows=windows,
        rooms=rooms,
        facade_pairs=pairs,
        water_heater=heater,
        vegetation_note=field(doc, "vegetation_note", str, ""),
    )


def building_to_dict(b: bm.BuildingDescription) -> dict:
    return {
        "schema_version": BUILDING_SCHEMA_VERSION,
        "name": b.name,
        "latitude": b.latitude,
        "longitude": b.longitude,
        "dwelling_type": b.dwelling_type,
        "vegetation_note": b.vegetation_note,
        "roof": {
            "color": b.roof.color.value,
            "attic": b.roof.attic.value,
            "area_m2": b.roof.area_m2,
            "insulation": _insulation_to_dict(b.roof.insulation),
        },
        "walls": [{
            "id": w.id,
            "construction": w.construction.value,
            "color": w.color.value,
            "azimuth_deg": w.azimuth_deg,
            "area_m2": w.area_m2,
            "overhang_depth_m": w.overhang_depth_m,
            "overhang_height_m": w.overhang_height_m,
            "insulation": _insulation_to_dict(w.insulation),
            "full_shading": w.full_shading,
        } for w in b.walls],
        "windows": [{
            "id": w.id,
            "azimuth_deg": w.azimuth_deg,
            "glazed_area_m2": w.glazed_area_m2,
            "height_m": w.height_m,
            "shading_case": w.shading_case.value,
            "overhang_depth_m": w.overhang_depth_m,
            "overhang_offset_m": w.overhang_offset_m,
            "mobile_shading": w.mobile_shading,
        } for w in b.windows],
        "rooms": [{
            "id": r.id,
            "kind": r.kind.value,
            "floor_level": r.floor_level,
            "under_roof": r.under_roof,
            "facades": [{"facade_id": m.facade_id, "gross_area_m2": m.gross_area_m2}
                        for m in r.facades],
            "external_openings": [{"id": o.id, "net_area_m2": o.net_area_m2,
                                   "facade_id": o.facade_id}
                                  for o in r.external_openings],
            "internal_openings": [{"id": o.id, "net_area_m2": o.net_area_m2}
                                  for o in r.internal_openings],
        } for r in b.rooms],
        "facade_pairs": [{
            "facade_1_id": p.facade_1_id,
            "facade_2_id": p.facade_2_id,
            "facade_1_area_m2": p.facade_1_area_m2,
            "facade_2_area_m2": p.facade_2_area_m2,
        } for p in b.facade_pairs],
        "water_heater": {
            "kind": b.water_heater.kind.value,
            "collector_area_m2": b.water_heater.collector_area_m2,
            "tank_volume_l": b.water_heater.tank_volume_l,
            "annual_productivity_kwh_m2": b.water_heater.annual_productivity_kwh_m2,
            "certified": b.water_heater.certified,
        },
    }


def _unknown_keys(doc, known, where: str = ""):
    """Paths of the keys of ``doc``, a parsed building file, that
    ``known`` lacks; ``known`` is the loaded description as
    :func:`building_to_dict` writes it, with every key the loader reads."""
    if isinstance(doc, dict) and isinstance(known, dict):
        for key, value in doc.items():
            path = f"{where}.{key}" if where else key
            if key in known:
                yield from _unknown_keys(value, known[key], path)
            else:
                yield path
    elif isinstance(doc, list) and isinstance(known, list):
        for i, (value, ref) in enumerate(zip(doc, known)):
            yield from _unknown_keys(value, ref, f"{where}[{i}]")


def load_building(path: str | Path) -> bm.BuildingDescription:
    """Load and validate a building description file; a key the format
    does not define is refused by its path."""
    doc = read_json(path, SeriesFormatError)
    try:
        description = building_from_dict(doc)
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise SeriesFormatError(f"{path}: missing or malformed field: {exc}") from exc
    unknown = list(_unknown_keys(doc, building_to_dict(description)))
    if unknown:
        raise SeriesFormatError(f"{path}: unknown key {', '.join(unknown)}")
    issues = bm.validate(description)
    if issues:
        raise bm.BuildingValidationError(issues)
    return description


def save_building(b: bm.BuildingDescription, path: str | Path) -> None:
    Path(path).write_text(json.dumps(building_to_dict(b), indent=2) + "\n", "utf-8")

