"""Reference implementations used only as test oracles.

Most deliberately share no code with the package: the sun position
oracle is the PSA algorithm (Blanco-Muriel et al., 2001), the saturation
pressure oracle is the Hyland-Wexler correlation, the shading oracle
casts rays against the overhang rectangle in 3-D, the integrator
oracle is the closed-form periodic response of a first-order lag, and
the radiant oracle walks the surfaces one by one, where
``thermal.simulate`` forms the radiant temperature from the step's
envelope flux sum, so the two agree to rounding, not bit for bit.

The others are per-point references: the form, one instant or one
sample at a time, of what the package computes over a whole series.
Its series must equal them exactly, so they share code with it:

* :func:`solar_position` gives one instant's :class:`SolarPosition`
  through ``ecodom.solar.sun_positions``, the package's sun routine;
* :func:`incidence_cosine`, :func:`surface_irradiance` and
  :func:`overhang_shading_fraction` are the expressions that
  ``thermal._SunTrack`` evaluates as per-step columns, with the
  package's ground albedo, in the same order of operations;
* :func:`classify` and :func:`upper_bound_at` test one sample against
  the comfort polygon extended for its air speed, the flags and bounds
  that ``comfort.discomfort_fraction`` takes in one pass; they use the
  zone's ``extended_vertices`` and ``comfort._point_in_polygon``;
* :func:`load_weather_rows` and :func:`load_indoor_rows` are the
  row-wise loaders the column parse of ``ecodom.dataio`` replaced: one
  named tuple per row, each value parsed and checked as the row is
  read, with ``dataio``'s cell parsers and ranges of their own, not
  ``dataio``'s column tables.  The columns of ``load_weather`` and
  ``load_indoor`` must hold their values bit for bit, and a bad file
  must raise their message.

The row types (:class:`WeatherRecord`, :class:`IndoorRecord`,
:class:`PsychroPoint`) and the converters between rows and the
package's column series let a test state a series row by row.
"""

from __future__ import annotations

import cmath
import math
from array import array
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from ecodom import dataio
from ecodom.comfort import DEFAULT_ZONE, ComfortZone, PsychroSeries, _point_in_polygon
from ecodom.dataio import IndoorSeries, SeriesFormatError, WeatherSeries
from ecodom.solar import GROUND_ALBEDO, sun_positions

_DEG = math.pi / 180.0
_EARTH_MEAN_RADIUS_KM = 6371.01
_ASTRONOMICAL_UNIT_KM = 149597890.0


def psa_solar_position(latitude: float, longitude: float,
                       when: datetime) -> tuple[float, float]:
    """(altitude_deg, azimuth_deg from North clockwise) via the PSA algorithm."""
    if when.tzinfo is not None:
        when = when.astimezone(timezone.utc)
    hours = when.hour + when.minute / 60.0 + when.second / 3600.0

    # Julian day with C-style truncating division, as published.
    aux1 = math.trunc((when.month - 14) / 12)
    aux2 = (math.trunc(1461 * (when.year + 4800 + aux1) / 4)
            + math.trunc(367 * (when.month - 2 - 12 * aux1) / 12)
            - math.trunc(3 * math.trunc((when.year + 4900 + aux1) / 100) / 4)
            + when.day - 32075)
    julian = aux2 - 0.5 + hours / 24.0
    n = julian - 2451545.0

    omega = 2.1429 - 0.0010394594 * n
    mean_longitude = 4.8950630 + 0.017202791698 * n
    mean_anomaly = 6.2400600 + 0.0172019699 * n
    ecl_longitude = (mean_longitude
                     + 0.03341607 * math.sin(mean_anomaly)
                     + 0.00034894 * math.sin(2 * mean_anomaly)
                     - 0.0001134 - 0.0000203 * math.sin(omega))
    ecl_obliquity = 0.4090928 - 6.2140e-9 * n + 0.0000396 * math.cos(omega)

    sin_long = math.sin(ecl_longitude)
    right_ascension = math.atan2(math.cos(ecl_obliquity) * sin_long,
                                 math.cos(ecl_longitude))
    if right_ascension < 0:
        right_ascension += 2 * math.pi
    declination = math.asin(math.sin(ecl_obliquity) * sin_long)

    gmst = 6.6974243242 + 0.0657098283 * n + hours
    lmst = math.radians(gmst * 15 + longitude)
    hour_angle = lmst - right_ascension
    lat = math.radians(latitude)

    zenith = math.acos(math.cos(lat) * math.cos(hour_angle) * math.cos(declination)
                       + math.sin(declination) * math.sin(lat))
    azimuth = math.atan2(
        -math.sin(hour_angle),
        math.tan(declination) * math.cos(lat) - math.sin(lat) * math.cos(hour_angle))
    if azimuth < 0:
        azimuth += 2 * math.pi
    zenith += (_EARTH_MEAN_RADIUS_KM / _ASTRONOMICAL_UNIT_KM) * math.sin(zenith)
    return 90.0 - math.degrees(zenith), math.degrees(azimuth)


class SolarPosition:
    """Sun altitude and azimuth in degrees (azimuth from North, clockwise)."""

    __slots__ = ("altitude_deg", "azimuth_deg")

    def __init__(self, altitude_deg: float, azimuth_deg: float):
        self.altitude_deg = altitude_deg
        self.azimuth_deg = azimuth_deg


def solar_position(latitude_deg: float, longitude_deg: float,
                   when: datetime) -> SolarPosition:
    """Sun altitude/azimuth for a location and one instant, as
    :func:`ecodom.solar.sun_positions` gives it."""
    (altitude,), (azimuth,) = sun_positions(latitude_deg, longitude_deg, (when,))
    return SolarPosition(altitude, azimuth)


def incidence_cosine(sun, surface_azimuth_deg: float,
                     surface_tilt_deg: float) -> float:
    """cos(incidence angle) of beam radiation on a tilted surface, clipped
    to 0 when the sun is behind the surface or below the horizon.

    ``sun`` has ``altitude_deg`` and ``azimuth_deg``.  Tilt 0 is
    horizontal (roof), 90 is vertical (wall).
    """
    if sun.altitude_deg <= 0.0:
        return 0.0
    alt = sun.altitude_deg * _DEG
    tilt = surface_tilt_deg * _DEG
    gamma = (sun.azimuth_deg - surface_azimuth_deg) * _DEG
    cos_theta = (math.sin(alt) * math.cos(tilt)
                 + math.cos(alt) * math.sin(tilt) * math.cos(gamma))
    return max(0.0, cos_theta)


def surface_irradiance(sun, direct_normal: float, diffuse_horizontal: float,
                       surface_azimuth_deg: float,
                       surface_tilt_deg: float) -> tuple[float, float]:
    """(beam, diffuse) irradiance in W/m2 on a tilted surface.

    Diffuse uses the isotropic sky model plus ground reflection
    (``GROUND_ALBEDO``) of the global horizontal.
    """
    beam = direct_normal * incidence_cosine(sun, surface_azimuth_deg, surface_tilt_deg)
    tilt = surface_tilt_deg * _DEG
    sky = diffuse_horizontal * (1.0 + math.cos(tilt)) / 2.0
    ghi = diffuse_horizontal
    if sun.altitude_deg > 0:
        ghi += direct_normal * math.sin(sun.altitude_deg * _DEG)
    ground = GROUND_ALBEDO * ghi * (1.0 - math.cos(tilt)) / 2.0
    return beam, sky + ground


def overhang_shading_fraction(depth_m: float, height_m: float, offset_m: float,
                              altitude_deg: float, azimuth_deg: float,
                              facade_azimuth_deg: float) -> float:
    """Fraction of a vertical surface shaded by an infinite-width
    horizontal overhang, with the sun at ``altitude_deg`` and
    ``azimuth_deg``.

    ``depth_m`` is the horizontal projection of the overhang, ``height_m``
    the vertical extent of the protected surface and ``offset_m`` the gap
    between the overhang underside and the top of that surface.  When the
    surface receives no beam at all (sun below the horizon or behind the
    facade) the result is 1.0: an unlit surface is fully "shaded" for
    gain purposes.  Callers pass a height > 0.
    """
    if altitude_deg <= 0.0:
        return 1.0
    gamma = math.cos((azimuth_deg - facade_azimuth_deg) * _DEG)
    if gamma <= 0.0:
        return 1.0
    # Shadow line below the overhang along the facade (profile angle projection).
    drop = depth_m * math.tan(altitude_deg * _DEG) / gamma
    shaded = min(max(drop - offset_m, 0.0), height_m)
    return shaded / height_m


class PsychroPoint(NamedTuple):
    """One sample on the psychrometric plane: a row of a
    :class:`~ecodom.comfort.PsychroSeries`."""

    temperature_c: float
    humidity_ratio_g_kg: float
    air_speed_m_s: float = 0.0


def psychro_series(points) -> PsychroSeries:
    """The columns of ``points``."""
    return PsychroSeries(*(array("d", [p[k] for p in points]) for k in range(3)))


def psychro_points(series: PsychroSeries) -> list[PsychroPoint]:
    return list(map(PsychroPoint, *series))


def upper_bound_at(zone: ComfortZone, air_speed_m_s: float) -> float:
    """Warm edge of ``zone`` extended for ``air_speed_m_s``, in degC."""
    return max(t for t, _ in zone.extended_vertices(air_speed_m_s))


def classify(point: PsychroPoint, zone: ComfortZone = DEFAULT_ZONE) -> bool:
    """True when the point lies inside (or on the boundary of) the zone,
    after the air-speed extension of the warm edge."""
    polygon = zone.extended_vertices(point.air_speed_m_s)
    return _point_in_polygon(point.temperature_c, point.humidity_ratio_g_kg, polygon)


def hyland_wexler_pws(t_c: float) -> float:
    """Saturation pressure over liquid water in Pa (Hyland-Wexler, 1983)."""
    t = t_c + 273.15
    ln_p = (-5.8002206e3 / t
            + 1.3914993
            - 4.8640239e-2 * t
            + 4.1764768e-5 * t ** 2
            - 1.4452093e-8 * t ** 3
            + 6.5459673 * math.log(t))
    return math.exp(ln_p)


def ray_sampled_shading(depth: float, height: float, offset: float,
                        sun_altitude_deg: float, sun_azimuth_deg: float,
                        facade_azimuth_deg: float,
                        samples: int = 20000, seed: int = 0) -> float:
    """Shaded fraction of a vertical strip by ray casting against the
    overhang rectangle (width made effectively infinite).

    Convention matches the analytic path: a surface receiving no beam at
    all counts as fully shaded.
    """
    alt = math.radians(sun_altitude_deg)
    az = math.radians(sun_azimuth_deg)
    gamma = math.radians(facade_azimuth_deg)
    # Sun direction (towards the sun) in East-North-Up coordinates.
    s_enu = np.array([math.sin(az) * math.cos(alt),
                      math.cos(az) * math.cos(alt),
                      math.sin(alt)])
    normal = np.array([math.sin(gamma), math.cos(gamma), 0.0])
    along = np.array([math.cos(gamma), -math.sin(gamma), 0.0])
    s_local = np.array([s_enu @ along, s_enu @ normal, s_enu[2]])
    if sun_altitude_deg <= 0 or s_local[1] <= 0:
        return 1.0

    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, samples)          # along-facade position
    z = rng.uniform(0.0, height, samples)        # height on the surface
    overhang_z = height + offset
    if s_local[2] <= 0:
        return 0.0  # sun above horizon but rays never rise to the overhang
    t = (overhang_z - z) / s_local[2]
    y_hit = t * s_local[1]
    x_hit = x + t * s_local[0]
    hits = (t > 0) & (y_hit <= depth) & (np.abs(x_hit) <= 5e5)
    return float(np.count_nonzero(hits)) / samples


def first_order_response(tau_s: float, omega_rad_s: float,
                         dt_s: float | None = None) -> tuple[float, float]:
    """(amplitude ratio, lag in radians) of the periodic response of
    ``tau dT/dt = T_out - T`` to a sinusoidal ``T_out`` of angular
    frequency ``omega``.

    With ``dt_s`` None, the continuous answer: ``1 / sqrt(1 + (w tau)^2)``
    and ``atan(w tau)``.  Otherwise that of the backward-Euler recurrence
    ``T_n = a T_(n-1) + (1 - a) T_out,n`` with ``a = 1 / (1 + dt / tau)``,
    at the step instants: ``H = (1 - a) / (1 - a exp(-i w dt))``.
    """
    if dt_s is None:
        response = 1.0 / complex(1.0, omega_rad_s * tau_s)
    else:
        a = 1.0 / (1.0 + dt_s / tau_s)
        response = (1.0 - a) / (1.0 - a * cmath.exp(-1j * omega_rad_s * dt_s))
    return abs(response), -cmath.phase(response)


def area_weighted_radiant(zone, result) -> list[float]:
    """The area-weighted mean of the inner-surface temperatures of each
    step, each surface at ``t_air + q / (h_in A)`` behind its inner film,
    with ``q`` its conducted gain from ``result.surface_gains_w``; the
    air temperature for a zone without surfaces."""
    total_area = sum(s.area_m2 for s in zone.surfaces)
    if total_area <= 0:
        return list(result.t_air_c)
    r_film_in = 1.0 / zone.h_interior
    weighted = [0.0] * len(result.t_air_c)
    for surface in zone.surfaces:
        area = surface.area_m2
        weighted = [acc + area * (t + (q / area) * r_film_in) for acc, t, q in
                    zip(weighted, result.t_air_c, result.surface_gains_w[surface.name])]
    return [acc / total_area for acc in weighted]


# ---------------------------------------------------------------------------
# series row by row

class WeatherRecord(NamedTuple):
    timestamp: datetime
    temp_air_c: float
    rh_pct: float
    solar_direct_w_m2: float
    solar_diffuse_w_m2: float
    wind_speed_m_s: float
    wind_dir_deg: float


class IndoorRecord(NamedTuple):
    """One logger sample, as the file holds it: a blank cell is None."""

    timestamp: datetime
    zone: str
    temp_air_c: float
    temp_resultant_c: float | None
    rh_pct: float
    air_speed_m_s: float | None


def weather_series(records) -> WeatherSeries:
    """The column series of weather ``records``."""
    columns = list(zip(*records)) or [()] * len(WeatherRecord._fields)
    return WeatherSeries(tuple(columns[0]), *(array("d", c) for c in columns[1:]))


def weather_records(series: WeatherSeries) -> tuple[WeatherRecord, ...]:
    return tuple(map(WeatherRecord, series.timestamps, series.temp_air_c, series.rh_pct,
                     series.solar_direct_w_m2, series.solar_diffuse_w_m2,
                     series.wind_speed_m_s, series.wind_dir_deg))


def indoor_series(records) -> IndoorSeries:
    """The column series of logger ``records``; a blank (None) cell is a
    1 in its mask and 0.0 in its column."""
    records = tuple(records)
    return IndoorSeries(
        tuple(r.timestamp for r in records), tuple(r.zone for r in records),
        array("d", [r.temp_air_c for r in records]),
        array("d", [0.0 if r.temp_resultant_c is None else r.temp_resultant_c
                    for r in records]),
        array("d", [r.rh_pct for r in records]),
        array("d", [0.0 if r.air_speed_m_s is None else r.air_speed_m_s for r in records]),
        bytes(r.temp_resultant_c is None for r in records),
        bytes(r.air_speed_m_s is None for r in records))


def indoor_records(series: IndoorSeries) -> tuple[IndoorRecord, ...]:
    return tuple(
        IndoorRecord(ts, zone, air, None if no_resultant else resultant, rh,
                     None if no_speed else speed)
        for ts, zone, air, resultant, rh, speed, no_resultant, no_speed in zip(*series))


def _rows(path, columns: tuple[str, ...]):
    """Yield ``(line_no, cells)`` for each non-blank line after the header."""
    lines = dataio._read_lines(path, columns)
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise SeriesFormatError(
                f"line {line_no}: expected {len(columns)} columns, got {len(cells)}")
        yield line_no, cells


def _number(text: str, column: str, line_no: int, low: float | None = None,
            high: float | None = None) -> float:
    """A number cell, parsed, then held to [low, high]."""
    value = dataio._parse_float(text, column, line_no)
    if high is not None and not low <= value <= high:
        raise SeriesFormatError(f"line {line_no}: {column} {value} outside [{low:g}, {high:g}]")
    if low is not None and value < low:
        raise SeriesFormatError(f"line {line_no}: {column} {value} must be >= {low:g}")
    return value


def load_weather_rows(path) -> tuple[WeatherRecord, ...]:
    """Parse a weather CSV row by row: the timestamp, after the previous
    row's, then each value in column order."""
    records = []
    last_ts: datetime | None = None
    for line_no, cells in _rows(path, dataio.WEATHER_COLUMNS):
        ts = dataio._parse_timestamp(cells[0], line_no)
        if last_ts is not None and ts <= last_ts:
            raise SeriesFormatError(
                f"line {line_no}: timestamp {cells[0]} not after previous record")
        last_ts = ts
        records.append(WeatherRecord(
            ts,
            _number(cells[1], "temp_air_c", line_no, -20.0, 60.0),
            _number(cells[2], "rh_pct", line_no, 0.0, 100.0),
            _number(cells[3], "solar_direct_w_m2", line_no, 0.0),
            _number(cells[4], "solar_diffuse_w_m2", line_no, 0.0),
            _number(cells[5], "wind_speed_m_s", line_no, 0.0),
            _number(cells[6], "wind_dir_deg", line_no),
        ))
    return tuple(records)


def load_indoor_rows(path) -> tuple[IndoorRecord, ...]:
    """Parse a logger CSV row by row: the timestamp, the zone and its
    order, then each value in column order; a row that repeats the
    previous row's timestamp text reuses its parse."""
    records = []
    last_ts: dict[str, datetime] = {}
    text, timestamp = None, None
    for line_no, parts in _rows(path, dataio.INDOOR_COLUMNS):
        if parts[0] != text:
            text, timestamp = parts[0], dataio._parse_timestamp(parts[0], line_no)
        zone = parts[1]
        prev = last_ts.get(zone)
        if prev is None:
            if not zone.strip():
                raise SeriesFormatError(f"line {line_no}: zone is blank")
        elif timestamp <= prev:
            raise SeriesFormatError(f"line {line_no}: timestamp {parts[0]} not after "
                                    f"previous record of zone {zone}")
        last_ts[zone] = timestamp
        air = _number(parts[2], "temp_air_c", line_no, -20.0, 60.0)
        resultant = (None if parts[3] == ""
                     else _number(parts[3], "temp_resultant_c", line_no, -20.0, 60.0))
        rh = _number(parts[4], "rh_pct", line_no, 0.0, 100.0)
        speed = None if parts[5] == "" else _number(parts[5], "air_speed_m_s", line_no, 0.0)
        records.append(IndoorRecord(timestamp, zone, air, resultant, rh, speed))
    return tuple(records)
