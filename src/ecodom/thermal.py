"""Single-zone transient thermal and airflow model.

One air+fabric node with a lumped capacitance, envelope conduction driven
by per-surface sol-air temperatures, beam shading from overhang geometry,
transmitted solar through glazing and wind-driven cross ventilation
through an orifice pair in series.  Deliberately simple: the point is to
rank designs and quantify the effect of solar protection and porosity,
not to reproduce a research-grade multizone code.

The state update is an unconditionally stable implicit (backward Euler)
step.  Each step solves the discrete balance exactly, so the per-step
energy residual closes at machine precision by construction: it checks
the solve, and cannot see the step's first-order error in dt, which
only a finer step or the continuous solution shows.

:func:`simulate` runs in three stages:

1. weather and site only, and the only stage that reads the
   ``WeatherSeries``: every grid check, in :func:`weather_grid` (one
   base step, whole multiples of it, no gap, at most one hour, at least
   24 hours covered), then a track holding per-step columns: the
   series' own ``array('d')`` columns, read as the loader built them
   with no copy or transpose, the sun's altitude and azimuth
   (:func:`~ecodom.solar.sun_positions`, one call for the whole series),
   the sun-up mask, the sine and cosine of the altitude and the global
   horizontal irradiance.  Filled on first use, it also holds one beam
   irradiance column per (azimuth, tilt), one diffuse column per tilt,
   one shading column per overhang geometry and, from the first export
   of a result on it, each row's timestamp and outdoor temperature
   text.  The series holds the track, per (latitude, longitude), so
   every zone simulated on the same series object at the same site
   shares all of these, a paired or repeated run computes them once,
   and they die with the series.  The series' columns are taken as
   fixed: a column changed in place after a run does not remake what
   the track derived from it;
2. per zone: from the shading each surface states (set by
   :func:`zone_from_building`), one effective-irradiance column per
   distinct (orientation, shading), which dies with the run, and one
   sol-air column per distinct (orientation, shading, absorptivity,
   exterior film), each shared by the surfaces with those inputs, and
   the solar transmitted through the glazing.  The track keeps the
   sol-air table of the last zone run on it, until the next zone's
   replaces it: a zone takes from it the columns it shares with that
   zone, so a pair computes a column they share once;
3. the ventilation and internal-gains columns, the backward-Euler
   recurrence, then the flows, and one walk of the surface flows per
   step whose envelope sum gives both the energy residual and the
   radiant temperature, with the arithmetic of the per-step balance in
   the same order.

The :class:`SimulationResult` is a named tuple of series, one value per
step.  Every per-step column that stages 2 and 3 keep, and every series
of the result, the outdoor temperature included, is an ``array('d')``: 8
bytes a value, where a list of floats takes 32.  A year of one zone
holds some forty such columns; only the running sum of the
transmitted solar is a list while it is built.  :func:`result_to_csv`
writes the export to an open file in chunks of rows, so no whole-file
string is built either.
"""

import math
from array import array
from collections.abc import Sequence
from datetime import datetime, timedelta, timezone
from itertools import chain, islice, repeat
from operator import mul, sub
from typing import NamedTuple, TextIO

from .building import BuildingDescription, facade_porosities
from .dataio import SeriesFormatError, WeatherSeries
from .errors import InputError, is_number, load_json, read_format
from .solar import DEG, GROUND_ALBEDO, sun_positions

AIR_DENSITY = 1.2          # kg/m3
AIR_HEAT_CAPACITY = 1006.0  # J/(kg.K)

DEFAULT_H_EXTERIOR = 25.0  # W/(m2.K)
DEFAULT_H_INTERIOR = 8.0   # W/(m2.K)
DEFAULT_CD = 0.6
DEFAULT_DELTA_CP = 0.5

# Lumped capacitance presets per m2 of floor, J/(K.m2).  Calibration
# knobs for the two construction weights, not published constants.
MASS_CLASS_CAPACITANCE = {
    "light": 80e3,
    "heavy": 260e3,
}

#: Bare roof construction (sheet, air space, ceiling board), m2.K/W,
#: added to every roof under its insulation.
ROOF_DECK_RESISTANCE = 0.2


class SurfaceModel(NamedTuple):
    """One envelope surface of the zone.

    ``resistance_m2k_w`` is the full conduction chain including both film
    coefficients.  ``shading`` is the beam shading fraction when it does
    not depend on the sun (0.0 unshaded, 1.0 fully shaded), else the
    overhang key (depth, height, offset, azimuth) of the sun track's
    shading column, evaluated against the sun position each step.
    ``solar_transmittance`` is nonzero for glazing only.
    """

    name: str
    kind: str  # roof | wall | window
    area_m2: float
    azimuth_deg: float
    tilt_deg: float
    absorptivity: float
    resistance_m2k_w: float
    shading: float | tuple[float, float, float, float] = 0.0
    solar_transmittance: float = 0.0


class VentilationApertures(NamedTuple):
    """Inlet/outlet opening pair of the cross-ventilation path."""

    inlet_area_m2: float
    outlet_area_m2: float
    discharge_coefficient: float = DEFAULT_CD
    delta_cp: float = DEFAULT_DELTA_CP


def ventilation_ach(apertures: VentilationApertures, volume_m3: float,
                    wind_speed_m_s: float) -> float:
    """Air changes per hour for wind-driven cross ventilation.

    Orifice-in-series model: Q = Cd * Aeq * U * sqrt(dCp) with
    Aeq = (Ain^-2 + Aout^-2)^(-1/2).  The wind is taken as normal to the
    inlet; either aperture at zero kills the flow entirely.
    """
    a_in, a_out = apertures.inlet_area_m2, apertures.outlet_area_m2
    if a_in <= 0.0 or a_out <= 0.0 or wind_speed_m_s <= 0.0:
        return 0.0
    try:
        a_eq = (a_in ** -2 + a_out ** -2) ** -0.5
    except (OverflowError, ZeroDivisionError) as exc:
        raise InputError(
            f"aperture areas {a_in} and {a_out} m2 are out of scale") from exc
    flow = (apertures.discharge_coefficient * a_eq * wind_speed_m_s
            * math.sqrt(apertures.delta_cp))
    return 3600.0 * flow / volume_m3


class ZoneModel(NamedTuple):
    """Lumped single-zone model ready to simulate.

    ``internal_gains_w`` is either a constant or a daily schedule: a
    sequence of 24 hourly values indexed by the timestamp's UTC hour
    whatever its offset (a naive timestamp is UTC), not local time (at
    Reunion, UTC+4, a 19:00 local peak goes at index 15), cycled over
    the simulated period.
    """

    name: str
    latitude: float
    longitude: float
    volume_m3: float
    capacitance_j_k: float
    surfaces: tuple[SurfaceModel, ...]
    apertures: VentilationApertures
    internal_gains_w: float | tuple[float, ...] = 0.0
    h_exterior: float = DEFAULT_H_EXTERIOR
    h_interior: float = DEFAULT_H_INTERIOR


class WeatherGapError(InputError):
    def __init__(self, missing):
        self.missing = list(missing)
        stamps = ", ".join(str(t) for t in self.missing[:6])
        more = "" if len(self.missing) <= 6 else f" (+{len(self.missing) - 6} more)"
        super().__init__(f"weather series has missing steps: {stamps}{more}")


class SimulationResult(NamedTuple("SimulationResult", (
        ("timestamps", tuple[datetime, ...]),
        ("t_out_c", array),
        ("t_air_c", array),
        ("t_radiant_c", array),
        ("t_resultant_c", array),
        ("ach", array),
        ("surface_gains_w", dict[str, array]),
        ("window_solar_w", array),
        ("ventilation_gain_w", array),
        ("internal_gain_w", array),
        ("surface_kinds", dict[str, str]),
        ("max_residual_fraction", float)))):
    """Hourly (or finer) output series, one entry per weather record;
    ``len(result.timestamps)`` counts the steps.

    Every per-step series is an ``array('d')``, 8 bytes a value, as
    ``simulate`` built it or, for ``t_out_c``, as the weather holds it;
    it is not copied, so a caller that changes one changes the result.

    A result that :func:`simulate` made also holds, outside its fields
    and so outside its equality, the sun track it ran on (``_track``):
    :func:`result_to_csv` reads the texts that every result on that track
    shares from it.  A copy made by ``_replace`` holds no track.
    """

    _track = None

    def mean_resultant_c(self) -> float:
        return sum(self.t_resultant_c) / len(self.t_resultant_c)

    def peak_resultant_c(self) -> float:
        return max(self.t_resultant_c)


def weather_grid(timestamps: Sequence[datetime]) -> float:
    """Base step, in seconds, of increasing timestamps on a whole grid.

    The base step is the smallest spacing.  Every spacing must be a
    positive whole multiple of it and no more steps may be missing than
    there are timestamps, else SeriesFormatError; a missing step raises
    :class:`WeatherGapError` listing the missing instants; the step must
    be one hour or finer and the series must cover at least 24 hours,
    else InputError.
    """
    if len(timestamps) < 2:
        raise SeriesFormatError("weather series too short")
    first = timestamps[1] - timestamps[0]
    if first > timedelta(0) and all(map(first.__eq__, map(sub, timestamps[1:], timestamps))):
        step_s = first.total_seconds()  # uniform: no spacing to name, no step missing
    else:
        step_s = _base_step(timestamps)
    if step_s > 3600.0 + 1e-6:
        raise InputError("weather step must be one hour or finer")
    span = (timestamps[-1] - timestamps[0]).total_seconds()
    if span + step_s < 24 * 3600.0 - 1e-6:
        raise InputError("weather must cover at least 24 hours")
    return step_s


def _base_step(timestamps: Sequence[datetime]) -> float:
    """The base step, in seconds, of a grid whose spacings differ, after
    the spacing and gap checks of :func:`weather_grid`."""
    spans = [(b - a).total_seconds() for a, b in zip(timestamps, timestamps[1:])]
    step_s = min(spans)
    if step_s <= 0:
        at = timestamps[spans.index(step_s) + 1]
        raise SeriesFormatError(f"timestamp {at} not after previous record")
    multiples = [round(span / step_s) for span in spans]
    for b, span, n in zip(timestamps[1:], spans, multiples):
        if abs(span / step_s - n) > 1e-6:
            raise SeriesFormatError(
                f"weather spacing at {b} is not a multiple of "
                f"the {step_s:.0f}s base step")
    n_missing = sum(multiples) - len(spans)
    if n_missing > len(timestamps):
        raise SeriesFormatError(
            f"weather series misses {n_missing} steps of {step_s:.0f}s, "
            f"more than its {len(timestamps)} records")
    if n_missing:
        step = timedelta(seconds=step_s)
        raise WeatherGapError(a + k * step for a, n in zip(timestamps, multiples)
                              for k in range(1, n))
    return step_s


class _SunTrack:
    """Stage 1: what a run takes from the weather series and the site alone.

    The grid checks (:func:`weather_grid`) and the sun columns are made
    on creation: the sun's altitude and azimuth, the sun-up mask, the
    sine and cosine of the altitude, and the global horizontal
    irradiance.  The track keeps the weather columns it reads, never the
    series itself, so the series that holds the track forms no reference
    cycle with it.  The beam column
    of an (azimuth, tilt), the diffuse column of a tilt and the shading
    column of an overhang geometry are filled the first time a zone on
    the track needs them, and kept as long as the track.

    Two more tables are kept across runs.  ``sol_air`` holds the sol-air
    columns of the last zone run on the track, keyed by (orientation,
    shading, absorptivity, exterior film): the next zone reuses those it
    shares, then :func:`_forcing` replaces the table with its own, so one
    zone's table at most outlives its run.  ``row_heads``, filled by the
    first export of a result on the track (:meth:`heads`), holds each
    row's timestamp and outdoor temperature text for every later export.
    """

    __slots__ = ("step_s", "timestamps", "t_out", "direct", "diffuse", "wind",
                 "altitude", "azimuth", "up", "sin_alt", "cos_alt", "global_horizontal",
                 "irradiance", "tilted_diffuse", "shading", "sol_air", "row_heads")

    def __init__(self, weather: WeatherSeries, latitude: float, longitude: float):
        self.timestamps = weather.timestamps
        self.step_s = weather_grid(self.timestamps)
        self.t_out, self.direct = weather.temp_air_c, weather.solar_direct_w_m2
        self.diffuse, self.wind = weather.solar_diffuse_w_m2, weather.wind_speed_m_s
        altitude, azimuth = sun_positions(latitude, longitude, self.timestamps)
        self.altitude, self.azimuth = array("d", altitude), array("d", azimuth)
        self.up = bytes(a > 0.0 for a in altitude)
        self.sin_alt = array("d", [math.sin(a * DEG) for a in altitude])
        self.cos_alt = array("d", [math.cos(a * DEG) for a in altitude])
        self.global_horizontal = array("d", [
            dhi + dni * s if up else dhi
            for up, s, dni, dhi in zip(self.up, self.sin_alt, self.direct, self.diffuse)])
        self.irradiance: dict[tuple[float, float], tuple[array, array]] = {}
        self.tilted_diffuse: dict[float, array] = {}
        self.shading: dict[tuple[float, float, float, float], array] = {}
        self.sol_air: dict[tuple, array] = {}
        self.row_heads: list[str] | None = None

    def fill(self, orientations, geometries) -> None:
        """Compute the irradiance columns of ``orientations`` and the
        shading columns of the overhang ``geometries`` not yet held."""
        for orientation in orientations:
            if orientation not in self.irradiance:
                self.irradiance[orientation] = self._irradiance(*orientation)
        for geometry in geometries:
            if geometry not in self.shading:
                self.shading[geometry] = self._shading(*geometry)

    def _irradiance(self, azimuth: float, tilt: float) -> tuple[array, array]:
        """(beam, diffuse) columns in W/m2 on a surface of ``azimuth`` and
        ``tilt`` (0 horizontal, 90 vertical): the beam through the cosine
        of incidence, clipped to 0 when the sun is behind the surface or
        below the horizon, and the diffuse from an isotropic sky plus the
        ground's reflection (:data:`GROUND_ALBEDO`) of the global
        horizontal.  The diffuse depends on the tilt alone, so the
        orientations of one tilt share one diffuse column."""
        sin_tilt, cos_tilt = math.sin(tilt * DEG), math.cos(tilt * DEG)
        cos = math.cos
        # dni * max(0.0, cos_incidence), with the comparison inline
        beam = array("d", [
            dni * (c if (c := s * cos_tilt + ca * sin_tilt * cos((z - azimuth) * DEG)) > 0.0
                   else 0.0) if up else dni * 0.0
            for up, s, ca, z, dni in zip(self.up, self.sin_alt, self.cos_alt,
                                         self.azimuth, self.direct)])
        diffuse = self.tilted_diffuse.get(tilt)
        if diffuse is None:
            sky_view, ground_view = 1.0 + cos_tilt, 1.0 - cos_tilt
            diffuse = self.tilted_diffuse[tilt] = array("d", [
                dhi * sky_view / 2.0 + GROUND_ALBEDO * ghi * ground_view / 2.0
                for dhi, ghi in zip(self.diffuse, self.global_horizontal)])
        return beam, diffuse

    def _shading(self, depth: float, height: float, offset: float,
                 azimuth: float) -> array:
        """Overhang shading column of a facade of ``azimuth``: the fraction
        of a surface ``height`` high that an infinite-width overhang
        ``depth`` deep, ``offset`` above the surface, shades from the beam.
        A surface the beam does not reach (the sun below the horizon or
        behind the facade) counts as fully shaded, 1.0."""
        cos, tan = math.cos, math.tan
        column = array("d")
        append = column.append
        for alt, z in zip(self.altitude, self.azimuth):
            if alt <= 0.0 or (gamma := cos((z - azimuth) * DEG)) <= 0.0:
                append(1.0)
                continue
            # the shadow line's drop below the overhang (profile angle
            # projection), less the offset, clipped to [0, height] as
            # min(max(drop - offset, 0.0), height)
            shaded = depth * tan(alt * DEG) / gamma - offset
            shaded = 0.0 if 0.0 > shaded else shaded
            append((height if height < shaded else shaded) / height)
        return column

    def heads(self) -> list[str]:
        """The export's row heads (:func:`_row_heads`) on this track, made
        on the first call and kept as long as the track."""
        if self.row_heads is None:
            self.row_heads = list(_row_heads(self.timestamps, self.t_out))
        return self.row_heads


def _row_heads(timestamps: Sequence[datetime], t_out: array):
    """Each row's ``timestamp,t_out`` text of the CSV export, in order."""
    return map("%s,%.6f".__mod__, zip(map(datetime.isoformat, timestamps), t_out))


def _sun_track(weather: WeatherSeries, latitude: float, longitude: float) -> _SunTrack:
    key = (latitude, longitude)
    track = weather.sun_tracks.get(key)
    if track is None:
        track = weather.sun_tracks[key] = _SunTrack(weather, latitude, longitude)
    return track


def _forcing(zone: ZoneModel, track: _SunTrack) -> tuple[list[array], array]:
    """Stage 2: the sol-air temperature of each surface and the solar
    transmitted through the glazing, per step, each an ``array('d')``.

    The track holds the irradiance column of each orientation and the
    shading column of each sun-dependent overhang, keyed by (depth,
    height, offset, azimuth), so every zone on it shares them.  This
    zone's own columns are computed once per distinct input: one
    effective-irradiance column per (orientation, shading), which dies
    with the call, and one sol-air column per (orientation, shading,
    absorptivity, exterior film).  Surfaces that share an input share the
    column object.  A sol-air column the last zone on the track made for
    the same input is taken from the track's table instead, and this
    zone's table then replaces that one on the track.
    """
    orientations = [(s.azimuth_deg, s.tilt_deg) for s in zone.surfaces]
    track.fill(orientations, [s.shading for s in zone.surfaces if isinstance(s.shading, tuple)])
    h_exterior = zone.h_exterior

    effective_of: dict[tuple, array] = {}

    def effective(orientation, shade) -> array:
        column = effective_of.get((orientation, shade))
        if column is None:
            beam, diffuse = track.irradiance[orientation]
            fractions = track.shading.get(shade, repeat(shade))
            column = effective_of[orientation, shade] = array("d", [
                b * (1.0 - f) + d for b, f, d in zip(beam, fractions, diffuse)])
        return column

    held, sol_air_of = track.sol_air, {}
    sol_air = []
    transmitted = [0.0] * len(track.t_out)
    for surface, orientation in zip(zone.surfaces, orientations):
        shade, absorptivity = surface.shading, surface.absorptivity
        key = (orientation, shade, absorptivity, h_exterior)
        if key not in sol_air_of:
            # sol-air temperature, T_sa = T_out + a * I / h_e
            sol_air_of[key] = held[key] if key in held else array("d", [
                t + absorptivity * e / h_exterior
                for t, e in zip(track.t_out, effective(orientation, shade))])
        sol_air.append(sol_air_of[key])
        if surface.solar_transmittance > 0:
            tau, area = surface.solar_transmittance, surface.area_m2
            transmitted = [acc + tau * e * area
                           for acc, e in zip(transmitted, effective(orientation, shade))]
    track.sol_air = sol_air_of
    return sol_air, array("d", transmitted)


def simulate(zone: ZoneModel, weather: WeatherSeries) -> SimulationResult:
    """Integrate the zone balance over the weather series.

    The weather must cover at least 24 h on a uniform grid no coarser
    than one hour; a non-uniform grid raises :class:`WeatherGapError`
    listing the missing instants.  A zone or radiant temperature that
    is not finite raises InputError naming the zone and the timestamp.
    Zones run on the same series object share its weather-only stage,
    the export's row heads, and the sol-air columns that a zone and the
    zone run just before it have in common.
    """
    track = _sun_track(weather, zone.latitude, zone.longitude)
    sol_air, transmitted = _forcing(zone, track)
    timestamps, t_out, dt = track.timestamps, track.t_out, track.step_s
    n = len(t_out)

    apertures, volume, capacitance = zone.apertures, zone.volume_m3, zone.capacitance_j_k
    # The apertures are fixed, so the flow and its conductance depend on
    # the wind alone: one of each per distinct speed.
    ach_of = {wind: ventilation_ach(apertures, volume, wind) for wind in set(track.wind)}
    ach = array("d", map(ach_of.__getitem__, track.wind))
    rho_cp = AIR_DENSITY * AIR_HEAT_CAPACITY
    h_vent_of = {wind: rho_cp * a * volume / 3600.0 for wind, a in ach_of.items()}
    h_vent = array("d", map(h_vent_of.__getitem__, track.wind))
    gains = zone.internal_gains_w
    if is_number(gains):
        internal = array("d", [float(gains)]) * n
    else:
        # A naive timestamp is UTC, as in the sun position.
        internal = array("d", [gains[(ts.astimezone(timezone.utc) if ts.tzinfo else ts).hour]
                               for ts in timestamps])
    gains_fixed = array("d", [q + g for q, g in zip(transmitted, internal)])

    # Stage 3, backward Euler:
    #   C (T+ - T)/dt = sum K_i (Tsa_i - T+) + Hv (Tout - T+) + G
    # Only T+ is carried from step to step; every other series follows
    # from it afterwards, with the arithmetic of the per-step balance.
    conductances = [s.area_m2 / s.resistance_m2k_w for s in zone.surfaces]
    # A zone without surfaces has no sol-air rows to transpose.
    rows = zip(*sol_air) if sol_air else repeat((), n)
    k_sol_air = array("d", [sum(map(mul, conductances, row)) for row in rows])
    c_dt = capacitance / dt
    den_fixed = c_dt + sum(conductances)
    t_air = t_out[0]
    t_new = array("d")
    for ksa, hv, tout, g in zip(k_sol_air, h_vent, t_out, gains_fixed):
        t_air = (c_dt * t_air + ksa + hv * tout + g) / (den_fixed + hv)
        t_new.append(t_air)

    q_surfaces = [array("d", [k * (tsa - t) for tsa, t in zip(column, t_new)])
                  for k, column in zip(conductances, sol_air)]
    q_vent = array("d", [hv * (tout - t) for hv, tout, t in zip(h_vent, t_out, t_new)])
    del sol_air, k_sol_air, h_vent
    max_residual = 0.0
    q_envelope = array("d")
    rows = zip(*q_surfaces) if q_surfaces else repeat((), n)
    for row, qv, g, q_sun, q_int, t, t_prev in zip(
            rows, q_vent, gains_fixed, transmitted, internal, t_new,
            chain((t_out[0],), t_new)):
        q = sum(row)
        q_envelope.append(q)
        residual = capacitance * (t - t_prev) / dt - (q + qv + g)
        gross = sum(map(abs, row)) + abs(qv) + q_sun + abs(q_int)
        # max(max_residual, fraction) without the call
        if gross > 1e-9 and (fraction := abs(residual) / gross) > max_residual:
            max_residual = fraction

    # Each inner surface sits at t + q_i / (h_in A_i) behind its film, so
    # the area-weighted mean radiant temperature is t + sum(q) / (h_in A).
    r_film_in = 1.0 / zone.h_interior
    total_area = sum(s.area_m2 for s in zone.surfaces)
    t_rad = (array("d", [t + r_film_in * q / total_area for t, q in zip(t_new, q_envelope)])
             if total_area > 0 else t_new)
    t_res = array("d", [(t + tr) / 2.0 for t, tr in zip(t_new, t_rad)])
    if not all(map(math.isfinite, t_res)):
        at = next(ts for ts, t in zip(timestamps, t_res) if not math.isfinite(t))
        raise InputError(
            f"zone {zone.name}: temperature is not finite at {at}; "
            "an area, volume or conductivity is out of scale")

    result = SimulationResult(
        timestamps=timestamps,
        t_out_c=t_out,
        t_air_c=t_new,
        t_radiant_c=t_rad,
        t_resultant_c=t_res,
        ach=ach,
        surface_gains_w={s.name: q for s, q in zip(zone.surfaces, q_surfaces)},
        window_solar_w=transmitted,
        ventilation_gain_w=q_vent,
        internal_gain_w=internal,
        surface_kinds={s.name: s.kind for s in zone.surfaces},
        max_residual_fraction=max_residual,
    )
    result._track = track
    return result


def gain_breakdown(result: SimulationResult) -> dict[str, float]:
    """Share of time-integrated positive envelope gains per component.

    Windows count both conduction and transmitted solar.  The three
    fractions sum to 1 (within 1e-9) whenever any positive gain exists.
    """
    totals = {"roof": 0.0, "wall": 0.0, "window": 0.0}
    for name, gains in result.surface_gains_w.items():
        kind = result.surface_kinds[name]
        totals[kind] += sum(q for q in gains if q > 0)
    totals["window"] += sum(result.window_solar_w)
    grand = sum(totals.values())
    if grand <= 0:
        return {kind: 0.0 for kind in totals}
    return {kind: value / grand for kind, value in totals.items()}


# ---------------------------------------------------------------------------
# building description -> zone model

class ScenarioError(InputError):
    """Unknown scenario key or out-of-rule scenario value."""


class Scenario(NamedTuple):
    """The zone-level quantities a building file does not carry (see
    docs/formats.md); :func:`zone_from_building` derives a None one.  The
    record checks nothing when built: :func:`scenario_from_dict` holds
    the value rules of a scenario file."""

    floor_area_m2: float | None = None
    volume_m3: float | None = None
    mass_class: str = "heavy"
    internal_gains_w: float | tuple[float, ...] = 0.0
    discharge_coefficient: float = DEFAULT_CD
    delta_cp: float = DEFAULT_DELTA_CP
    exterior_film_w_m2k: float = DEFAULT_H_EXTERIOR
    interior_film_w_m2k: float = DEFAULT_H_INTERIOR
    window_transmittance: float = 0.85  # single glazing
    window_shade_fraction: float | None = None
    roof_exposed: bool | None = None


#: The scenario file format: every field of :class:`Scenario` with the
#: record's default, a number but for three (see ``errors.read_format``);
#: the gains are a number or a list of 24, one per UTC hour.
_SCENARIO_FORMS = {"mass_class": str, "internal_gains_w": frozenset((float, (float,) * 24)),
                   "roof_exposed": bool}
SCENARIO_FORMAT = {"scenario": (Scenario, tuple(
    (name, _SCENARIO_FORMS.get(name, float), default)
    for name, default in Scenario._field_defaults.items()))}
#: The scenario fields that must be > 0, and those in [0, 1], when given.
_SCENARIO_POSITIVE = ("floor_area_m2", "volume_m3", "discharge_coefficient", "delta_cp",
                      "exterior_film_w_m2k", "interior_film_w_m2k")
_SCENARIO_FRACTIONS = ("window_transmittance", "window_shade_fraction")


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario that a scenario file holding ``doc`` describes.  A
    malformed or unknown key raises ScenarioError, and so does a value out
    of its rule, every such fault named in one message in field order."""
    scenario = read_format(doc, "scenario", SCENARIO_FORMAT, ScenarioError)
    faults = []
    for name, value in scenario._asdict().items():
        if name == "mass_class" and value not in MASS_CLASS_CAPACITANCE:
            faults.append("scenario.mass_class: must be 'light' or 'heavy'")
        elif value is None:
            continue
        elif name in _SCENARIO_POSITIVE and value <= 0:
            faults.append(f"scenario.{name}: must be > 0")
        elif name in _SCENARIO_FRACTIONS and not 0.0 <= value <= 1.0:
            faults.append(f"scenario.{name}: must be in [0, 1]")
    if faults:
        raise ScenarioError("; ".join(faults))
    return scenario


def load_scenario(path) -> Scenario:
    """Read a scenario file (docs/formats.md)."""
    return load_json(path, scenario_from_dict, ScenarioError)


def _overhang(depth: float, height: float, offset: float,
              azimuth: float) -> float | tuple[float, float, float, float]:
    """The :attr:`SurfaceModel.shading` of a facade of ``azimuth`` under
    an overhang of ``depth``: 0.0 without one, else its shading key; an
    overhang of no height is taken as 1 m high."""
    if depth <= 0:
        return 0.0
    return (depth, height if height > 0 else 1.0, offset, azimuth)


def zone_from_building(building: BuildingDescription,
                       scenario: Scenario = Scenario()) -> ZoneModel:
    """Derive a single-zone model from a building description.

    The description carries no interior geometry, so the scenario
    supplies (or defaults fill in): floor area (defaults to the roof
    area), volume (floor area times 2.5 m), mass class and gains.
    ``roof_exposed=False`` models an intermediate-level flat whose
    ceiling faces another dwelling instead of the sun; it is the default
    for a building with rooms none of which is under the roof, and a
    building without rooms keeps its roof.
    """
    films = 1.0 / scenario.exterior_film_w_m2k + 1.0 / scenario.interior_film_w_m2k
    floor_area = scenario.floor_area_m2 or building.roof.area_m2

    surfaces: list[SurfaceModel] = []
    exposed, rooms = scenario.roof_exposed, building.rooms
    if exposed or exposed is None and (not rooms or any(r.under_roof for r in rooms)):
        roof = building.roof
        surfaces.append(SurfaceModel(
            name="roof", kind="roof", area_m2=roof.area_m2,
            azimuth_deg=0.0, tilt_deg=0.0,
            absorptivity=roof.color.absorptivity,
            resistance_m2k_w=films + ROOF_DECK_RESISTANCE + roof.insulation.resistance,
        ))
    for wall in building.walls:
        surfaces.append(SurfaceModel(
            name=f"wall:{wall.id}", kind="wall", area_m2=wall.area_m2,
            azimuth_deg=wall.azimuth_deg, tilt_deg=90.0,
            absorptivity=wall.color.absorptivity,
            resistance_m2k_w=(films + wall.base_resistance
                              + wall.insulation.resistance),
            shading=(1.0 if wall.full_shading
                     else _overhang(wall.overhang_depth_m, wall.overhang_height_m, 0.0,
                                    wall.azimuth_deg)),
        ))
    shade_override = scenario.window_shade_fraction
    for window in building.windows:
        surfaces.append(SurfaceModel(
            name=f"window:{window.id}", kind="window",
            area_m2=window.glazed_area_m2,
            azimuth_deg=window.azimuth_deg, tilt_deg=90.0,
            absorptivity=0.1,
            resistance_m2k_w=films + 0.003,  # single glazing
            shading=(shade_override if shade_override is not None
                     else 0.8 if window.mobile_shading
                     else _overhang(window.overhang_depth_m, window.height_m,
                                    window.overhang_offset_m, window.azimuth_deg)),
            solar_transmittance=scenario.window_transmittance,
        ))

    inlet = outlet = 0.0
    if building.facade_pairs:
        porosities = facade_porosities(building)
        inlet = sum(p.so1 for p in porosities)
        outlet = sum(p.so2 for p in porosities)
    apertures = VentilationApertures(
        inlet_area_m2=inlet,
        outlet_area_m2=outlet,
        discharge_coefficient=scenario.discharge_coefficient,
        delta_cp=scenario.delta_cp,
    )

    return ZoneModel(
        name=building.name,
        latitude=building.latitude,
        longitude=building.longitude,
        volume_m3=scenario.volume_m3 or floor_area * 2.5,
        capacitance_j_k=MASS_CLASS_CAPACITANCE[scenario.mass_class] * floor_area,
        surfaces=tuple(surfaces),
        apertures=apertures,
        internal_gains_w=scenario.internal_gains_w,
        h_exterior=scenario.exterior_film_w_m2k,
        h_interior=scenario.interior_film_w_m2k,
    )


def result_to_csv(result: SimulationResult, out: TextIO) -> None:
    """Write the fixed-column CSV export of a simulation run to ``out``,
    an open text file, 1024 rows per write: no whole-file string is
    built."""
    header = ("timestamp,t_out_c,t_air_c,t_radiant_c,t_resultant_c,ach,"
              "q_roof_w,q_wall_w,q_window_cond_w,q_window_solar_w,"
              "q_vent_w,q_internal_w\n")
    track = result._track
    heads = (track.heads() if track is not None
             else _row_heads(result.timestamps, result.t_out_c))
    columns_by_kind: dict[str, list] = {"roof": [], "wall": [], "window": []}
    for name, kind in result.surface_kinds.items():
        columns_by_kind[kind].append(result.surface_gains_w[name])
    q_roof, q_wall, q_window = (
        map(sum, zip(*columns)) if columns else repeat(0, len(result.timestamps))
        for columns in columns_by_kind.values())
    row = "%s" + ",%.6f" * 10 + "\n"
    rows = map(row.__mod__, zip(
        heads, result.t_air_c, result.t_radiant_c, result.t_resultant_c, result.ach,
        q_roof, q_wall, q_window, result.window_solar_w,
        result.ventilation_gain_w, result.internal_gain_w))
    out.write(header)
    while chunk := "".join(islice(rows, 1024)):
        out.write(chunk)
