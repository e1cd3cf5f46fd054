"""Single-zone transient thermal and airflow model.

One air+fabric node with a lumped capacitance, envelope conduction driven
by per-surface sol-air temperatures, beam shading from overhang geometry,
transmitted solar through glazing and wind-driven cross ventilation
through an orifice pair in series.  Deliberately simple: the point is to
rank designs and quantify the effect of solar protection and porosity,
not to reproduce a research-grade multizone code.

The state update is an unconditionally stable implicit (backward Euler)
step, exact for the linearised balance, so the per-step energy residual
is at machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .building import BuildingDescription, facade_porosities
from .dataio import WeatherSeries, weather_grid
from .errors import InputError, is_number
from .solar import (
    SolarPosition,
    overhang_shading_fraction,
    sol_air_temperature,
    solar_position,
    surface_irradiance,
)

AIR_DENSITY = 1.2          # kg/m3
AIR_HEAT_CAPACITY = 1006.0  # J/(kg.K)

DEFAULT_H_EXTERIOR = 25.0  # W/(m2.K)
DEFAULT_H_INTERIOR = 8.0   # W/(m2.K)
DEFAULT_CD = 0.6
DEFAULT_DELTA_CP = 0.5
DEFAULT_WINDOW_TRANSMITTANCE = 0.85

# Lumped capacitance presets per m2 of floor, J/(K.m2).  Calibration
# knobs for the two construction weights, not published constants.
MASS_CLASS_CAPACITANCE = {
    "light": 80e3,
    "heavy": 260e3,
}

#: Bare roof construction (sheet, air space, ceiling board), m2.K/W,
#: added to every roof under its insulation.
ROOF_DECK_RESISTANCE = 0.2


@dataclass(frozen=True)
class SurfaceModel:
    """One envelope surface of the zone.

    ``resistance_m2k_w`` is the full conduction chain including both film
    coefficients.  ``shade_fraction`` overrides the geometric overhang
    shading when set (e.g. closed opaque louvers); otherwise the overhang
    d/h/a geometry is evaluated against the sun position each step.
    ``solar_transmittance`` is nonzero for glazing only.
    """

    name: str
    kind: str  # roof | wall | window
    area_m2: float
    azimuth_deg: float
    tilt_deg: float
    absorptivity: float
    resistance_m2k_w: float
    overhang_depth_m: float = 0.0
    overhang_height_m: float = 0.0
    overhang_offset_m: float = 0.0
    shade_fraction: float | None = None
    solar_transmittance: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("roof", "wall", "window"):
            raise ValueError(f"surface {self.name}: unknown kind {self.kind!r}")
        if self.area_m2 <= 0:
            raise ValueError(f"surface {self.name}: area must be > 0")
        if self.resistance_m2k_w <= 0:
            raise ValueError(f"surface {self.name}: total resistance must be > 0")

    def beam_shading(self, sun: SolarPosition) -> float:
        if self.shade_fraction is not None:
            return min(max(self.shade_fraction, 0.0), 1.0)
        if self.overhang_depth_m <= 0 or self.tilt_deg < 45.0:
            return 0.0
        height = self.overhang_height_m if self.overhang_height_m > 0 else 1.0
        return overhang_shading_fraction(
            self.overhang_depth_m, height, self.overhang_offset_m,
            sun, self.azimuth_deg)


@dataclass(frozen=True)
class VentilationApertures:
    """Inlet/outlet opening pair of the cross-ventilation path."""

    inlet_area_m2: float
    outlet_area_m2: float
    discharge_coefficient: float = DEFAULT_CD
    delta_cp: float = DEFAULT_DELTA_CP
    inlet_azimuth_deg: float | None = None  # None: wind always normal to inlet

    def __post_init__(self) -> None:
        if self.inlet_area_m2 < 0 or self.outlet_area_m2 < 0:
            raise ValueError("aperture areas must be >= 0")
        if self.discharge_coefficient <= 0 or self.delta_cp <= 0:
            raise ValueError("discharge coefficient and delta Cp must be > 0")


def ventilation_ach(apertures: VentilationApertures, volume_m3: float,
                    wind_speed_m_s: float,
                    wind_incidence_deg: float = 0.0) -> float:
    """Air changes per hour for wind-driven cross ventilation.

    Orifice-in-series model: Q = Cd * Aeq * U * sqrt(dCp) with
    Aeq = (Ain^-2 + Aout^-2)^(-1/2).  Only the wind component normal to
    the inlet drives flow; either aperture at zero kills it entirely.
    """
    if volume_m3 <= 0:
        raise ValueError("zone volume must be > 0")
    a_in, a_out = apertures.inlet_area_m2, apertures.outlet_area_m2
    if a_in <= 0.0 or a_out <= 0.0 or wind_speed_m_s <= 0.0:
        return 0.0
    u_eff = wind_speed_m_s * max(math.cos(math.radians(wind_incidence_deg)), 0.0)
    if u_eff <= 0.0:
        return 0.0
    try:
        a_eq = (a_in ** -2 + a_out ** -2) ** -0.5
    except (OverflowError, ZeroDivisionError) as exc:
        raise InputError(
            f"aperture areas {a_in} and {a_out} m2 are out of scale") from exc
    flow = (apertures.discharge_coefficient * a_eq * u_eff
            * math.sqrt(apertures.delta_cp))
    return 3600.0 * flow / volume_m3


@dataclass(frozen=True)
class ZoneModel:
    """Lumped single-zone model ready to simulate.

    ``internal_gains_w`` is either a constant or a daily schedule: a
    sequence of 24 hourly values indexed by the timestamp's UTC hour,
    not local time (at Reunion, UTC+4, a 19:00 local peak goes at index
    15), cycled over the simulated period.
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

    def __post_init__(self) -> None:
        if self.volume_m3 <= 0:
            raise ValueError("zone volume must be > 0")
        if self.capacitance_j_k <= 0:
            raise ValueError("zone capacitance must be > 0")
        if not isinstance(self.internal_gains_w, (int, float)):
            object.__setattr__(self, "internal_gains_w",
                               tuple(float(g) for g in self.internal_gains_w))
            if len(self.internal_gains_w) != 24:
                raise ValueError("an internal-gains schedule must list 24 hourly values")

    def internal_gains_at(self, timestamp) -> float:
        if isinstance(self.internal_gains_w, tuple):
            return self.internal_gains_w[timestamp.hour]
        return float(self.internal_gains_w)


class WeatherGapError(InputError):
    def __init__(self, missing):
        self.missing = list(missing)
        stamps = ", ".join(str(t) for t in self.missing[:6])
        more = "" if len(self.missing) <= 6 else f" (+{len(self.missing) - 6} more)"
        super().__init__(f"weather series has missing steps: {stamps}{more}")


@dataclass(frozen=True)
class SimulationResult:
    """Hourly (or finer) output series, one entry per weather record."""

    timestamps: tuple
    t_out_c: tuple[float, ...]
    t_air_c: tuple[float, ...]
    t_radiant_c: tuple[float, ...]
    t_resultant_c: tuple[float, ...]
    ach: tuple[float, ...]
    surface_gains_w: dict[str, tuple[float, ...]]
    window_solar_w: tuple[float, ...]
    ventilation_gain_w: tuple[float, ...]
    internal_gain_w: tuple[float, ...]
    surface_kinds: dict[str, str]
    max_residual_fraction: float

    def __len__(self) -> int:
        return len(self.timestamps)

    def mean_resultant_c(self) -> float:
        return sum(self.t_resultant_c) / len(self.t_resultant_c)

    def peak_resultant_c(self) -> float:
        return max(self.t_resultant_c)


def simulate(zone: ZoneModel, weather: WeatherSeries) -> SimulationResult:
    """Integrate the zone balance over the weather series.

    The weather must cover at least 24 h on a uniform grid no coarser
    than one hour; a non-uniform grid raises :class:`WeatherGapError`
    listing the missing instants.  A zone or radiant temperature that
    is not finite raises InputError naming the zone and the timestamp.
    """
    records = weather.records
    dt, missing = weather_grid([r.timestamp for r in records])
    if missing:
        raise WeatherGapError(missing)
    if dt > 3600.0 + 1e-6:
        raise InputError("weather step must be one hour or finer")
    if (records[-1].timestamp - records[0].timestamp).total_seconds() + dt < 24 * 3600.0 - 1e-6:
        raise InputError("weather must cover at least 24 hours")

    conductances = [s.area_m2 / s.resistance_m2k_w for s in zone.surfaces]
    r_film_in = 1.0 / zone.h_interior
    total_area = sum(s.area_m2 for s in zone.surfaces)

    t_air = records[0].temp_air_c
    out_t_air, out_t_rad, out_t_res, out_ach = [], [], [], []
    out_vent, out_internal, out_window_solar = [], [], []
    per_surface: dict[str, list[float]] = {s.name: [] for s in zone.surfaces}
    max_residual = 0.0

    for rec in records:
        sun = solar_position(zone.latitude, zone.longitude, rec.timestamp)

        sol_air = []
        transmitted = 0.0
        for surface in zone.surfaces:
            beam, diffuse = surface_irradiance(
                sun, rec.solar_direct_w_m2, rec.solar_diffuse_w_m2,
                surface.azimuth_deg, surface.tilt_deg)
            shade = surface.beam_shading(sun)
            effective = beam * (1.0 - shade) + diffuse
            sol_air.append(sol_air_temperature(
                rec.temp_air_c, effective, surface.absorptivity, zone.h_exterior))
            if surface.solar_transmittance > 0:
                transmitted += (surface.solar_transmittance * effective
                                * surface.area_m2)

        incidence = 0.0
        if zone.apertures.inlet_azimuth_deg is not None:
            incidence = rec.wind_dir_deg - zone.apertures.inlet_azimuth_deg
        ach = ventilation_ach(zone.apertures, zone.volume_m3,
                              rec.wind_speed_m_s, incidence)
        h_vent = AIR_DENSITY * AIR_HEAT_CAPACITY * ach * zone.volume_m3 / 3600.0

        # Backward Euler: C (T+ - T)/dt = sum K_i (Tsa_i - T+) + Hv (Tout - T+) + G
        internal = zone.internal_gains_at(rec.timestamp)
        gains_fixed = transmitted + internal
        num = (zone.capacitance_j_k / dt * t_air
               + sum(k * tsa for k, tsa in zip(conductances, sol_air))
               + h_vent * rec.temp_air_c
               + gains_fixed)
        den = zone.capacitance_j_k / dt + sum(conductances) + h_vent
        t_new = num / den

        q_surfaces = [k * (tsa - t_new) for k, tsa in zip(conductances, sol_air)]
        q_vent = h_vent * (rec.temp_air_c - t_new)
        residual = (zone.capacitance_j_k * (t_new - t_air) / dt
                    - (sum(q_surfaces) + q_vent + gains_fixed))
        gross = (sum(abs(q) for q in q_surfaces) + abs(q_vent)
                 + transmitted + abs(internal))
        if gross > 1e-9:
            max_residual = max(max_residual, abs(residual) / gross)

        # Interior surface temperatures via the inner film, then the
        # area-weighted mean radiant temperature.
        t_rad = 0.0
        for surface, q in zip(zone.surfaces, q_surfaces):
            t_srf = t_new + (q / surface.area_m2) * r_film_in
            t_rad += surface.area_m2 * t_srf
        t_rad = t_rad / total_area if total_area > 0 else t_new
        t_res = (t_new + t_rad) / 2.0
        if not math.isfinite(t_res):
            raise InputError(
                f"zone {zone.name}: temperature is not finite at {rec.timestamp}; "
                "an area, volume or conductivity is out of scale")

        t_air = t_new
        out_t_air.append(t_new)
        out_t_rad.append(t_rad)
        out_t_res.append(t_res)
        out_ach.append(ach)
        out_vent.append(q_vent)
        out_internal.append(internal)
        out_window_solar.append(transmitted)
        for surface, q in zip(zone.surfaces, q_surfaces):
            per_surface[surface.name].append(q)

    return SimulationResult(
        timestamps=tuple(r.timestamp for r in records),
        t_out_c=tuple(r.temp_air_c for r in records),
        t_air_c=tuple(out_t_air),
        t_radiant_c=tuple(out_t_rad),
        t_resultant_c=tuple(out_t_res),
        ach=tuple(out_ach),
        surface_gains_w={name: tuple(vals) for name, vals in per_surface.items()},
        window_solar_w=tuple(out_window_solar),
        ventilation_gain_w=tuple(out_vent),
        internal_gain_w=tuple(out_internal),
        surface_kinds={s.name: s.kind for s in zone.surfaces},
        max_residual_fraction=max_residual,
    )


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

#: Scenario keys understood by :func:`zone_from_building`.
SCENARIO_KEYS = frozenset({
    "floor_area_m2", "volume_m3", "mass_class", "internal_gains_w",
    "discharge_coefficient", "delta_cp", "exterior_film_w_m2k",
    "interior_film_w_m2k", "window_transmittance", "window_shade_fraction",
    "roof_exposed",
})


def _scenario_rule(key: str, value) -> str | None:
    """The rule a known scenario key's value breaks, or None if it meets it."""
    if key == "roof_exposed":
        return None if isinstance(value, bool) else "true or false"
    if key == "mass_class":
        known = isinstance(value, str) and value in MASS_CLASS_CAPACITANCE
        return None if known else "'light' or 'heavy'"
    if key == "internal_gains_w":
        schedule = (isinstance(value, (list, tuple)) and len(value) == 24
                    and all(is_number(g) for g in value))
        return None if is_number(value) or schedule else "a number or a list of 24 numbers"
    if key in ("window_transmittance", "window_shade_fraction"):
        return None if is_number(value) and 0.0 <= value <= 1.0 else "a number in [0, 1]"
    return None if is_number(value) and value > 0 else "a number > 0"


class ScenarioError(InputError):
    """Unknown scenario key or out-of-rule scenario value."""


def zone_from_building(building: BuildingDescription,
                       scenario: dict | None = None) -> ZoneModel:
    """Derive a single-zone model from a building description.

    The description carries no interior geometry, so the scenario file
    supplies (or defaults fill in): floor area (defaults to the roof
    area), volume (floor area times 2.5 m), mass class and gains.
    ``roof_exposed: false`` models an intermediate-level flat whose
    ceiling faces another dwelling instead of the sun.  Unknown keys and
    values that break their key's rule raise :class:`ScenarioError`.
    """
    scenario = dict(scenario or {})
    for key, value in scenario.items():
        if key not in SCENARIO_KEYS:
            raise ScenarioError(f"unknown scenario key: {key!r}")
        rule = _scenario_rule(key, value)
        if rule is not None:
            raise ScenarioError(f"scenario {key} must be {rule}, got {value!r}")

    h_out = float(scenario.get("exterior_film_w_m2k", DEFAULT_H_EXTERIOR))
    h_in = float(scenario.get("interior_film_w_m2k", DEFAULT_H_INTERIOR))
    tau = float(scenario.get("window_transmittance", DEFAULT_WINDOW_TRANSMITTANCE))
    films = 1.0 / h_out + 1.0 / h_in

    floor_area = float(scenario.get("floor_area_m2", building.roof.area_m2))
    volume = float(scenario.get("volume_m3", floor_area * 2.5))
    mass_class = scenario.get("mass_class", "heavy")

    surfaces: list[SurfaceModel] = []
    if scenario.get("roof_exposed", True):
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
            overhang_depth_m=wall.overhang_depth_m,
            overhang_height_m=wall.overhang_height_m,
            shade_fraction=1.0 if wall.full_shading else None,
        ))
    shade_override = scenario.get("window_shade_fraction")
    for window in building.windows:
        surfaces.append(SurfaceModel(
            name=f"window:{window.id}", kind="window",
            area_m2=window.glazed_area_m2,
            azimuth_deg=window.azimuth_deg, tilt_deg=90.0,
            absorptivity=0.1,
            resistance_m2k_w=films + 0.003,  # single glazing
            overhang_depth_m=window.overhang_depth_m,
            overhang_height_m=window.height_m,
            overhang_offset_m=window.overhang_offset_m,
            shade_fraction=(float(shade_override) if shade_override is not None
                            else (0.8 if window.mobile_shading else None)),
            solar_transmittance=tau,
        ))

    inlet = outlet = 0.0
    if building.facade_pairs:
        porosities = facade_porosities(building)
        inlet = sum(p.so1 for p in porosities)
        outlet = sum(p.so2 for p in porosities)
    apertures = VentilationApertures(
        inlet_area_m2=inlet,
        outlet_area_m2=outlet,
        discharge_coefficient=float(scenario.get("discharge_coefficient", DEFAULT_CD)),
        delta_cp=float(scenario.get("delta_cp", DEFAULT_DELTA_CP)),
    )

    return ZoneModel(
        name=building.name,
        latitude=building.latitude,
        longitude=building.longitude,
        volume_m3=volume,
        capacitance_j_k=MASS_CLASS_CAPACITANCE[mass_class] * floor_area,
        surfaces=tuple(surfaces),
        apertures=apertures,
        internal_gains_w=scenario.get("internal_gains_w", 0.0),
        h_exterior=h_out,
        h_interior=h_in,
    )


def result_to_csv(result: SimulationResult) -> str:
    """Fixed-column CSV export of a simulation run."""
    header = ("timestamp,t_out_c,t_air_c,t_radiant_c,t_resultant_c,ach,"
              "q_roof_w,q_wall_w,q_window_cond_w,q_window_solar_w,"
              "q_vent_w,q_internal_w")
    lines = [header]
    names_by_kind: dict[str, list[str]] = {"roof": [], "wall": [], "window": []}
    for name, kind in result.surface_kinds.items():
        names_by_kind[kind].append(name)
    for i, ts in enumerate(result.timestamps):
        q = {kind: sum(result.surface_gains_w[n][i] for n in names)
             for kind, names in names_by_kind.items()}
        lines.append(",".join((
            ts.isoformat(),
            f"{result.t_out_c[i]:.6f}",
            f"{result.t_air_c[i]:.6f}",
            f"{result.t_radiant_c[i]:.6f}",
            f"{result.t_resultant_c[i]:.6f}",
            f"{result.ach[i]:.6f}",
            f"{q['roof']:.6f}",
            f"{q['wall']:.6f}",
            f"{q['window']:.6f}",
            f"{result.window_solar_w[i]:.6f}",
            f"{result.ventilation_gain_w[i]:.6f}",
            f"{result.internal_gain_w[i]:.6f}",
        )))
    return "\n".join(lines) + "\n"
