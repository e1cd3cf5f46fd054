"""The reference experiment: archetype flats and a hot-season week.

A mid-size island flat (64 m2 floor, heavy construction) in two flavours:
fully compliant solar protection, and the typical uninsulated dwelling it
replaces, plus a deterministic hot-season week at the same site.  Used by
the reference experiment script and the calibration test suite.

Both flats are building descriptions passed through
:func:`thermal.zone_from_building`, the route the CLI takes, so the
calibrated zones and simulated buildings share one set of physics.
"""

import math
from array import array
from datetime import datetime, timedelta, timezone

from .building import (
    NO_INSULATION,
    AtticRegime,
    BuildingDescription,
    ColorClass,
    InsulationLayer,
    RoofSpec,
    WallConstruction,
    WallSpec,
    WaterHeaterKind,
    WaterHeaterSpec,
    WindowSpec,
)
from .dataio import WeatherSeries
from .solar import sun_positions
from .thermal import VentilationApertures, ZoneModel, zone_from_building

#: Latitude and longitude (deg) of the reference site, on Reunion island.
_SITE = (-21.1, 55.5)

FLOOR_AREA_M2 = 64.0
VOLUME_M3 = FLOOR_AREA_M2 * 2.5

#: Leakage-only apertures of a closed dwelling (shutters down).
CLOSED_APERTURES = VentilationApertures(inlet_area_m2=0.02, outlet_area_m2=0.02)

#: Lived-in dwelling with windows ajar.
LIVED_IN_APERTURES = VentilationApertures(inlet_area_m2=1.0, outlet_area_m2=1.0)

#: Apertures of a dwelling at the 25% porosity threshold: two 16 m2
#: facades per axis, openings at a quarter of the mean facade area.
POROSITY_25_APERTURES = VentilationApertures(inlet_area_m2=4.0, outlet_area_m2=4.0)

_CARDINALS = ((0.0, "north"), (90.0, "east"), (180.0, "south"), (270.0, "west"))
_WINDOW_HEIGHT_M = 1.2


def _polystyrene(thickness_cm: float) -> InsulationLayer:
    return InsulationLayer("polystyrene", 0.041, thickness_cm)


def _flat(name: str, roof: RoofSpec, wall: dict, window_area_m2: float,
          overhang_ratios: dict[str, float], roof_exposed: bool,
          apertures: VentilationApertures) -> ZoneModel:
    """Zone of a flat with one wall (``WallSpec`` fields in ``wall``) and
    one window per cardinal, each window under an overhang of depth
    ``ratio * height``.  The description carries only what the zone model
    reads (no rooms or facade pairs), so the explicit apertures replace
    the porosity-derived ones."""
    latitude, longitude = _SITE
    building = BuildingDescription(
        name=name, latitude=latitude, longitude=longitude, dwelling_type=3,
        roof=roof,
        walls=tuple(WallSpec(id=label, azimuth_deg=azimuth, **wall)
                    for azimuth, label in _CARDINALS),
        windows=tuple(WindowSpec(
            id=label, azimuth_deg=azimuth, glazed_area_m2=window_area_m2,
            height_m=_WINDOW_HEIGHT_M,
            overhang_depth_m=overhang_ratios.get(label, 0.0) * _WINDOW_HEIGHT_M)
            for azimuth, label in _CARDINALS),
        rooms=(), facade_pairs=(),
        water_heater=WaterHeaterSpec(WaterHeaterKind.ELECTRIC),
    )
    zone = zone_from_building(building, {"roof_exposed": roof_exposed})
    return zone._replace(apertures=apertures)


def compliant_zone(name: str = "compliant",
                   roof_exposed: bool = True,
                   degraded_roof: bool = False,
                   apertures: VentilationApertures = CLOSED_APERTURES) -> ZoneModel:
    """Flat with compliant solar protection everywhere.

    ``roof_exposed=False`` models the same flat at an intermediate level
    (no sun-struck roof).  ``degraded_roof=True`` swaps in a dark,
    uninsulated roof while keeping everything else identical.
    """
    if degraded_roof:
        roof = RoofSpec(ColorClass.DARK, AtticRegime.NONE, NO_INSULATION, FLOOR_AREA_M2)
    else:
        roof = RoofSpec(ColorClass.MEDIUM, AtticRegime.NONE, _polystyrene(8.0),
                        FLOOR_AREA_M2)
    # light hollow block walls with 1 cm polystyrene; windows shaded at
    # the required d/h per orientation
    wall = dict(construction=WallConstruction.HOLLOW_CONCRETE_BLOCK,
                color=ColorClass.LIGHT, area_m2=18.0, insulation=_polystyrene(1.0))
    return _flat(name, roof, wall, 2.0,
                 {"north": 0.6, "east": 0.8, "south": 0.3, "west": 1.0},
                 roof_exposed, apertures)


def uninsulated_zone() -> ZoneModel:
    """The typical pre-standard dwelling, windows ajar: dark bare roof,
    unprotected medium-colour concrete walls, unshaded single glazing."""
    roof = RoofSpec(ColorClass.DARK, AtticRegime.NONE, NO_INSULATION, FLOOR_AREA_M2)
    wall = dict(construction=WallConstruction.CONCRETE_20, color=ColorClass.MEDIUM,
                area_m2=24.0)
    return _flat("uninsulated", roof, wall, 1.8, {}, True, LIVED_IN_APERTURES)


# ---------------------------------------------------------------------------
# hot-season week: sinusoidal diurnal temperature with a mid-afternoon
# peak, clear-sky solar from sun geometry, steady trade wind

_START = datetime(2026, 1, 5, tzinfo=timezone.utc)  # day one, on the site clock
_T_MIN_C, _T_MAX_C = 24.0, 31.0
_RH_AT_T_MIN_PCT, _RH_AT_T_MAX_PCT = 85.0, 65.0
_WIND_SPEED_M_S = 4.0
_WIND_DIR_DEG = 90.0
_ATMOSPHERIC_TRANSMITTANCE = 0.70
_PEAK_HOUR_LOCAL = 15.0


def _clear_sky(sun_altitude_deg: float) -> tuple[float, float]:
    """(direct normal, diffuse horizontal) W/m2 for a clear sky."""
    if sun_altitude_deg <= 0.0:
        return 0.0, 0.0
    zenith = 90.0 - sun_altitude_deg
    air_mass = 1.0 / (math.cos(math.radians(zenith))
                      + 0.50572 * (96.07995 - zenith) ** -1.6364)
    dni = 1361.0 * _ATMOSPHERIC_TRANSMITTANCE ** air_mass
    dhi = 0.12 * dni * math.sin(math.radians(sun_altitude_deg))
    return dni, dhi


def synthetic_weather(days: int = 7) -> WeatherSeries:
    """Hourly hot-season series of ``days`` days at the reference site.
    Purely deterministic.

    The diurnal temperature phase uses the whole-hour clock offset nearest
    to the site longitude so the stated extremes are sampled exactly;
    irradiance uses true sun geometry.
    """
    if days < 1:
        raise ValueError("day count must be >= 1")
    latitude, longitude = _SITE
    clock_offset = round(longitude / 15.0)
    t_mid = (_T_MIN_C + _T_MAX_C) / 2.0
    t_amp = (_T_MAX_C - _T_MIN_C) / 2.0
    rh_mid = (_RH_AT_T_MIN_PCT + _RH_AT_T_MAX_PCT) / 2.0
    rh_amp = (_RH_AT_T_MIN_PCT - _RH_AT_T_MAX_PCT) / 2.0

    start = _START - timedelta(hours=clock_offset)
    timestamps = tuple(start + timedelta(hours=i) for i in range(days * 24))
    altitudes, _ = sun_positions(latitude, longitude, timestamps)
    temp, rh, direct, diffuse = (array("d") for _ in range(4))
    for i, altitude in enumerate(altitudes):
        phase = 2.0 * math.pi * (i % 24 - _PEAK_HOUR_LOCAL) / 24.0  # local clock hour
        temp.append(round(t_mid + t_amp * math.cos(phase), 6))
        rh.append(round(rh_mid - rh_amp * math.cos(phase), 6))
        dni, dhi = _clear_sky(altitude)
        direct.append(round(dni, 6))
        diffuse.append(round(dhi, 6))
    steps = len(timestamps)
    return WeatherSeries(timestamps, temp, rh, direct, diffuse,
                         array("d", [_WIND_SPEED_M_S]) * steps,
                         array("d", [_WIND_DIR_DEG]) * steps)
