"""Reference zone fixtures for experiments and calibration runs.

A mid-size island flat (64 m2 floor, heavy construction) in two flavours:
fully compliant solar protection, and the typical uninsulated dwelling it
replaces.  Used by the experiment scripts and the calibration test suite.

Both flats are building descriptions passed through
:func:`thermal.zone_from_building`, the route the CLI takes, so the
calibrated zones and simulated buildings share one set of physics.
"""

from __future__ import annotations

import dataclasses

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
from .thermal import VentilationApertures, ZoneModel, zone_from_building

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
    building = BuildingDescription(
        name=name, latitude=-21.1, longitude=55.5, dwelling_type=3,
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
    return dataclasses.replace(zone, apertures=apertures)


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


def uninsulated_zone(name: str = "uninsulated",
                     apertures: VentilationApertures = LIVED_IN_APERTURES) -> ZoneModel:
    """The typical pre-standard dwelling: dark bare roof, unprotected
    medium-colour concrete walls, unshaded single glazing."""
    roof = RoofSpec(ColorClass.DARK, AtticRegime.NONE, NO_INSULATION, FLOOR_AREA_M2)
    wall = dict(construction=WallConstruction.CONCRETE_20, color=ColorClass.MEDIUM,
                area_m2=24.0)
    return _flat(name, roof, wall, 1.8, {}, True, apertures)
