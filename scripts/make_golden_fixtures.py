"""Regenerate the bundled golden case-study fixtures.

A two-level F4 social-housing flat, north/south oriented, light hollow
concrete block walls, medium-colour roof.  The "initial" variant is the
design as first drawn (5 cm mineral wool under the roof, bare east/west
walls, unprotected 1.44 m2 bedroom windows); the "final" variant applies
the passive-cooling upgrades (8 cm polystyrene, 1 cm wall insulation east
and west, balconies on the north facade, bedroom windows replaced by
2 m2 glazed doors with fanlights above the doors).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ecodom.building import (
    NO_INSULATION,
    AtticRegime,
    BuildingDescription,
    ColorClass,
    FacadeMembership,
    FacadePair,
    InsulationLayer,
    Opening,
    Room,
    RoofSpec,
    RoomKind,
    ShadingCase,
    WallConstruction,
    WallSpec,
    WaterHeaterKind,
    WaterHeaterSpec,
    WindowSpec,
    validate,
)
from ecodom.dataio import save_building

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "ecodom" / "data"

MINERAL_WOOL_5CM = InsulationLayer("mineral wool", 0.040, 5.0)
POLYSTYRENE_8CM = InsulationLayer("polystyrene", 0.041, 8.0)
POLYSTYRENE_1CM = InsulationLayer("polystyrene", 0.041, 1.0)


def _rooms(bedroom_opening_m2: float, bedroom_internal: tuple[Opening, ...]) -> tuple[Room, ...]:
    def bedroom(level: int) -> Room:
        suffix = f"l{level}"
        return Room(
            id=f"bedroom_{suffix}", kind=RoomKind.MAIN, floor_level=level,
            under_roof=(level == 1),
            facades=(FacadeMembership(f"north_{suffix}", 8.0),),
            external_openings=(Opening(f"glz_bedroom_{suffix}", bedroom_opening_m2,
                                       facade_id=f"north_{suffix}"),),
            internal_openings=tuple(
                Opening(f"{o.id}_{suffix}", o.net_area_m2) for o in bedroom_internal),
        )

    living = Room(
        id="living", kind=RoomKind.MAIN, floor_level=0,
        facades=(FacadeMembership("south_l0", 8.0),),
        external_openings=(Opening("glz_living", 2.0, facade_id="south_l0"),),
        internal_openings=(Opening("door_living", 2.0),),
    )
    dining = Room(
        id="dining", kind=RoomKind.MAIN, floor_level=1, under_roof=True,
        facades=(FacadeMembership("south_l1", 8.0),),
        external_openings=(Opening("glz_dining", 2.0, facade_id="south_l1"),),
        internal_openings=(Opening("door_dining", 2.0),),
    )
    kitchen = Room(
        id="kitchen", kind=RoomKind.SERVICE, floor_level=0,
        facades=(FacadeMembership("east_l0", 6.0),),
        external_openings=(Opening("win_kitchen", 0.5, facade_id="east_l0"),),
        internal_openings=(Opening("door_kitchen", 1.6),),
    )
    return (bedroom(0), bedroom(1), living, dining, kitchen)


def _walls(upgraded: bool) -> tuple[WallSpec, ...]:
    side_insulation = POLYSTYRENE_1CM if upgraded else NO_INSULATION
    north_overhang = 1.5 if upgraded else 0.0  # balconies added along the facade
    kw = dict(construction=WallConstruction.HOLLOW_CONCRETE_BLOCK,
              color=ColorClass.LIGHT)
    return (
        WallSpec(id="north", azimuth_deg=0.0, area_m2=20.0,
                 overhang_depth_m=north_overhang,
                 overhang_height_m=2.5 if upgraded else 0.0, **kw),
        WallSpec(id="south", azimuth_deg=180.0, area_m2=20.0,
                 overhang_depth_m=0.8, overhang_height_m=2.5, **kw),
        WallSpec(id="east", azimuth_deg=90.0, area_m2=14.0,
                 insulation=side_insulation, **kw),
        WallSpec(id="west", azimuth_deg=270.0, area_m2=14.0,
                 insulation=side_insulation, **kw),
    )


def _windows(upgraded: bool) -> tuple[WindowSpec, ...]:
    if upgraded:
        # bedroom windows replaced by glazed doors under the new balconies
        bedrooms = tuple(
            WindowSpec(id=f"glz_bedroom_l{level}", azimuth_deg=0.0,
                       glazed_area_m2=2.0, height_m=2.1,
                       shading_case=ShadingCase.CASE_1,
                       overhang_depth_m=1.5, overhang_offset_m=0.1)
            for level in (0, 1))
    else:
        bedrooms = tuple(
            WindowSpec(id=f"glz_bedroom_l{level}", azimuth_deg=0.0,
                       glazed_area_m2=1.44, height_m=1.2)
            for level in (0, 1))
    south = tuple(
        WindowSpec(id=name, azimuth_deg=180.0, glazed_area_m2=2.0, height_m=1.4,
                   overhang_depth_m=0.6)
        for name in ("glz_living", "glz_dining"))
    kitchen = (WindowSpec(id="win_kitchen", azimuth_deg=90.0, glazed_area_m2=0.5,
                          height_m=1.0, mobile_shading=True),)
    return bedrooms + south + kitchen


def make_building(upgraded: bool) -> BuildingDescription:
    if upgraded:
        bedroom_internal = (Opening("door", 1.6), Opening("fanlight", 0.4))
        roof_insulation = POLYSTYRENE_8CM
        name = "La Decouverte (final)"
        bedroom_opening = 2.0
    else:
        bedroom_internal = (Opening("door", 1.6),)
        roof_insulation = MINERAL_WOOL_5CM
        name = "La Decouverte (initial)"
        bedroom_opening = 1.44

    return BuildingDescription(
        name=name,
        latitude=-21.0,
        longitude=55.5,
        dwelling_type=4,
        roof=RoofSpec(color=ColorClass.MEDIUM, attic=AtticRegime.NONE,
                      insulation=roof_insulation, area_m2=70.0),
        walls=_walls(upgraded),
        windows=_windows(upgraded),
        rooms=_rooms(bedroom_opening, bedroom_internal),
        facade_pairs=(
            FacadePair("north_l0", "south_l0", 8.0, 8.0),
            FacadePair("north_l1", "south_l1", 8.0, 8.0),
        ),
        water_heater=WaterHeaterSpec(
            kind=WaterHeaterKind.SOLAR, collector_area_m2=2.5,
            tank_volume_l=250.0, annual_productivity_kwh_m2=750.0,
            certified=True),
        vegetation_note="planted grounds on all sides of the plot; "
                        "long facades oriented north and south",
    )


def main() -> None:
    for upgraded, filename in ((False, "decouverte_initial.json"),
                               (True, "decouverte_final.json")):
        b = make_building(upgraded)
        issues = validate(b)
        if issues:
            raise SystemExit(f"{filename}: fixture does not validate: {issues}")
        save_building(b, DATA_DIR / filename)
        print(f"wrote {DATA_DIR / filename}")


if __name__ == "__main__":
    main()
