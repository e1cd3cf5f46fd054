"""Dwelling description model.

Domain types for a naturally ventilated tropical dwelling (roof, walls,
windows, rooms, facade pairs, water heater), the geometric quantities
derived from them (cross-ventilation porosities), and the validation
of a description.

Every record is an immutable named tuple that checks nothing when it
is built: the building file format (``dataio.BUILDING_FORMAT``) holds
the range of each number, and :func:`validate` every rule across fields
and every reference rule.  Every function here is pure.
"""

import enum
from typing import NamedTuple

from .errors import InputError


class Orientation(enum.Enum):
    """Cardinal facade orientation.

    The prescription tables are defined for the four cardinals only, so an
    arbitrary azimuth is snapped to the nearest one (see
    :func:`orientation_from_azimuth`).
    """

    NORTH = "north"
    EAST = "east"
    SOUTH = "south"
    WEST = "west"


def orientation_from_azimuth(azimuth_deg: float) -> Orientation:
    """Map an azimuth in degrees [0, 360) to the nearest cardinal.

    Azimuth is measured from North, clockwise.  Exact 45-degree ties are
    broken with the fixed priority East > North > South > West, so the
    four arcs are:

    * North: [315, 360) and [0, 45)
    * East:  [45, 135]
    * South: (135, 225]
    * West:  (225, 315)
    """
    if not 0.0 <= azimuth_deg < 360.0:
        raise ValueError(f"azimuth must be in [0, 360), got {azimuth_deg!r}")
    if azimuth_deg < 45.0 or azimuth_deg >= 315.0:
        return Orientation.NORTH
    if azimuth_deg <= 135.0:
        return Orientation.EAST
    if azimuth_deg <= 225.0:
        return Orientation.SOUTH
    return Orientation.WEST


class ColorClass(enum.Enum):
    """External surface colour class with its fixed solar absorptivity."""

    LIGHT = "light"
    MEDIUM = "medium"
    DARK = "dark"

    @property
    def absorptivity(self) -> float:
        return _ABSORPTIVITY[self]


_ABSORPTIVITY = {
    ColorClass.LIGHT: 0.4,
    ColorClass.MEDIUM: 0.6,
    ColorClass.DARK: 0.8,
}


class AtticRegime(enum.Enum):
    """Roof air-space regime; a well-ventilated attic decouples the ceiling."""

    NONE = "none"
    CLOSED_OR_BARELY_VENTILATED = "closed_or_barely_ventilated"
    WELL_VENTILATED = "well_ventilated"


class WallConstruction(enum.Enum):
    POURED_CONCRETE_15 = "poured_concrete_15"
    CONCRETE_20 = "concrete_20"
    HOLLOW_CONCRETE_BLOCK = "hollow_concrete_block"
    WOOD = "wood"

    @property
    def base_resistance(self) -> float:
        """Thermal resistance of the bare construction, m2.K/W."""
        return _BASE_RESISTANCE[self]


_BASE_RESISTANCE = {
    WallConstruction.POURED_CONCRETE_15: 0.1,
    WallConstruction.CONCRETE_20: 0.1,
    WallConstruction.HOLLOW_CONCRETE_BLOCK: 0.2,
    WallConstruction.WOOD: 0.5,
}


class ShadingCase(enum.Enum):
    """Window overhang geometry case.

    CASE_1: overhang sits a distance ``a`` above the window top; the
    governing ratio is d / (2a + h).
    CASE_2: overhang sits directly at the window top; the ratio is d / h.
    """

    CASE_1 = "case1"
    CASE_2 = "case2"


class RoomKind(enum.Enum):
    MAIN = "main"        # bedrooms, living, dining and other living spaces
    SERVICE = "service"  # kitchens, bathrooms, corridors


class WaterHeaterKind(enum.Enum):
    SOLAR = "solar"
    ELECTRIC = "electric"
    GAS = "gas"


_MINERAL_WOOL_MARKERS = ("mineral", "wool", "laine")


class InsulationLayer(NamedTuple):
    """A homogeneous insulation layer.

    ``material`` is the name a rule looks up (``polystyrene``,
    ``mineral wool``), as in the building file's ``material`` key.
    Conductivity in W/(m.K), thickness in cm.  ``humidity_protected``
    records a vapour-protection attestation, relevant for fibrous
    materials that lose performance when damp.
    """

    material: str
    conductivity_w_mk: float
    thickness_cm: float
    humidity_protected: bool = False

    @property
    def resistance(self) -> float:
        """Layer thermal resistance, m2.K/W."""
        return (self.thickness_cm / 100.0) / self.conductivity_w_mk

    @property
    def is_mineral_wool(self) -> bool:
        name = self.material.lower()
        return any(marker in name for marker in _MINERAL_WOOL_MARKERS)


#: Placeholder layer for uninsulated components (zero thickness).
NO_INSULATION = InsulationLayer("none", 0.041, 0.0)


class RoofSpec(NamedTuple):
    color: ColorClass
    attic: AtticRegime
    insulation: InsulationLayer
    area_m2: float


class WallSpec(NamedTuple):
    """An exterior wall with its solar-protection attributes.

    ``overhang_depth_m`` (d) and ``overhang_height_m`` (h) describe a
    horizontal overhang: d is the horizontal projection, h the vertical
    distance from its underside down to the base of the protected wall.
    ``full_shading`` marks a vertical shading system or ventilated double
    skin covering the entire wall, which is sufficient protection
    whatever the orientation.
    """

    id: str
    construction: WallConstruction
    color: ColorClass
    azimuth_deg: float
    area_m2: float
    overhang_depth_m: float = 0.0
    overhang_height_m: float = 0.0
    insulation: InsulationLayer = NO_INSULATION
    full_shading: bool = False

    @property
    def orientation(self) -> Orientation:
        return orientation_from_azimuth(self.azimuth_deg)

    @property
    def base_resistance(self) -> float:
        return self.construction.base_resistance

    @property
    def overhang_ratio(self) -> float:
        """d/h of the overhang, 0.0 when there is no overhang."""
        if self.overhang_depth_m == 0:
            return 0.0
        return self.overhang_depth_m / self.overhang_height_m


class WindowSpec(NamedTuple):
    id: str
    azimuth_deg: float
    glazed_area_m2: float
    height_m: float
    shading_case: ShadingCase = ShadingCase.CASE_2
    overhang_depth_m: float = 0.0
    overhang_offset_m: float = 0.0  # a: overhang underside to window top (case 1)
    mobile_shading: bool = False    # venetian blinds / opaque mobile louvers

    @property
    def orientation(self) -> Orientation:
        return orientation_from_azimuth(self.azimuth_deg)

    @property
    def shading_height_m(self) -> float:
        """Reference height of the overhang ratio: 2a+h for case 1, h for case 2."""
        if self.shading_case is ShadingCase.CASE_1:
            return 2.0 * self.overhang_offset_m + self.height_m
        return self.height_m

    @property
    def shading_ratio(self) -> float:
        """d/(2a+h) for case 1, d/h for case 2; 0.0 with no overhang."""
        if self.overhang_depth_m == 0:
            return 0.0
        return self.overhang_depth_m / self.shading_height_m


class Opening(NamedTuple):
    """A net free opening; an external opening names the facade it pierces,
    an internal one names none."""

    id: str
    net_area_m2: float
    facade_id: str | None = None


class FacadeMembership(NamedTuple):
    facade_id: str
    gross_area_m2: float


class Room(NamedTuple):
    id: str
    kind: RoomKind
    floor_level: int = 0
    under_roof: bool = False
    facades: tuple[FacadeMembership, ...] = ()
    external_openings: tuple[Opening, ...] = ()
    internal_openings: tuple[Opening, ...] = ()


class FacadePair(NamedTuple):
    """Two opposite facades forming one cross-ventilation axis."""

    facade_1_id: str
    facade_2_id: str
    facade_1_area_m2: float
    facade_2_area_m2: float

    @property
    def id(self) -> str:
        return f"{self.facade_1_id}/{self.facade_2_id}"


class WaterHeaterSpec(NamedTuple):
    kind: WaterHeaterKind
    collector_area_m2: float = 0.0
    tank_volume_l: float = 0.0
    annual_productivity_kwh_m2: float = 0.0
    certified: bool = False


class BuildingDescription(NamedTuple):
    """Full dwelling model as parsed from a building description file."""

    name: str
    latitude: float
    longitude: float
    dwelling_type: int  # number of main rooms (F1..F6+)
    roof: RoofSpec
    walls: tuple[WallSpec, ...]
    windows: tuple[WindowSpec, ...]
    rooms: tuple[Room, ...]
    facade_pairs: tuple[FacadePair, ...]
    water_heater: WaterHeaterSpec
    vegetation_note: str = ""

    def main_rooms(self) -> tuple[Room, ...]:
        return tuple(r for r in self.rooms if r.kind is RoomKind.MAIN)

    def declared_facade_ids(self) -> set[str]:
        ids: set[str] = set()
        for room in self.rooms:
            ids.update(m.facade_id for m in room.facades)
        return ids


class ValidationIssue(NamedTuple):
    """One validation failure, naming the offending entity and field."""

    entity: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.entity}.{self.field}: {self.message}"


class BuildingValidationError(InputError):
    """Raised when a description with validation issues is used anyway;
    the message names the ``source`` file when one is given."""

    def __init__(self, issues: list[ValidationIssue], source=None):
        self.issues = issues
        prefix = "" if source is None else f"{source}: "
        super().__init__(prefix + "; ".join(str(i) for i in issues))


def validate(building: BuildingDescription) -> list[ValidationIssue]:
    """Check the rules of a description that span fields or check
    references.  The range of each number is declared in the building
    file format (``dataio.BUILDING_FORMAT``) and checked as the file is
    read, so a description built in code is not range-checked.

    Returns an empty list iff no such rule is broken.  Errors are
    collected rather than raised so a report can list all of them, in
    this order: duplicate wall and window ids; at least one main room;
    each room's positive facade area if it is a main room, then its
    openings (duplicate ids, the declared facade an external opening
    names, none for an internal one); each wall's overhang height when
    it has a depth; no window offset under case 2; the facade pairs
    (two different facades, no repeated pair, declared facades).
    """
    issues: list[ValidationIssue] = []

    def err(entity: str, fld: str, message: str) -> None:
        issues.append(ValidationIssue(entity, fld, message))

    for kind, surfaces in (("wall", building.walls), ("window", building.windows)):
        ids: set[str] = set()
        for surface in surfaces:
            if surface.id in ids:
                err(f"{kind} {surface.id}", "id", f"duplicate {kind} id")
            ids.add(surface.id)

    facade_ids = building.declared_facade_ids()
    opening_ids: set[str] = set()
    if not building.main_rooms():
        err("building", "rooms", "at least one main room is required")

    for room in building.rooms:
        if room.kind is RoomKind.MAIN and not any(
                m.gross_area_m2 > 0 for m in room.facades):
            err(f"room {room.id}", "facades",
                "a main room must contribute positive gross area to at least one facade")
        external = len(room.external_openings)
        for i, opening in enumerate(room.external_openings + room.internal_openings):
            entity = f"opening {opening.id}"
            if opening.id in opening_ids:
                err(entity, "id", "duplicate opening id")
            opening_ids.add(opening.id)
            if i >= external:
                if opening.facade_id is not None:
                    err(entity, "facade_id", "internal opening names no facade")
            elif opening.facade_id is None:
                err(entity, "facade_id", "external opening must name its facade")
            elif opening.facade_id not in facade_ids:
                err(entity, "facade_id", f"unknown facade {opening.facade_id!r}")

    for wall in building.walls:
        if wall.overhang_depth_m > 0 and wall.overhang_height_m <= 0:
            err(f"wall {wall.id}", "overhang_height_m",
                "must be > 0 when an overhang depth is given")

    for window in building.windows:
        if (window.shading_case is ShadingCase.CASE_2
                and window.overhang_offset_m != 0):
            err(f"window {window.id}", "overhang_offset_m",
                "offset applies to case 1 geometry only")

    pairs: set[frozenset[str]] = set()
    for pair in building.facade_pairs:
        if pair.facade_1_id == pair.facade_2_id:
            err(f"facade pair {pair.id}", "facade_id", "must name two different facades")
        axis = frozenset((pair.facade_1_id, pair.facade_2_id))
        if axis in pairs:
            err(f"facade pair {pair.id}", "facade_id", "duplicate facade pair")
        pairs.add(axis)
        for fid in (pair.facade_1_id, pair.facade_2_id):
            if fid not in facade_ids:
                err(f"facade pair {pair.id}", "facade_id",
                    f"unknown facade {fid!r}")
    return issues


class FacadePorosities(NamedTuple):
    """Porosity figures for one facade pair.

    so1/so2: summed net external opening areas of main rooms on each facade.
    si1/si2: summed internal opening areas of the main rooms on each side
    of the cross-ventilation path.  sp is the mean gross facade area and
    p1/p2 the resulting porosities.
    """

    pair_id: str
    so1: float
    so2: float
    si1: float
    si2: float
    sp: float
    p1: float
    p2: float


def _pair_porosities(building: BuildingDescription, pair: FacadePair) -> FacadePorosities:
    sp = (pair.facade_1_area_m2 + pair.facade_2_area_m2) / 2.0

    so = {pair.facade_1_id: 0.0, pair.facade_2_id: 0.0}
    si = {pair.facade_1_id: 0.0, pair.facade_2_id: 0.0}
    for room in building.main_rooms():
        member_of = {m.facade_id for m in room.facades}
        for opening in room.external_openings:
            if opening.facade_id in so:
                so[opening.facade_id] += opening.net_area_m2
        internal = sum(o.net_area_m2 for o in room.internal_openings)
        for fid in (pair.facade_1_id, pair.facade_2_id):
            if fid in member_of:
                si[fid] += internal

    so1, so2 = so[pair.facade_1_id], so[pair.facade_2_id]
    return FacadePorosities(
        pair_id=pair.id,
        so1=so1,
        so2=so2,
        si1=si[pair.facade_1_id],
        si2=si[pair.facade_2_id],
        sp=sp,
        p1=so1 / sp,
        p2=so2 / sp,
    )


def facade_porosities(building: BuildingDescription) -> list[FacadePorosities]:
    """Compute porosities for every declared facade pair.

    Only main rooms count, for openings and facade areas alike; each pair
    is an independent cross-ventilation axis.
    """
    return [_pair_porosities(building, pair) for pair in building.facade_pairs]
