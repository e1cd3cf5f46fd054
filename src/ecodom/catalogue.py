"""The prescription catalogue.

The quantitative content of the standard lives in a versioned JSON data
file (tables for roof insulation, wall overhangs, wall insulation, window
shading ratios, solar water heaters, plus the porosity threshold), so a
regulation revision means shipping a new data file, not new code.  The
file embeds a checksum over its tables; the loader refuses a file whose
tables do not match it.

Known catalogue quirks, kept as published:

* The overhang table rows name "poured concrete 15 cm" while the wall
  insulation table names "concrete 20 cm"; both carry R = 0.1 m2.K/W.
  Lookups map a wall construction to the row with the same base
  resistance.
* The well-ventilated-attic roof block has a single "medium or dark" row;
  both colour classes map to it.
"""

import functools
import json
import os
from importlib import resources
from typing import NamedTuple

from .building import ColorClass, Orientation, WallConstruction
from .errors import InputError, field, number, read_json

#: Environment variable naming a catalogue file to use instead of the bundled one.
CATALOGUE_ENV_VAR = "ECODOM_CATALOGUE"

_BUNDLED = "catalogue.json"

# Wall insulation table rows, keyed by base resistance (see module docstring).
_INSULATION_ROW = {
    WallConstruction.POURED_CONCRETE_15: "concrete_20",
    WallConstruction.CONCRETE_20: "concrete_20",
    WallConstruction.HOLLOW_CONCRETE_BLOCK: "hollow_concrete_block",
    WallConstruction.WOOD: "wood",
}
_OVERHANG_ROW = {
    WallConstruction.POURED_CONCRETE_15: "poured_concrete_15",
    WallConstruction.CONCRETE_20: "poured_concrete_15",
    WallConstruction.HOLLOW_CONCRETE_BLOCK: "hollow_concrete_block",
    WallConstruction.WOOD: "wood",
}


class CatalogueError(InputError):
    """Malformed, incomplete or corrupted catalogue file."""


class RuleCatalogue(NamedTuple):
    """In-memory view of one catalogue file."""

    version: str
    porosity_threshold: float
    reference_conductivities: dict[str, float]
    roof_insulation_cm: dict[str, dict[str, dict[str, float]]]
    wall_overhang_ratio: dict[str, dict[str, dict[str, float]]]
    wall_insulation_cm: dict[str, dict[str, dict[str, float]]]
    window_shading_ratio: dict[str, float]
    solar_collector_area_m2: dict[int, float]
    tank_volume_bounds_l_m2: tuple[float, float]
    solar_productivity_floor_kwh_m2: float

    @property
    def lambda_polystyrene(self) -> float:
        return self.reference_conductivities["polystyrene"]

    @property
    def lambda_polyurethane(self) -> float:
        return self.reference_conductivities["polyurethane"]

    def roof_cm(self, regime: str, color: ColorClass, reference: str) -> float:
        return self.roof_insulation_cm[regime][color.value][reference]

    def overhang_ratio(self, construction: WallConstruction,
                       color: ColorClass, orientation: Orientation) -> float:
        row = _OVERHANG_ROW[construction]
        return self.wall_overhang_ratio[row][color.value][orientation.value]

    def insulation_cm(self, construction: WallConstruction,
                      color: ColorClass, orientation: Orientation) -> float:
        row = _INSULATION_ROW[construction]
        return self.wall_insulation_cm[row][color.value][orientation.value]

    def window_ratio(self, orientation: Orientation) -> float:
        return self.window_shading_ratio[orientation.value]

    def collector_area(self, dwelling_type: int) -> float:
        if dwelling_type < 1:
            raise ValueError("dwelling type must be >= 1")
        capped = min(dwelling_type, max(self.solar_collector_area_m2))
        return self.solar_collector_area_m2[capped]


def tables_checksum(tables: dict) -> str:
    """Checksum of the canonical JSON serialization of the tables block."""
    # imported here: only a catalogue load needs it, and it is a sixth of
    # the import time of every command
    import hashlib

    canonical = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def catalogue_from_dict(doc: dict) -> RuleCatalogue:
    for key in ("catalogue_version", "checksum", "tables"):
        if key not in doc:
            raise CatalogueError(f"catalogue file missing {key!r}")
    tables = doc["tables"]
    expected = tables_checksum(tables)
    if doc["checksum"] != expected:
        raise CatalogueError(
            f"catalogue checksum mismatch: file says {doc['checksum']}, "
            f"tables hash to {expected}")
    try:
        bounds = field(tables, "tank_volume_per_collector_l_m2", dict)
        cat = RuleCatalogue(
            version=str(doc["catalogue_version"]),
            porosity_threshold=field(tables, "porosity_threshold", float),
            reference_conductivities={
                k: number(v)
                for k, v in field(tables, "reference_conductivities_w_mk", dict).items()},
            roof_insulation_cm=field(tables, "roof_insulation_cm", dict),
            wall_overhang_ratio=field(tables, "wall_overhang_ratio", dict),
            wall_insulation_cm=field(tables, "wall_insulation_cm", dict),
            window_shading_ratio=field(tables, "window_shading_ratio", dict),
            solar_collector_area_m2={
                int(k): number(v)
                for k, v in field(tables, "solar_collector_area_m2", dict).items()},
            tank_volume_bounds_l_m2=(field(bounds, "min", float),
                                     field(bounds, "max", float)),
            solar_productivity_floor_kwh_m2=field(
                tables, "solar_productivity_floor_kwh_m2", float),
        )
    except (TypeError, ValueError) as exc:
        raise CatalogueError(f"catalogue tables malformed: {exc}") from exc
    _check_complete(cat)
    return cat


def _check_complete(cat: RuleCatalogue) -> None:
    """Every cell the rules can look up must hold a finite number >= 0,
    and every scalar must lie in its range."""
    lookups = [("roof", cat.roof_cm, (regime, color, ref))
               for regime in ("simple", "well_ventilated_attic")
               for color in ColorClass
               for ref in ("polystyrene", "polyurethane")]
    for construction in WallConstruction:
        for color in (ColorClass.LIGHT, ColorClass.MEDIUM):
            for orientation in Orientation:
                args = (construction, color, orientation)
                lookups += [("wall overhang", cat.overhang_ratio, args),
                            ("wall insulation", cat.insulation_cm, args)]
    lookups += [("window", cat.window_ratio, (o,)) for o in Orientation]
    for table, lookup, args in lookups:
        where = "/".join(getattr(a, "value", a) for a in args)
        try:
            value = number(lookup(*args))
        except (KeyError, TypeError) as exc:
            raise CatalogueError(f"{table} table incomplete or malformed: {where}") from exc
        if value < 0:
            raise CatalogueError(f"{table} table cell {where} must be >= 0, got {value}")
    for ref in ("polystyrene", "polyurethane"):
        if not cat.reference_conductivities.get(ref, 0.0) > 0:
            raise CatalogueError(f"reference conductivity of {ref} must be > 0")
    collector = sorted(cat.solar_collector_area_m2)
    if not collector or collector != list(range(1, len(collector) + 1)):
        raise CatalogueError("solar collector table must list dwelling types 1 to N")
    if any(area < 0 for area in cat.solar_collector_area_m2.values()):
        raise CatalogueError("solar collector areas must be >= 0")
    if not 0 < cat.porosity_threshold <= 1:
        raise CatalogueError(
            f"porosity threshold must be in (0, 1], got {cat.porosity_threshold}")
    low, high = cat.tank_volume_bounds_l_m2
    if not 0 <= low <= high:
        raise CatalogueError(
            f"tank volume bounds must satisfy 0 <= min <= max, got {low} and {high}")
    if cat.solar_productivity_floor_kwh_m2 < 0:
        raise CatalogueError("solar productivity floor must be >= 0, "
                             f"got {cat.solar_productivity_floor_kwh_m2}")


def load_catalogue(path: str | os.PathLike | None = None) -> RuleCatalogue:
    """Load a catalogue file; with no path, honour $ECODOM_CATALOGUE then
    fall back to the bundled tables."""
    if path is None:
        path = os.environ.get(CATALOGUE_ENV_VAR) or None
    if path is None:
        return default_catalogue()
    doc = read_json(path, CatalogueError)
    try:
        return catalogue_from_dict(doc)
    except CatalogueError as exc:
        raise CatalogueError(f"{path}: {exc}") from exc


@functools.cache
def default_catalogue() -> RuleCatalogue:
    """The bundled catalogue, ignoring any environment override.

    Parsed once per process; every caller shares the returned object, so
    its tables must not be mutated.
    """
    return catalogue_from_dict(
        read_json(resources.files("ecodom.data").joinpath(_BUNDLED), CatalogueError))
