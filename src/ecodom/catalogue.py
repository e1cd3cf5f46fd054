"""The prescription catalogue.

The quantitative content of the standard lives in a versioned JSON data
file (tables for roof insulation, wall overhangs, wall insulation, window
shading ratios, solar water heaters, plus the porosity threshold), so a
regulation revision means shipping a new data file, not new code.  The
loader refuses a file whose tables do not match its checksum, or that
holds a key :data:`CATALOGUE_FORMAT` does not declare.

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
from .errors import REQUIRED, InputError, load_json, read_format

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
    reference_conductivities_w_mk: dict[str, float]
    roof_insulation_cm: dict[str, dict[str, dict[str, float]]]
    wall_overhang_ratio: dict[str, dict[str, dict[str, float]]]
    wall_insulation_cm: dict[str, dict[str, dict[str, float]]]
    window_shading_ratio: dict[str, float]
    solar_collector_area_m2: dict[int, float]
    tank_volume_bounds_l_m2: tuple[float, float]
    solar_productivity_floor_kwh_m2: float

    @property
    def lambda_polystyrene(self) -> float:
        return self.reference_conductivities_w_mk["polystyrene"]

    @property
    def lambda_polyurethane(self) -> float:
        return self.reference_conductivities_w_mk["polyurethane"]

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


def _catalogue(catalogue_version: str, checksum: str, tables: dict) -> RuleCatalogue:
    bounds = tables.pop("tank_volume_per_collector_l_m2")
    return RuleCatalogue(catalogue_version, **tables,
                         tank_volume_bounds_l_m2=(bounds["min"], bounds["max"]))


_REFERENCES = dict.fromkeys(("polystyrene", "polyurethane"), float)
_ORIENTATIONS = dict.fromkeys([o.value for o in Orientation], float)
_ROOF_COLORS = dict.fromkeys([c.value for c in ColorClass], _REFERENCES)
_WALL_COLORS = dict.fromkeys([ColorClass.LIGHT.value, ColorClass.MEDIUM.value], _ORIENTATIONS)

#: The catalogue file format (see ``errors.read_format``): each table holds
#: exactly the cells the rules look up.  The checksum is checked before
#: the walk, the cells >= 0 and the scalar ranges after it.
CATALOGUE_FORMAT = {"catalogue": (_catalogue, (
    ("catalogue_version", str, REQUIRED),
    ("checksum", str, REQUIRED),
    ("tables", {
        "porosity_threshold": float,
        "reference_conductivities_w_mk": _REFERENCES,
        "roof_insulation_cm": dict.fromkeys(("simple", "well_ventilated_attic"), _ROOF_COLORS),
        "wall_overhang_ratio": dict.fromkeys(_OVERHANG_ROW.values(), _WALL_COLORS),
        "wall_insulation_cm": dict.fromkeys(_INSULATION_ROW.values(), _WALL_COLORS),
        "window_shading_ratio": _ORIENTATIONS,
        "solar_collector_area_m2": {int: float},
        "tank_volume_per_collector_l_m2": dict.fromkeys(("min", "max"), float),
        "solar_productivity_floor_kwh_m2": float,
    }, REQUIRED),
))}


def catalogue_from_dict(doc: dict) -> RuleCatalogue:
    expected = tables_checksum(doc.get("tables"))
    if "tables" in doc and doc.get("checksum", expected) != expected:
        raise CatalogueError(
            f"catalogue checksum mismatch: file says {doc['checksum']}, "
            f"tables hash to {expected}")
    cat = read_format(doc, "catalogue", CATALOGUE_FORMAT, CatalogueError)
    _check_ranges(cat, doc["tables"])
    return cat


def _cells(value, where: str):
    """Yield the path and the value of every number in a table, or of a number."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _cells(item, f"{where}.{key}")
    else:
        yield where, value


def _check_ranges(cat: RuleCatalogue, tables: dict) -> None:
    """The rules the format's types do not state: some scalars in their
    ranges, then every number of the ``tables`` read as ``cat`` >= 0."""
    for ref in ("polystyrene", "polyurethane"):
        if not cat.reference_conductivities_w_mk[ref] > 0:
            raise CatalogueError(f"reference conductivity of {ref} must be > 0")
    collector = sorted(cat.solar_collector_area_m2)
    if not collector or collector != list(range(1, len(collector) + 1)):
        raise CatalogueError("solar collector table must list dwelling types 1 to N")
    if not 0 < cat.porosity_threshold <= 1:
        raise CatalogueError(
            f"porosity threshold must be in (0, 1], got {cat.porosity_threshold}")
    low, high = cat.tank_volume_bounds_l_m2
    if not 0 <= low <= high:
        raise CatalogueError(
            f"tank volume bounds must satisfy 0 <= min <= max, got {low} and {high}")
    for where, value in _cells(tables, "tables"):
        if value < 0:
            raise CatalogueError(f"{where} must be >= 0, got {value}")


def load_catalogue(path: str | os.PathLike | None = None) -> RuleCatalogue:
    """Load a catalogue file; with no path, honour $ECODOM_CATALOGUE then
    fall back to the bundled tables."""
    if path is None:
        path = os.environ.get(CATALOGUE_ENV_VAR) or None
    if path is None:
        return default_catalogue()
    return load_json(path, catalogue_from_dict, CatalogueError)


@functools.cache
def default_catalogue() -> RuleCatalogue:
    """The bundled catalogue, ignoring any environment override.

    Parsed once per process; every caller shares the returned object, so
    its tables must not be mutated.
    """
    return load_json(resources.files("ecodom.data").joinpath(_BUNDLED), catalogue_from_dict,
                     CatalogueError)
