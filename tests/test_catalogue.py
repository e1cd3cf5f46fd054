"""Golden transcription tests: every published table cell must come back
from the catalogue exactly."""

import json

import pytest

from ecodom.building import ColorClass, Orientation, WallConstruction
from ecodom.catalogue import (
    CatalogueError,
    catalogue_from_dict,
    default_catalogue,
    load_catalogue,
    tables_checksum,
)

L, M, D = ColorClass.LIGHT, ColorClass.MEDIUM, ColorClass.DARK
E, S, W, N = Orientation.EAST, Orientation.SOUTH, Orientation.WEST, Orientation.NORTH

# Independent transcription of the published tables, cell by cell.

ROOF_SIMPLE = {  # colour -> (polystyrene cm, polyurethane cm)
    L: (5.0, 4.0),
    M: (8.0, 6.0),
    D: (10.0, 8.0),
}
ROOF_VENTILATED = {
    L: (0.0, 0.0),   # "no insulation needed"
    M: (2.0, 0.0),   # published as a single "medium or dark" row
    D: (2.0, 0.0),
}

OVERHANG = {  # (construction row, colour) -> {orientation: min d/h}
    (WallConstruction.POURED_CONCRETE_15, L): {E: 0.4, S: 0.2, W: 0.7, N: 0.5},
    (WallConstruction.POURED_CONCRETE_15, M): {E: 1.0, S: 0.5, W: 1.3, N: 0.7},
    (WallConstruction.HOLLOW_CONCRETE_BLOCK, L): {E: 0.1, S: 0.1, W: 0.3, N: 0.2},
    (WallConstruction.HOLLOW_CONCRETE_BLOCK, M): {E: 0.5, S: 0.3, W: 0.8, N: 0.5},
    (WallConstruction.WOOD, L): {E: 0.0, S: 0.0, W: 0.0, N: 0.0},
    (WallConstruction.WOOD, M): {E: 0.0, S: 0.0, W: 0.2, N: 0.1},
}

WALL_INSULATION = {  # (construction row, colour) -> {orientation: min cm}
    (WallConstruction.CONCRETE_20, L): {E: 1.0, S: 1.0, W: 1.0, N: 1.0},
    (WallConstruction.CONCRETE_20, M): {E: 2.0, S: 1.0, W: 2.0, N: 2.0},
    (WallConstruction.HOLLOW_CONCRETE_BLOCK, L): {E: 1.0, S: 1.0, W: 1.0, N: 1.0},
    (WallConstruction.HOLLOW_CONCRETE_BLOCK, M): {E: 1.0, S: 1.0, W: 2.0, N: 2.0},
    (WallConstruction.WOOD, L): {E: 0.0, S: 0.0, W: 0.0, N: 0.0},
    (WallConstruction.WOOD, M): {E: 0.0, S: 0.0, W: 1.0, N: 1.0},
}

WINDOW_RATIO = {E: 0.8, S: 0.3, W: 1.0, N: 0.6}

COLLECTOR_AREA = {1: 1.5, 2: 1.5, 3: 2.0, 4: 2.5, 5: 3.0, 6: 3.5}


def test_roof_table(catalogue):
    for color, (poly, pur) in ROOF_SIMPLE.items():
        assert catalogue.roof_cm("simple", color, "polystyrene") == poly
        assert catalogue.roof_cm("simple", color, "polyurethane") == pur
    for color, (poly, pur) in ROOF_VENTILATED.items():
        assert catalogue.roof_cm("well_ventilated_attic", color, "polystyrene") == poly
        assert catalogue.roof_cm("well_ventilated_attic", color, "polyurethane") == pur


def test_overhang_table(catalogue):
    for (construction, color), row in OVERHANG.items():
        for orientation, expected in row.items():
            assert catalogue.overhang_ratio(construction, color, orientation) == expected


def test_wall_insulation_table(catalogue):
    for (construction, color), row in WALL_INSULATION.items():
        for orientation, expected in row.items():
            assert catalogue.insulation_cm(construction, color, orientation) == expected


def test_window_table(catalogue):
    for orientation, expected in WINDOW_RATIO.items():
        assert catalogue.window_ratio(orientation) == expected


def test_collector_table(catalogue):
    for dwelling_type, expected in COLLECTOR_AREA.items():
        assert catalogue.collector_area(dwelling_type) == expected
    assert catalogue.collector_area(9) == 3.5  # F6 and more


def test_scalar_values(catalogue):
    assert catalogue.porosity_threshold == 0.25
    assert catalogue.lambda_polystyrene == 0.041
    assert catalogue.lambda_polyurethane == 0.029
    assert catalogue.tank_volume_bounds_l_m2 == (60.0, 120.0)
    assert catalogue.solar_productivity_floor_kwh_m2 == 700.0


def test_concrete_rows_share_base_resistance(catalogue):
    # The two concrete row names differ between tables but both carry
    # R = 0.1; a wall of either construction resolves in both tables.
    for construction in (WallConstruction.POURED_CONCRETE_15,
                         WallConstruction.CONCRETE_20):
        assert catalogue.overhang_ratio(construction, M, W) == 1.3
        assert catalogue.insulation_cm(construction, M, E) == 2.0


def test_checksum_rejects_tampering(catalogue, tmp_path):
    from ecodom.catalogue import _BUNDLED
    from importlib import resources
    doc = json.loads(resources.files("ecodom.data").joinpath(_BUNDLED).read_text())
    doc["tables"]["porosity_threshold"] = 0.10
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CatalogueError, match="checksum"):
        load_catalogue(bad)


def test_checksum_accepts_recomputed_tables(tmp_path):
    from ecodom.catalogue import _BUNDLED
    from importlib import resources
    doc = json.loads(resources.files("ecodom.data").joinpath(_BUNDLED).read_text())
    doc["tables"]["porosity_threshold"] = 0.30
    doc["checksum"] = tables_checksum(doc["tables"])
    doc["catalogue_version"] = "test-rev"
    cat = catalogue_from_dict(doc)
    assert cat.porosity_threshold == 0.30
    assert cat.version == "test-rev"


def test_incomplete_catalogue_rejected():
    from ecodom.catalogue import _BUNDLED
    from importlib import resources
    doc = json.loads(resources.files("ecodom.data").joinpath(_BUNDLED).read_text())
    del doc["tables"]["window_shading_ratio"]["west"]
    doc["checksum"] = tables_checksum(doc["tables"])
    with pytest.raises(CatalogueError, match="window"):
        catalogue_from_dict(doc)


@pytest.mark.parametrize("key", [" 1", "+1", "01", "1_0", "0", "-1", "1.0", "١", ""])
def test_dwelling_type_keys_are_canonical(key):
    # only 1, 2, 3 ... name a dwelling type, though int() reads " 1", "01" or "١" as 1
    from ecodom.catalogue import _BUNDLED
    from importlib import resources
    doc = json.loads(resources.files("ecodom.data").joinpath(_BUNDLED).read_text())
    doc["tables"]["solar_collector_area_m2"][key] = 9.0
    doc["checksum"] = tables_checksum(doc["tables"])
    with pytest.raises(CatalogueError) as caught:
        catalogue_from_dict(doc)
    assert str(caught.value) == f"unknown key tables.solar_collector_area_m2.{key}"


@pytest.mark.parametrize("key,value", [("catalogue_version", 3), ("catalogue_version", None),
                                       ("checksum", 1)])
def test_version_and_checksum_must_be_strings(key, value):
    from ecodom.catalogue import _BUNDLED
    from importlib import resources
    doc = json.loads(resources.files("ecodom.data").joinpath(_BUNDLED).read_text())
    doc[key] = value
    with pytest.raises(CatalogueError, match=key if key != "checksum" else "checksum mismatch"):
        catalogue_from_dict(doc)


def test_env_var_override(tmp_path, monkeypatch, catalogue):
    from ecodom.catalogue import CATALOGUE_ENV_VAR, _BUNDLED
    from importlib import resources
    doc = json.loads(resources.files("ecodom.data").joinpath(_BUNDLED).read_text())
    doc["catalogue_version"] = "env-override"
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv(CATALOGUE_ENV_VAR, str(path))
    assert load_catalogue().version == "env-override"
    assert default_catalogue().version == catalogue.version


def test_bundled_catalogue_parsed_once(monkeypatch):
    from ecodom.catalogue import CATALOGUE_ENV_VAR
    monkeypatch.delenv(CATALOGUE_ENV_VAR, raising=False)
    assert load_catalogue() is default_catalogue()


@pytest.mark.parametrize("edit,message", [
    (lambda t: t["roof_insulation_cm"]["simple"]["light"].update(polystyrene=None),
     "roof"),
    (lambda t: t["wall_overhang_ratio"].update(wood=[]), "wall_overhang_ratio.wood"),
    (lambda t: t["reference_conductivities_w_mk"].update(polystyrene=0.0),
     "polystyrene"),
    (lambda t: t["solar_collector_area_m2"].pop("3"), "collector"),
    (lambda t: t["tank_volume_per_collector_l_m2"].pop("max"), "max"),
    (lambda t: t.update(porosity_threshold=-0.5), "porosity threshold"),
    (lambda t: t.update(porosity_threshold=0.0), "porosity threshold"),
    (lambda t: t.update(porosity_threshold=1.5), "porosity threshold"),
    (lambda t: t["tank_volume_per_collector_l_m2"].update(min=150, max=50),
     "tank volume bounds"),
    (lambda t: t["tank_volume_per_collector_l_m2"].update(min=-10), "tank volume bounds"),
    (lambda t: t.update(solar_productivity_floor_kwh_m2=-1),
     "tables.solar_productivity_floor_kwh_m2 must be >= 0"),
    (lambda t: t["roof_insulation_cm"]["simple"]["dark"].update(polyurethane=-8),
     "tables.roof_insulation_cm.simple.dark.polyurethane must be >= 0"),
    (lambda t: t["wall_overhang_ratio"]["wood"]["medium"].update(west=-0.2),
     "tables.wall_overhang_ratio.wood.medium.west must be >= 0"),
    (lambda t: t["window_shading_ratio"].update(north=-0.6),
     "tables.window_shading_ratio.north must be >= 0"),
    (lambda t: t["solar_collector_area_m2"].update({"4": -2.5}),
     "tables.solar_collector_area_m2.4 must be >= 0"),
], ids=["null-cell", "list-row", "zero-conductivity", "collector-gap", "missing-bound",
        "negative-threshold", "zero-threshold", "threshold-above-one",
        "inverted-tank-bounds", "negative-tank-min", "negative-productivity-floor",
        "negative-roof-cell", "negative-overhang-cell", "negative-window-cell",
        "negative-collector-area"])
def test_malformed_tables_rejected(edit, message):
    from ecodom.catalogue import _BUNDLED
    from importlib import resources
    doc = json.loads(resources.files("ecodom.data").joinpath(_BUNDLED).read_text())
    edit(doc["tables"])
    doc["checksum"] = tables_checksum(doc["tables"])
    with pytest.raises(CatalogueError, match=message):
        catalogue_from_dict(doc)
