import pathlib

import pytest

from ecodom.catalogue import default_catalogue

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "ecodom" / "data"

INITIAL_FIXTURE = DATA_DIR / "decouverte_initial.json"
FINAL_FIXTURE = DATA_DIR / "decouverte_final.json"


@pytest.fixture(scope="session")
def catalogue():
    return default_catalogue()


@pytest.fixture(scope="session")
def initial_building():
    from ecodom.dataio import load_building
    return load_building(INITIAL_FIXTURE)


@pytest.fixture(scope="session")
def final_building():
    from ecodom.dataio import load_building
    return load_building(FINAL_FIXTURE)


@pytest.fixture
def solar_calls(monkeypatch):
    """Count the sun-position, irradiance and overhang-shading calls made
    by simulate."""
    from ecodom import thermal
    calls = {"position": 0, "irradiance": 0, "shading": 0}
    for name, key in (("solar_position", "position"),
                      ("surface_irradiance", "irradiance"),
                      ("overhang_shading_fraction", "shading")):
        def counted(*args, _fn=getattr(thermal, name), _key=key):
            calls[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(thermal, name, counted)
    return calls
