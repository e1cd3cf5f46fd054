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
    """Count the stage-1 columns simulate builds: sun-position columns
    (one per series and site), irradiance columns (one per orientation
    of a track) and overhang shading columns (one per geometry of a
    track)."""
    from ecodom import thermal
    calls = {"position": 0, "irradiance": 0, "shading": 0}
    for owner, name, key in ((thermal, "sun_positions", "position"),
                             (thermal._SunTrack, "_irradiance", "irradiance"),
                             (thermal._SunTrack, "_shading", "shading")):
        def counted(*args, _fn=getattr(owner, name), _key=key):
            calls[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls
