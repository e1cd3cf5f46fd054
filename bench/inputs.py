"""Seeded inputs for the ecodom benchmark, made with the standard library.

Nothing here imports ecodom: a change to the program must not be able to
change the inputs it is measured on.  The same seed gives byte-identical
files.  Building variants are perturbations of frozen copies of the two
golden Decouverte descriptions kept in ``fixtures/``.
"""

from __future__ import annotations

import copy
import json
import math
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

LATITUDE = -21.0
LONGITUDE = 55.5

WEATHER_HEADER = ("timestamp,temp_air_c,rh_pct,solar_direct_w_m2,"
                  "solar_diffuse_w_m2,wind_speed_m_s,wind_dir_deg")
INDOOR_HEADER = "timestamp,zone,temp_air_c,temp_resultant_c,rh_pct,air_speed_m_s"
INDOOR_ZONES = ("bedroom", "living")

MATERIALS = (("polystyrene", 0.041), ("polyurethane", 0.029), ("mineral wool", 0.04))
NEW_AZIMUTHS = (45.0, 135.0, 225.0, 315.0)


def golden(name: str) -> dict:
    """The frozen golden description ``initial`` or ``final``."""
    return json.loads((FIXTURES / f"decouverte_{name}.json").read_text("utf-8"))


def _rng(seed: int, stream: str) -> random.Random:
    # String seeds are hashed with SHA-512, so streams do not depend on
    # PYTHONHASHSEED.
    return random.Random(f"ecodom-bench:{seed}:{stream}")


# ---------------------------------------------------------------------------
# building variants

def _insulation(rng: random.Random, max_cm: int) -> dict:
    name, conductivity = rng.choice(MATERIALS)
    return {"material": name, "conductivity_w_mk": conductivity,
            "thickness_cm": float(rng.randint(0, max_cm)),
            "humidity_protected": rng.random() < 0.5}


def _window_for(doc: dict, opening_id: str) -> dict | None:
    return next((w for w in doc["windows"] if w["id"] == opening_id), None)


PARAMETRIC_EDITS = ("roof_color", "roof_insulation", "wall_color", "wall_insulation",
                    "overhang", "opening_area", "dwelling_type", "water_heater")
STRUCTURAL_EDITS = ("add_wall", "add_window", "drop_window", "add_room")

# The structural edits of the simulate-sweep population, one tuple per
# variant.  They fix each variant's surface count, so the work per
# operation does not depend on the seed; the seed still sets every value
# and whether an added surface shares an orientation.
SWEEP_STRUCTURE = ((), ("add_wall",), ("add_window",), ("drop_window",),
                   ("add_wall", "add_window"), ("add_room",))


def _perturb(doc: dict, rng: random.Random, tag: str,
             kinds: tuple[str, ...] = PARAMETRIC_EDITS + STRUCTURAL_EDITS) -> None:
    """Apply one seeded edit, of one of ``kinds``, of the sort a design
    team makes."""
    kind = rng.choice(kinds)
    if kind == "roof_color":
        doc["roof"]["color"] = rng.choice(("light", "light", "medium", "dark"))
    elif kind == "roof_insulation":
        doc["roof"]["insulation"] = _insulation(rng, 14)
    elif kind == "wall_color":
        rng.choice(doc["walls"])["color"] = rng.choice(("light", "light", "medium", "dark"))
    elif kind == "wall_insulation":
        rng.choice(doc["walls"])["insulation"] = _insulation(rng, 6)
    elif kind == "overhang":
        if rng.random() < 0.5:
            wall = rng.choice(doc["walls"])
            wall["overhang_depth_m"] = rng.choice((0.0, 0.5, 1.0, 1.5, 2.0))
            wall["overhang_height_m"] = 2.5 if wall["overhang_depth_m"] > 0 else 0.0
        elif doc["windows"]:
            rng.choice(doc["windows"])["overhang_depth_m"] = rng.choice((0.0, 0.3, 0.6, 1.0, 1.5))
    elif kind == "opening_area":
        room = rng.choice([r for r in doc["rooms"] if r["external_openings"]])
        opening = rng.choice(room["external_openings"])
        area = round(opening["net_area_m2"] * rng.uniform(0.6, 1.5), 2)
        opening["net_area_m2"] = area
        window = _window_for(doc, opening["id"])
        if window is not None:
            window["glazed_area_m2"] = area
    elif kind == "add_wall":
        base = rng.choice(doc["walls"])
        wall = copy.deepcopy(base)
        wall["id"] = f"{base['id']}_{tag}"
        wall["area_m2"] = round(rng.uniform(4.0, 16.0), 1)
        if rng.random() < 0.5:
            wall["azimuth_deg"] = rng.choice(NEW_AZIMUTHS)
        doc["walls"].append(wall)
    elif kind == "add_window":
        base = rng.choice(doc["windows"]) if doc["windows"] else None
        window = {"id": f"win_{tag}", "azimuth_deg": rng.choice((0.0, 90.0, 180.0, 270.0, 45.0)),
                  "glazed_area_m2": round(rng.uniform(0.4, 2.0), 2),
                  "height_m": rng.choice((1.0, 1.2, 1.4)), "shading_case": "case2",
                  "overhang_depth_m": base["overhang_depth_m"] if base else 0.0,
                  "overhang_offset_m": 0.0, "mobile_shading": rng.random() < 0.3}
        doc["windows"].append(window)
    elif kind == "drop_window":
        if len(doc["windows"]) > 1:
            doc["windows"].pop(rng.randrange(len(doc["windows"])))
    elif kind == "add_room":
        facade = rng.choice([m["facade_id"] for r in doc["rooms"] for m in r["facades"]])
        main = rng.random() < 0.5
        doc["rooms"].append({
            "id": f"room_{tag}", "kind": "main" if main else "service",
            "floor_level": rng.randint(0, 1), "under_roof": rng.random() < 0.5,
            "facades": [{"facade_id": facade, "gross_area_m2": round(rng.uniform(4.0, 10.0), 1)}],
            "external_openings": [{"id": f"opening_{tag}", "facade_id": facade,
                                   "net_area_m2": round(rng.uniform(0.5, 3.0), 2)}],
            "internal_openings": [{"id": f"door_{tag}",
                                   "net_area_m2": round(rng.uniform(1.2, 2.4), 2)}],
        })
    elif kind == "dwelling_type":
        doc["dwelling_type"] = rng.randint(1, 6)
    else:
        heater = rng.choice(("solar", "solar", "electric", "gas"))
        if heater == "solar":
            area = round(rng.uniform(1.5, 4.0), 1)
            doc["water_heater"] = {
                "kind": "solar", "collector_area_m2": area,
                "tank_volume_l": round(area * rng.uniform(50.0, 130.0)),
                "annual_productivity_kwh_m2": float(rng.choice((650, 720, 750, 800))),
                "certified": rng.random() < 0.85}
        else:
            doc["water_heater"] = {"kind": heater, "collector_area_m2": 0.0,
                                   "tank_volume_l": 200.0,
                                   "annual_productivity_kwh_m2": 0.0,
                                   "certified": rng.random() < 0.7}


def building_variants(seed: int, count: int) -> list[dict]:
    """The check-cli population: ``count`` valid descriptions, each a
    golden file with zero to three seeded edits.  Bases and edit counts
    are chosen so that roughly half of the population passes the
    prescriptions."""
    rng = _rng(seed, "check")
    bases = {name: golden(name) for name in ("initial", "final")}
    variants = []
    for i in range(count):
        base = "final" if rng.random() < 0.7 else "initial"
        doc = copy.deepcopy(bases[base])
        doc["name"] = f"Variant check {i:03d} ({base})"
        for j in range(rng.choice((0, 1, 1, 2, 3))):
            _perturb(doc, rng, f"{i}_{j}")
        variants.append(doc)
    return variants


def sweep_variants(seed: int) -> list[dict]:
    """The simulate-sweep population: alternately the final and the
    initial golden, each with the structural edits of SWEEP_STRUCTURE and
    two seeded parametric edits."""
    rng = _rng(seed, "simulate")
    variants = []
    for i, structure in enumerate(SWEEP_STRUCTURE):
        base = ("final", "initial")[i % 2]
        doc = golden(base)
        doc["name"] = f"Variant simulate {i:03d} ({base})"
        for j, kind in enumerate(structure):
            _perturb(doc, rng, f"{i}_{j}", (kind,))
        for j in range(len(structure), len(structure) + 2):
            _perturb(doc, rng, f"{i}_{j}", PARAMETRIC_EDITS)
        variants.append(doc)
    return variants


def orientations(doc: dict) -> list[tuple[float, float]]:
    """(azimuth, tilt) of every surface the thermal model builds: the
    roof, each wall and each window."""
    return ([(0.0, 0.0)] + [(w["azimuth_deg"], 90.0) for w in doc["walls"]]
            + [(w["azimuth_deg"], 90.0) for w in doc["windows"]])


def shared_orientation_share(doc: dict) -> float:
    """Share of surfaces whose orientation another surface also has."""
    surfaces = orientations(doc)
    shared = sum(1 for s in surfaces if surfaces.count(s) > 1)
    return shared / len(surfaces)


def write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", "utf-8")


# ---------------------------------------------------------------------------
# scenarios

def scenarios(seed: int) -> list[dict]:
    """Mass class crossed with a constant or an evening-peak gain schedule."""
    rng = _rng(seed, "scenarios")
    docs = []
    for mass in ("heavy", "light"):
        docs.append({"mass_class": mass, "internal_gains_w": round(rng.uniform(100.0, 500.0), 1)})
        base = rng.uniform(80.0, 200.0)
        peak = rng.uniform(400.0, 900.0)
        schedule = [round(base + (peak if 14 <= h <= 19 else 0.0) * rng.uniform(0.7, 1.0), 1)
                    for h in range(24)]
        docs.append({"mass_class": mass, "internal_gains_w": schedule})
    return docs


# ---------------------------------------------------------------------------
# weather year

def _sun_altitude_sin(day: int, utc_hour: float) -> float:
    """Sine of the sun altitude at the site from the Cooper declination
    and the hour angle; accurate enough for plausible irradiance."""
    decl = math.radians(23.44) * math.sin(2.0 * math.pi * (284 + day) / 365.0)
    solar_time = utc_hour + LONGITUDE / 15.0
    hour_angle = math.radians(15.0 * (solar_time - 12.0))
    lat = math.radians(LATITUDE)
    return (math.sin(lat) * math.sin(decl)
            + math.cos(lat) * math.cos(decl) * math.cos(hour_angle))


def weather_year(seed: int) -> tuple[str, list[str]]:
    """One hourly year of Reunion weather as CSV text, and its timestamps.

    Irradiance is clear-sky modulated by an AR(1) cloud index;
    temperature, humidity and wind carry seasonal and diurnal cycles with
    AR(1) noise.
    """
    rng = _rng(seed, "weather")
    start = datetime(2026, 1, 1, tzinfo=timezone.utc)
    lines = [WEATHER_HEADER]
    stamps = []
    cloud = t_noise = rh_noise = wind_noise = 0.0
    for h in range(365 * 24):
        ts = (start + timedelta(hours=h)).isoformat()
        stamps.append(ts)
        day, utc_hour = divmod(h, 24)
        cloud = min(1.0, max(0.0, 0.8 * cloud + 0.2 * rng.random() * 1.6))
        t_noise = 0.8 * t_noise + rng.gauss(0.0, 0.35)
        rh_noise = 0.8 * rh_noise + rng.gauss(0.0, 1.5)
        wind_noise = 0.7 * wind_noise + rng.gauss(0.0, 0.6)

        sin_alt = _sun_altitude_sin(day, utc_hour)
        dni = dhi = 0.0
        if sin_alt > 0.03:
            clear = 1361.0 * 0.7 ** (1.0 / sin_alt)
            dni = clear * (1.0 - 0.85 * cloud)
            dhi = (0.1 + 0.35 * cloud) * clear * sin_alt
        local_hour = (utc_hour + 4) % 24
        season = math.cos(2.0 * math.pi * (day - 30) / 365.0)   # warmest ~1 Feb
        diurnal = math.cos(2.0 * math.pi * (local_hour - 14.0) / 24.0)
        temp = 24.0 + 3.0 * season + 3.5 * diurnal + t_noise
        rh = min(100.0, max(20.0, 74.0 - 9.0 * diurnal + rh_noise))
        wind = max(0.0, 3.5 + 1.5 * diurnal + wind_noise)
        wind_dir = (110.0 + rng.gauss(0.0, 25.0)) % 360.0
        lines.append(f"{ts},{temp:.2f},{rh:.1f},{dni:.1f},{dhi:.1f},"
                     f"{wind:.2f},{wind_dir:.1f}")
    return "\n".join(lines) + "\n", stamps


# ---------------------------------------------------------------------------
# indoor logger series

BLANK_RESULTANT = (0.05, 0.10, 0.15)
BLANK_SPEED = (0.30, 0.20, 0.10)

def indoor_series(seed: int, index: int, rows_per_zone: int) -> tuple[str, dict]:
    """A two-zone, 10-minute logger series sharing timestamps, with some
    blank resultant-temperature and air-speed cells.  Returns the CSV text
    and its row and blank-cell counts."""
    rng = _rng(seed, f"indoor{index}")
    start = datetime(2026, 2, 1, tzinfo=timezone.utc) + timedelta(days=7 * index)
    # Blank shares depend on the series index only, so every seed's
    # population does the same amount of parsing and classification.
    blank_resultant = BLANK_RESULTANT[index % len(BLANK_RESULTANT)]
    blank_speed = BLANK_SPEED[index % len(BLANK_SPEED)]
    lines = [INDOOR_HEADER]
    blanks = 0
    noise = {zone: 0.0 for zone in INDOOR_ZONES}
    for i in range(rows_per_zone):
        ts = (start + timedelta(minutes=10 * i)).isoformat()
        local_hour = ((i / 6.0) + 4.0) % 24.0
        diurnal = math.cos(2.0 * math.pi * (local_hour - 16.0) / 24.0)
        for k, zone in enumerate(INDOOR_ZONES):
            noise[zone] = 0.9 * noise[zone] + rng.gauss(0.0, 0.15)
            air = 27.5 + 0.8 * k + 2.5 * diurnal + noise[zone]
            rh = min(100.0, max(30.0, 70.0 - 6.0 * diurnal + rng.gauss(0.0, 3.0)))
            resultant = ""
            if rng.random() >= blank_resultant:
                resultant = f"{air + rng.uniform(0.0, 1.2):.2f}"
            speed = ""
            if rng.random() >= blank_speed:
                speed = f"{rng.uniform(0.0, 1.5):.2f}"
            blanks += (resultant == "") + (speed == "")
            lines.append(f"{ts},{zone},{air:.2f},{resultant},{rh:.1f},{speed}")
    rows = rows_per_zone * len(INDOOR_ZONES)
    return "\n".join(lines) + "\n", {"rows": rows, "blank_cells": blanks,
                                    "blank_cell_share": blanks / (2 * rows)}
