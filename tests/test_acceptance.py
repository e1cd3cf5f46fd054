"""Acceptance suite.

One test per release criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them) and
enforcing its stated tolerance and runtime budget.
"""

import random
import time
from datetime import timedelta

import pytest

from conftest import FINAL_FIXTURE, INITIAL_FIXTURE
from ecodom.archetypes import (
    POROSITY_25_APERTURES,
    VOLUME_M3,
    compliant_zone,
    synthetic_weather,
    uninsulated_zone,
)
from ecodom.building import (
    NO_INSULATION,
    AtticRegime,
    BuildingDescription,
    ColorClass,
    FacadeMembership,
    FacadePair,
    Opening,
    Room,
    RoomKind,
    RoofSpec,
    WaterHeaterKind,
    WaterHeaterSpec,
    facade_porosities,
)
from ecodom.cli import main
from ecodom.comfort import humidity_ratio, saturation_vapor_pressure
from ecodom.dataio import load_building, write_weather
from ecodom.rules import Verdict, compliance_report
from ecodom.thermal import gain_breakdown, simulate, ventilation_ach
from oracles import (hyland_wexler_pws, overhang_shading_fraction, ray_sampled_shading,
                     weather_records, weather_series)

_mean = lambda xs: sum(xs) / len(xs)


class _Budget:
    def __init__(self, number: int, label: str, seconds: float):
        self.number, self.label, self.seconds = number, label, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.seconds else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} - {self.label} "
              f"({elapsed:.2f}s / {self.seconds:.0f}s budget)")
        if exc_type is None:
            assert elapsed <= self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget")
        return False


def test_criterion_1_rule_table_fidelity(catalogue):
    from test_catalogue import (
        COLLECTOR_AREA,
        OVERHANG,
        ROOF_SIMPLE,
        ROOF_VENTILATED,
        WALL_INSULATION,
        WINDOW_RATIO,
    )
    with _Budget(1, "rule-table fidelity (exact)", 1.0):
        for color, (poly, pur) in ROOF_SIMPLE.items():
            assert catalogue.roof_cm("simple", color, "polystyrene") == poly
            assert catalogue.roof_cm("simple", color, "polyurethane") == pur
        for color, (poly, pur) in ROOF_VENTILATED.items():
            assert catalogue.roof_cm("well_ventilated_attic", color,
                                     "polystyrene") == poly
            assert catalogue.roof_cm("well_ventilated_attic", color,
                                     "polyurethane") == pur
        for (construction, color), row in OVERHANG.items():
            for orientation, expected in row.items():
                assert catalogue.overhang_ratio(
                    construction, color, orientation) == expected
        for (construction, color), row in WALL_INSULATION.items():
            for orientation, expected in row.items():
                assert catalogue.insulation_cm(
                    construction, color, orientation) == expected
        for orientation, expected in WINDOW_RATIO.items():
            assert catalogue.window_ratio(orientation) == expected
        for dwelling_type, expected in COLLECTOR_AREA.items():
            assert catalogue.collector_area(dwelling_type) == expected
        assert catalogue.porosity_threshold == 0.25


def test_criterion_2_case_study_golden(catalogue):
    with _Budget(2, "case-study golden fixtures", 1.0):
        initial = compliance_report(load_building(INITIAL_FIXTURE), catalogue)
        assert not initial.overall_pass
        failures = [f for f in initial.findings if f.verdict is Verdict.FAIL]
        assert len(failures) >= 2

        roof = [f for f in failures if f.rule_id == "roof.insulation"]
        assert len(roof) == 1
        assert roof[0].measured == 5.0
        assert roof[0].required == 8.0

        porosity = [f for f in failures if f.rule_id == "ventilation.porosity"]
        assert len(porosity) == 2  # one bedroom axis per level
        for finding, p in zip(porosity,
                              facade_porosities(load_building(INITIAL_FIXTURE))):
            # each bedroom offers 1.44 m2 against the required 2 m2
            assert p.so1 == pytest.approx(1.44)
            assert catalogue.porosity_threshold * p.sp == pytest.approx(2.0)
            assert finding.remediation_quantity == pytest.approx(0.56, abs=0.005)

        final = compliance_report(load_building(FINAL_FIXTURE), catalogue)
        assert final.overall_pass


def _random_building(rng: random.Random, scale: float = 1.0) -> BuildingDescription:
    rooms = []
    pairs = []
    openings = 0
    for level in range(rng.randint(1, 2)):
        f1, f2 = f"f1_{level}", f"f2_{level}"
        sp1 = rng.uniform(4.0, 40.0) * scale
        sp2 = rng.uniform(4.0, 40.0) * scale
        pairs.append(FacadePair(f1, f2, sp1, sp2))
        for side, facade in ((1, f1), (2, f2)):
            for _ in range(rng.randint(1, 2)):
                openings += 1
                rooms.append(Room(
                    id=f"room{openings}", kind=RoomKind.MAIN, floor_level=level,
                    facades=(FacadeMembership(facade, rng.uniform(2.0, 20.0) * scale),),
                    external_openings=(Opening(
                        f"o{openings}", rng.uniform(0.0, 6.0) * scale,
                        facade_id=facade),),
                    internal_openings=(Opening(
                        f"i{openings}", rng.uniform(0.0, 4.0) * scale),),
                ))
    return BuildingDescription(
        name="random", latitude=-21.0, longitude=55.5,
        dwelling_type=max(1, len(rooms)),
        roof=RoofSpec(ColorClass.LIGHT, AtticRegime.NONE, NO_INSULATION, 50.0),
        walls=(), windows=(), rooms=tuple(rooms), facade_pairs=tuple(pairs),
        water_heater=WaterHeaterSpec(WaterHeaterKind.GAS, certified=True))


def test_criterion_3_porosity_properties():
    with _Budget(3, "porosity formulas: properties + spot checks", 5.0):
        # exact arithmetic spot checks
        b = _random_building(random.Random(0))
        first = b.facade_pairs[0]
        p = facade_porosities(b)[0]
        assert p.sp == pytest.approx(
            (first.facade_1_area_m2 + first.facade_2_area_m2) / 2.0)
        assert p.p1 == pytest.approx(p.so1 / p.sp)
        assert p.p2 == pytest.approx(p.so2 / p.sp)

        rng = random.Random(20260808)
        for trial in range(1000):
            seed = rng.getrandbits(32)
            k = random.Random(seed ^ 1).uniform(0.05, 20.0)
            base = _random_building(random.Random(seed))
            scaled = _random_building(random.Random(seed), scale=k)
            for pb, ps in zip(facade_porosities(base), facade_porosities(scaled)):
                assert ps.p1 == pytest.approx(pb.p1, rel=1e-9, abs=1e-12)
                assert ps.p2 == pytest.approx(pb.p2, rel=1e-9, abs=1e-12)

            # enlarging one external main-room opening never lowers porosity
            room = base.rooms[random.Random(seed ^ 2).randrange(len(base.rooms))]
            grown_opening = room.external_openings[0]._replace(
                net_area_m2=room.external_openings[0].net_area_m2
                + random.Random(seed ^ 3).uniform(0.0, 5.0))
            grown_room = room._replace(external_openings=(grown_opening,))
            grown = base._replace(rooms=tuple(grown_room if r.id == room.id else r
                                              for r in base.rooms))
            for pb, pg in zip(facade_porosities(base), facade_porosities(grown)):
                assert pg.p1 >= pb.p1 - 1e-12
                assert pg.p2 >= pb.p2 - 1e-12


def test_criterion_4_thermal_calibration():
    with _Budget(4, "roof-exposure resultant-temperature offsets", 10.0):
        weather = synthetic_weather(days=7)
        under_roof = simulate(compliant_zone("under_roof"), weather)
        intermediate = simulate(
            compliant_zone("intermediate", roof_exposed=False), weather)
        degraded = simulate(
            compliant_zone("degraded", degraded_roof=True), weather)

        offset = (_mean(under_roof.t_resultant_c)
                  - _mean(intermediate.t_resultant_c))
        assert 0.5 <= offset <= 2.0, f"compliant-roof offset {offset:.2f}"

        offset_degraded = (_mean(degraded.t_resultant_c)
                           - _mean(intermediate.t_resultant_c))
        assert offset_degraded - offset >= 1.5, (
            f"degrading the roof only added {offset_degraded - offset:.2f} C")


def test_criterion_5_gain_share_sanity():
    with _Budget(5, "envelope gain shares of the typical dwelling", 10.0):
        weather = synthetic_weather(days=7)
        shares = gain_breakdown(simulate(uninsulated_zone(), weather))
        assert shares["roof"] >= 0.50, shares
        assert 0.15 <= shares["wall"] <= 0.40, shares
        assert 0.10 <= shares["window"] <= 0.40, shares


def test_criterion_6_ventilation_calibration():
    with _Budget(6, "cross-ventilation ACH calibration", 1.0):
        ach_ref = ventilation_ach(POROSITY_25_APERTURES, VOLUME_M3, 4.0)
        assert ach_ref >= 40.0

        one = ventilation_ach(POROSITY_25_APERTURES, VOLUME_M3, 1.0)
        for u in (2.0, 3.0, 5.0, 8.0):
            assert ventilation_ach(POROSITY_25_APERTURES, VOLUME_M3, u) == \
                pytest.approx(u * one, rel=1e-12)

        closed = POROSITY_25_APERTURES._replace(inlet_area_m2=0.0)
        assert ventilation_ach(closed, VOLUME_M3, 4.0) == 0.0


def test_criterion_7_numerical_property_suites():
    with _Budget(7, "shading oracle, psychrometrics, integrator checks", 60.0):
        # shading vs ray-sampling oracle, 1000 random cases
        rng = random.Random(7)
        for _ in range(1000):
            d = rng.uniform(0.0, 3.0)
            h = rng.uniform(0.3, 3.0)
            a = rng.uniform(0.0, 1.0)
            alt = rng.uniform(-10.0, 85.0)
            az = rng.uniform(0.0, 360.0)
            facade = rng.uniform(0.0, 360.0)
            analytic = overhang_shading_fraction(d, h, a, alt, az, facade)
            sampled = ray_sampled_shading(d, h, a, alt, az, facade,
                                          samples=20000, seed=11)
            assert abs(analytic - sampled) <= 0.02

        # psychrometrics vs the tabulated reference correlation, 0..50 C
        for t10 in range(0, 501, 5):
            t = t10 / 10.0
            assert saturation_vapor_pressure(t) == pytest.approx(
                hyland_wexler_pws(t), rel=0.005)
        for t in range(5, 50, 5):
            pv = 0.5 * hyland_wexler_pws(t)
            assert humidity_ratio(t, 50.0) == pytest.approx(
                622.0 * pv / (101325.0 - pv), rel=0.005)

        # integrator: per-step residual and step-halving stability
        weather = synthetic_weather(days=7)
        zone = compliant_zone()
        hourly = simulate(zone, weather)
        assert hourly.max_residual_fraction <= 1e-3

        halved_records = []
        for rec in weather_records(weather):
            halved_records.append(rec)
            halved_records.append(rec._replace(
                timestamp=rec.timestamp + timedelta(minutes=30)))
        halved = simulate(zone, weather_series(tuple(halved_records)))
        assert abs(_mean(hourly.t_air_c[-24:])
                   - _mean(halved.t_air_c[-48:])) < 0.05


def test_criterion_8_determinism(tmp_path):
    with _Budget(8, "byte-identical reports and exports", 30.0):
        weather_path = tmp_path / "weather.csv"
        write_weather(synthetic_weather(days=2), weather_path)

        outputs = []
        for run in ("one", "two"):
            report = tmp_path / f"report_{run}.json"
            sim_csv = tmp_path / f"sim_{run}.csv"
            assert main(["check", str(INITIAL_FIXTURE), "--format", "json",
                         "--out", str(report)]) == 1
            assert main(["simulate", str(FINAL_FIXTURE),
                         "--weather", str(weather_path),
                         "--out", str(sim_csv)]) == 0
            outputs.append((report.read_bytes(), sim_csv.read_bytes()))
        assert outputs[0] == outputs[1]
