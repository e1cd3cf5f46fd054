import math
import random
from datetime import datetime, timezone

import pytest

from oracles import (
    SolarPosition,
    incidence_cosine,
    overhang_shading_fraction,
    psa_solar_position,
    ray_sampled_shading,
    solar_position,
    surface_irradiance,
)

REUNION = (-21.1, 55.5)
# True solar noon at 55.5 E is about 08:20 UTC.
DEC_NOON = datetime(2024, 12, 21, 8, 20, tzinfo=timezone.utc)
JUN_NOON = datetime(2024, 6, 21, 8, 20, tzinfo=timezone.utc)


class TestSolarPosition:
    def test_equator_equinox_noon_near_zenith(self):
        sun = solar_position(0.0, 0.0, datetime(2024, 3, 20, 12, 8, tzinfo=timezone.utc))
        assert sun.altitude_deg > 85.0

    def test_december_sun_south_of_zenith_at_reunion(self):
        # declination (-23.4) below the site latitude (-21.1): the midday
        # sun reaches the southern facade only around the December solstice.
        sun = solar_position(*REUNION, DEC_NOON)
        assert sun.altitude_deg > 80.0
        assert 90.0 < sun.azimuth_deg < 270.0

    def test_june_sun_north_at_reunion(self):
        sun = solar_position(*REUNION, JUN_NOON)
        assert 40.0 < sun.altitude_deg < 50.0
        assert sun.azimuth_deg > 315.0 or sun.azimuth_deg < 45.0

    def test_midnight_below_horizon(self):
        sun = solar_position(*REUNION, datetime(2024, 1, 10, 20, 0, tzinfo=timezone.utc))
        assert sun.altitude_deg < 0.0

    def test_against_independent_algorithm(self):
        worst_alt = worst_az = 0.0
        for lat, lon in ((-21.1, 55.5), (48.0, 2.0), (0.0, 0.0),
                         (-35.0, 149.0), (60.0, -150.0)):
            for month in (1, 3, 6, 9, 12):
                for hour in range(0, 24, 2):
                    when = datetime(2024, month, 15, hour, 30, tzinfo=timezone.utc)
                    sun = solar_position(lat, lon, when)
                    alt_ref, az_ref = psa_solar_position(lat, lon, when)
                    worst_alt = max(worst_alt, abs(sun.altitude_deg - alt_ref))
                    if sun.altitude_deg > 0 and alt_ref < 85:
                        d = abs(sun.azimuth_deg - az_ref)
                        worst_az = max(worst_az, min(d, 360 - d))
        assert worst_alt <= 0.5
        assert worst_az <= 0.5

    def test_naive_datetime_treated_as_utc(self):
        aware = solar_position(*REUNION, DEC_NOON)
        naive = solar_position(*REUNION, DEC_NOON.replace(tzinfo=None))
        assert naive.altitude_deg == pytest.approx(aware.altitude_deg)


class TestIncidenceAndIrradiance:
    def test_horizontal_surface_sees_sine_of_altitude(self):
        sun = SolarPosition(30.0, 90.0)
        assert incidence_cosine(sun, 0.0, 0.0) == pytest.approx(math.sin(math.radians(30)))

    def test_vertical_surface_facing_sun(self):
        sun = SolarPosition(0.001, 90.0)
        assert incidence_cosine(sun, 90.0, 90.0) == pytest.approx(1.0, abs=1e-3)

    def test_surface_behind_sun_gets_no_beam(self):
        sun = SolarPosition(40.0, 90.0)
        assert incidence_cosine(sun, 270.0, 90.0) == 0.0

    def test_night_no_irradiance(self):
        sun = SolarPosition(-10.0, 0.0)
        beam, diffuse = surface_irradiance(sun, 800.0, 100.0, 0.0, 0.0)
        assert beam == 0.0
        assert diffuse == pytest.approx(100.0)  # isotropic sky on horizontal


class TestShading:
    SUN_FRONT = (45.0, 180.0)  # facing a south facade head on

    def test_no_overhang_no_shade(self):
        assert overhang_shading_fraction(0.0, 1.2, 0.0, *self.SUN_FRONT, 180.0) == 0.0

    def test_huge_overhang_full_shade(self):
        assert overhang_shading_fraction(100.0, 1.2, 0.0, *self.SUN_FRONT, 180.0) == 1.0

    def test_unit_ratio_at_45_degrees_exactly_full(self):
        # d = h and a 45-degree profile angle shade the window exactly.
        assert overhang_shading_fraction(1.2, 1.2, 0.0, *self.SUN_FRONT, 180.0) \
            == pytest.approx(1.0)

    def test_sun_below_horizon_counts_as_shaded(self):
        assert overhang_shading_fraction(0.5, 1.2, 0.0, -5.0, 180.0, 180.0) == 1.0

    def test_sun_behind_facade_counts_as_shaded(self):
        assert overhang_shading_fraction(0.5, 1.2, 0.0, 30.0, 0.0, 180.0) == 1.0

    def test_offset_delays_shadow(self):
        with_gap = overhang_shading_fraction(1.0, 1.2, 0.5, 30.0, 180.0, 180.0)
        without = overhang_shading_fraction(1.0, 1.2, 0.0, 30.0, 180.0, 180.0)
        assert with_gap < without

    def test_matches_ray_sampling_oracle(self):
        rng = random.Random(20260808)
        worst = 0.0
        for _ in range(1000):
            d = rng.uniform(0.0, 3.0)
            h = rng.uniform(0.3, 3.0)
            a = rng.uniform(0.0, 1.0)
            alt = rng.uniform(-10.0, 85.0)
            az = rng.uniform(0.0, 360.0)
            facade = rng.uniform(0.0, 360.0)
            analytic = overhang_shading_fraction(d, h, a, alt, az, facade)
            sampled = ray_sampled_shading(d, h, a, alt, az, facade,
                                          samples=20000, seed=42)
            worst = max(worst, abs(analytic - sampled))
        assert worst <= 0.02
