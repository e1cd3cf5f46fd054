import gc
import hashlib
import io
import json
import math
import weakref
from array import array
from datetime import datetime, timedelta, timezone

import pytest

from ecodom.archetypes import (
    CLOSED_APERTURES,
    POROSITY_25_APERTURES,
    VOLUME_M3,
    compliant_zone,
    synthetic_weather,
    uninsulated_zone,
)
from ecodom.building import ColorClass
from ecodom.comfort import discomfort_fraction, humidity_ratio
from ecodom import thermal
from ecodom.dataio import SeriesFormatError
from ecodom.solar import sun_positions
from ecodom.thermal import (
    ROOF_DECK_RESISTANCE,
    Scenario,
    ScenarioError,
    SurfaceModel,
    VentilationApertures,
    WeatherGapError,
    ZoneModel,
    gain_breakdown,
    result_to_csv,
    simulate,
    load_scenario,
    scenario_from_dict,
    ventilation_ach,
    zone_from_building,
)
from oracles import (PsychroPoint, SolarPosition, WeatherRecord, area_weighted_radiant,
                     first_order_response, overhang_shading_fraction, psychro_series,
                     solar_position, surface_irradiance, weather_records, weather_series)


def _scenario(doc: dict):
    """The scenario record that a scenario file holding ``doc`` reads to."""
    return scenario_from_dict(doc)


_mean = lambda xs: sum(xs) / len(xs)


def _csv(result) -> str:
    """The CSV export of ``result``, as text."""
    out = io.StringIO()
    result_to_csv(result, out)
    return out.getvalue()


@pytest.fixture(scope="module")
def week():
    return synthetic_weather(days=7)


class TestVentilation:
    def test_zero_aperture_zero_ach(self):
        closed = VentilationApertures(0.0, 2.0)
        assert ventilation_ach(closed, VOLUME_M3, 4.0) == 0.0
        closed = VentilationApertures(2.0, 0.0)
        assert ventilation_ach(closed, VOLUME_M3, 4.0) == 0.0

    def test_linear_in_wind_speed(self):
        one = ventilation_ach(POROSITY_25_APERTURES, VOLUME_M3, 1.0)
        two = ventilation_ach(POROSITY_25_APERTURES, VOLUME_M3, 2.0)
        four = ventilation_ach(POROSITY_25_APERTURES, VOLUME_M3, 4.0)
        assert two == pytest.approx(2.0 * one)
        assert four == pytest.approx(4.0 * one)

    def test_threshold_porosity_reaches_critical_rate(self):
        assert ventilation_ach(POROSITY_25_APERTURES, VOLUME_M3, 4.0) >= 40.0

    def test_equal_orifices_in_series(self):
        # Aeq for two equal orifices is A / sqrt(2)
        ap = VentilationApertures(2.0, 2.0, discharge_coefficient=0.6, delta_cp=0.5)
        expected = 0.6 * (2.0 / 2 ** 0.5) * 4.0 * 0.5 ** 0.5 * 3600.0 / VOLUME_M3
        assert ventilation_ach(ap, VOLUME_M3, 4.0) == pytest.approx(expected)


def _calm_weather(days=2, t_out=28.0):
    base = synthetic_weather(days=days)
    records = tuple(r._replace(
        temp_air_c=t_out, solar_direct_w_m2=0.0, solar_diffuse_w_m2=0.0,
        wind_speed_m_s=0.0) for r in weather_records(base))
    return weather_series(records)


class TestSimulate:
    def test_short_or_coarse_weather_is_an_input_error(self, week):
        from ecodom.errors import InputError
        rows = weather_records(week)
        for records in (rows[:1], rows[:12], rows[::2]):
            with pytest.raises(InputError):
                simulate(compliant_zone(), weather_series(records))

    def test_equilibrium_without_forcing(self):
        zone = compliant_zone()
        result = simulate(zone, _calm_weather(days=4, t_out=28.0))
        assert result.t_air_c[-1] == pytest.approx(28.0, abs=0.05)
        assert result.t_resultant_c[-1] == pytest.approx(28.0, abs=0.05)

    def test_output_length_matches_weather(self, week):
        result = simulate(compliant_zone(), week)
        assert len(result.timestamps) == len(week.timestamps)

    def test_resultant_is_air_radiant_mean(self, week):
        result = simulate(compliant_zone(), week)
        for t_air, t_rad, t_res in zip(result.t_air_c, result.t_radiant_c,
                                       result.t_resultant_c):
            assert t_res == pytest.approx((t_air + t_rad) / 2.0)

    # The radiant temperature comes from each step's envelope flux sum;
    # the per-surface mean of the inner-surface temperatures pins it.
    @staticmethod
    def _assert_radiant_is_area_weighted_mean(zone, weather):
        result = simulate(zone, weather)
        expected = area_weighted_radiant(zone, result)
        assert len(expected) == len(result.t_radiant_c)
        for t_rad, reference in zip(result.t_radiant_c, expected):
            assert abs(t_rad - reference) <= 1e-12

    @pytest.mark.parametrize("building", ["initial_building", "final_building"])
    @pytest.mark.parametrize("scenario", [{}, {"interior_film_w_m2k": 3.0}],
                             ids=["default-film", "film-3"])
    def test_golden_radiant_is_area_weighted_mean(self, building, scenario, request, week):
        zone = zone_from_building(request.getfixturevalue(building), _scenario(scenario))
        self._assert_radiant_is_area_weighted_mean(zone, week)

    @pytest.mark.parametrize("zone", [uninsulated_zone(),
                                      compliant_zone("intermediate", roof_exposed=False)],
                             ids=["uninsulated", "intermediate"])
    def test_flat_radiant_is_area_weighted_mean(self, zone, week):
        self._assert_radiant_is_area_weighted_mean(zone, week)

    def test_zone_without_surfaces(self):
        zone = compliant_zone()._replace(surfaces=())
        result = simulate(zone, synthetic_weather(2))
        assert result.t_radiant_c == result.t_air_c
        assert result.surface_gains_w == {} and result.surface_kinds == {}
        for series in (result.t_air_c, result.t_radiant_c, result.t_resultant_c, result.ach,
                       result.window_solar_w, result.ventilation_gain_w,
                       result.internal_gain_w):
            assert all(map(math.isfinite, series))
        assert result.max_residual_fraction <= 1e-3
        assert gain_breakdown(result) == {"roof": 0.0, "wall": 0.0, "window": 0.0}
        lines = _csv(result).splitlines()
        assert len(lines) == 1 + len(result.timestamps)
        for line in lines[1:]:
            assert line.split(",")[6:9] == ["0.000000"] * 3

    def test_energy_residual_below_tolerance(self, week):
        result = simulate(uninsulated_zone(), week)
        assert result.max_residual_fraction <= 1e-3

    def test_doubling_roof_resistance_lowers_peak_roof_gain(self, week):
        zone = uninsulated_zone()
        roof = zone.surfaces[0]
        better = zone._replace(surfaces=(roof._replace(
            resistance_m2k_w=2 * roof.resistance_m2k_w),) + zone.surfaces[1:])
        peak = max(simulate(zone, week).surface_gains_w["roof"])
        peak_better = max(simulate(better, week).surface_gains_w["roof"])
        assert peak_better < peak

    def test_more_insulation_lowers_peak_indoor_temperature(self, week):
        degraded = compliant_zone("bad", degraded_roof=True)
        insulated = compliant_zone("good")
        assert (max(simulate(insulated, week).t_air_c)
                < max(simulate(degraded, week).t_air_c))

    def test_larger_overhang_lowers_transmitted_solar(self, week):
        zone = uninsulated_zone()
        shaded_surfaces = tuple(
            # a 1.5 m deep overhang flush over a 1.2 m high window
            s._replace(shading=(1.5, 1.2, 0.0, s.azimuth_deg))
            if s.kind == "window" else s
            for s in zone.surfaces)
        shaded = zone._replace(surfaces=shaded_surfaces)
        assert (sum(simulate(shaded, week).window_solar_w)
                < sum(simulate(zone, week).window_solar_w))

    def test_ventilation_cools_when_cooler_outside(self, week):
        closed = compliant_zone("closed", apertures=CLOSED_APERTURES)
        open_zone = compliant_zone("open", apertures=POROSITY_25_APERTURES)
        assert (_mean(simulate(open_zone, week).t_air_c)
                < _mean(simulate(closed, week).t_air_c))

    def test_night_indoor_never_below_outdoor_in_calm_air(self):
        # weak night breezes: the closed zone can only drift towards, not
        # below, the outdoor temperature
        weather = weather_series(tuple(
            r._replace(wind_speed_m_s=0.05)
            for r in weather_records(synthetic_weather(days=3))))
        result = simulate(compliant_zone(), weather)
        night = [i for i, r in enumerate(weather_records(weather))
                 if r.solar_direct_w_m2 == 0.0 and i > 24]
        for i in night:
            assert result.t_air_c[i] >= result.t_out_c[i] - 1e-9

    def test_gap_raises_with_missing_hours(self, week):
        rows = weather_records(week)
        records = rows[:30] + rows[32:]
        broken = weather_series(records)
        with pytest.raises(WeatherGapError) as err:
            simulate(compliant_zone(), broken)
        assert len(err.value.missing) == 2

    def test_repeated_timestamp_in_code_built_series(self, week):
        rows = weather_records(week)
        records = rows[:30] + rows[29:]
        with pytest.raises(SeriesFormatError, match="not after previous record"):
            simulate(compliant_zone(), weather_series(records))

    def test_too_short_series_rejected(self, week):
        short = weather_series(weather_records(week)[:12])
        with pytest.raises(ValueError, match="24"):
            simulate(compliant_zone(), short)

    def test_halving_step_changes_daily_mean_below_tolerance(self, week):
        zone = compliant_zone()
        hourly = simulate(zone, week)
        halved_records = []
        for rec in weather_records(week):
            halved_records.append(rec)
            halved_records.append(rec._replace(
                timestamp=rec.timestamp + timedelta(minutes=30)))
        halved = simulate(zone, weather_series(tuple(halved_records)))
        day = lambda xs, n: _mean(xs[-n:])
        assert abs(day(hourly.t_air_c, 24) - day(halved.t_air_c, 48)) < 0.05

    def test_internal_gains_schedule_cycles_daily(self):
        zone = compliant_zone()
        schedule = tuple(300.0 if 18 <= h <= 22 else 0.0 for h in range(24))
        scheduled = zone._replace(internal_gains_w=schedule)
        result = simulate(scheduled, _calm_weather(days=2))
        by_hour = {ts.hour: q for ts, q in zip(result.timestamps,
                                               result.internal_gain_w)}
        assert by_hour[20] == 300.0
        assert by_hour[3] == 0.0
        # evening gains leave the zone warmer than the constant-zero case
        assert max(result.t_air_c) > max(
            simulate(zone, _calm_weather(days=2)).t_air_c)

    def test_weekly_storage_drift_below_one_percent(self):
        zone = compliant_zone()
        weather = synthetic_weather(days=14)
        result = simulate(zone, weather)
        drift = zone.capacitance_j_k * abs(result.t_air_c[-1] - result.t_air_c[-1 - 168])
        weekly_gains = sum(
            sum(q for q in gains[-168:] if q > 0)
            for gains in result.surface_gains_w.values())
        weekly_gains += sum(result.window_solar_w[-168:])
        assert drift < 0.01 * weekly_gains * 3600.0


class TestGainBreakdown:
    def test_single_surface_takes_all(self):
        zone = uninsulated_zone()
        only_roof = zone._replace(surfaces=zone.surfaces[:1])
        shares = gain_breakdown(simulate(only_roof, synthetic_weather(days=2)))
        assert shares["roof"] == pytest.approx(1.0)
        assert shares["wall"] == 0.0

    def test_shares_sum_to_one(self, week):
        shares = gain_breakdown(simulate(uninsulated_zone(), week))
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)


class TestZoneFromBuilding:
    def test_surfaces_mirror_description(self, final_building):
        zone = zone_from_building(final_building)
        kinds = [s.kind for s in zone.surfaces]
        assert kinds.count("roof") == 1
        assert kinds.count("wall") == len(final_building.walls)
        assert kinds.count("window") == len(final_building.windows)
        assert zone.volume_m3 == pytest.approx(final_building.roof.area_m2 * 2.5)

    def test_apertures_from_porosities(self, final_building):
        zone = zone_from_building(final_building)
        assert zone.apertures.inlet_area_m2 == pytest.approx(4.0)
        assert zone.apertures.outlet_area_m2 == pytest.approx(4.0)

    def test_roof_carries_the_deck_under_its_insulation(self, final_building):
        roof = zone_from_building(final_building).surfaces[0]
        assert roof.kind == "roof"
        assert roof.resistance_m2k_w == (
            1 / 25 + 1 / 8 + ROOF_DECK_RESISTANCE
            + final_building.roof.insulation.resistance)

    def test_shading_of_each_surface(self, initial_building, final_building):
        # roof, walls north/south/east/west, then the windows; the
        # kitchen window has mobile shading, and a window shade fraction
        # overrides every window's overhang
        south_wall, living = (0.8, 2.5, 0.0, 180.0), (0.6, 1.4, 0.0, 180.0)
        north_wall, bedroom = (1.5, 2.5, 0.0, 0.0), (1.5, 2.1, 0.1, 0.0)
        shaded = _scenario({"window_shade_fraction": 0.5})

        def shading(zone):
            return [s.shading for s in zone.surfaces]

        assert shading(zone_from_building(initial_building)) == [
            0.0, 0.0, south_wall, 0.0, 0.0, 0.0, 0.0, living, living, 0.8]
        assert shading(zone_from_building(initial_building, shaded)) == [
            0.0, 0.0, south_wall, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5]
        assert shading(zone_from_building(final_building)) == [
            0.0, north_wall, south_wall, 0.0, 0.0, bedroom, bedroom, living, living, 0.8]
        assert shading(zone_from_building(final_building, shaded)) == [
            0.0, north_wall, south_wall, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5]
        # roof, walls north/east/south/west, then windows in that order
        assert shading(compliant_zone()) == [
            0.0, 0.0, 0.0, 0.0, 0.0, (0.72, 1.2, 0.0, 0.0), (0.96, 1.2, 0.0, 90.0),
            (0.36, 1.2, 0.0, 180.0), (1.2, 1.2, 0.0, 270.0)]
        assert shading(uninsulated_zone()) == [0.0] * 9

    def test_roof_exposed_flag(self, final_building):
        intermediate = zone_from_building(final_building, _scenario({"roof_exposed": False}))
        assert all(s.kind != "roof" for s in intermediate.surfaces)

    def test_roof_exposed_defaults_to_the_rooms_under_it(self, final_building):
        def kinds(building, scenario=None):
            return [s.kind for s in zone_from_building(building, _scenario(scenario or {}))
                    .surfaces]

        assert any(r.under_roof for r in final_building.rooms)
        assert kinds(final_building)[0] == "roof"
        # the same dwelling one level down: no room under the roof
        below = final_building._replace(rooms=tuple(
            r._replace(under_roof=False) for r in final_building.rooms))
        assert "roof" not in kinds(below)
        assert kinds(below, {"roof_exposed": True})[0] == "roof"
        # a building without rooms, as the archetype flats are, keeps its roof
        assert kinds(final_building._replace(rooms=()))[0] == "roof"

    def test_scenario_overrides(self, final_building):
        zone = zone_from_building(final_building, _scenario({
            "floor_area_m2": 50.0, "volume_m3": 120.0, "mass_class": "light",
            "internal_gains_w": 150.0}))
        assert zone.volume_m3 == 120.0
        assert zone.capacitance_j_k == pytest.approx(80e3 * 50.0)
        assert zone.internal_gains_w == 150.0

    def test_unknown_scenario_key(self, final_building):
        with pytest.raises(ScenarioError, match="^unknown key hvac_mode$"):
            _scenario({"hvac_mode": "off"})

    @pytest.mark.parametrize("key,value", [
        ("floor_area_m2", 0), ("volume_m3", -1.0), ("discharge_coefficient", True),
        ("delta_cp", "0.5"), ("interior_film_w_m2k", float("inf")),
        ("mass_class", ["light"]), ("internal_gains_w", [100.0] * 23),
        ("internal_gains_w", [100.0] * 23 + [float("nan")]),
        ("window_transmittance", 1.5), ("roof_exposed", 0)])
    def test_scenario_value_rules(self, final_building, key, value):
        with pytest.raises(ScenarioError, match=key):
            _scenario({key: value})

    # each bound holds its edge: Cd in (0, 1], gains >= 0, and -0.0 is 0
    @pytest.mark.parametrize("key,value,fault", [
        ("discharge_coefficient", 1.0, None),
        ("discharge_coefficient", 1.0000001, "must be in (0, 1]"),
        ("discharge_coefficient", 0.0, "must be in (0, 1]"),
        ("internal_gains_w", 0.0, None),
        ("internal_gains_w", -0.0, None),
        ("internal_gains_w", -1e-300, "must be >= 0"),
        ("internal_gains_w", [0.0] * 12 + [-0.0] * 12, None)],
        ids=["cd-one", "cd-above-one", "cd-zero", "gains-zero", "gains-minus-zero",
             "gains-below-zero", "signed-zero-schedule"])
    def test_scenario_range_edges(self, tmp_path, key, value, fault):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({key: value}))
        if fault is None:
            assert getattr(load_scenario(path), key) == (
                tuple(value) if isinstance(value, list) else value)
        else:
            with pytest.raises(ScenarioError) as caught:
                load_scenario(path)
            assert str(caught.value) == f"{path}: scenario.{key}: {fault}"

    def test_default_scenario_is_the_empty_file(self):
        # the in-code default passes the reader's rules unchanged
        assert Scenario() == _scenario({})

    def test_scenario_null_leaves_a_building_default(self):
        assert _scenario({"volume_m3": None, "roof_exposed": None}) == _scenario({})
        with pytest.raises(ScenarioError, match="'delta_cp' must be a finite number"):
            _scenario({"delta_cp": None})

    def test_scenario_schedule_accepts_24_values(self, final_building):
        zone = zone_from_building(final_building, _scenario({"internal_gains_w": [10] * 24}))
        assert zone.internal_gains_w == (10.0,) * 24

    @pytest.mark.parametrize("gains,expected", [
        ([100] * 24, (100.0,) * 24), (200, 200.0)], ids=["schedule", "constant"])
    def test_scenario_file_gains_read_to_one_type(self, tmp_path, gains, expected):
        path = tmp_path / "scenario.json"
        path.write_text(f'{{"internal_gains_w": {gains}}}')
        scenario = load_scenario(path)
        assert type(scenario.internal_gains_w) is type(expected)
        assert scenario == Scenario(internal_gains_w=expected)
        assert hash(scenario) == hash(Scenario(internal_gains_w=expected))

    def test_simulates_end_to_end(self, final_building, week):
        result = simulate(zone_from_building(final_building), week)
        assert len(result.timestamps) == 168
        csv_text = _csv(result)
        assert csv_text.splitlines()[0].startswith("timestamp,t_out_c,")
        assert len(csv_text.splitlines()) == 169


def test_upgraded_golden_is_cooler_and_less_uncomfortable(initial_building,
                                                          final_building, week):
    """The passive-cooling upgrade shows in simulated comfort: a lower peak
    resultant and a lower mean warm exceedance.  The discomfort fraction
    cannot rank them on this week: the outdoor humidity ratio tops the
    zone's cap in 105 of 168 hours, so both read 62.5 %."""
    def run(building):
        result = simulate(zone_from_building(building), week)
        stats = discomfort_fraction(psychro_series([
            PsychroPoint(t_res, humidity_ratio(rec.temp_air_c, rec.rh_pct))
            for t_res, rec in zip(result.t_resultant_c, weather_records(week))]))
        return result.peak_resultant_c(), stats.mean_exceedance_c

    initial_peak, initial_exceedance = run(initial_building)
    final_peak, final_exceedance = run(final_building)
    assert final_peak < initial_peak
    assert final_exceedance < initial_exceedance


class TestIntegratorOracle:
    """The zone step against the closed-form answer of a case with one:
    no sun, constant wind and a 24 h sinusoid outdoors, so the zone is a
    first-order lag of the outdoor temperature with a time constant
    ``tau = C / (K + Hv)``.  Everything but ``simulate`` is restated."""

    PERIOD_S = 86400.0
    MEAN_C, SWING_C = 28.0, 4.0
    ZONE = ZoneModel(
        name="oracle", latitude=-21.1, longitude=55.5, volume_m3=160.0,
        capacitance_j_k=1.0e7,
        surfaces=(SurfaceModel("roof", "roof", area_m2=100.0, azimuth_deg=0.0,
                               tilt_deg=0.0, absorptivity=0.7, resistance_m2k_w=0.5),),
        apertures=VentilationApertures(inlet_area_m2=1.0, outlet_area_m2=1.0,
                                       discharge_coefficient=0.6, delta_cp=0.5))
    WIND_M_S = 2.0
    # K = A / R; Hv = rho cp Q, with Q = Cd Aeq U sqrt(dCp) through two
    # 1 m2 orifices in series (Aeq = 1 / sqrt(2) m2)
    TAU_S = 1.0e7 / (100.0 / 0.5 + 1.2 * 1006.0 * 0.6 * 2.0 ** -0.5 * 2.0 * 0.5 ** 0.5)

    def _last_day(self, minutes: int):
        """(step s, the simulated t_air_c of the fifth day, the step index
        of each of its samples)."""
        dt = minutes * 60.0
        omega = 2.0 * math.pi / self.PERIOD_S
        start = datetime(2026, 1, 5, tzinfo=timezone.utc)
        steps = round(5 * self.PERIOD_S / dt)
        weather = weather_series(tuple(WeatherRecord(
            start + timedelta(seconds=k * dt),
            self.MEAN_C + self.SWING_C * math.sin(omega * k * dt),
            70.0, 0.0, 0.0, self.WIND_M_S, 90.0) for k in range(steps)))
        t_air = simulate(self.ZONE, weather).t_air_c
        day = range(steps - round(self.PERIOD_S / dt), steps)
        return dt, [t_air[k] for k in day], day

    def _peak_error(self, minutes: int, discrete: bool) -> float:
        dt, t_air, day = self._last_day(minutes)
        omega = 2.0 * math.pi / self.PERIOD_S
        ratio, lag = first_order_response(self.TAU_S, omega, dt if discrete else None)
        return max(abs(t - self.MEAN_C - self.SWING_C * ratio * math.sin(omega * k * dt - lag))
                   for t, k in zip(t_air, day))

    def _fitted_response(self, minutes: int) -> tuple[float, float]:
        """Amplitude ratio and lag of the fifth day, projected on the
        outdoor sinusoid over its whole period."""
        dt, t_air, day = self._last_day(minutes)
        omega = 2.0 * math.pi / self.PERIOD_S
        s = 2.0 / len(day) * sum((t - self.MEAN_C) * math.sin(omega * k * dt)
                                 for t, k in zip(t_air, day))
        c = 2.0 / len(day) * sum((t - self.MEAN_C) * math.cos(omega * k * dt)
                                 for t, k in zip(t_air, day))
        return math.hypot(s, c) / self.SWING_C, -math.atan2(c, s)

    @pytest.mark.parametrize("minutes", [60, 30, 15])
    def test_steps_are_backward_euler_exactly(self, minutes):
        # four days damp the start-up transient by more than e^-30
        assert self._peak_error(minutes, discrete=True) < 1e-9

    def test_error_to_the_continuous_answer_is_first_order_in_dt(self):
        omega = 2.0 * math.pi / self.PERIOD_S
        ratio_c, lag_c = first_order_response(self.TAU_S, omega)
        peaks, ratio_gaps, lag_gaps = [], [], []
        for minutes in (60, 30, 15):
            peaks.append(self._peak_error(minutes, discrete=False))
            ratio, lag = self._fitted_response(minutes)
            ratio_gaps.append(ratio_c - ratio)
            lag_gaps.append(lag_c - lag)
        for gaps in (peaks, ratio_gaps, lag_gaps):
            assert all(gap > 0 for gap in gaps)
            # halving the step halves the gap
            assert all(1.8 < coarse / fine < 2.2 for coarse, fine in zip(gaps, gaps[1:]))
        assert peaks[0] < 0.25  # 4 C swing, tau 3 h, hourly steps


def _turned(zone, azimuth_deg):
    """``zone`` with its second surface turned to ``azimuth_deg``."""
    surfaces = list(zone.surfaces)
    surfaces[1] = surfaces[1]._replace(azimuth_deg=azimuth_deg)
    return zone._replace(name="turned", surfaces=tuple(surfaces))


class TestStagedRun:
    @pytest.mark.parametrize("make_zone,digest", [
        (compliant_zone, "8cee946f6dd1459299d4d6b106e4f8a50ec45f19a43dcf677d1d7f8c929dbd47"),
        (uninsulated_zone, "27f73048338466fd75604feee5d87054be6ebd483191f70104193582e7edccd9"),
    ])
    def test_export_bytes_pinned(self, make_zone, digest):
        text = _csv(simulate(make_zone(), synthetic_weather()))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    # The goldens share columns: the final building has 6 sun-dependent
    # surfaces in 4 overhang geometries and 8 sol-air columns for 10
    # surfaces.
    @pytest.mark.parametrize("building,digest", [
        ("final_building", "42fdc4c52d71e0a524558de6535a7879ca2c48ccf4d04351a7a3c4921b5d6195"),
        ("initial_building", "367f996eeb9621410065ce1ff781d412937724e7a5971f081808dd4ed9b77214"),
    ])
    def test_golden_export_bytes_pinned(self, building, digest, request):
        zone = zone_from_building(request.getfixturevalue(building))
        text = _csv(simulate(zone, synthetic_weather()))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_series_are_float_arrays_one_value_per_step(self, final_building, week):
        result = simulate(zone_from_building(final_building), week)
        series = [result.t_air_c, result.t_radiant_c, result.t_resultant_c, result.ach,
                  result.window_solar_w, result.ventilation_gain_w, result.internal_gain_w,
                  *result.surface_gains_w.values()]
        assert len(series) == 7 + 10
        for values in series:
            assert type(values) is array and values.typecode == "d"
            assert len(values) == len(result.timestamps)

    # The export writes 1024 rows at a time.
    @pytest.mark.parametrize("steps", [1023, 1024, 1025])
    def test_export_rows_across_chunk_boundaries(self, steps):
        weather = weather_series(weather_records(synthetic_weather(days=43))[:steps])
        lines = _csv(simulate(compliant_zone(), weather)).split("\n")
        assert lines[-1] == "" and lines[-2] != ""
        assert len(lines[:-1]) == steps + 1
        assert {len(line.split(",")) for line in lines[:-1]} == {12}

    def test_second_zone_on_shared_series_matches_fresh_series(self, week):
        shared = weather_series(weather_records(week))
        simulate(compliant_zone(), shared)
        other = _turned(uninsulated_zone(), 45.0)
        assert (simulate(other, shared)
                == simulate(other, weather_series(weather_records(week))))

    def test_sun_track_and_columns_computed_once_per_series(self, week, solar_calls):
        shared = weather_series(weather_records(week))
        simulate(compliant_zone(), shared)
        simulate(_turned(compliant_zone(), 45.0), shared)
        # one sun track; 5 orientations for the first zone, one more for
        # the second (its turned wall has no overhang); the 4 windows of
        # the first zone are shaded once, one overhang geometry each, and
        # the second zone's windows share those columns
        assert solar_calls == {"position": 1, "irradiance": 6, "shading": 4}

    def test_shared_overhang_geometry_shaded_once(self, week, solar_calls):
        zone = compliant_zone()
        twin = zone.surfaces[-1]._replace(name="window:west_twin")
        twinned = zone._replace(surfaces=zone.surfaces + (twin,))
        # a fresh series: the module's ``week`` holds the shading columns
        # that earlier tests filled on its track
        result = simulate(twinned, weather_series(weather_records(week)))
        # 5 windows under overhangs, in 4 geometries
        assert solar_calls["shading"] == 4
        gains = result.surface_gains_w
        assert gains["window:west_twin"] == gains["window:west"]

    @pytest.mark.parametrize("site", [{"latitude": -15.0}, {"longitude": 45.0}])
    def test_other_site_never_reuses_the_track(self, week, solar_calls, site):
        shared = weather_series(weather_records(week))
        here = simulate(compliant_zone(), shared)
        moved = compliant_zone()._replace(**site)
        there = simulate(moved, shared)
        assert solar_calls == {"position": 2, "irradiance": 10, "shading": 8}
        assert there != here
        assert there == simulate(moved, weather_series(weather_records(week)))

    def test_equal_timestamps_other_irradiance_never_reuses(self, week, solar_calls):
        bright = simulate(compliant_zone(), weather_series(weather_records(week)))
        dim = weather_series(tuple(
            r._replace(solar_direct_w_m2=r.solar_direct_w_m2 / 2)
            for r in weather_records(week)))
        result = simulate(compliant_zone(), dim)
        assert solar_calls == {"position": 2, "irradiance": 10, "shading": 8}
        assert sum(result.window_solar_w) < sum(bright.window_solar_w)

    def test_gains_schedule_follows_utc_hour_for_any_offset(self, week):
        plus4 = timezone(timedelta(hours=4))
        local = weather_series(tuple(
            r._replace(timestamp=r.timestamp.astimezone(plus4))
            for r in weather_records(week)))
        zone = compliant_zone()._replace(internal_gains_w=[2000.0 if h == 15 else 0.0
                                                           for h in range(24)])
        assert simulate(zone, local) == simulate(zone, week)

    def test_memo_keeps_no_series_alive(self, week):
        series = weather_series(weather_records(week))
        simulate(compliant_zone(), series)
        ref = weakref.ref(series)
        del series
        gc.collect()
        assert ref() is None

    def test_simulated_series_is_freed_without_the_cycle_collector(self, week):
        series = weather_series(weather_records(week))
        simulate(compliant_zone(), series)
        ref = weakref.ref(series)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del series
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


def _bits(result) -> dict:
    """Every field of ``result`` in a form whose equality is bit for bit:
    the bytes of each column and the hex of each float."""
    def exact(value):
        if isinstance(value, array):
            return value.tobytes()
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {key: exact(item) for key, item in value.items()}
        return value
    return {name: exact(value) for name, value in result._asdict().items()}


def _sol_air_keys(zone) -> set:
    """The keys of the sol-air columns a run of ``zone`` makes."""
    return {((s.azimuth_deg, s.tilt_deg), s.shading, s.absorptivity, zone.h_exterior)
            for s in zone.surfaces}


def _variant(building):
    """``building`` after the edits of a design sweep: a darker roof, a
    wall added at a new azimuth under an overhang, and a deeper overhang
    over the first window."""
    wall = building.walls[0]._replace(id="added", azimuth_deg=135.0, area_m2=9.5,
                                      overhang_depth_m=1.0, overhang_height_m=2.5)
    window = building.windows[0]._replace(overhang_depth_m=1.5)
    return building._replace(
        roof=building.roof._replace(color=ColorClass.DARK), walls=building.walls + (wall,),
        windows=(window,) + building.windows[1:])


class TestPairedRun:
    """Zones run one after another on one weather series share the
    track's sol-air columns and export texts; no result may show it."""

    @pytest.fixture
    def pairs(self, initial_building, final_building):
        final = zone_from_building(final_building)
        recoloured = final_building._replace(
            roof=final_building.roof._replace(color=ColorClass.LIGHT))
        return {
            "variant, final": (zone_from_building(_variant(final_building)), final),
            "final, variant": (final, zone_from_building(_variant(final_building))),
            "initial, final": (zone_from_building(initial_building), final),
            "same zone": (final, final),
            "exterior film only": (
                zone_from_building(final_building, Scenario(exterior_film_w_m2k=17.0)), final),
            "roof colour only": (zone_from_building(recoloured), final),
        }

    @pytest.mark.parametrize("pair", ["variant, final", "final, variant", "initial, final",
                                      "same zone", "exterior film only", "roof colour only"])
    def test_second_run_equals_a_fresh_run_bit_for_bit(self, pairs, pair):
        first, second = pairs[pair]
        shared = synthetic_weather(days=3)
        simulate(first, shared)
        track = thermal._sun_track(shared, second.latitude, second.longitude)
        held = dict(track.sol_air)
        after = simulate(second, shared)
        assert _bits(after) == _bits(simulate(second, synthetic_weather(days=3)))
        # the columns the two zones share were taken from the track, and
        # no other: a film or a colour that differs keys a column apart
        reused = {key for key, column in track.sol_air.items() if held.get(key) is column}
        assert reused == _sol_air_keys(first) & _sol_air_keys(second)
        if pair == "exterior film only":
            assert not reused
        if pair == "roof colour only":
            assert len(reused) == len(_sol_air_keys(second)) - 1

    def test_track_holds_one_zone_table_at_most(self, pairs):
        shared = synthetic_weather(days=3)
        zones = [zone for pair in ("variant, final", "initial, final", "exterior film only")
                 for zone in pairs[pair]][:5]
        track = thermal._sun_track(shared, zones[0].latitude, zones[0].longitude)
        for zone in zones:
            simulate(zone, shared)
            assert set(track.sol_air) == _sol_air_keys(zone)
        assert len(zones) == 5 and zones[-1] != zones[-2]

    def test_signed_zero_gains_export_bytes_pinned(self):
        zone = compliant_zone()._replace(internal_gains_w=(0.0,) * 12 + (-0.0,) * 12)
        text = _csv(simulate(zone, synthetic_weather(2)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "388042479c16d52c7c5391793c2328aa75470f52ccb22045e6bcd8dc9ac38339")
        assert sum(line.endswith(",-0.000000") for line in text.splitlines()) == 24

    # a gains schedule indexes the track's UTC hours, made once per series
    @pytest.mark.parametrize("stamp,digest", [
        (lambda ts: ts.astimezone(timezone(timedelta(hours=4))),
         "dbc92ab25327e7b42ab5b6644916699ace65fe352b04395f724b43a209a12547"),
        (lambda ts: ts.replace(tzinfo=None),
         "cf5d8c1e95c774c37ce97499b657d98f38f46c6634ccb1025ac43e3e47559a27")],
        ids=["plus-four", "naive"])
    def test_gains_schedule_export_bytes_pinned(self, stamp, digest):
        utc = synthetic_weather(2)
        weather = weather_series(tuple(r._replace(timestamp=stamp(r.timestamp))
                                       for r in weather_records(utc)))
        zone = compliant_zone()._replace(internal_gains_w=tuple(100.0 * h for h in range(24)))
        text = _csv(simulate(zone, weather))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
        track = thermal._sun_track(weather, zone.latitude, zone.longitude)
        hours = track.utc_hours
        assert list(hours) == [ts.hour for ts in utc.timestamps]
        simulate(zone._replace(name="second"), weather)
        assert track.utc_hours is hours

    def test_results_on_one_weather_export_as_when_run_alone(self, initial_building,
                                                             final_building, monkeypatch):
        zones = (zone_from_building(initial_building), zone_from_building(final_building))
        shared = synthetic_weather(2)
        first, second = (simulate(zone, shared) for zone in zones)
        alone = [_csv(simulate(zone, synthetic_weather(2))) for zone in zones]
        calls = []
        monkeypatch.setattr(thermal, "_row_heads", lambda *columns, _fn=thermal._row_heads: (
            calls.append(1) or _fn(*columns)))
        # the second result exports first, so the first reads the texts
        # its export left on the track
        assert _csv(second) == alone[1]
        assert _csv(first) == alone[0]
        assert len(calls) == 1
        # a copy holds no track and makes its own
        assert _csv(first._replace()) == alone[0]
        assert len(calls) == 2


# Stage 1's columns against the per-instant references, compared with
# ``==``: the sun positions against ``solar_position``, the irradiance
# against the oracle ``surface_irradiance`` and the shading, which the
# track computes inline, against the oracle ``overhang_shading_fraction``,
# also byte for byte.
_SITES = {"south": (-21.1, 55.5), "north": (48.0, 2.0)}
_ORIENTATIONS = [(0.0, 0.0), (0.0, 90.0), (90.0, 90.0), (180.0, 90.0), (270.0, 90.0),
                 (37.3, 90.0), (213.7, 27.5)]
_GEOMETRIES = [(0.6, 1.4, 0.0, 180.0), (1.5, 2.1, 0.1, 0.0), (0.8, 1.0, 0.0, 90.0),
               (1.1, 2.5, 0.3, 37.3)]


def _solar_series(first, step, hours=25):
    """A weather series from ``first`` every ``step`` over ``hours``, with
    beam and diffuse irradiance by day and by night."""
    n = int(timedelta(hours=hours) / step)
    return weather_series(tuple(
        WeatherRecord(first + k * step, 28.0, 70.0, 300.0 + 7.0 * (k % 90),
                      40.0 + 3.0 * (k % 50), 2.0, 90.0)
        for k in range(n)))


_SERIES = {
    "naive": lambda: _solar_series(datetime(2024, 12, 21), timedelta(hours=1)),
    "plus4": lambda: _solar_series(datetime(2024, 6, 21, 4, tzinfo=timezone(timedelta(hours=4))),
                                   timedelta(hours=1)),
    "10min": lambda: _solar_series(datetime(2024, 3, 20, tzinfo=timezone.utc),
                                   timedelta(minutes=10)),
}


def _expect_columns(track, records, suns):
    """Fill ``track`` and compare its columns with the per-instant
    references at ``suns``."""
    track.fill(_ORIENTATIONS, _GEOMETRIES)
    for azimuth, tilt in _ORIENTATIONS:
        beam, diffuse = track.irradiance[(azimuth, tilt)]
        assert list(zip(beam, diffuse)) == [
            surface_irradiance(sun, r.solar_direct_w_m2, r.solar_diffuse_w_m2, azimuth, tilt)
            for sun, r in zip(suns, records)]
    for depth, height, offset, azimuth in _GEOMETRIES:
        expected = array("d", [
            overhang_shading_fraction(depth, height, offset,
                                      sun.altitude_deg, sun.azimuth_deg, azimuth)
            for sun in suns])
        assert track.shading[(depth, height, offset, azimuth)] == expected
        # the inline column keeps the oracle's order of operations, down
        # to the sign of a zero
        assert track.shading[(depth, height, offset, azimuth)].tobytes() == expected.tobytes()


class TestSunColumns:
    @pytest.mark.parametrize("site", sorted(_SITES))
    @pytest.mark.parametrize("series", sorted(_SERIES))
    def test_columns_equal_the_per_instant_references(self, site, series):
        weather = _SERIES[series]()
        latitude, longitude = _SITES[site]
        track = thermal._sun_track(weather, latitude, longitude)
        suns = [solar_position(latitude, longitude, ts) for ts in track.timestamps]
        assert list(track.altitude) == [sun.altitude_deg for sun in suns]
        assert list(track.azimuth) == [sun.azimuth_deg for sun in suns]
        # the same instants given in UTC give the same columns
        utc = [ts.astimezone(timezone.utc) if ts.tzinfo else ts.replace(tzinfo=timezone.utc)
               for ts in track.timestamps]
        assert sun_positions(latitude, longitude, utc) == (list(track.altitude),
                                                           list(track.azimuth))
        # the day and the night, and the sun up behind a shaded facade
        assert min(track.altitude) < 0.0 < max(track.altitude)
        assert any(sun.altitude_deg > 0.0
                   and math.cos(math.radians(sun.azimuth_deg - facade)) <= 0.0
                   for sun in suns for _, _, _, facade in _GEOMETRIES)
        _expect_columns(track, weather_records(weather), suns)

    def test_sun_at_the_horizon_and_edge_angles(self, monkeypatch):
        weather = _SERIES["naive"]()
        # at the horizon (0.0 and -0.0), just above and below it, the
        # zenith and the nadir, and suns in front of, square to (127.3 for
        # the 37.3 facade) and behind the facades
        cases = [(0.0, 180.0), (-0.0, 90.0), (5e-324, 180.0), (-5e-324, 180.0),
                 (90.0, 0.0), (-90.0, 0.0), (30.0, 270.0), (30.0, 127.3), (45.0, 180.0),
                 (12.5, 0.0), (60.0, 33.0)]
        angles = [cases[k % len(cases)] for k in range(len(weather.timestamps))]
        monkeypatch.setattr(thermal, "sun_positions", lambda lat, lon, timestamps: (
            [alt for alt, _ in angles], [az for _, az in angles]))
        track = thermal._sun_track(weather, *_SITES["south"])
        _expect_columns(track, weather_records(weather), [SolarPosition(*a) for a in angles])

    def test_orientations_of_one_tilt_share_one_diffuse_column(self):
        track = thermal._sun_track(_SERIES["naive"](), *_SITES["south"])
        track.fill(_ORIENTATIONS, ())
        _, east = track.irradiance[(90.0, 90.0)]
        _, west = track.irradiance[(270.0, 90.0)]
        _, roof = track.irradiance[(0.0, 0.0)]
        assert east is west
        assert roof is not east and roof != east
