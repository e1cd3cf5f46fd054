import copy
import hashlib
import io
import math
import pickle
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecodom.comfort import (
    DEFAULT_ZONE,
    ComfortZone,
    PsychroSeries,
    discomfort_fraction,
    humidity_ratio,
    _point_in_polygon,
    load_zone,
    logger_points,
    paired_offset,
    psychro_scatter_rows,
    saturation_vapor_pressure,
)
from oracles import (
    IndoorRecord,
    PsychroPoint,
    classify,
    hyland_wexler_pws,
    indoor_series,
    psychro_series,
    upper_bound_at,
)

START = datetime(2026, 2, 1, tzinfo=timezone.utc)


def _point(t: float, rh: float, air_speed_m_s: float = 0.0) -> PsychroPoint:
    """A point of air at ``t`` degC and ``rh`` % relative humidity."""
    return PsychroPoint(t, humidity_ratio(t, rh), air_speed_m_s)


def _scatter(points, inside) -> str:
    """The scatter export of ``points`` on the default zone, as text."""
    out = io.StringIO()
    psychro_scatter_rows(psychro_series(points), inside, DEFAULT_ZONE, out)
    return out.getvalue()


class TestSaturationPressure:
    def test_freezing_point(self):
        assert saturation_vapor_pressure(0.0) == pytest.approx(611.0, abs=2.0)

    def test_thirty_degrees(self):
        assert saturation_vapor_pressure(30.0) == pytest.approx(4246.0, rel=0.005)

    def test_monotone(self):
        assert saturation_vapor_pressure(31.0) > saturation_vapor_pressure(30.0)

    def test_against_reference_correlation_grid(self):
        for t10 in range(0, 501, 5):  # 0.0 to 50.0 in 0.5 degree steps
            t = t10 / 10.0
            ref = hyland_wexler_pws(t)
            assert saturation_vapor_pressure(t) == pytest.approx(ref, rel=0.005)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            saturation_vapor_pressure(90.0)
        with pytest.raises(ValueError):
            saturation_vapor_pressure(-30.0)


class TestHumidityRatio:
    def test_dry_air(self):
        assert humidity_ratio(30.0, 0.0) == 0.0

    def test_saturated_at_thirty(self):
        assert humidity_ratio(30.0, 100.0) == pytest.approx(27.2, abs=0.3)

    def test_monotone_in_rh(self):
        previous = -1.0
        for rh in range(0, 101, 10):
            w = humidity_ratio(28.0, rh)
            assert w > previous or (rh == 0 and w == 0.0)
            previous = w

    def test_matches_formula_against_oracle_pressure(self):
        # w = 622 pv / (P - pv) with the reference saturation pressure
        for t, rh in ((20.0, 50.0), (30.0, 80.0), (40.0, 30.0)):
            pv = rh / 100.0 * hyland_wexler_pws(t)
            expected = 622.0 * pv / (101325.0 - pv)
            assert humidity_ratio(t, rh) == pytest.approx(expected, rel=0.005)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            humidity_ratio(30.0, 120.0)


class TestClassify:
    def test_zone_centre_inside(self):
        assert classify(_point(25.5, 50.0))

    def test_far_above_cap_outside(self):
        assert not classify(_point(45.0, 50.0))

    def test_example_point_with_air_movement(self):
        # 27 C / 60% RH (about 13.4 g/kg) at 0.5 m/s sits inside the
        # default zone.
        point = _point(27.0, 60.0, air_speed_m_s=0.5)
        assert 4.0 <= point.humidity_ratio_g_kg <= 17.0
        assert classify(point)

    def test_air_speed_extends_upper_bound(self):
        still = _point(30.0, 40.0, air_speed_m_s=0.0)
        moving = _point(30.0, 40.0, air_speed_m_s=0.6)
        assert not classify(still)
        assert classify(moving)

    def test_extension_is_capped(self):
        fast = _point(33.0, 40.0, air_speed_m_s=5.0)
        assert not classify(fast)
        assert upper_bound_at(DEFAULT_ZONE, 5.0) == 32.0

    def test_boundary_counts_as_inside(self):
        w_edge = _point(29.0, 50.0)  # exactly on the warm edge in T
        assert classify(w_edge)

    def test_vertex_order_invariance(self):
        point = _point(26.0, 55.0)
        vertices = DEFAULT_ZONE.vertices
        for shift in range(len(vertices)):
            rotated = ComfortZone(vertices[shift:] + vertices[:shift])
            assert classify(point, rotated) == classify(point, DEFAULT_ZONE)

    def test_too_humid_outside(self):
        assert not classify(_point(26.0, 90.0))  # about 19 g/kg


class TestDiscomfortStats:
    def test_all_inside(self):
        points = [_point(25.0, 50.0)] * 10
        stats = discomfort_fraction(psychro_series(points))
        assert stats.discomfort_fraction == 0.0
        assert stats.mean_exceedance_c == 0.0

    def test_all_far_above(self):
        points = [_point(49.0, 10.0)] * 5
        stats = discomfort_fraction(psychro_series(points))
        assert stats.discomfort_fraction == 1.0
        assert stats.max_exceedance_c == pytest.approx(49.0 - 29.0)

    def test_constructed_ninety_ten_split(self):
        points = [_point(25.0, 50.0)] * 90 + [_point(35.0, 50.0)] * 10
        stats = discomfort_fraction(psychro_series(points))
        assert stats.discomfort_fraction == pytest.approx(0.10)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            discomfort_fraction(psychro_series([]))

    @given(
        temps=st.lists(st.floats(22.0, 45.0), min_size=1, max_size=40),
        shift=st.floats(0.0, 10.0),
    )
    @settings(max_examples=100)
    def test_warming_never_decreases_discomfort(self, temps, shift):
        # Starting at or above the zone's cool edge, shifting the whole
        # series warmer can only push points out across the warm edge.
        base = [_point(t, 40.0) for t in temps]
        warmer = [_point(min(t + shift, 59.0), 40.0) for t in temps]
        assert (discomfort_fraction(psychro_series(warmer)).discomfort_fraction
                >= discomfort_fraction(psychro_series(base)).discomfort_fraction)


class TestPairedOffset:
    TS = list(range(10))

    def test_identical_series(self):
        series = [28.0] * len(self.TS)
        stats = paired_offset(series, series)
        assert stats.mean_offset_c == 0.0
        assert stats.fraction_ge_1c == 0.0

    def test_constant_offset(self):
        a = [29.2] * len(self.TS)
        b = [28.0] * len(self.TS)
        stats = paired_offset(a, b)
        assert stats.mean_offset_c == pytest.approx(1.2)
        assert stats.max_offset_c == pytest.approx(1.2)
        assert stats.fraction_ge_1c == 1.0

    def test_antisymmetry(self):
        a = [28.0 + 0.1 * t for t in self.TS]
        b = [27.5 + 0.2 * t for t in self.TS]
        assert paired_offset(a, b).mean_offset_c == \
            pytest.approx(-paired_offset(b, a).mean_offset_c)


class TestScatterExport:
    def test_row_count_and_flags(self):
        points = [_point(25.0, 50.0), _point(40.0, 30.0)]
        text = _scatter(points, discomfort_fraction(psychro_series(points)).inside)
        lines = text.strip().splitlines()
        assert lines[0] == "kind,temperature_c,humidity_ratio_g_kg,inside"
        point_rows = [l for l in lines if l.startswith("point,")]
        vertex_rows = [l for l in lines if l.startswith("zone_vertex,")]
        assert len(point_rows) == len(points)
        assert len(vertex_rows) == len(DEFAULT_ZONE.vertices)
        flags = [int(row.split(",")[3]) for row in point_rows]
        assert flags == [1 if classify(p) else 0 for p in points]

    def test_deterministic_bytes(self):
        points = [_point(25.0 + i * 0.3, 50.0) for i in range(20)]
        inside = discomfort_fraction(psychro_series(points)).inside
        assert _scatter(points, inside) == _scatter(points, inside)


class TestZoneFile:
    def test_load_zone_override(self, tmp_path):
        path = tmp_path / "zone.json"
        path.write_text('{"vertices": [[20, 3], [28, 3], [28, 15], [20, 15]],'
                        ' "extension_c_per_m_s": 1.0, "max_extended_temp_c": 30.0}')
        zone = load_zone(path)
        assert zone.upper_temperature_c == 28.0
        assert upper_bound_at(zone, 5.0) == 30.0

    def test_malformed_zone_file(self, tmp_path):
        path = tmp_path / "zone.json"
        path.write_text('{"polygon": []}')
        with pytest.raises(ValueError):
            load_zone(path)

    def test_self_intersecting_polygon_rejected(self):
        bow_tie = ((22.0, 4.0), (29.0, 17.0), (29.0, 4.0), (22.0, 17.0))
        with pytest.raises(ValueError, match="simple"):
            ComfortZone(vertices=bow_tie)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="simple"):
            ComfortZone(vertices=((22.0, 4.0), (29.0, 4.0), (22.0, 4.0)))

    @pytest.mark.parametrize("vertices", [
        ((22.0, 4.0), (29.0, 4.0), (25.0, 4.0)),
        ((22.0, 4.0), (25.0, 4.0), (29.0, 4.0)),
        ((22.0, 4.0), (25.0, 4.0), (29.0, 4.0), (27.0, 4.0)),
        ((22.0, 4.0), (29.0, 4.0), (29.0, 17.0), (22.0, 17.0), (22.0, 10.0), (22.0, 12.0))],
        ids=["folds-back", "one-line", "one-line-folds-back", "edges-overlap"])
    def test_degenerate_polygon_rejected(self, vertices):
        with pytest.raises(ValueError, match="simple"):
            ComfortZone(vertices=vertices)

    def test_straight_vertex_accepted(self):
        zone = ComfortZone(((22.0, 4.0), (25.0, 4.0), (29.0, 4.0), (29.0, 17.0), (22.0, 17.0)))
        assert zone.upper_temperature_c == 29.0


def _seeded_points(seed: int = 7, n: int = 2000) -> list[PsychroPoint]:
    """Blank and zero air speeds, speeds past the cap, warm and cool
    outliers and humidity-only outliers (a comfortable temperature with a
    humidity ratio above 17 or below 4 g/kg)."""
    rng = random.Random(seed)
    speeds = [0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5, 5.0]
    points = []
    for i in range(n):
        kind = i % 4
        if kind == 0:  # blank speed: the default
            points.append(_point(rng.uniform(18.0, 36.0), rng.uniform(20.0, 90.0)))
        elif kind == 1:  # humidity-only outlier
            rh = rng.choice((rng.uniform(85.0, 99.0), rng.uniform(5.0, 15.0)))
            points.append(_point(rng.uniform(23.0, 28.0), rh, rng.choice(speeds)))
        elif kind == 2:  # speeds from a short list, so they repeat
            points.append(_point(rng.uniform(18.0, 36.0), rng.uniform(20.0, 90.0),
                                 rng.choice(speeds)))
        else:
            points.append(_point(rng.uniform(18.0, 36.0), rng.uniform(20.0, 90.0),
                                 round(rng.uniform(0.0, 3.0), 2)))
    return points


# the cap sits below the warm edge, so air speed never extends the zone
NO_EXTENSION_ZONE = ComfortZone(DEFAULT_ZONE.vertices, extension_c_per_m_s=2.0,
                                max_extended_temp_c=27.0)


class TestOnePass:
    @pytest.mark.parametrize("zone", [DEFAULT_ZONE, NO_EXTENSION_ZONE],
                             ids=["default", "no-extension"])
    def test_stats_equal_per_point_oracle(self, zone):
        points = _seeded_points()
        flags = [classify(p, zone) for p in points]
        exceedances = [max(0.0, p.temperature_c - upper_bound_at(zone, p.air_speed_m_s))
                       for p, flag in zip(points, flags) if not flag]
        outside = len(exceedances)
        assert 0 < outside < len(points)
        stats = discomfort_fraction(psychro_series(points), zone)
        assert stats.discomfort_fraction == outside / len(points)
        assert stats.mean_exceedance_c == sum(exceedances) / outside
        assert stats.max_exceedance_c == max(exceedances)

    @pytest.mark.parametrize("zone", [DEFAULT_ZONE, NO_EXTENSION_ZONE],
                             ids=["default", "no-extension"])
    def test_stats_carry_the_classify_flags(self, zone):
        points = _seeded_points()
        assert discomfort_fraction(psychro_series(points), zone).inside == tuple(
            classify(p, zone) for p in points)

    def test_series_covers_every_case(self):
        points = _seeded_points()
        speeds = {p.air_speed_m_s for p in points}
        assert 0.0 in speeds and max(speeds) * 2.0 > 32.0 - 29.0
        humid_only = [p for p in points if 22.0 <= p.temperature_c <= 29.0
                      and not 4.0 <= p.humidity_ratio_g_kg <= 17.0]
        assert humid_only and all(not classify(p) for p in humid_only)
        assert upper_bound_at(NO_EXTENSION_ZONE, 5.0) == 29.0

    def test_scatter_refuses_flags_of_another_length(self):
        points = _seeded_points(n=10)
        out = io.StringIO()
        with pytest.raises(ValueError):
            psychro_scatter_rows(psychro_series(points), (True,) * 9, DEFAULT_ZONE, out)
        assert out.getvalue() == ""

    def test_empty_scatter_is_header_and_vertices(self):
        text = _scatter([], ())
        assert text.splitlines() == [
            "kind,temperature_c,humidity_ratio_g_kg,inside",
            "zone_vertex,22.0,4.0,", "zone_vertex,29.0,4.0,",
            "zone_vertex,29.0,17.0,", "zone_vertex,22.0,17.0,"]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "189fbec1454795c469f32f41880d892dc9543cb07015541741525aac009237c6")


class TestLoggerPoints:
    """``logger_points`` takes the columns in bulk; its values are those
    of the per-sample rule."""

    def test_columns_equal_the_per_sample_rule(self):
        rng = random.Random(5)
        records = [IndoorRecord(START, f"z{i}", rng.uniform(-20.0, 60.0),
                                rng.choice([None, -0.0, rng.uniform(-20.0, 60.0)]),
                                rng.uniform(0.0, 100.0),
                                rng.choice([None, -0.0, 0.0, rng.uniform(0.0, 3.0)]))
                   for i in range(500)]
        points = logger_points(indoor_series(records))
        expected = [PsychroPoint(r.temp_air_c if r.temp_resultant_c is None
                                 else r.temp_resultant_c,
                                 humidity_ratio(r.temp_air_c, r.rh_pct),
                                 r.air_speed_m_s or 0.0) for r in records]
        assert points == psychro_series(expected)
        # bit for bit, the sign of a zero included: a -0.0 resultant stays
        # -0.0, and a blank or -0.0 air speed reads 0.0
        assert [column.tobytes() for column in points] == [
            column.tobytes() for column in psychro_series(expected)]
        assert any(math.copysign(1.0, t) < 0 for t in points.temperature_c if t == 0.0)

    @pytest.mark.parametrize("air,rh,message", [
        (61.0, 50.0, "outside supported range"), (float("nan"), 50.0, "outside supported range"),
        (28.0, 100.5, "relative humidity"), (28.0, float("nan"), "relative humidity"),
        (float("inf"), 101.0, "relative humidity")],
        ids=["hot", "nan-air", "humid", "nan-rh", "both"])
    def test_series_out_of_range_raises_the_per_sample_error(self, air, rh, message):
        # a series built in code is checked as each sample would be
        records = [IndoorRecord(START, "z", 28.0, None, 50.0, None),
                   IndoorRecord(START, "z", air, None, rh, None)]
        with pytest.raises(ValueError, match=message):
            logger_points(indoor_series(records))


class TestPointRecord:
    def test_fields_are_read_only(self):
        points = psychro_series([PsychroPoint(26.0, 11.7, 0.3)])
        for name in ("temperature_c", "humidity_ratio_g_kg", "air_speed_m_s"):
            with pytest.raises(AttributeError):
                setattr(points, name, 1.0)

    def test_equal_and_hash_by_value(self):
        # columns are arrays, which compare by value and have no hash
        a, b = (psychro_series([PsychroPoint(26.0, 11.7, 0.3)]) for _ in range(2))
        assert a is not b and a == b
        assert a != psychro_series([PsychroPoint(26.0, 11.7, 0.4)])
        with pytest.raises(TypeError):
            hash(a)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal(self, clone):
        points = psychro_series([PsychroPoint(26.0, 11.7, 0.3), PsychroPoint(31.0, 18.0)])
        twin = clone(points)
        assert twin == points and type(twin) is PsychroSeries


# a notch cut into the warm-humid corner: non-convex, with slanted edges
NOTCHED_ZONE = ComfortZone(((22.0, 4.0), (29.0, 4.0), (29.0, 17.0), (25.5, 9.5), (22.0, 17.0)))


def _probe_points(polygon, rng):
    """Every vertex and edge midpoint, points just off each of them, and
    seeded points over the polygon's bounding box."""
    probes = []
    for (ax, ay), (bx, by) in zip(polygon, polygon[1:] + polygon[:1]):
        for x, y in ((ax, ay), ((ax + bx) / 2, (ay + by) / 2)):
            probes.append((x, y))
            for d in (1e-10, 1e-8, 1e-3):
                probes += [(x + d, y), (x - d, y), (x, y + d), (x, y - d)]
    ts = [t for t, _ in polygon]
    ws = [w for _, w in polygon]
    probes += [(rng.uniform(min(ts) - 2.0, max(ts) + 2.0),
                rng.uniform(min(ws) - 2.0, max(ws) + 2.0)) for _ in range(3000)]
    return probes


class TestPolygonFlagsPinned:
    @pytest.mark.parametrize("polygon, digest", [
        (DEFAULT_ZONE.vertices, "154555f761a66fdf19b529c3e5dc973bc4d5eff3639d4c8609c81b1de2736084"),
        (DEFAULT_ZONE.extended_vertices(0.75), "169519e5c9ad4b6c4c148b87a1596d579897b1d45f42af50db47806a715d9681"),
        (NOTCHED_ZONE.vertices, "774105b6ae8bf5a2504f4dbd3432b80038db291e6b3af123420a24bd00c85b21")],
        ids=["default", "extended", "notched"])
    def test_flags_digest(self, polygon, digest):
        probes = _probe_points(polygon, random.Random(11))
        flags = "".join("1" if _point_in_polygon(x, y, polygon) else "0"
                        for x, y in probes)
        assert "0" in flags and "1" in flags
        assert hashlib.sha256(flags.encode()).hexdigest() == digest
