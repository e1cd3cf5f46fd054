"""Psychrometrics and comfort-zone statistics.

Indoor (temperature, humidity) samples are mapped onto the psychrometric
plane and classified against a comfort polygon.  The default polygon is a
warm-humid-climate zone (Givoni type): 22 to 29 degC between 4 and
17 g/kg of humidity ratio, with the upper temperature bound extended by
2 degC per m/s of air speed up to a 32 degC cap.  Those bounds are a
documented convention, not a measured constant, and can be overridden
from a zone file.

A series of samples is held as columns (``PsychroSeries``, three
``array('d')``): the comfort temperature, placed against the humidity
ratio of the air, and the air speed.  The ratio belongs to the air, so
it comes from the dry bulb and its relative humidity, never from the
resultant temperature.  ``logger_points`` is the one route from logger
columns to points.  A series is classified in one pass: each sample is
tested once against the polygon extended for its air speed, and that
polygon, its warm edge and its bounding box are built once per distinct
air speed.  The discomfort statistics (``ComfortStats``, a named tuple
that carries the flags as its last field) and the scatter export read
the same flags.
"""

import math
from array import array
from collections.abc import Sequence
from itertools import islice, repeat
from operator import add
from pathlib import Path
from typing import NamedTuple, TextIO

from .errors import NON_NEGATIVE, REQUIRED, InputError, load_json, read_format, within

STANDARD_PRESSURE_PA = 101325.0

T_MIN_C = -20.0
T_MAX_C = 60.0


def saturation_vapor_pressure(t_c: float) -> float:
    """Saturation pressure of water vapour over liquid water, in Pa.

    Magnus-form correlation (Alduchov-Eskridge coefficients), good to a
    few tenths of a percent between 0 and 50 degC.
    """
    if not T_MIN_C <= t_c <= T_MAX_C:
        raise ValueError(f"temperature {t_c} degC outside supported range "
                         f"[{T_MIN_C}, {T_MAX_C}]")
    return 610.94 * math.exp(17.625 * t_c / (t_c + 243.04))


def humidity_ratio(t_c: float, rh_pct: float) -> float:
    """Humidity ratio in grams of water per kg of dry air, at the
    standard pressure."""
    if not 0.0 <= rh_pct <= 100.0:
        raise ValueError("relative humidity must be in [0, 100]")
    partial = rh_pct / 100.0 * saturation_vapor_pressure(t_c)
    return 622.0 * partial / (STANDARD_PRESSURE_PA - partial)


class PsychroSeries(NamedTuple):
    """Samples on the psychrometric plane, one column per coordinate.

    ``temperature_c`` is the comfort temperature and
    ``humidity_ratio_g_kg`` that of the air; ``logger_points`` builds
    them from logger columns.  The loader has already refused a negative
    air speed.
    """

    temperature_c: array
    humidity_ratio_g_kg: array
    air_speed_m_s: array


def logger_points(series) -> PsychroSeries:
    """The points of logger columns (``dataio.IndoorSeries``): the
    resultant temperature when measured, else the dry bulb, against
    ``humidity_ratio(temp_air_c, rh_pct)``, since the RH is that of the
    air; a blank air speed is still air, and so is -0.0."""
    air, rh = series.temp_air_c, series.rh_pct
    if not (within(rh, 0.0, 100.0) and within(air, T_MIN_C, T_MAX_C)):
        for t_c, rh_pct in zip(air, rh):
            humidity_ratio(t_c, rh_pct)  # raises at the first sample out of range
    exp = math.exp
    # humidity_ratio's arithmetic, in its order, with no call per sample
    ratios = array("d", [
        622.0 * (partial := rh_pct / 100.0 * (610.94 * exp(17.625 * t_c / (t_c + 243.04))))
        / (STANDARD_PRESSURE_PA - partial)
        for t_c, rh_pct in zip(air, rh)])
    temperatures = series.temp_resultant_c[:]
    blank = series.blank_resultant
    i = blank.find(1)
    while i >= 0:
        temperatures[i] = air[i]
        i = blank.find(1, i + 1)
    # x + 0.0 is x, but for -0.0, which it turns into 0.0, as x or 0.0 does
    return PsychroSeries(temperatures, ratios,
                         array("d", map(add, series.air_speed_m_s, repeat(0.0))))


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)


def _segments_cross(p1, p2, q1, q2) -> bool:
    o1, o2 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    o3, o4 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    return o1 != o2 and o3 != o4


def _is_simple_polygon(vertices) -> bool:
    """True when no vertex repeats, no edge turns straight back along the
    one before it and no two non-adjacent edges meet.  Two non-adjacent
    edges that overlap on one line need no test of their own: the path
    between them folds back on that line, or leaves it by an edge that
    touches one of them."""
    n = len(vertices)
    if len(set(vertices)) != n:
        return False
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for (a, b), (_, c) in zip(edges, edges[1:] + edges[:1]):
        if (_orient(a, b, c) == 0
                and (b[0] - a[0]) * (c[0] - b[0]) + (b[1] - a[1]) * (c[1] - b[1]) < 0):
            return False
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share a vertex by construction
            if _segments_cross(*edges[i], *edges[j]):
                return False
    return True


class ComfortZone(NamedTuple):
    """Comfort polygon in (temperature degC, humidity ratio g/kg) space.

    Air movement extends the warm edge: every vertex on the polygon's
    maximum-temperature boundary is shifted right by
    ``extension_c_per_m_s`` degC per m/s of air speed, but never beyond
    ``max_extended_temp_c``.  The record checks nothing when built:
    :func:`comfort_zone_from_dict` holds the value rules of a zone file.
    """

    vertices: tuple[tuple[float, float], ...]
    extension_c_per_m_s: float = 2.0
    max_extended_temp_c: float = 32.0

    @property
    def upper_temperature_c(self) -> float:
        return max(t for t, _ in self.vertices)

    def extended_vertices(self, air_speed_m_s: float) -> tuple[tuple[float, float], ...]:
        t_max = self.upper_temperature_c
        shift = min(self.extension_c_per_m_s * air_speed_m_s,
                    max(self.max_extended_temp_c - t_max, 0.0))
        if shift <= 0:
            return self.vertices
        return tuple((t + shift if abs(t - t_max) < 1e-9 else t, w)
                     for t, w in self.vertices)


DEFAULT_ZONE = ComfortZone(vertices=((22.0, 4.0), (29.0, 4.0), (29.0, 17.0), (22.0, 17.0)))


#: The zone file format (see ``errors.read_format``): every field of
#: :class:`ComfortZone` with the record's default, the vertices required.
_ZONE_FORMS = {"vertices": [(float, float)], "extension_c_per_m_s": NON_NEGATIVE,
               "max_extended_temp_c": float}
ZONE_FORMAT = {"zone": (ComfortZone, "zone", tuple(
    (name, _ZONE_FORMS[name], ComfortZone._field_defaults.get(name, REQUIRED))
    for name in ComfortZone._fields))}


def comfort_zone_from_dict(doc: dict) -> ComfortZone:
    """The comfort zone that a zone file holding ``doc`` describes.  A
    malformed or unknown key raises InputError, then a number out of its
    range, then vertices that make no simple polygon."""
    zone = read_format(doc, "zone", ZONE_FORMAT, InputError)
    if len(zone.vertices) < 3:
        raise InputError("zone.vertices: must hold at least 3 vertices")
    if not _is_simple_polygon(zone.vertices):
        raise InputError("zone.vertices: must be a simple polygon")
    return zone


def load_zone(path: str | Path) -> ComfortZone:
    """Read a zone override file (docs/formats.md)."""
    return load_json(path, comfort_zone_from_dict, InputError)


#: How near an edge a point counts as on it.
_EDGE_EPS = 1e-9


def _point_in_polygon(x: float, y: float,
                      polygon: tuple[tuple[float, float], ...]) -> bool:
    """Even-odd point-in-polygon test, boundary inclusive."""
    eps = _EDGE_EPS
    inside = False
    ax, ay = polygon[-1]
    for bx, by in polygon:
        # on the edge from (ax, ay) to (bx, by)?
        cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        if (not abs(cross) > eps
                and min(ax, bx) - eps <= x <= max(ax, bx) + eps
                and min(ay, by) - eps <= y <= max(ay, by) + eps):
            return True
        if (ay > y) != (by > y):
            x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
            if x < x_cross:
                inside = not inside
        ax, ay = bx, by
    return inside


class ComfortStats(NamedTuple):
    """Discomfort statistics of a series of ``samples`` points, with the
    per-sample classification the fraction counts in ``inside``
    (True = inside)."""

    samples: int
    discomfort_fraction: float
    mean_exceedance_c: float
    max_exceedance_c: float
    inside: tuple[bool, ...]


def discomfort_fraction(points: PsychroSeries,
                        zone: ComfortZone = DEFAULT_ZONE) -> ComfortStats:
    """Share of samples outside the zone, with warm-side exceedance stats.

    Exceedance is how far a sample's temperature sits above the
    (air-speed extended) upper bound; samples outside only on the
    humidity axis count in the fraction but contribute zero exceedance.
    The returned stats carry the per-sample flags in ``inside``.
    """
    temperatures, ratios, speeds = points
    samples = len(temperatures)
    if not samples:
        raise ValueError("empty series")
    # Once per distinct air speed: the extended polygon, its warm edge
    # and its bounding box widened by the edge epsilon.  A point outside
    # that box is outside the polygon: no edge's band or crossing
    # reaches it, and a ray from its left crosses an even number of
    # edges.
    extended: dict = {}
    inside, exceedances = [], []
    for t, w, speed in zip(temperatures, ratios, speeds):
        shape = extended.get(speed)
        if shape is None:
            polygon = zone.extended_vertices(speed)
            xs, ys = [x for x, _ in polygon], [y for _, y in polygon]
            shape = extended[speed] = (polygon, max(xs), min(xs) - _EDGE_EPS,
                                       max(xs) + _EDGE_EPS, min(ys) - _EDGE_EPS,
                                       max(ys) + _EDGE_EPS)
        polygon, warm_edge, x_low, x_high, y_low, y_high = shape
        flag = (x_low <= t <= x_high and y_low <= w <= y_high
                and _point_in_polygon(t, w, polygon))
        inside.append(flag)
        if not flag:
            exceedances.append(max(0.0, t - warm_edge))
    outside = len(exceedances)
    return ComfortStats(
        samples=samples,
        discomfort_fraction=outside / samples,
        mean_exceedance_c=sum(exceedances) / outside if outside else 0.0,
        max_exceedance_c=max(exceedances) if outside else 0.0,
        inside=tuple(inside),
    )


class OffsetStats(NamedTuple):
    """Per-step difference statistics between two paired zones (a - b)."""

    mean_offset_c: float
    max_offset_c: float
    fraction_ge_1c: float


def paired_offset(series_a: Sequence[float], series_b: Sequence[float]) -> OffsetStats:
    """Offset statistics between two temperature series of equal length,
    paired step by step; the caller makes sure their timestamps match."""
    diffs = [va - vb for va, vb in zip(series_a, series_b, strict=True)]
    if not diffs:
        raise ValueError("empty series")
    return OffsetStats(
        mean_offset_c=sum(diffs) / len(diffs),
        max_offset_c=max(diffs),
        fraction_ge_1c=sum(1 for d in diffs if d >= 1.0) / len(diffs),
    )


def psychro_scatter_rows(points: PsychroSeries, inside: tuple[bool, ...],
                         zone: ComfortZone, out: TextIO) -> None:
    """Write CSV text with one row per point plus the zone polygon
    vertices, ready for any plotting tool, to ``out``, an open text
    file, 1024 rows per write.  Output is deterministic for fixed input.

    ``inside`` are the points' flags as ``discomfort_fraction(points,
    zone).inside`` returns them, one per point; flags of another length
    raise ValueError before anything is written."""
    temperatures, ratios, _ = points
    if len(inside) != len(temperatures):
        raise ValueError(f"{len(inside)} flags for {len(temperatures)} points")
    out.write("kind,temperature_c,humidity_ratio_g_kg,inside\n")
    rows = (f"point,{t!r},{w!r},{1 if flag else 0}\n"
            for t, w, flag in zip(temperatures, ratios, inside))
    while chunk := "".join(islice(rows, 1024)):
        out.write(chunk)
    out.write("".join(f"zone_vertex,{t!r},{w!r},\n" for t, w in zone.vertices))
