"""Psychrometrics and comfort-zone statistics.

Indoor (temperature, humidity) samples are mapped onto the psychrometric
plane and classified against a comfort polygon.  The default polygon is a
warm-humid-climate zone (Givoni type): 22 to 29 degC between 4 and
17 g/kg of humidity ratio, with the upper temperature bound extended by
2 degC per m/s of air speed up to a 32 degC cap.  Those bounds are a
documented convention, not a measured constant, and can be overridden
from a zone file.

Each sample is one immutable named tuple (``PsychroPoint``): the comfort
temperature, placed against the humidity ratio of the air.  The ratio
belongs to the air, so it comes from the dry bulb and its relative
humidity, never from the resultant temperature.  ``logger_points`` is
the one route from logger rows to points.  A series is classified in
one pass: each sample is tested once against the polygon extended for
its air speed, and that polygon and its warm edge are built once per
distinct air speed.  The discomfort statistics (``ComfortStats``, a
named tuple that carries the flags as its last field) and the scatter
export read the same flags.
"""

import math
from collections.abc import Sequence
from itertools import islice
from pathlib import Path
from typing import NamedTuple, TextIO

from .errors import InputError, checked, field, number, read_json

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


class PsychroPoint(NamedTuple):
    """One sample on the psychrometric plane.

    ``temperature_c`` is the comfort temperature and
    ``humidity_ratio_g_kg`` that of the air; ``logger_points`` builds
    them from logger rows.  The loader has already refused a negative
    air speed.
    """

    temperature_c: float
    humidity_ratio_g_kg: float
    air_speed_m_s: float = 0.0


def logger_points(records) -> list[PsychroPoint]:
    """The point of each logger row (``dataio.IndoorRecord``): the
    resultant temperature when measured, else the dry bulb, against
    ``humidity_ratio(temp_air_c, rh_pct)``, since the RH is that of the
    air; a blank air speed is still air."""
    return [PsychroPoint(rec.temp_air_c if rec.temp_resultant_c is None
                         else rec.temp_resultant_c,
                         humidity_ratio(rec.temp_air_c, rec.rh_pct),
                         rec.air_speed_m_s or 0.0)
            for rec in records]


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


@checked
class ComfortZone(NamedTuple):
    """Comfort polygon in (temperature degC, humidity ratio g/kg) space.

    Air movement extends the warm edge: every vertex on the polygon's
    maximum-temperature boundary is shifted right by
    ``extension_c_per_m_s`` degC per m/s of air speed, but never beyond
    ``max_extended_temp_c``.
    """

    vertices: tuple[tuple[float, float], ...]
    extension_c_per_m_s: float = 2.0
    max_extended_temp_c: float = 32.0

    def _check(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("comfort zone polygon needs at least 3 vertices")
        if self.extension_c_per_m_s < 0:
            raise ValueError("air-speed extension must be >= 0")
        if not _is_simple_polygon(self.vertices):
            raise ValueError("comfort zone polygon must be simple "
                             "(no self-intersection, no repeated vertices)")

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


DEFAULT_ZONE = ComfortZone(
    vertices=((22.0, 4.0), (29.0, 4.0), (29.0, 17.0), (22.0, 17.0)),
    extension_c_per_m_s=2.0,
    max_extended_temp_c=32.0,
)


def load_zone(path: str | Path) -> ComfortZone:
    """Read a zone override file: {"vertices": [[T, w], ...],
    "extension_c_per_m_s": k, "max_extended_temp_c": cap}; any other key
    is refused."""
    doc = read_json(path)
    unknown = [key for key in doc
               if key not in ("vertices", "extension_c_per_m_s", "max_extended_temp_c")]
    if unknown:
        raise InputError(f"zone file {path}: unknown key {', '.join(unknown)}")
    try:
        return ComfortZone(
            vertices=tuple((number(t), number(w))
                           for t, w in field(doc, "vertices", list)),
            extension_c_per_m_s=field(doc, "extension_c_per_m_s", float, 2.0),
            max_extended_temp_c=field(doc, "max_extended_temp_c", float, 32.0),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"zone file {path}: {exc}") from exc


def _point_in_polygon(x: float, y: float,
                      polygon: tuple[tuple[float, float], ...]) -> bool:
    """Even-odd point-in-polygon test, boundary inclusive."""
    eps = 1e-9
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


def discomfort_fraction(points: list[PsychroPoint],
                        zone: ComfortZone = DEFAULT_ZONE) -> ComfortStats:
    """Share of samples outside the zone, with warm-side exceedance stats.

    Exceedance is how far a sample's temperature sits above the
    (air-speed extended) upper bound; samples outside only on the
    humidity axis count in the fraction but contribute zero exceedance.
    The returned stats carry the per-sample flags in ``inside``.
    """
    if not points:
        raise ValueError("empty series")
    # the extended polygon and its warm edge, once per distinct air speed
    extended: dict = {}
    inside, exceedances = [], []
    for t, w, speed in points:
        pair = extended.get(speed)
        if pair is None:
            polygon = zone.extended_vertices(speed)
            pair = extended[speed] = (polygon, max(x for x, _ in polygon))
        polygon, warm_edge = pair
        flag = _point_in_polygon(t, w, polygon)
        inside.append(flag)
        if not flag:
            exceedances.append(max(0.0, t - warm_edge))
    outside = len(exceedances)
    return ComfortStats(
        samples=len(points),
        discomfort_fraction=outside / len(points),
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


def psychro_scatter_rows(points: list[PsychroPoint], inside: tuple[bool, ...],
                         zone: ComfortZone, out: TextIO) -> None:
    """Write CSV text with one row per point plus the zone polygon
    vertices, ready for any plotting tool, to ``out``, an open text
    file, 1024 rows per write.  Output is deterministic for fixed input.

    ``inside`` are the points' flags as ``discomfort_fraction(points,
    zone).inside`` returns them, one per point; flags of another length
    raise ValueError before anything is written."""
    if len(inside) != len(points):
        raise ValueError(f"{len(inside)} flags for {len(points)} points")
    out.write("kind,temperature_c,humidity_ratio_g_kg,inside\n")
    rows = (f"point,{p.temperature_c!r},{p.humidity_ratio_g_kg!r},{1 if flag else 0}\n"
            for p, flag in zip(points, inside))
    while chunk := "".join(islice(rows, 1024)):
        out.write(chunk)
    out.write("".join(f"zone_vertex,{t!r},{w!r},\n" for t, w in zone.vertices))
