"""Solar geometry: sun position, surface irradiance and overhang shading.

The sun position routine follows the NOAA solar calculator formulation
(declination and equation of time from the mean solar elements), which is
accurate to well under half a degree over the current era.  Timestamps
are UTC; naive datetimes are taken as UTC.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone

DEG = math.pi / 180.0

#: Ground reflectance seen by tilted surfaces.
GROUND_ALBEDO = 0.2


class SolarPosition:
    """Sun altitude and azimuth in degrees (azimuth from North, clockwise).

    Not a named tuple: a year's sweep reads these two fields some 10^5
    times, and a slot reads in half the time of a tuple field.
    """

    __slots__ = ("altitude_deg", "azimuth_deg")

    def __init__(self, altitude_deg: float, azimuth_deg: float):
        self.altitude_deg = altitude_deg
        self.azimuth_deg = azimuth_deg


def _julian_day(when: datetime) -> float:
    if when.tzinfo is not None:
        when = when.astimezone(timezone.utc)
    year, month, day = when.year, when.month, when.day
    hour = when.hour + when.minute / 60.0 + when.second / 3600.0
    if month <= 2:
        year -= 1
        month += 12
    a = year // 100
    b = 2 - a + a // 4
    return (int(365.25 * (year + 4716)) + int(30.6001 * (month + 1))
            + day + hour / 24.0 + b - 1524.5)


def _sun_elements(jc: float) -> tuple[float, float]:
    """Sun declination (deg) and equation of time (minutes) at a Julian century."""
    mean_long = (280.46646 + jc * (36000.76983 + 0.0003032 * jc)) % 360.0
    mean_anom = 357.52911 + jc * (35999.05029 - 0.0001537 * jc)
    eccent = 0.016708634 - jc * (0.000042037 + 0.0000001267 * jc)
    m_rad = mean_anom * DEG
    center = (math.sin(m_rad) * (1.914602 - jc * (0.004817 + 0.000014 * jc))
              + math.sin(2 * m_rad) * (0.019993 - 0.000101 * jc)
              + math.sin(3 * m_rad) * 0.000289)
    true_long = mean_long + center
    omega = 125.04 - 1934.136 * jc
    app_long = true_long - 0.00569 - 0.00478 * math.sin(omega * DEG)
    seconds = 21.448 - jc * (46.8150 + jc * (0.00059 - jc * 0.001813))
    mean_obliq = 23.0 + (26.0 + seconds / 60.0) / 60.0
    obliq = mean_obliq + 0.00256 * math.cos(omega * DEG)

    declination = math.asin(math.sin(obliq * DEG) * math.sin(app_long * DEG)) / DEG

    y = math.tan(obliq * DEG / 2.0) ** 2
    eot = (y * math.sin(2 * mean_long * DEG)
           - 2.0 * eccent * math.sin(m_rad)
           + 4.0 * eccent * y * math.sin(m_rad) * math.cos(2 * mean_long * DEG)
           - 0.5 * y * y * math.sin(4 * mean_long * DEG)
           - 1.25 * eccent * eccent * math.sin(2 * m_rad))
    return declination, 4.0 * eot / DEG


def solar_position(latitude_deg: float, longitude_deg: float,
                   when: datetime) -> SolarPosition:
    """Sun altitude/azimuth for a location and UTC instant.

    Longitude is positive East.  Azimuth is measured from North,
    clockwise, so 90 is East and 270 is West.
    """
    jd = _julian_day(when)
    jc = (jd - 2451545.0) / 36525.0
    declination, eot_minutes = _sun_elements(jc)

    if when.tzinfo is not None:
        when = when.astimezone(timezone.utc)
    utc_hours = when.hour + when.minute / 60.0 + when.second / 3600.0
    true_solar_minutes = utc_hours * 60.0 + eot_minutes + 4.0 * longitude_deg
    hour_angle = true_solar_minutes / 4.0 - 180.0
    hour_angle = (hour_angle + 180.0) % 360.0 - 180.0

    lat = latitude_deg * DEG
    dec = declination * DEG
    ha = hour_angle * DEG
    cos_zenith = (math.sin(lat) * math.sin(dec)
                  + math.cos(lat) * math.cos(dec) * math.cos(ha))
    cos_zenith = max(-1.0, min(1.0, cos_zenith))
    zenith = math.acos(cos_zenith)
    altitude = 90.0 - zenith / DEG

    sin_zenith = math.sin(zenith)
    if sin_zenith < 1e-9:
        azimuth = 180.0 if latitude_deg > declination else 0.0
    else:
        cos_az = (math.sin(dec) - math.sin(lat) * cos_zenith) / (math.cos(lat) * sin_zenith)
        cos_az = max(-1.0, min(1.0, cos_az))
        azimuth = math.acos(cos_az) / DEG
        if hour_angle > 0:
            azimuth = 360.0 - azimuth
        azimuth %= 360.0
    return SolarPosition(altitude_deg=altitude, azimuth_deg=azimuth)


# ---------------------------------------------------------------------------
# irradiance on a tilted surface

def incidence_cosine(sun: SolarPosition, surface_azimuth_deg: float,
                     surface_tilt_deg: float) -> float:
    """cos(incidence angle) of beam radiation on a tilted surface, clipped
    to 0 when the sun is behind the surface or below the horizon.

    Tilt 0 is horizontal (roof), 90 is vertical (wall).
    """
    if sun.altitude_deg <= 0.0:
        return 0.0
    alt = sun.altitude_deg * DEG
    tilt = surface_tilt_deg * DEG
    gamma = (sun.azimuth_deg - surface_azimuth_deg) * DEG
    cos_theta = (math.sin(alt) * math.cos(tilt)
                 + math.cos(alt) * math.sin(tilt) * math.cos(gamma))
    return max(0.0, cos_theta)


def surface_irradiance(sun: SolarPosition, direct_normal: float,
                       diffuse_horizontal: float, surface_azimuth_deg: float,
                       surface_tilt_deg: float) -> tuple[float, float]:
    """(beam, diffuse) irradiance in W/m2 on a tilted surface.

    Diffuse uses the isotropic sky model plus ground reflection
    (:data:`GROUND_ALBEDO`) of the global horizontal.
    """
    beam = direct_normal * incidence_cosine(sun, surface_azimuth_deg, surface_tilt_deg)
    tilt = surface_tilt_deg * DEG
    sky = diffuse_horizontal * (1.0 + math.cos(tilt)) / 2.0
    ghi = diffuse_horizontal
    if sun.altitude_deg > 0:
        ghi += direct_normal * math.sin(sun.altitude_deg * DEG)
    ground = GROUND_ALBEDO * ghi * (1.0 - math.cos(tilt)) / 2.0
    return beam, sky + ground


# ---------------------------------------------------------------------------
# overhang shading

def overhang_shading_fraction(depth_m: float, height_m: float, offset_m: float,
                              sun: SolarPosition,
                              facade_azimuth_deg: float) -> float:
    """Fraction of a vertical surface shaded by an infinite-width
    horizontal overhang.

    ``depth_m`` is the horizontal projection of the overhang, ``height_m``
    the vertical extent of the protected surface and ``offset_m`` the gap
    between the overhang underside and the top of that surface.  When the
    surface receives no beam at all (sun below the horizon or behind the
    facade) the result is 1.0: an unlit surface is fully "shaded" for
    gain purposes.  Callers pass a height > 0; files refuse a negative
    depth or offset.
    """
    if sun.altitude_deg <= 0.0:
        return 1.0
    gamma = math.cos((sun.azimuth_deg - facade_azimuth_deg) * DEG)
    if gamma <= 0.0:
        return 1.0
    # Shadow line below the overhang along the facade (profile angle projection).
    drop = depth_m * math.tan(sun.altitude_deg * DEG) / gamma
    shaded = min(max(drop - offset_m, 0.0), height_m)
    return shaded / height_m
