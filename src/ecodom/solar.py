"""Solar geometry: the sun's position.

The sun position routine follows the NOAA solar calculator formulation
(declination and equation of time from the mean solar elements), which is
accurate to well under half a degree over the current era.  Timestamps
are UTC; naive datetimes are taken as UTC.
"""

import math
from collections.abc import Iterable
from datetime import datetime, timezone

DEG = math.pi / 180.0

#: Ground reflectance seen by tilted surfaces.
GROUND_ALBEDO = 0.2


def sun_positions(latitude_deg: float, longitude_deg: float,
                  timestamps: Iterable[datetime]) -> tuple[list[float], list[float]]:
    """Sun altitude and azimuth columns, in degrees, one value per
    timestamp, for a location.

    Longitude is positive East.  Azimuth is measured from North,
    clockwise, so 90 is East and 270 is West.  Each timestamp is turned
    to UTC once; the latitude's sine and cosine are taken once, and the
    Julian whole days once per UTC date.
    """
    sin, cos, tan, asin, acos = math.sin, math.cos, math.tan, math.asin, math.acos
    lat = latitude_deg * DEG
    sin_lat, cos_lat = sin(lat), cos(lat)
    altitudes: list[float] = []
    azimuths: list[float] = []
    last_date = None
    for when in timestamps:
        if when.tzinfo is not None:
            when = when.astimezone(timezone.utc)
        utc_hours = when.hour + when.minute / 60.0 + when.second / 3600.0

        # Julian day, then Julian century from J2000
        if (date := when.date()) != last_date:
            last_date = date
            year, month = when.year, when.month
            if month <= 2:
                year -= 1
                month += 12
            a = year // 100
            b = 2 - a + a // 4
            whole_days = int(365.25 * (year + 4716)) + int(30.6001 * (month + 1)) + when.day
        jd = whole_days + utc_hours / 24.0 + b - 1524.5
        jc = (jd - 2451545.0) / 36525.0

        # declination (deg) and equation of time (minutes) from the mean
        # solar elements
        mean_long = (280.46646 + jc * (36000.76983 + 0.0003032 * jc)) % 360.0
        mean_anom = 357.52911 + jc * (35999.05029 - 0.0001537 * jc)
        eccent = 0.016708634 - jc * (0.000042037 + 0.0000001267 * jc)
        m_rad = mean_anom * DEG
        sin_m = sin(m_rad)
        center = (sin_m * (1.914602 - jc * (0.004817 + 0.000014 * jc))
                  + sin(2 * m_rad) * (0.019993 - 0.000101 * jc)
                  + sin(3 * m_rad) * 0.000289)
        true_long = mean_long + center
        omega_rad = (125.04 - 1934.136 * jc) * DEG
        app_long = true_long - 0.00569 - 0.00478 * sin(omega_rad)
        seconds = 21.448 - jc * (46.8150 + jc * (0.00059 - jc * 0.001813))
        mean_obliq = 23.0 + (26.0 + seconds / 60.0) / 60.0
        obliq_rad = (mean_obliq + 0.00256 * cos(omega_rad)) * DEG

        declination = asin(sin(obliq_rad) * sin(app_long * DEG)) / DEG

        y = tan(obliq_rad / 2.0) ** 2
        long_rad = 2 * mean_long * DEG
        eot = (y * sin(long_rad)
               - 2.0 * eccent * sin_m
               + 4.0 * eccent * y * sin_m * cos(long_rad)
               - 0.5 * y * y * sin(4 * mean_long * DEG)
               - 1.25 * eccent * eccent * sin(2 * m_rad))
        eot_minutes = 4.0 * eot / DEG

        true_solar_minutes = utc_hours * 60.0 + eot_minutes + 4.0 * longitude_deg
        hour_angle = true_solar_minutes / 4.0 - 180.0
        hour_angle = (hour_angle + 180.0) % 360.0 - 180.0

        dec = declination * DEG
        sin_dec = sin(dec)
        cos_zenith = sin_lat * sin_dec + cos_lat * cos(dec) * cos(hour_angle * DEG)
        # max(-1.0, min(1.0, x)) without the two calls, NaN included
        cos_zenith = cos_zenith if cos_zenith < 1.0 else 1.0
        cos_zenith = cos_zenith if cos_zenith > -1.0 else -1.0
        zenith = acos(cos_zenith)
        altitudes.append(90.0 - zenith / DEG)

        sin_zenith = sin(zenith)
        if sin_zenith < 1e-9:
            azimuth = 180.0 if latitude_deg > declination else 0.0
        else:
            cos_az = (sin_dec - sin_lat * cos_zenith) / (cos_lat * sin_zenith)
            cos_az = cos_az if cos_az < 1.0 else 1.0
            cos_az = cos_az if cos_az > -1.0 else -1.0
            azimuth = acos(cos_az) / DEG
            if hour_angle > 0:
                azimuth = 360.0 - azimuth
            azimuth %= 360.0
        azimuths.append(azimuth)
    return altitudes, azimuths
