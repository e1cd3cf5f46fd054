"""Envelope gain shares of the typical uninsulated dwelling vs the
compliant one, over a week of synthetic hot-season weather."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ecodom.archetypes import compliant_zone, synthetic_weather, uninsulated_zone
from ecodom.thermal import gain_breakdown, simulate


def main() -> None:
    weather = synthetic_weather(days=7)
    for zone in (uninsulated_zone(), compliant_zone()):
        result = simulate(zone, weather)
        shares = gain_breakdown(result)
        peak = max(result.t_resultant_c)
        print(f"{zone.name}: roof {shares['roof'] * 100:.0f}%  "
              f"walls {shares['wall'] * 100:.0f}%  "
              f"windows {shares['window'] * 100:.0f}%  "
              f"(peak resultant {peak:.1f} C)")


if __name__ == "__main__":
    main()
