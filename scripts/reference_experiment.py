"""Print every paper-facing figure of the reference experiment.

On the hot-season week (``synthetic_weather(7)``), in one fixed layout:
the roof offsets of criterion 4, the envelope gain shares of criterion
5, the cross-ventilation rate of criterion 6, and the simulated comfort
of the two bundled golden dwellings.  The goldens take the route
``ecodom simulate`` takes, and the indoor air keeps the outdoor humidity
ratio: the dwelling is taken as ventilated, with no moisture source of
its own.  tests/test_scripts.py pins this output byte for byte.

usage: python scripts/reference_experiment.py
"""

import pathlib
import sys
from array import array

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from ecodom.archetypes import (
    POROSITY_25_APERTURES,
    VOLUME_M3,
    compliant_zone,
    synthetic_weather,
    uninsulated_zone,
)
from ecodom.comfort import PsychroSeries, discomfort_fraction, humidity_ratio, paired_offset
from ecodom.dataio import load_building
from ecodom.thermal import gain_breakdown, simulate, ventilation_ach, zone_from_building


def main() -> None:
    weather = synthetic_weather(7)

    print("roof offsets against the intermediate flat (criterion 4)")
    reference = simulate(compliant_zone("intermediate", roof_exposed=False), weather)
    print(f"  intermediate: mean resultant {reference.mean_resultant_c():.2f} C")
    for label, degraded in (("compliant roof", False), ("degraded roof", True)):
        result = simulate(compliant_zone(degraded_roof=degraded), weather)
        stats = paired_offset(result.t_resultant_c, reference.t_resultant_c)
        print(f"  {label}: mean {stats.mean_offset_c:+.2f} C, "
              f"max {stats.max_offset_c:+.2f} C, "
              f"hours >= 1 C: {stats.fraction_ge_1c * 100:.0f}%")

    print("envelope gain shares (criterion 5)")
    for zone in (uninsulated_zone(), compliant_zone()):
        result = simulate(zone, weather)
        shares = gain_breakdown(result)
        print(f"  {zone.name}: roof {shares['roof']:.2f}, walls {shares['wall']:.2f}, "
              f"windows {shares['window']:.2f}, "
              f"peak resultant {result.peak_resultant_c():.2f} C")

    print("cross ventilation (criterion 6)")
    ach = ventilation_ach(POROSITY_25_APERTURES, VOLUME_M3, 4.0)
    print(f"  25% porosity, 4 m/s: {ach:.1f} ACH")

    print("golden dwellings, outdoor humidity ratio carried indoors")
    outdoor_ratios = array("d", map(humidity_ratio, weather.temp_air_c, weather.rh_pct))
    for variant in ("initial", "final"):
        building = load_building(SRC / "ecodom" / "data" / f"decouverte_{variant}.json")
        result = simulate(zone_from_building(building), weather)
        stats = discomfort_fraction(PsychroSeries(
            result.t_resultant_c, outdoor_ratios, array("d", [0.0]) * len(outdoor_ratios)))
        print(f"  {building.name}: mean resultant {result.mean_resultant_c():.2f} C, "
              f"peak {result.peak_resultant_c():.2f} C, "
              f"discomfort {stats.discomfort_fraction * 100:.1f}%, "
              f"exceedance mean {stats.mean_exceedance_c:.2f} C, "
              f"max {stats.max_exceedance_c:.2f} C")


if __name__ == "__main__":
    main()
