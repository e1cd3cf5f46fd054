"""Quantify the roof's contribution to indoor overheating.

Simulates three otherwise identical closed flats over a week of synthetic
hot-season weather: one under a compliant roof (medium colour, 8 cm
polystyrene), one at an intermediate level (no sun-struck roof), and one
under a dark uninsulated roof.  Prints the daily-mean and peak resultant
temperature offsets against the intermediate flat.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ecodom.archetypes import compliant_zone, synthetic_weather
from ecodom.comfort import paired_offset
from ecodom.thermal import simulate


def main() -> None:
    weather = synthetic_weather(days=7)
    runs = {
        "under compliant roof": simulate(compliant_zone("compliant"), weather),
        "under degraded roof": simulate(
            compliant_zone("degraded", degraded_roof=True), weather),
    }
    reference = simulate(compliant_zone("intermediate", roof_exposed=False), weather)

    print(f"reference (intermediate level): mean resultant "
          f"{sum(reference.t_resultant_c) / len(reference.t_resultant_c):.2f} C")
    for label, result in runs.items():
        stats = paired_offset(result.t_resultant_c, reference.t_resultant_c)
        print(f"{label}: mean offset {stats.mean_offset_c:+.2f} C, "
              f"max {stats.max_offset_c:+.2f} C, "
              f"hours >= 1 C: {stats.fraction_ge_1c * 100:.0f}%")


if __name__ == "__main__":
    main()
