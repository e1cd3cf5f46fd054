"""End-to-end demo: simulate the bundled upgraded dwelling, turn the
result into an indoor series, and compute comfort statistics and the
psychrometric scatter file.

The indoor air keeps the outdoor humidity ratio: the dwelling is taken
as ventilated, with no moisture source of its own.

usage: python scripts/run_comfort_pipeline.py [out_dir]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ecodom.archetypes import synthetic_weather
from ecodom.comfort import (
    PsychroPoint,
    discomfort_fraction,
    humidity_ratio,
    psychro_scatter_rows,
)
from ecodom.dataio import load_building
from ecodom.thermal import simulate, zone_from_building

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "ecodom" / "data"


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    building = load_building(DATA / "decouverte_final.json")
    weather = synthetic_weather(days=7)
    result = simulate(zone_from_building(building), weather)

    points = [
        PsychroPoint(t_res, humidity_ratio(rec.temp_air_c, rec.rh_pct))
        for t_res, rec in zip(result.t_resultant_c, weather.records)
    ]
    stats = discomfort_fraction(points)
    print(f"{building.name}: discomfort {stats.discomfort_fraction * 100:.1f}% "
          f"of {stats.total_hours} h, max exceedance "
          f"{stats.max_exceedance_c:.2f} C")

    scatter = out_dir / "psychro_scatter.csv"
    scatter.write_text(psychro_scatter_rows(points, stats.inside), "utf-8")
    print(f"wrote {scatter}")


if __name__ == "__main__":
    main()
