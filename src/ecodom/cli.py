"""Command-line front end.

Linter-style batch tool: edit the building/series files, rerun, read the
report.  Exit codes are a stable contract: 0 compliant / success,
1 compliance failure, 2 usage or input error (one ``error:`` line on
stderr), 3 internal error (a defect in ecodom, never a verdict on the
input).

Subcommands:

* ``check``    - prescription compliance of a building description
* ``simulate`` - single-zone thermal simulation, optionally paired
* ``comfort``  - psychrometric comfort statistics of an indoor series
"""

import argparse
import os
import sys
from itertools import compress, repeat
from operator import eq, not_
from pathlib import Path

from .catalogue import CATALOGUE_ENV_VAR, load_catalogue
from .comfort import (
    DEFAULT_ZONE,
    discomfort_fraction,
    load_zone,
    logger_points,
    paired_offset,
    psychro_scatter_rows,
)
from .dataio import load_building, load_indoor, load_weather
from .errors import InputError, read_json
from .rules import compliance_report
from .thermal import (
    ScenarioError,
    gain_breakdown,
    result_to_csv,
    simulate,
    zone_from_building,
)

EXIT_OK = 0
EXIT_NONCOMPLIANT = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecodom",
        description="Passive-cooling prescription checks and single-zone "
                    "thermal/comfort analysis for tropical dwellings.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="check a building description against the catalogue")
    check.add_argument("building", help="building description JSON file")
    check.add_argument("--catalogue", default=None,
                       help="catalogue file (default: $ECODOM_CATALOGUE or bundled)")
    check.add_argument("--si-rule", choices=("min", "max"), default="min",
                       help="internal openings must carry the smaller (min) or "
                            "larger (max) facade flow (default: min)")
    check.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
    check.add_argument("--out", default=None, help="write the report to a file")

    sim = sub.add_parser("simulate", help="run the single-zone thermal model")
    sim.add_argument("building", help="building description JSON file")
    sim.add_argument("--weather", required=True, help="weather CSV file")
    sim.add_argument("--scenario", default=None,
                     help="scenario JSON with zone overrides (see docs)")
    sim.add_argument("--paired", default=None,
                     help="second building file; prints the offset between the two runs")
    sim.add_argument("--out", default=None, help="result CSV path")
    sim.add_argument("--paired-out", default=None,
                     help="result CSV path for the paired building")

    com = sub.add_parser("comfort", help="comfort statistics of an indoor series")
    com.add_argument("indoor", help="indoor series CSV file")
    com.add_argument("--zone", default=None, help="comfort zone override JSON")
    com.add_argument("--scatter", default=None,
                     help="write the psychrometric scatter CSV here")
    return parser


def _refuse_overwrite(inputs: dict, outputs: dict) -> None:
    """Refuse an output path that names an input file or an earlier
    output, before anything is read, so that no file is lost.  Paths are
    compared in resolved form, symbolic links followed."""
    claimed = {os.path.realpath(path): name
               for name, path in inputs.items() if path}
    for name, path in outputs.items():
        if not path:
            continue
        real = os.path.realpath(path)
        if real in claimed:
            raise InputError(f"{name} {path} names the same file as {claimed[real]}")
        claimed[real] = name


def _cmd_check(args) -> int:
    _refuse_overwrite(
        {"building": args.building,
         "--catalogue": args.catalogue or os.environ.get(CATALOGUE_ENV_VAR)},
        {"--out": args.out})
    catalogue = load_catalogue(args.catalogue)
    building = load_building(args.building)
    report = compliance_report(building, catalogue, si_rule=args.si_rule)
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        Path(args.out).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.overall_pass else EXIT_NONCOMPLIANT


def _simulate_one(building_path: str, weather, scenario: dict, out: str | None):
    building = load_building(building_path)
    zone = zone_from_building(building, scenario)
    result = simulate(zone, weather)
    if out:
        with open(out, "w", encoding="utf-8") as file:
            result_to_csv(result, file)
    _print_summary(building.name, result)
    return building.name, result


def _print_summary(name: str, result) -> None:
    shares = gain_breakdown(result)
    ach = result.ach
    print(f"zone: {name}")
    print(f"  resultant temperature: mean {result.mean_resultant_c():.2f} C, "
          f"peak {result.peak_resultant_c():.2f} C")
    print(f"  ACH: mean {sum(ach) / len(ach):.1f}, max {max(ach):.1f}")
    print(f"  envelope gain shares: roof {shares['roof']:.2f}, "
          f"walls {shares['wall']:.2f}, windows {shares['window']:.2f}")


def _cmd_simulate(args) -> int:
    if args.paired_out and not args.paired:
        raise InputError("--paired-out needs --paired")
    _refuse_overwrite(
        {"building": args.building, "--paired": args.paired,
         "--weather": args.weather, "--scenario": args.scenario},
        {"--out": args.out, "--paired-out": args.paired_out})
    weather = load_weather(args.weather)
    scenario = read_json(args.scenario, ScenarioError) if args.scenario else {}
    name, result = _simulate_one(args.building, weather, scenario, args.out)
    if args.paired:
        # The offset needs only the resultant series of the first run, so
        # its result is let go before the paired zone runs.  Both runs
        # share the weather's timestamps, step for step.
        first = result.t_resultant_c
        del result
        other_name, other = _simulate_one(args.paired, weather, scenario, args.paired_out)
        _print_offset(name, first, other_name, other.t_resultant_c)
    return EXIT_OK


def _print_offset(name_a: str, temps_a, name_b: str, temps_b) -> None:
    """The offset line of two temperature series paired step by step."""
    offsets = paired_offset(temps_a, temps_b)
    print(f"offset ({name_a} - {name_b}): "
          f"mean {offsets.mean_offset_c:.2f} C, max {offsets.max_offset_c:.2f} C, "
          f"hours >= 1 C: {offsets.fraction_ge_1c * 100:.0f}%")


def _print_zone_offset(series, temperatures) -> None:
    """The offset line of a series with two zones sharing every timestamp.
    The per-zone lists die with this call, before the scatter is built."""
    zones = dict.fromkeys(series.zones)  # in first-seen order
    if len(zones) != 2:
        return
    name_a, name_b = zones
    in_a = list(map(eq, series.zones, repeat(name_a)))
    in_b = list(map(not_, in_a))
    if list(compress(series.timestamps, in_a)) == list(compress(series.timestamps, in_b)):
        _print_offset(name_a, list(compress(temperatures, in_a)),
                      name_b, list(compress(temperatures, in_b)))


def _cmd_comfort(args) -> int:
    _refuse_overwrite({"indoor": args.indoor, "--zone": args.zone},
                      {"--scatter": args.scatter})
    series = load_indoor(args.indoor)
    if not series.timestamps:
        raise InputError(f"indoor series {args.indoor} is empty")
    zone = load_zone(args.zone) if args.zone else DEFAULT_ZONE

    points = logger_points(series)
    stats = discomfort_fraction(points, zone)
    print(f"samples: {stats.samples}")
    print(f"discomfort {stats.discomfort_fraction * 100:.1f}%")
    print(f"exceedance: mean {stats.mean_exceedance_c:.2f} C, "
          f"max {stats.max_exceedance_c:.2f} C")

    _print_zone_offset(series, points.temperature_c)
    if args.scatter:
        with open(args.scatter, "w", encoding="utf-8") as file:
            psychro_scatter_rows(points, stats.inside, zone, file)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "simulate": _cmd_simulate,
        "comfort": _cmd_comfort,
    }
    try:
        return handlers[args.command](args)
    except (OSError, UnicodeError) as exc:
        _report("error: cannot read or write file", exc)
    except InputError as exc:
        _report("error", exc)
    except Exception as exc:  # a defect in ecodom, not in the input
        _report(f"internal error: {type(exc).__name__}", exc)
        return EXIT_INTERNAL_ERROR
    return EXIT_INPUT_ERROR


def _report(prefix: str, exc: Exception) -> None:
    """One line on stderr, whatever newlines the message carries."""
    message = " ".join(str(exc).splitlines())
    print(f"{prefix}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
