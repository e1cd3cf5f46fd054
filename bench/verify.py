"""Per-operation output checks for the ecodom benchmark.

Each check takes the operation, its exit code, its standard output and
the bytes of the files it wrote, and returns a list of problems; an empty
list means the output is correct.  The checks hold the CLI to its
documented contract (exit codes 0/1/2, fixed CSV headers, report JSON
schema) and to internal consistency between what it prints and what it
writes.  They use no ecodom code.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SIMULATE_HEADER = ("timestamp,t_out_c,t_air_c,t_radiant_c,t_resultant_c,ach,"
                   "q_roof_w,q_wall_w,q_window_cond_w,q_window_solar_w,"
                   "q_vent_w,q_internal_w")
SCATTER_HEADER = "kind,temperature_c,humidity_ratio_g_kg,inside"

# Printed values carry two decimals (one for a percentage); the files carry
# six, so a recomputed value may differ from the printed one by half a unit
# of the last printed digit plus the file rounding.
PRINT_SLACK = 0.005 + 1e-5

_MEAN_RE = re.compile(r"resultant temperature: mean (-?[\d.]+) C")
_OFFSET_RE = re.compile(r"^offset \(.*\): mean (-?[\d.]+) C", re.M)
_SAMPLES_RE = re.compile(r"^samples: (\d+)$", re.M)
_DISCOMFORT_RE = re.compile(r"^discomfort (-?[\d.]+)%$", re.M)


@dataclass
class Op:
    """One CLI invocation: ``ecodom <argv>`` and what its output must be."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[["Op", int, str, dict[Path, bytes]], list[str]]
    facts: dict = field(default_factory=dict)


def check_report(op: Op, code: int, stdout: str, files: dict[Path, bytes]) -> list[str]:
    """``check --format json --out R.json``."""
    if code not in (0, 1):
        return [f"exit code {code}"]
    problems = []
    expected = op.facts.get("expect_exit")
    if expected is not None and code != expected:
        problems.append(f"golden file exited {code}, expected {expected}")
    if stdout:
        problems.append("printed to stdout although --out was given")
    try:
        report = json.loads(files[op.outputs[0]])
    except (KeyError, ValueError) as exc:
        return problems + [f"report does not parse: {exc}"]
    overall = report.get("overall")
    if overall != ("pass" if code == 0 else "fail"):
        problems.append(f"overall {overall!r} disagrees with exit code {code}")
    findings = report.get("findings")
    if not isinstance(findings, list) or not findings:
        return problems + ["report has no findings"]
    if any(f.get("verdict") == "fail" for f in findings) != (overall == "fail"):
        problems.append("overall verdict disagrees with the findings")
    keys = [(f.get("rule_id", ""), f.get("subject", "")) for f in findings]
    if keys != sorted(keys):
        problems.append("findings are not ordered by (rule_id, subject)")
    return problems


def _result_csv(data: bytes | None, stamps: list[str], label: str) -> tuple[list[str], float]:
    """Problems with one simulation CSV, and its mean resultant temperature."""
    if data is None:
        return [f"{label}: not written"], math.nan
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != SIMULATE_HEADER:
        return [f"{label}: wrong header"], math.nan
    rows = lines[1:]
    if len(rows) != len(stamps):
        return [f"{label}: {len(rows)} rows for {len(stamps)} weather records"], math.nan
    total = 0.0
    for row, stamp in zip(rows, stamps):
        cells = row.split(",")
        if len(cells) != 12 or cells[0] != stamp:
            return [f"{label}: malformed row {row[:40]!r}"], math.nan
        try:
            values = [float(c) for c in cells[1:]]
        except ValueError:
            return [f"{label}: non-numeric row {row[:40]!r}"], math.nan
        if not all(math.isfinite(v) for v in values):
            return [f"{label}: non-finite value in row {cells[0]}"], math.nan
        total += values[3]
    return [], total / len(rows)


def check_simulation(op: Op, code: int, stdout: str, files: dict[Path, bytes]) -> list[str]:
    """``simulate V --weather W --paired REF --scenario S --out A --paired-out B``."""
    if code != 0:
        return [f"exit code {code}"]
    stamps = op.facts["weather_stamps"]
    problems = []
    means = []
    for path in op.outputs:
        found, mean = _result_csv(files.get(path), stamps, path.name)
        problems += found
        means.append(mean)
    if problems:
        return problems
    printed = [float(m) for m in _MEAN_RE.findall(stdout)]
    if len(printed) != 2:
        return [f"expected two printed mean resultant temperatures, got {len(printed)}"]
    for mean, shown in zip(means, printed):
        if abs(mean - shown) > PRINT_SLACK:
            problems.append(f"printed mean {shown} C but the CSV mean is {mean:.6f} C")
    offset = _OFFSET_RE.search(stdout)
    if offset is None:
        problems.append("no paired offset line")
    elif abs(float(offset.group(1)) - (means[0] - means[1])) > PRINT_SLACK:
        problems.append(f"printed offset {offset.group(1)} C but the CSVs give "
                        f"{means[0] - means[1]:.6f} C")
    return problems


def check_comfort(op: Op, code: int, stdout: str, files: dict[Path, bytes]) -> list[str]:
    """``comfort INDOOR.csv --scatter S.csv`` on a two-zone series."""
    if code != 0:
        return [f"exit code {code}"]
    rows = op.facts["rows"]
    problems = []
    samples = _SAMPLES_RE.search(stdout)
    if samples is None or int(samples.group(1)) != rows:
        problems.append(f"samples line {samples and samples.group(0)!r}, expected {rows}")
    if _OFFSET_RE.search(stdout) is None:
        problems.append("no paired offset line for the two zones")
    data = files.get(op.outputs[0])
    if data is None:
        return problems + ["scatter file not written"]
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != SCATTER_HEADER:
        return problems + ["scatter file has the wrong header"]
    points = [line for line in lines[1:] if line.startswith("point,")]
    others = [line for line in lines[1:] if not line.startswith("point,")]
    if len(points) != rows:
        problems.append(f"{len(points)} scatter points for {rows} samples")
    if not others or not all(line.startswith("zone_vertex,") for line in others):
        problems.append("scatter file lacks the zone polygon rows")
    outside = sum(1 for line in points if line.endswith(",0"))
    inside = sum(1 for line in points if line.endswith(",1"))
    if outside + inside != len(points):
        problems.append("scatter point without a 0/1 inside flag")
    shown = _DISCOMFORT_RE.search(stdout)
    if shown is None:
        problems.append("no discomfort line")
    elif points and abs(float(shown.group(1)) - 100.0 * outside / len(points)) > 0.05 + 1e-9:
        problems.append(f"printed discomfort {shown.group(1)}% disagrees with the "
                        f"scatter flags ({100.0 * outside / len(points):.3f}%)")
    return problems
