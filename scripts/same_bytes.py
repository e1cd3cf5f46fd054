"""Check that every named Python interpreter writes the same bytes.

Each interpreter named on the command line runs this script once more,
isolated (``-I``), as a child that hashes the outputs of this checkout:
``check`` of both golden buildings as text and as JSON, a paired
``simulate`` of the goldens on the hot-season week with both exports,
``write_weather`` of that week, ``simulate`` of that week with its first
timestamp in the ISO basic format, which every supported Python must
refuse, ``comfort --scatter`` of a two-zone logger file made from that
week (written by ``write_indoor``, with blank resultant and air-speed
cells) with its scatter export, ``simulate`` and ``comfort`` of copies
of the week's weather and logger files written without offsets, and
the reference report of ``reference_experiment.py``.  Each command's hash covers its exit code
and all it printed.  No interpreter is searched for.

Prints one table of hashes, one row per output and one column per
interpreter.  Exits 0 when every row is equal, 1 when any differs, and 2
with one ``error:`` line when an interpreter is older than 3.10 or its
child fails.

usage: python scripts/same_bytes.py PYTHON [PYTHON ...]
"""

import hashlib
import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve()
SCRIPTS = SCRIPT.parent
SRC = SCRIPTS.parent / "src"
CHILD = "--child"
VERSION = "import sys; print('%d.%d.%d' % sys.version_info[:3])"


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def two_zones(week):
    """A logger series of a bedroom and a living room on the timestamps
    of ``week``, with blank resultant and air-speed cells."""
    from array import array

    from ecodom.dataio import IndoorSeries

    rows = []
    for i, (ts, t, rh) in enumerate(zip(week.timestamps, week.temp_air_c, week.rh_pct)):
        rows.append((ts, "bedroom", t + 1.5, None, rh, None))
        rows.append((ts, "living", t + 0.5, t + 1.0 if i % 2 else None, rh,
                     0.1 * (i % 4) or None))
    timestamps, zones, air, resultant, rh, speed = zip(*rows)
    return IndoorSeries(timestamps, zones, array("d", air),
                        array("d", [0.0 if v is None else v for v in resultant]),
                        array("d", rh), array("d", [0.0 if v is None else v for v in speed]),
                        bytes(v is None for v in resultant), bytes(v is None for v in speed))


def child_hashes() -> dict:
    """The hash of each output, in a fixed order, made in this process."""
    import contextlib
    import io
    import tempfile

    sys.path[:0] = [str(SRC), str(SCRIPTS)]
    import reference_experiment
    from ecodom.archetypes import synthetic_weather
    from ecodom.cli import main
    from ecodom.dataio import write_indoor, write_weather

    def run(*argv) -> bytes:
        """The exit code of ``main`` and what it printed, stdout and stderr."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(list(argv))
        return f"exit {code}\n{out.getvalue()}".encode("utf-8")

    data = SRC / "ecodom" / "data"
    goldens = {variant: str(data / f"decouverte_{variant}.json")
               for variant in ("initial", "final")}
    hashes = {}
    for variant, path in goldens.items():
        for form in ("text", "json"):
            hashes[f"check {variant} ({form})"] = _hash(run("check", path, "--format", form))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        weather, out, paired_out = tmp / "week.csv", tmp / "out.csv", tmp / "paired.csv"
        write_weather(synthetic_weather(7), weather)
        hashes["write_weather week"] = _hash(weather.read_bytes())
        hashes["simulate paired (stdout)"] = _hash(run(
            "simulate", goldens["initial"], "--weather", str(weather),
            "--paired", goldens["final"], "--out", str(out), "--paired-out", str(paired_out)))
        hashes["simulate --out"] = _hash(out.read_bytes())
        hashes["simulate --paired-out"] = _hash(paired_out.read_bytes())
        lines = weather.read_text("utf-8").splitlines()
        lines[1] = lines[1][:19].replace("-", "").replace(":", "") + lines[1][25:]
        basic = tmp / "basic.csv"
        basic.write_text("\n".join(lines) + "\n", "utf-8")
        hashes["simulate basic-format stamp"] = _hash(run(
            "simulate", goldens["final"], "--weather", str(basic)))
        # two zones on the week's timestamps, so the offset line prints too
        indoor, scatter = tmp / "indoor.csv", tmp / "scatter.csv"
        write_indoor(two_zones(synthetic_weather(7)), indoor)
        hashes["comfort --scatter (stdout)"] = _hash(run(
            "comfort", str(indoor), "--scatter", str(scatter)))
        hashes["comfort scatter"] = _hash(scatter.read_bytes())
        # the same week's files with naive timestamps, which read as UTC
        naive_weather, naive_indoor = tmp / "naive_week.csv", tmp / "naive_indoor.csv"
        for source, copy in ((weather, naive_weather), (indoor, naive_indoor)):
            copy.write_text(source.read_text("utf-8").replace("+00:00", ""), "utf-8")
        hashes["simulate and comfort, naive stamps"] = _hash(
            run("simulate", goldens["final"], "--weather", str(naive_weather))
            + run("comfort", str(naive_indoor)))
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        reference_experiment.main()
    hashes["reference report"] = _hash(report.getvalue().encode("utf-8"))
    return hashes


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _run(python: str, args: list) -> str:
    """Stdout of ``python -I`` with ``args``; exits 2 when it fails."""
    try:
        proc = subprocess.run([python, "-I", *args], capture_output=True, text=True,
                              timeout=600)
    except (OSError, subprocess.TimeoutExpired) as exc:
        _fail(f"{python}: {exc}")
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        _fail(f"{python}: exit {proc.returncode}: {last}")
    return proc.stdout


def main(argv: list) -> int:
    if not argv:
        _fail("usage: python scripts/same_bytes.py PYTHON [PYTHON ...]")
    columns = []
    for python in argv:
        version = _run(python, ["-c", VERSION]).strip()
        if not version.replace(".", "").isdigit():
            _fail(f"{python}: not a Python interpreter")
        if tuple(map(int, version.split("."))) < (3, 10):
            _fail(f"{python}: Python {version} is older than 3.10")
        columns.append((version, json.loads(_run(python, [str(SCRIPT), CHILD]))))

    names = list(columns[0][1])
    width = max(map(len, names))
    print(" ".join([f"{'output':<{width}}", *(f"{v:<12}" for v, _ in columns)]).rstrip())
    differ = []
    for name in names:
        row = [hashes.get(name, "missing") for _, hashes in columns]
        if len(set(row)) > 1:
            differ.append(name)
        print(" ".join([f"{name:<{width}}", *(f"{h:<12}" for h in row)]).rstrip())
    print(f"differs: {', '.join(differ)}" if differ else "all equal")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == [CHILD]:
        print(json.dumps(child_hashes()))
    else:
        sys.exit(main(sys.argv[1:]))
