#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ecodom CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload check-cli --seed 1 --seconds 30 --trace 0

Workloads (see README.md beside this file for why each exists):

* ``check-cli``      - ``ecodom check V.json --format json --out R.json``
  over a seeded population of building variants and the two goldens;
* ``simulate-sweep`` - ``ecodom simulate V --weather YEAR.csv --paired REF
  --scenario S.json --out A.csv --paired-out B.csv`` over one seeded year;
* ``comfort-series`` - ``ecodom comfort INDOOR.csv --scatter S.csv`` on
  seeded two-zone 10-minute logger series;
* ``all``            - the three above in turn.

With ``--trace 0`` every operation is a fresh ``python -m ecodom.cli``
child process, run one at a time by one client (a closed loop), and the
end-to-end metrics are printed.  With ``--trace 1`` the same argv are
replayed in-process through ``ecodom.cli.main``, alternately with and
without layer wrappers, and the per-layer metrics are printed.  Every
output is verified.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details, spans and machine facts are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import inputs
import tracing
import verify
from verify import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PYTHON = sys.executable

WORKLOADS = ("check-cli", "simulate-sweep", "comfort-series")

CHECK_VARIANTS = 48
INDOOR_SERIES = 3
INDOOR_ROWS_PER_ZONE = 8760

SETUP_SPAWNS = 15       # fresh interpreters timing `import ecodom.cli`
IMPORTTIME_SPAWNS = 7   # fresh interpreters under -X importtime
MIN_OPS = 20            # so op_tail_ms has ten samples beyond a percentile
LOOP_CAP_S = 120.0      # the run ends by then even if MIN_OPS is not reached
OP_TIMEOUT_S = 60.0

SETUP_SNIPPET = ("import time; t0 = time.perf_counter(); import ecodom.cli; "
                 "print(repr(time.perf_counter() - t0))")
_IMPORTTIME_RE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ecodom\.cli$", re.M)


# ---------------------------------------------------------------------------
# inputs

def prepare(workload: str, seed: int, work: Path) -> tuple[list[Op], dict]:
    """Write the seeded inputs of ``workload`` under ``work``; return the
    operation population and the input properties the workload depends on."""
    out = work / "out"
    out.mkdir(parents=True)
    if workload == "check-cli":
        docs = [("golden-initial", inputs.golden("initial"), 1),
                ("golden-final", inputs.golden("final"), 0)]
        docs += [(f"variant{i:03d}", doc, None) for i, doc in
                 enumerate(inputs.building_variants(seed, CHECK_VARIANTS))]
        ops = []
        for name, doc, expect in docs:
            path, report = work / f"{name}.json", out / f"{name}.report.json"
            inputs.write_json(doc, path)
            ops.append(Op(["check", str(path), "--format", "json", "--out", str(report)],
                          [report], verify.check_report,
                          {"kind": "check", "expect_exit": expect}))
        return ops, {"buildings": len(ops), "golden_files": 2}

    if workload == "simulate-sweep":
        weather_text, stamps = inputs.weather_year(seed)
        weather = work / "year.csv"
        weather.write_text(weather_text, "utf-8")
        reference = inputs.golden("final")
        reference["name"] = "Reference (final)"
        ref_path = work / "reference.json"
        inputs.write_json(reference, ref_path)
        scenario_paths = []
        for k, doc in enumerate(inputs.scenarios(seed)):
            scenario_paths.append(work / f"scenario{k}.json")
            inputs.write_json(doc, scenario_paths[-1])
        ref_orientations = len(set(inputs.orientations(reference)))
        ops, shares = [], []
        for i, doc in enumerate(inputs.sweep_variants(seed)):
            path = work / f"variant{i}.json"
            inputs.write_json(doc, path)
            a, b = out / f"variant{i}.csv", out / f"reference{i}.csv"
            ops.append(Op(
                ["simulate", str(path), "--weather", str(weather), "--paired", str(ref_path),
                 "--scenario", str(scenario_paths[i % len(scenario_paths)]),
                 "--out", str(a), "--paired-out", str(b)],
                [a, b], verify.check_simulation,
                {"kind": "simulate", "weather_stamps": stamps, "steps": len(stamps),
                 "zone_steps": 2 * len(stamps),
                 "orientation_steps": len(stamps) * (len(set(inputs.orientations(doc)))
                                                     + ref_orientations)}))
            shares.append(round(inputs.shared_orientation_share(doc), 4))
        return ops, {"variants": len(ops), "weather_rows": len(stamps),
                     "scenarios": len(scenario_paths),
                     "shared_orientation_share_per_variant": shares,
                     "shared_orientation_share_reference":
                         inputs.shared_orientation_share(reference)}

    if workload == "comfort-series":
        ops, series = [], []
        for k in range(INDOOR_SERIES):
            text, info = inputs.indoor_series(seed, k, INDOOR_ROWS_PER_ZONE)
            path, scatter = work / f"indoor{k}.csv", out / f"scatter{k}.csv"
            path.write_text(text, "utf-8")
            ops.append(Op(["comfort", str(path), "--scatter", str(scatter)], [scatter],
                          verify.check_comfort, {"kind": "comfort", "rows": info["rows"]}))
            series.append(info)
        return ops, {"series": len(ops), "zones": len(inputs.INDOOR_ZONES),
                     "rows_per_file": [s["rows"] for s in series],
                     "blank_cell_share_per_file":
                         [round(s["blank_cell_share"], 4) for s in series]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# verification ledger

class Ledger:
    """Verifies each operation and keeps one output digest per input."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, str] = {}
        self.outcomes: dict[int, int] = {}

    def record(self, index: int, op: Op, code: int, stdout: str, stderr: str) -> dict:
        files = {p: p.read_bytes() for p in op.outputs if p.exists()}
        problems = op.check(op, code, stdout, files)
        if problems and stderr.strip():
            problems.append("stderr: " + stderr.strip().splitlines()[-1])
        h = hashlib.sha256(f"{code}\n{stdout}\n".encode("utf-8"))
        for p in op.outputs:
            h.update(files.get(p, b"<missing>"))
        digest = h.hexdigest()
        if self.first.setdefault(index, digest) != digest:
            problems.append("output differs from the first run of this input")
        self.outcomes.setdefault(index, code)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"op {index} ({' '.join(op.argv[:2])}): "
                                     + "; ".join(problems))
        return files

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.first):
            h.update(f"{index}:{self.first[index]}\n".encode("ascii"))
        return "sha256:" + h.hexdigest()


def drive(ops: list[Op], seconds: float, step, min_ops: int = 0) -> float:
    """Closed loop with one client: run ``step(index, op, done)`` for each
    operation in turn, cycling through the population, until ``seconds``
    have passed and at least one full pass and ``min_ops`` are done."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and done >= max(len(ops), min_ops)):
            return elapsed
        step(done % len(ops), ops[done % len(ops)], done)
        done += 1


# ---------------------------------------------------------------------------
# untraced run: one child process per operation

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ECODOM_CATALOGUE", None)          # use the bundled catalogue
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # users run from cached bytecode
    return env


def run_child(op: Op, env: dict, work: Path) -> tuple[float, float, int, int, str, str]:
    """Run ``python -m ecodom.cli <argv>``; return wall s, CPU s, max RSS KB,
    exit code, stdout and stderr.  CPU and RSS are the child's own rusage."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([PYTHON, "-m", "ecodom.cli", *op.argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
            out_path.read_text("utf-8", "replace"), err_path.read_text("utf-8", "replace"))


def setup_time(env: dict) -> float:
    """Seconds a fresh interpreter takes to ``import ecodom.cli``, timed
    inside the child."""
    proc = subprocess.run([PYTHON, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("import ecodom.cli failed: " + proc.stderr.strip())
    return float(proc.stdout)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least ten samples beyond
    it, and that percentile; the maximum when there are ten or fewer."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def untraced_run(ops: list[Op], seconds: float, work: Path) -> tuple[dict, Ledger, dict]:
    env = child_env()
    setup_time(env)  # untimed warm-up: fills the bytecode cache
    setup: list[float] = []
    ledger = Ledger()
    walls, cpus, rss = [], [], []

    def step(index, op, _):
        # Set-up spawns are spread over the run, so that their median sees
        # the same machine conditions as the operations.
        while (len(setup) < SETUP_SPAWNS
               and time.perf_counter() - start >= len(setup) * seconds / SETUP_SPAWNS):
            setup.append(setup_time(env))
        wall, cpu, maxrss, code, stdout, stderr = run_child(op, env, work)
        ledger.record(index, op, code, stdout, stderr)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss)

    start = time.perf_counter()
    elapsed = drive(ops, seconds, step, MIN_OPS)
    while len(setup) < SETUP_SPAWNS:
        setup.append(setup_time(env))
    n = len(walls)
    tail_value, tail_pct = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} spawns"),
        "op_p50_ms": (1000.0 * statistics.median(walls), "ms", f"n={n}"),
        "op_tail_ms": (1000.0 * tail_value, "ms", f"p{tail_pct:.1f}, n={n}"),
        "ops_per_s": (n / sum(walls), "1/s",
                      f"n={n} over {sum(walls):.2f} s of operation wall time"),
        "cpu_ms_per_op": (1000.0 * statistics.median(cpus), "ms", f"median, n={n}"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB", f"max over n={n}"),
    }
    return metrics, ledger, {"loop_seconds": elapsed}


# ---------------------------------------------------------------------------
# traced run: in-process replay with layer wrappers

def import_times(env: dict) -> list[float]:
    """Cumulative ``ecodom.cli`` import time in ms from ``-X importtime``."""
    subprocess.run([PYTHON, "-c", "import ecodom.cli"], cwd=ROOT, env=env,
                   capture_output=True, timeout=OP_TIMEOUT_S, check=True)
    times = []
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([PYTHON, "-X", "importtime", "-c", "import ecodom.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, check=True)
        found = _IMPORTTIME_RE.search(proc.stderr)
        if found is None:
            raise RuntimeError("no ecodom.cli line in -X importtime output")
        times.append(int(found.group(1)) / 1000.0)
    return times


def replay(cli, argv: list[str], tracer: tracing.Tracer | None, op_id: int):
    """Run ``ecodom.cli.main(argv)`` in-process; return wall s, exit code,
    stdout and stderr.  An exception escaping ``main`` is reported as exit
    code -1 with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.run_op(op_id, lambda: cli.main(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a program bug: count the operation as failed
                code = -1
                err.write(traceback.format_exc())
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
    return wall, code, out.getvalue(), err.getvalue()


LAYER_UNITS = {
    "cli.import_ms": "ms", "cli.inprocess_ms": "ms",
    "dataio.load_building_ms": "ms", "dataio.load_weather_ms": "ms",
    "dataio.weather_rows_per_s": "1/s", "dataio.load_indoor_ms": "ms",
    "dataio.indoor_rows_per_s": "1/s",
    "building.validate_ms": "ms", "building.validate_calls_per_op": "count",
    "building.porosity_ms": "ms",
    "catalogue.load_ms": "ms", "catalogue.parse_calls_per_op": "count",
    "rules.report_ms": "ms", "rules.render_ms": "ms", "rules.findings_per_op": "count",
    "solar.position_calls_per_step": "count", "solar.position_ms": "ms",
    "solar.irradiance_calls_per_orientation_step": "count", "solar.irradiance_ms": "ms",
    "solar.shading_ms": "ms",
    "thermal.zone_build_ms": "ms", "thermal.simulate_self_ms": "ms",
    "thermal.us_per_zone_step": "us", "thermal.export_ms": "ms",
    "thermal.export_bytes": "bytes",
    "comfort.point_ms": "ms", "comfort.classify_calls_per_sample": "count",
    "comfort.classify_ms": "ms", "comfort.discomfort_ms": "ms",
    "comfort.scatter_ms": "ms", "comfort.paired_offset_ms": "ms",
    "trace.overhead_pct": "%",
}

# The span names each per-layer metric is built from.
LAYER_SOURCES = {
    "dataio.load_building_ms": ("dataio.load_building",),
    "dataio.load_weather_ms": ("dataio.load_weather",),
    "dataio.weather_rows_per_s": ("dataio.load_weather",),
    "dataio.load_indoor_ms": ("dataio.load_indoor",),
    "dataio.indoor_rows_per_s": ("dataio.load_indoor",),
    "building.validate_ms": ("building.validate",),
    "building.validate_calls_per_op": ("building.validate",),
    "building.porosity_ms": ("building.porosity",),
    "catalogue.load_ms": ("catalogue.load",),
    "catalogue.parse_calls_per_op": ("catalogue.parse",),
    "rules.report_ms": ("rules.report",),
    "rules.render_ms": ("rules.render",),
    "solar.position_calls_per_step": ("solar.position",),
    "solar.position_ms": ("solar.position",),
    "solar.irradiance_calls_per_orientation_step": ("solar.irradiance",),
    "solar.irradiance_ms": ("solar.irradiance",),
    "solar.shading_ms": ("solar.shading",),
    "thermal.zone_build_ms": ("thermal.zone_build",),
    "thermal.simulate_self_ms": ("thermal.simulate",),
    "thermal.us_per_zone_step": ("thermal.simulate",),
    "thermal.export_ms": ("thermal.export",),
    "comfort.point_ms": ("comfort.point",),
    "comfort.classify_calls_per_sample": ("comfort.classify",),
    "comfort.classify_ms": ("comfort.classify",),
    "comfort.discomfort_ms": ("comfort.discomfort",),
    "comfort.scatter_ms": ("comfort.scatter",),
    "comfort.paired_offset_ms": ("comfort.paired_offset",),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: tracing.Tracer, traced: list[tuple[int, Op, dict]],
                  untraced_walls: list[float], traced_walls: list[float],
                  import_ms: list[float]) -> tuple[dict, list[str]]:
    per_op = tracer.per_op()
    entries = [(per_op.get(op_id), op, files) for op_id, op, files in traced]
    entries = [(e, op, files) for e, op, files in entries if e is not None]

    def median_ms(name: str, kind: str = "total") -> float:
        return 1000.0 * statistics.median(e[kind].get(name, 0.0) for e, _, _ in entries)

    def total(name: str, kind: str = "total") -> float:
        return sum(e[kind].get(name, 0) for e, _, _ in entries)

    def fact(key: str) -> float:
        return sum(op.facts.get(key, 0) for _, op, _ in entries)

    def findings(op: Op, files: dict) -> int:
        if op.facts["kind"] != "check":
            return 0
        return len(json.loads(files[op.outputs[0]])["findings"])

    def export_bytes(op: Op, files: dict) -> int:
        if op.facts["kind"] != "simulate":
            return 0
        return sum(len(files.get(p, b"")) for p in op.outputs)

    n = len(entries)
    values = {
        "cli.import_ms": statistics.median(import_ms),
        "cli.inprocess_ms": 1000.0 * statistics.median(untraced_walls),
        "dataio.load_building_ms": median_ms("dataio.load_building"),
        "dataio.load_weather_ms": median_ms("dataio.load_weather"),
        "dataio.weather_rows_per_s": _ratio(fact("steps"), total("dataio.load_weather")),
        "dataio.load_indoor_ms": median_ms("dataio.load_indoor"),
        "dataio.indoor_rows_per_s": _ratio(fact("rows"), total("dataio.load_indoor")),
        "building.validate_ms": median_ms("building.validate"),
        "building.validate_calls_per_op": _ratio(total("building.validate", "calls"), n),
        "building.porosity_ms": median_ms("building.porosity"),
        "catalogue.load_ms": median_ms("catalogue.load"),
        "catalogue.parse_calls_per_op": _ratio(total("catalogue.parse", "calls"), n),
        "rules.report_ms": median_ms("rules.report"),
        "rules.render_ms": median_ms("rules.render"),
        "rules.findings_per_op": _ratio(sum(findings(op, f) for _, op, f in entries), n),
        "solar.position_calls_per_step": _ratio(total("solar.position", "calls"),
                                                fact("steps")),
        "solar.position_ms": median_ms("solar.position"),
        "solar.irradiance_calls_per_orientation_step":
            _ratio(total("solar.irradiance", "calls"), fact("orientation_steps")),
        "solar.irradiance_ms": median_ms("solar.irradiance"),
        "solar.shading_ms": median_ms("solar.shading"),
        "thermal.zone_build_ms": median_ms("thermal.zone_build"),
        "thermal.simulate_self_ms": median_ms("thermal.simulate", "self"),
        "thermal.us_per_zone_step": 1e6 * _ratio(total("thermal.simulate"),
                                                 fact("zone_steps")),
        "thermal.export_ms": median_ms("thermal.export"),
        "thermal.export_bytes": statistics.median(export_bytes(op, f)
                                                  for _, op, f in entries),
        "comfort.point_ms": median_ms("comfort.point"),
        "comfort.classify_calls_per_sample": _ratio(total("comfort.classify", "calls"),
                                                    fact("rows")),
        "comfort.classify_ms": median_ms("comfort.classify"),
        "comfort.discomfort_ms": median_ms("comfort.discomfort"),
        "comfort.scatter_ms": median_ms("comfort.scatter"),
        "comfort.paired_offset_ms": median_ms("comfort.paired_offset"),
        "trace.overhead_pct": 100.0 * (_ratio(sum(traced_walls), sum(untraced_walls)) - 1.0),
    }
    gone = tracer.missing_names()
    missing = [m for m, names in LAYER_SOURCES.items() if any(s in gone for s in names)]
    return values, missing


def traced_run(ops: list[Op], seconds: float) -> tuple[dict, Ledger, dict]:
    env = child_env()
    import_ms = import_times(env)
    os.environ.pop("ECODOM_CATALOGUE", None)
    sys.path.insert(0, str(SRC))
    import ecodom.cli as cli

    tracer = tracing.Tracer()
    ledger = Ledger()
    untraced_walls, traced_walls = [], []
    traced: list[tuple[int, Op, dict]] = []

    def step(index, op, done):
        # Alternate which replay goes first so drift hits both alike.
        for with_trace in ((False, True) if done % 2 == 0 else (True, False)):
            for path in op.outputs:
                path.unlink(missing_ok=True)
            wall, code, stdout, stderr = replay(cli, op.argv,
                                                tracer if with_trace else None, done)
            files = ledger.record(index, op, code, stdout, stderr)
            if with_trace:
                traced_walls.append(wall)
                traced.append((done, op, files))
            else:
                untraced_walls.append(wall)

    elapsed = drive(ops, seconds, step)
    values, missing = layer_metrics(tracer, traced, untraced_walls, traced_walls, import_ms)
    n = len(traced)
    metrics = {name: (values[name], unit,
                      "missing" if name in missing else f"n={n}")
               for name, unit in LAYER_UNITS.items()}
    metrics["cli.import_ms"] = (values["cli.import_ms"], "ms",
                                f"median of {len(import_ms)} spawns")
    extra = {"loop_seconds": elapsed, "missing_targets": tracer.missing,
             "missing_metrics": missing, "trace": tracer.dump()}
    return metrics, ledger, extra


# ---------------------------------------------------------------------------
# machine facts

def _read(path: str) -> str:
    try:
        return Path(path).read_text("utf-8", "replace")
    except OSError:
        return ""


def git_commit() -> str:
    git = ROOT / ".git"
    head = _read(str(git / "HEAD")).strip()
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(str(git / ref)).strip()
    if commit:
        return commit
    for line in _read(str(git / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ecodom").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
            h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()


def machine_facts(seed: int) -> dict:
    model = re.search(r"^model name\s*:\s*(.*)$", _read("/proc/cpuinfo"), re.M)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model.group(1).strip() if model else "unknown",
        "loadavg": _read("/proc/loadavg").split()[:3],
        "ecodom_commit": git_commit(),
        "ecodom_source": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry point

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops, properties = prepare(workload, seed, work)
        if trace:
            metrics, ledger, extra = traced_run(ops, seconds)
        else:
            metrics, ledger, extra = untraced_run(ops, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if workload == "check-cli":
        codes = list(ledger.outcomes.values())
        properties["pass_share"] = codes.count(0) / len(codes)
        properties["fail_share"] = codes.count(1) / len(codes)
    result = {
        "workload": workload, "trace": int(trace), "seconds": seconds,
        "machine": machine_facts(seed), "inputs": properties,
        "metrics": {name: {"value": value, "unit": unit, "samples": note}
                    for name, (value, unit, note) in metrics.items()},
        "error_rate": ledger.failed / ledger.attempted,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "problems": ledger.problems, "output_digest": ledger.digest(),
        "inputs_covered": len(ledger.first), "loop_seconds": extra["loop_seconds"],
    }
    if trace:
        result["missing_targets"] = extra["missing_targets"]
        result["missing_metrics"] = extra["missing_metrics"]
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", "utf-8")
    if trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(extra["trace"]) + "\n",
                                                    "utf-8")
    report(result, metrics)
    return result


def report(result: dict, metrics: dict) -> None:
    m = result["machine"]
    print(f"workload {result['workload']}  seed {m['seed']}  trace {result['trace']}  "
          f"loop {result['loop_seconds']:.1f} s")
    error_rate = (result["error_rate"], "share", f"{result['failed']}/{result['attempted']}")
    for name, (value, unit, note) in {**metrics, "error_rate": error_rate}.items():
        shown = "missing" if note == "missing" else f"{value:.6g} {unit}"
        print(f"  {name:<45} {shown:<22} ({note})")
    print(f"  inputs: {json.dumps(result['inputs'])}")
    print(f"  output digest {result['output_digest']} over {result['inputs_covered']} inputs")
    if result.get("missing_targets"):
        print(f"  missing wrap targets: {', '.join(result['missing_targets'])}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  machine: python {m['python']}, nproc {m['nproc']}, {m['cpu_model']}, "
          f"load {' '.join(m['loadavg'])}, commit {m['ecodom_commit'][:12]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ecodom" / "cli.py").is_file():
        print(f"error: no ecodom sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    prefix = len(names) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{name}" if prefix else name):
                    {"value": metric["value"], "unit": metric["unit"]}
                    for r in results for name, metric in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
