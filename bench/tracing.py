"""Layer tracing from outside the program.

The traced run replays CLI argv in-process through ``ecodom.cli.main``
with wrappers around calls into each module's public functions.  Each
wrapper replaces the name where its caller looks it up (the modules import
by name, so ``ecodom.cli.simulate`` and ``ecodom.thermal.solar_position``
are wrapped, not ``ecodom.thermal.simulate`` or ``ecodom.solar``).

Two kinds of wrapper:

* ``SPAN`` records one span per call: operation id, span id, parent span
  id, name, start and end.
* ``LEAF`` is for functions called per time step or per sample (tens of
  thousands of calls per operation).  It adds its call count and time to
  the innermost open span instead of recording a span per call, which
  keeps the trace small and the overhead low.

A wrapped function that no longer exists is listed in ``missing``; the
metrics built on it are reported as missing, not as zero.  Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

SPAN = "span"
LEAF = "leaf"

# (owner, attribute, span name, kind).  An owner "module:Class" wraps a
# method on the class.
TARGETS = (
    ("ecodom.cli", "load_catalogue", "catalogue.load", SPAN),
    ("ecodom.catalogue", "catalogue_from_dict", "catalogue.parse", SPAN),
    ("ecodom.cli", "load_building", "dataio.load_building", SPAN),
    ("ecodom.cli", "load_weather", "dataio.load_weather", SPAN),
    ("ecodom.cli", "load_indoor", "dataio.load_indoor", SPAN),
    ("ecodom.building", "validate", "building.validate", SPAN),
    ("ecodom.rules", "validate", "building.validate", SPAN),
    ("ecodom.rules", "facade_porosities", "building.porosity", SPAN),
    ("ecodom.thermal", "facade_porosities", "building.porosity", SPAN),
    ("ecodom.cli", "compliance_report", "rules.report", SPAN),
    ("ecodom.rules:ComplianceReport", "to_json", "rules.render", SPAN),
    ("ecodom.rules:ComplianceReport", "to_text", "rules.render", SPAN),
    ("ecodom.cli", "zone_from_building", "thermal.zone_build", SPAN),
    ("ecodom.cli", "simulate", "thermal.simulate", SPAN),
    ("ecodom.cli", "result_to_csv", "thermal.export", SPAN),
    ("ecodom.thermal", "solar_position", "solar.position", LEAF),
    ("ecodom.thermal", "surface_irradiance", "solar.irradiance", LEAF),
    ("ecodom.thermal", "overhang_shading_fraction", "solar.shading", LEAF),
    ("ecodom.cli", "PsychroPoint", "comfort.point", LEAF),
    ("ecodom.comfort", "classify", "comfort.classify", LEAF),
    ("ecodom.cli", "discomfort_fraction", "comfort.discomfort", SPAN),
    ("ecodom.cli", "psychro_scatter_rows", "comfort.scatter", SPAN),
    ("ecodom.cli", "paired_offset", "comfort.paired_offset", SPAN),
)

ROOT = "cli.main"


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Records spans and leaf aggregates for operations run one at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []       # (op, span, parent, name, start, end)
        self.leaves: dict = defaultdict(lambda: [0, 0.0])  # (op, parent, name) -> [calls, s]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        self.missing = []
        for owner, attr, name, kind in TARGETS:
            try:
                holder = _resolve_owner(owner)
                original = holder.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{owner}.{attr}")
                continue
            wrap = self._span_wrapper if kind == SPAN else self._leaf_wrapper
            self._saved.append((holder, attr, original))
            setattr(holder, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def missing_names(self) -> set[str]:
        """Span names none of whose wrappers could be installed."""
        wanted: dict[str, list[bool]] = defaultdict(list)
        for owner, attr, name, _ in TARGETS:
            wanted[name].append(f"{owner}.{attr}" in self.missing)
        return {name for name, gone in wanted.items() if all(gone)}

    # -- recording -----------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._new_id()
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self._op, span_id, parent, name, start, end))
        return wrapper

    def _leaf_wrapper(self, name, fn):
        leaves, stack, clock = self.leaves, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = leaves[(self._op, stack[-1] if stack else 0, name)]
                slot[0] += 1
                slot[1] += clock() - start
        return wrapper

    def run_op(self, op_id: int, call):
        """Run ``call()`` as operation ``op_id`` under a root span."""
        self._op = op_id
        return self._span_wrapper(ROOT, call)()

    # -- analysis ------------------------------------------------------
    def per_op(self) -> dict[int, dict]:
        """For each operation: inclusive seconds, self seconds and call
        count per span or leaf name."""
        covered: dict[int, float] = defaultdict(float)
        for op, _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        for (op, parent, _), (_, seconds) in self.leaves.items():
            covered[parent] += seconds
        ops: dict[int, dict] = defaultdict(lambda: {"total": defaultdict(float),
                                                   "self": defaultdict(float),
                                                   "calls": defaultdict(int)})
        for op, span_id, _, name, start, end in self.spans:
            entry = ops[op]
            entry["total"][name] += end - start
            entry["self"][name] += end - start - covered[span_id]
            entry["calls"][name] += 1
        for (op, _, name), (calls, seconds) in self.leaves.items():
            entry = ops[op]
            entry["total"][name] += seconds
            entry["self"][name] += seconds
            entry["calls"][name] += calls
        return ops

    def dump(self) -> dict:
        return {
            "missing": self.missing,
            "spans": [{"op": op, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                      for op, sid, parent, name, start, end in self.spans],
            "leaves": [{"op": op, "parent": parent, "name": name,
                        "calls": calls, "seconds": seconds}
                       for (op, parent, name), (calls, seconds) in self.leaves.items()],
        }
