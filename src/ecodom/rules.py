"""Compliance checks against the prescription catalogue.

Each check turns one dwelling component into a :class:`Finding` carrying
the measured value, the required value and a remediation (text plus a
computed quantity when one can be derived).  ``compliance_report``
aggregates everything into a deterministic :class:`ComplianceReport`.

All functions are pure and the catalogue is shared read-only, so checks
are safe to run concurrently.
"""

import enum
import json
import math
from typing import NamedTuple

from .building import (
    AtticRegime,
    BuildingDescription,
    ColorClass,
    FacadePorosities,
    InsulationLayer,
    Room,
    RoofSpec,
    WallSpec,
    WaterHeaterKind,
    WaterHeaterSpec,
    WindowSpec,
    facade_porosities,
)
from .catalogue import RuleCatalogue
from .errors import InputError

REPORT_SCHEMA_VERSION = 1


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INFORMATIONAL = "informational"


class Finding(NamedTuple):
    """Verdict of one rule applied to one subject."""

    rule_id: str
    subject: str
    verdict: Verdict
    measured: float | None = None
    required: float | None = None
    unit: str = ""
    remediation: str = ""
    remediation_quantity: float | None = None


class ComplianceReport(NamedTuple):
    building_name: str
    catalogue_version: str
    findings: tuple[Finding, ...]

    @property
    def overall_pass(self) -> bool:
        return all(f.verdict is not Verdict.FAIL for f in self.findings)

    def to_json(self) -> str:
        return json.dumps({
            "schema_version": REPORT_SCHEMA_VERSION,
            "building": self.building_name,
            "catalogue_version": self.catalogue_version,
            "overall": "pass" if self.overall_pass else "fail",
            "findings": [{**f._asdict(), "verdict": f.verdict.value}
                         for f in self.findings],
        }, indent=2, allow_nan=False) + "\n"

    def to_text(self) -> str:
        tag = {
            Verdict.PASS: "PASS",
            Verdict.FAIL: "FAIL",
            Verdict.INFORMATIONAL: "INFO",
        }
        lines = [
            f"compliance report: {self.building_name}",
            f"catalogue: {self.catalogue_version}",
            f"overall: {'PASS' if self.overall_pass else 'FAIL'}",
            "",
        ]
        for f in self.findings:
            detail = ""
            if f.measured is not None and f.required is not None:
                detail = f" measured {_fmt(f.measured)} / required {_fmt(f.required)}"
                if f.unit:
                    detail += f" {f.unit}"
            lines.append(f"{tag[f.verdict]}  {f.rule_id:28s} {f.subject}:{detail}")
            if f.remediation:
                lines.append(f"      -> {f.remediation}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.3g}"


def _finite(value: float | None, rule_id: str, subject: str, name: str) -> float | None:
    """``value`` itself; InputError naming the rule and the subject when it
    is not finite, as a finite but out-of-scale input can overflow."""
    if value is not None and not math.isfinite(value):
        raise InputError(f"{rule_id}[{subject}]: {name} is not finite; "
                         "an input value is out of scale")
    return value


# ---------------------------------------------------------------------------
# roof

def _roof_reference(material: InsulationLayer, catalogue: RuleCatalogue) -> str | None:
    """Reference material class covering the given conductivity, or None
    when the conductivity is worse than both references."""
    if material.conductivity_w_mk <= catalogue.lambda_polyurethane:
        return "polyurethane"
    if material.conductivity_w_mk <= catalogue.lambda_polystyrene:
        return "polystyrene"
    return None


def _roof_regime(roof: RoofSpec) -> str:
    if roof.attic is AtticRegime.WELL_VENTILATED:
        return "well_ventilated_attic"
    return "simple"


def required_roof_insulation(color: ColorClass, material: InsulationLayer,
                             attic_regime: str, catalogue: RuleCatalogue) -> float:
    """Required thickness in cm of the given material for a roof.

    Materials at least as conductive as polystyrene use their reference
    column directly; anything worse must match the polystyrene column by
    equivalent thermal resistance, so its requirement scales with
    conductivity.  ``attic_regime`` is ``"simple"`` or
    ``"well_ventilated_attic"``.
    """
    reference = _roof_reference(material, catalogue)
    if reference is not None:
        return catalogue.roof_cm(attic_regime, color, reference)
    base_cm = catalogue.roof_cm(attic_regime, color, "polystyrene")
    return base_cm * material.conductivity_w_mk / catalogue.lambda_polystyrene


def check_roof(roof: RoofSpec, catalogue: RuleCatalogue) -> Finding:
    """Solar protection of the roof: installed thermal resistance must
    reach the catalogue requirement for the roof colour and attic regime."""
    regime = _roof_regime(roof)
    required_cm = required_roof_insulation(roof.color, roof.insulation, regime, catalogue)
    installed_cm = roof.insulation.thickness_cm
    if installed_cm + 1e-9 >= required_cm:
        return Finding("roof.insulation", "roof", Verdict.PASS,
                       measured=installed_cm, required=required_cm, unit="cm")
    missing = required_cm - installed_cm
    return Finding(
        "roof.insulation", "roof", Verdict.FAIL,
        measured=installed_cm, required=required_cm, unit="cm",
        remediation=(
            f"add {missing:.1f} cm of {roof.insulation.material} "
            f"(lambda {roof.insulation.conductivity_w_mk} W/m.K) "
            f"or any layer of equivalent thermal resistance"),
        remediation_quantity=missing,
    )


# ---------------------------------------------------------------------------
# walls

def check_wall(wall: WallSpec, catalogue: RuleCatalogue) -> Finding:
    """Solar protection of a wall.

    A wall passes with any one of: a full-height shading system or
    ventilated double skin, an overhang reaching the required d/h, or
    insulation reaching the required equivalent resistance.
    """
    subject = f"wall {wall.id} ({wall.orientation.value})"

    if wall.full_shading:
        return Finding("wall.solar_protection", subject, Verdict.PASS,
                       remediation="")

    if wall.color is ColorClass.DARK:
        # No table values exist for dark walls; only full shading can pass.
        return Finding(
            "wall.solar_protection", subject, Verdict.FAIL,
            measured=wall.color.absorptivity,
            required=ColorClass.MEDIUM.absorptivity,
            unit="solar absorptivity",
            remediation="repaint light or medium, or cover the whole wall "
                        "with a vertical shading system / ventilated double skin",
        )

    ratio_required = catalogue.overhang_ratio(
        wall.construction, wall.color, wall.orientation)
    ratio = wall.overhang_ratio
    ratio_ok = ratio + 1e-9 >= ratio_required

    insulation_required_cm = catalogue.insulation_cm(
        wall.construction, wall.color, wall.orientation)
    required_resistance = (insulation_required_cm / 100.0) / catalogue.lambda_polystyrene
    insulation_ok = wall.insulation.resistance + 1e-12 >= required_resistance

    if ratio_ok or insulation_ok:
        return Finding("wall.solar_protection", subject, Verdict.PASS,
                       measured=ratio, required=ratio_required, unit="d/h")

    height = wall.overhang_height_m if wall.overhang_height_m > 0 else 2.5
    depth_needed = ratio_required * height
    missing_cm = _finite(insulation_required_cm
                         * wall.insulation.conductivity_w_mk / catalogue.lambda_polystyrene
                         - wall.insulation.thickness_cm,
                         "wall.solar_protection", subject, "insulation shortfall")
    return Finding(
        "wall.solar_protection", subject, Verdict.FAIL,
        measured=ratio, required=ratio_required, unit="d/h",
        remediation=(
            f"extend the overhang to d >= {depth_needed:.2f} m "
            f"(ratio {ratio_required} x h {height:.2f} m), or add "
            f"{missing_cm:.1f} cm of {wall.insulation.material} insulation, "
            f"or shade the whole wall"),
        remediation_quantity=depth_needed,
    )


# ---------------------------------------------------------------------------
# windows

def check_window(window: WindowSpec, catalogue: RuleCatalogue) -> Finding:
    """Solar protection of a window: opaque mobile shading, or an overhang
    whose geometric ratio reaches the required value for the orientation."""
    subject = f"window {window.id} ({window.orientation.value})"
    if window.mobile_shading:
        return Finding("window.solar_protection", subject, Verdict.PASS)

    required = catalogue.window_ratio(window.orientation)
    ratio = window.shading_ratio
    if ratio + 1e-9 >= required:
        return Finding("window.solar_protection", subject, Verdict.PASS,
                       measured=ratio, required=required, unit="ratio")

    depth_needed = required * window.shading_height_m
    return Finding(
        "window.solar_protection", subject, Verdict.FAIL,
        measured=ratio, required=required, unit="ratio",
        remediation=(
            f"extend the overhang to d >= {depth_needed:.2f} m, "
            f"or fit opaque mobile louvers / venetian blinds"),
        remediation_quantity=depth_needed,
    )


# ---------------------------------------------------------------------------
# natural ventilation

def _internal_flow_requirement(p: FacadePorosities, si_rule: str) -> float:
    if si_rule == "min":
        return min(p.so1, p.so2)
    if si_rule == "max":
        return max(p.so1, p.so2)
    raise ValueError(f"unknown si_rule {si_rule!r} (expected 'min' or 'max')")


def check_ventilation(building: BuildingDescription, catalogue: RuleCatalogue,
                      si_rule: str = "min") -> list[Finding]:
    """Cross-ventilation checks.

    Per facade pair: both exterior porosities must reach the threshold and
    the internal openings on each side must carry the cross flow
    (``si_rule`` selects whether "carry" means the smaller or the larger
    facade's opening area).  Per main room: a layout finding requiring
    external openings on two opposite facades or an internal flow path.
    """
    findings: list[Finding] = []
    threshold = catalogue.porosity_threshold

    if not building.facade_pairs:
        findings.append(Finding(
            "ventilation.porosity", "building", Verdict.FAIL,
            measured=0.0, required=threshold, unit="porosity",
            remediation="declare the opposite-facade pairs of each level and "
                        "provide external openings on both facades of each pair",
        ))
    for p in facade_porosities(building):
        subject = f"facade pair {p.pair_id}"
        si_required = _internal_flow_requirement(p, si_rule)
        deficits: list[str] = []
        missing_area = 0.0
        for label, porosity, so in (("facade 1", p.p1, p.so1), ("facade 2", p.p2, p.so2)):
            if porosity + 1e-9 < threshold:
                need = threshold * p.sp - so
                missing_area += need
                deficits.append(
                    f"{label}: add {need:.2f} m2 of net external opening "
                    f"({so:.2f} m2 installed, {threshold * p.sp:.2f} m2 required)")
        for label, si in (("side 1", p.si1), ("side 2", p.si2)):
            if si + 1e-9 < si_required:
                deficits.append(
                    f"{label}: add {si_required - si:.2f} m2 of internal opening "
                    f"(doors, fanlights)")
        if deficits:
            findings.append(Finding(
                "ventilation.porosity", subject, Verdict.FAIL,
                measured=min(p.p1, p.p2), required=threshold, unit="porosity",
                remediation="; ".join(deficits),
                remediation_quantity=missing_area if missing_area > 0 else None,
            ))
        else:
            findings.append(Finding(
                "ventilation.porosity", subject, Verdict.PASS,
                measured=min(p.p1, p.p2), required=threshold, unit="porosity"))

    opposite: set[frozenset[str]] = {
        frozenset((pair.facade_1_id, pair.facade_2_id))
        for pair in building.facade_pairs
    }
    for room in building.main_rooms():
        findings.append(_room_layout_finding(room, opposite))
    return findings


def _room_layout_finding(room: Room, opposite: set[frozenset[str]]) -> Finding:
    subject = f"room {room.id}"
    external_facades = {o.facade_id for o in room.external_openings
                        if o.net_area_m2 > 0 and o.facade_id}
    has_external = bool(external_facades)
    crosses = any(frozenset(pair) <= external_facades for pair in opposite
                  if len(pair) == 2)
    internal_area = sum(o.net_area_m2 for o in room.internal_openings)
    if crosses or (has_external and internal_area > 0):
        return Finding("ventilation.layout", subject, Verdict.PASS,
                       measured=1.0, required=1.0, unit="flow path")
    return Finding(
        "ventilation.layout", subject, Verdict.FAIL,
        measured=0.0, required=1.0, unit="flow path",
        remediation="open the room on two opposite facades, or give it an "
                    "internal opening (door, fanlight) towards the cross-"
                    "ventilation path",
    )


# ---------------------------------------------------------------------------
# domestic hot water

def check_water_heater(spec: WaterHeaterSpec, dwelling_type: int,
                       catalogue: RuleCatalogue) -> Finding:
    subject = f"water heater ({spec.kind.value})"
    if spec.kind is not WaterHeaterKind.SOLAR:
        note = ("electric storage heaters need the approved national "
                "manufacturing seal, adequate capacity and a bounded cooling "
                "constant; gas heaters need the equivalent certification")
        if spec.certified:
            return Finding("water_heater.certification", subject, Verdict.PASS,
                           remediation=note)
        return Finding(
            "water_heater.certification", subject, Verdict.FAIL,
            measured=0.0, required=1.0, unit="certified",
            remediation="install a certified unit; " + note,
        )

    required_area = catalogue.collector_area(dwelling_type)
    lo, hi = catalogue.tank_volume_bounds_l_m2
    floor = catalogue.solar_productivity_floor_kwh_m2
    ratio = (spec.tank_volume_l / spec.collector_area_m2
             if spec.collector_area_m2 > 0 else 0.0)

    if spec.collector_area_m2 + 1e-9 < required_area:
        return Finding(
            "water_heater.solar", subject, Verdict.FAIL,
            measured=spec.collector_area_m2, required=required_area, unit="m2",
            remediation=(f"install at least {required_area} m2 of collectors "
                         f"for an F{dwelling_type} dwelling"),
            remediation_quantity=required_area - spec.collector_area_m2,
        )
    if not lo - 1e-9 <= ratio <= hi + 1e-9:
        target = (lo if ratio < lo else hi) * spec.collector_area_m2
        return Finding(
            "water_heater.solar", subject, Verdict.FAIL,
            measured=ratio, required=lo if ratio < lo else hi, unit="L/m2",
            remediation=(f"size the storage tank between "
                         f"{lo * spec.collector_area_m2:.0f} and "
                         f"{hi * spec.collector_area_m2:.0f} L "
                         f"({lo:.0f}-{hi:.0f} L per m2 of collector)"),
            remediation_quantity=abs(target - spec.tank_volume_l),
        )
    if spec.annual_productivity_kwh_m2 + 1e-9 < floor:
        return Finding(
            "water_heater.solar", subject, Verdict.FAIL,
            measured=spec.annual_productivity_kwh_m2, required=floor,
            unit="kWh/m2.yr",
            remediation=f"choose collectors with a conventional annual "
                        f"productivity of at least {floor:.0f} kWh per m2",
        )
    if not spec.certified:
        return Finding(
            "water_heater.solar", subject, Verdict.FAIL,
            measured=0.0, required=1.0, unit="certified",
            remediation="the system must hold the national technical approval",
        )
    return Finding("water_heater.solar", subject, Verdict.PASS,
                   measured=spec.collector_area_m2, required=required_area,
                   unit="m2")


# ---------------------------------------------------------------------------
# moisture-sensitive insulation and site findings

def _moisture_findings(building: BuildingDescription) -> list[Finding]:
    findings = []
    components: list[tuple[str, InsulationLayer]] = [("roof", building.roof.insulation)]
    components += [(f"wall {w.id}", w.insulation) for w in building.walls]
    for subject, layer in components:
        if (layer.thickness_cm > 0 and layer.is_mineral_wool
                and not layer.humidity_protected):
            findings.append(Finding(
                "insulation.moisture_risk", subject, Verdict.INFORMATIONAL,
                remediation="mineral wool loses its thermal properties when "
                            "it absorbs ambient humidity; provide a humidity-"
                            "protection attestation or prefer closed-cell "
                            "insulation (polystyrene, polyurethane)",
            ))
    return findings


def _site_finding(building: BuildingDescription) -> Finding:
    note = building.vegetation_note.strip() or "no site vegetation information provided"
    return Finding(
        "site.vegetation", "site", Verdict.INFORMATIONAL,
        remediation=f"location on site and vegetation are assessed "
                    f"qualitatively, never pass/fail; note: {note}",
    )


# ---------------------------------------------------------------------------
# aggregation

def compliance_report(building: BuildingDescription, catalogue: RuleCatalogue,
                      si_rule: str = "min") -> ComplianceReport:
    """Run every check on a building that ``validate`` passes, as
    ``load_building`` returns it.

    Raises InputError naming the rule and the subject when a finding's
    number is not finite (a finite but out-of-scale input can overflow),
    and ValueError, a defect in a check, when a Fail finding lacks its
    measured or required value.
    Findings are ordered by (rule id, subject) so identical
    inputs always produce identical reports.
    """
    findings: list[Finding] = [check_roof(building.roof, catalogue)]
    findings += [check_wall(w, catalogue) for w in building.walls]
    findings += [check_window(w, catalogue) for w in building.windows]
    findings += check_ventilation(building, catalogue, si_rule=si_rule)
    findings.append(check_water_heater(building.water_heater,
                                       building.dwelling_type, catalogue))
    findings += _moisture_findings(building)
    findings.append(_site_finding(building))

    for f in findings:
        if f.verdict is Verdict.FAIL and (f.measured is None or f.required is None):
            raise ValueError(f"{f.rule_id}[{f.subject}]: a Fail finding must carry "
                             "both measured and required values")
        for name in ("measured", "required", "remediation_quantity"):
            _finite(getattr(f, name), f.rule_id, f.subject, name)
    findings.sort(key=lambda f: (f.rule_id, f.subject))
    return ComplianceReport(
        building_name=building.name,
        catalogue_version=catalogue.version,
        findings=tuple(findings),
    )
