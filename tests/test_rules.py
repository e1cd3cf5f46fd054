import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FINAL_FIXTURE
from ecodom import rules
from ecodom.building import (
    AtticRegime,
    ColorClass,
    InsulationLayer,
    RoofSpec,
    ShadingCase,
    WallConstruction,
    WallSpec,
    WaterHeaterKind,
    WaterHeaterSpec,
    WindowSpec,
    validate,
)
from ecodom.cli import EXIT_INTERNAL_ERROR, main
from ecodom.errors import InputError
from ecodom.rules import (
    ComplianceReport,
    Finding,
    Verdict,
    check_roof,
    check_ventilation,
    check_wall,
    check_water_heater,
    check_window,
    compliance_report,
    required_roof_insulation,
)


def _edited(building, name, **change):
    """``building`` with the fields ``change`` of its record ``name``
    replaced; of a tuple of records, the first is the one edited."""
    part = getattr(building, name)
    if not hasattr(part, "_replace"):
        return building._replace(**{name: (part[0]._replace(**change),) + part[1:]})
    return building._replace(**{name: part._replace(**change)})


POLYSTYRENE = lambda cm: InsulationLayer("polystyrene", 0.041, cm)
POLYURETHANE = lambda cm: InsulationLayer("polyurethane", 0.029, cm)


class TestRoofRules:
    def test_required_thickness_reference_materials(self, catalogue):
        assert required_roof_insulation(
            ColorClass.LIGHT, POLYSTYRENE(0), "simple", catalogue) == 5.0
        assert required_roof_insulation(
            ColorClass.DARK, POLYURETHANE(0), "simple", catalogue) == 8.0
        assert required_roof_insulation(
            ColorClass.LIGHT, POLYSTYRENE(0), "well_ventilated_attic", catalogue) == 0.0

    def test_required_thickness_other_material_scales_by_resistance(self, catalogue):
        # lambda twice the polystyrene reference -> twice the thickness
        layer = InsulationLayer("wood fibre", 0.082, 0.0)
        assert required_roof_insulation(
            ColorClass.LIGHT, layer, "simple", catalogue) == pytest.approx(10.0)

    def test_failing_roof(self, catalogue):
        roof = RoofSpec(ColorClass.MEDIUM, AtticRegime.NONE, POLYSTYRENE(5.0), 60.0)
        finding = check_roof(roof, catalogue)
        assert finding.verdict is Verdict.FAIL
        assert finding.measured == 5.0
        assert finding.required == 8.0
        assert finding.remediation_quantity == pytest.approx(3.0)

    def test_passing_roof(self, catalogue):
        roof = RoofSpec(ColorClass.MEDIUM, AtticRegime.NONE, POLYSTYRENE(8.0), 60.0)
        assert check_roof(roof, catalogue).verdict is Verdict.PASS

    def test_polyurethane_equivalent_resistance(self, catalogue):
        # 6 cm at 0.029 exceeds the 8 cm at 0.041 requirement in resistance
        assert 0.06 / 0.029 >= 0.08 / 0.041
        roof = RoofSpec(ColorClass.MEDIUM, AtticRegime.NONE, POLYURETHANE(6.0), 60.0)
        assert check_roof(roof, catalogue).verdict is Verdict.PASS

    def test_ventilated_attic_zero_requirement(self, catalogue):
        roof = RoofSpec(ColorClass.DARK, AtticRegime.WELL_VENTILATED,
                        POLYURETHANE(0.0), 60.0)
        assert check_roof(roof, catalogue).verdict is Verdict.PASS

    def test_closed_attic_uses_simple_block(self, catalogue):
        roof = RoofSpec(ColorClass.LIGHT, AtticRegime.CLOSED_OR_BARELY_VENTILATED,
                        POLYSTYRENE(4.0), 60.0)
        finding = check_roof(roof, catalogue)
        assert finding.verdict is Verdict.FAIL
        assert finding.required == 5.0

    def test_table_entries_pass_exactly_and_fail_below(self, catalogue):
        # Thickness-based and resistance-based views agree on every cell.
        for regime, attic in (("simple", AtticRegime.NONE),
                              ("well_ventilated_attic", AtticRegime.WELL_VENTILATED)):
            for color in ColorClass:
                for make in (POLYSTYRENE, POLYURETHANE):
                    cm = required_roof_insulation(color, make(0), regime, catalogue)
                    roof = RoofSpec(color, attic, make(cm), 60.0)
                    assert check_roof(roof, catalogue).verdict is Verdict.PASS
                    if cm > 0:
                        thin = RoofSpec(color, attic, make(cm - 0.5), 60.0)
                        assert check_roof(thin, catalogue).verdict is Verdict.FAIL

    def test_roof_remediation_soundness(self, catalogue):
        roof = RoofSpec(ColorClass.DARK, AtticRegime.NONE,
                        InsulationLayer("cork", 0.05, 3.0), 60.0)
        finding = check_roof(roof, catalogue)
        assert finding.verdict is Verdict.FAIL
        fixed = roof._replace(insulation=roof.insulation._replace(
                thickness_cm=roof.insulation.thickness_cm + finding.remediation_quantity))
        assert check_roof(fixed, catalogue).verdict is Verdict.PASS

    @given(extra=st.floats(0.0, 20.0))
    @settings(max_examples=60)
    def test_more_insulation_never_breaks_a_pass(self, extra):
        from ecodom.catalogue import default_catalogue
        catalogue = default_catalogue()
        base = RoofSpec(ColorClass.MEDIUM, AtticRegime.NONE, POLYSTYRENE(8.0), 60.0)
        thicker = base._replace(
            insulation=base.insulation._replace(thickness_cm=8.0 + extra))
        assert check_roof(thicker, catalogue).verdict is Verdict.PASS


def _wall(construction=WallConstruction.HOLLOW_CONCRETE_BLOCK,
          color=ColorClass.LIGHT, azimuth=180.0, d=0.0, h=0.0,
          insulation_cm=0.0, full_shading=False,
          insulation_lambda=0.041) -> WallSpec:
    return WallSpec(
        id="w", construction=construction, color=color, azimuth_deg=azimuth,
        area_m2=12.0, overhang_depth_m=d, overhang_height_m=h,
        insulation=InsulationLayer("polystyrene", insulation_lambda, insulation_cm),
        full_shading=full_shading)


class TestWallRules:
    def test_insulated_wall_passes(self, catalogue):
        wall = _wall(color=ColorClass.LIGHT, azimuth=180.0, insulation_cm=1.0)
        assert check_wall(wall, catalogue).verdict is Verdict.PASS

    def test_insufficient_overhang_fails_with_depth_remediation(self, catalogue):
        wall = _wall(construction=WallConstruction.POURED_CONCRETE_15,
                     color=ColorClass.MEDIUM, azimuth=270.0, d=2.0, h=2.0)
        finding = check_wall(wall, catalogue)
        assert finding.verdict is Verdict.FAIL
        assert finding.measured == pytest.approx(1.0)
        assert finding.required == 1.3
        assert finding.remediation_quantity == pytest.approx(1.3 * 2.0)

    def test_full_shading_passes_any_orientation(self, catalogue):
        for azimuth in (0.0, 90.0, 180.0, 270.0):
            wall = _wall(color=ColorClass.DARK, azimuth=azimuth, full_shading=True)
            assert check_wall(wall, catalogue).verdict is Verdict.PASS

    def test_dark_wall_without_full_shading_fails(self, catalogue):
        finding = check_wall(_wall(color=ColorClass.DARK), catalogue)
        assert finding.verdict is Verdict.FAIL
        assert "repaint" in finding.remediation

    def test_equivalent_resistance_other_conductivity(self, catalogue):
        # 2 cm at lambda 0.082 gives the resistance of 1 cm at 0.041.
        wall = _wall(azimuth=90.0, insulation_cm=2.0, insulation_lambda=0.082)
        assert check_wall(wall, catalogue).verdict is Verdict.PASS
        thin = _wall(azimuth=90.0, insulation_cm=1.0, insulation_lambda=0.082)
        assert check_wall(thin, catalogue).verdict is Verdict.FAIL

    def test_wall_remediation_soundness(self, catalogue):
        wall = _wall(construction=WallConstruction.POURED_CONCRETE_15,
                     color=ColorClass.MEDIUM, azimuth=270.0, d=1.0, h=2.5)
        finding = check_wall(wall, catalogue)
        assert finding.verdict is Verdict.FAIL
        fixed = wall._replace(overhang_depth_m=finding.remediation_quantity)
        assert check_wall(fixed, catalogue).verdict is Verdict.PASS

    @given(d=st.floats(0.0, 5.0), extra=st.floats(0.0, 5.0))
    @settings(max_examples=60)
    def test_deeper_overhang_never_flips_pass_to_fail(self, d, extra):
        from ecodom.catalogue import default_catalogue
        catalogue = default_catalogue()
        base = _wall(construction=WallConstruction.POURED_CONCRETE_15,
                     color=ColorClass.MEDIUM, azimuth=270.0, d=d, h=2.0)
        deeper = base._replace(overhang_depth_m=d + extra)
        if check_wall(base, catalogue).verdict is Verdict.PASS:
            assert check_wall(deeper, catalogue).verdict is Verdict.PASS


class TestWindowRules:
    def test_case2_pass(self, catalogue):
        window = WindowSpec(id="n", azimuth_deg=0.0, glazed_area_m2=1.5,
                            height_m=1.0, overhang_depth_m=0.7)
        finding = check_window(window, catalogue)
        assert finding.verdict is Verdict.PASS
        assert finding.measured == pytest.approx(0.7)

    def test_case1_fail_and_remediation(self, catalogue):
        window = WindowSpec(id="w", azimuth_deg=270.0, glazed_area_m2=1.5,
                            height_m=1.2, shading_case=ShadingCase.CASE_1,
                            overhang_depth_m=1.0, overhang_offset_m=0.2)
        finding = check_window(window, catalogue)
        assert finding.verdict is Verdict.FAIL
        assert finding.measured == pytest.approx(0.625)
        assert finding.required == 1.0
        assert finding.remediation_quantity == pytest.approx(1.6)
        fixed = window._replace(overhang_depth_m=finding.remediation_quantity)
        assert check_window(fixed, catalogue).verdict is Verdict.PASS

    def test_mobile_shading_passes(self, catalogue):
        window = WindowSpec(id="m", azimuth_deg=270.0, glazed_area_m2=2.0,
                            height_m=1.2, mobile_shading=True)
        assert check_window(window, catalogue).verdict is Verdict.PASS

    @given(d=st.floats(0.0, 3.0), extra=st.floats(0.0, 3.0))
    @settings(max_examples=60)
    def test_deeper_overhang_monotone(self, d, extra):
        from ecodom.catalogue import default_catalogue
        catalogue = default_catalogue()
        base = WindowSpec(id="x", azimuth_deg=90.0, glazed_area_m2=1.0,
                          height_m=1.4, overhang_depth_m=d)
        deeper = base._replace(overhang_depth_m=d + extra)
        if check_window(base, catalogue).verdict is Verdict.PASS:
            assert check_window(deeper, catalogue).verdict is Verdict.PASS


class TestWaterHeaterRules:
    def test_compliant_solar(self, catalogue):
        spec = WaterHeaterSpec(WaterHeaterKind.SOLAR, 2.5, 250.0, 750.0, True)
        assert check_water_heater(spec, 4, catalogue).verdict is Verdict.PASS

    def test_undersized_collector(self, catalogue):
        spec = WaterHeaterSpec(WaterHeaterKind.SOLAR, 1.5, 150.0, 750.0, True)
        finding = check_water_heater(spec, 3, catalogue)
        assert finding.verdict is Verdict.FAIL
        assert finding.measured == 1.5
        assert finding.required == 2.0

    def test_oversized_tank(self, catalogue):
        spec = WaterHeaterSpec(WaterHeaterKind.SOLAR, 2.5, 400.0, 750.0, True)
        finding = check_water_heater(spec, 4, catalogue)
        assert finding.verdict is Verdict.FAIL
        assert finding.measured == pytest.approx(160.0)
        assert finding.required == 120.0

    def test_low_productivity(self, catalogue):
        spec = WaterHeaterSpec(WaterHeaterKind.SOLAR, 2.5, 250.0, 600.0, True)
        finding = check_water_heater(spec, 4, catalogue)
        assert finding.verdict is Verdict.FAIL
        assert finding.required == 700.0

    def test_uncertified_solar(self, catalogue):
        spec = WaterHeaterSpec(WaterHeaterKind.SOLAR, 2.5, 250.0, 750.0, False)
        assert check_water_heater(spec, 4, catalogue).verdict is Verdict.FAIL

    def test_electric_pass_iff_certified(self, catalogue):
        certified = WaterHeaterSpec(WaterHeaterKind.ELECTRIC, certified=True)
        assert check_water_heater(certified, 4, catalogue).verdict is Verdict.PASS
        uncertified = WaterHeaterSpec(WaterHeaterKind.GAS, certified=False)
        assert check_water_heater(uncertified, 4, catalogue).verdict is Verdict.FAIL


class TestVentilationRules:
    def test_threshold_pass(self, catalogue):
        from test_building import _simple_building
        findings = check_ventilation(_simple_building(), catalogue)
        porosity = [f for f in findings if f.rule_id == "ventilation.porosity"]
        assert len(porosity) == 1
        assert porosity[0].verdict is Verdict.PASS

    def test_one_facade_below_threshold(self, catalogue):
        from test_building import _simple_building
        b = _simple_building(so1=2.4, so2=0.8)  # P1=0.30, P2=0.10
        findings = check_ventilation(b, catalogue)
        porosity = [f for f in findings if f.rule_id == "ventilation.porosity"][0]
        assert porosity.verdict is Verdict.FAIL
        assert "facade 2" in porosity.remediation
        assert "facade 1" not in porosity.remediation

    def test_si_rule_min_vs_max(self, catalogue):
        from test_building import _simple_building
        # internal openings carry the smaller facade flow but not the larger
        b = _simple_building(so1=2.0, so2=3.0, si=2.5)
        p_min = [f for f in check_ventilation(b, catalogue, si_rule="min")
                 if f.rule_id == "ventilation.porosity"][0]
        p_max = [f for f in check_ventilation(b, catalogue, si_rule="max")
                 if f.rule_id == "ventilation.porosity"][0]
        assert p_min.verdict is Verdict.PASS
        assert p_max.verdict is Verdict.FAIL

    def test_unknown_si_rule(self, catalogue):
        from test_building import _simple_building
        with pytest.raises(ValueError, match="si_rule"):
            check_ventilation(_simple_building(), catalogue, si_rule="median")

    def test_no_pairs_fails_with_guidance(self, catalogue):
        from test_building import _simple_building
        b = _simple_building()._replace(facade_pairs=())
        findings = check_ventilation(b, catalogue)
        assert findings[0].verdict is Verdict.FAIL
        assert "pair" in findings[0].remediation

    def test_room_without_flow_path_fails_layout(self, catalogue):
        from test_building import _simple_building
        b = _simple_building()
        sealed = b.rooms[0]._replace(internal_openings=())
        findings = check_ventilation(
            b._replace(rooms=(sealed, b.rooms[1])), catalogue)
        layout = {f.subject: f for f in findings
                  if f.rule_id == "ventilation.layout"}
        assert layout["room a"].verdict is Verdict.FAIL
        assert layout["room b"].verdict is Verdict.PASS

    def test_room_on_two_opposite_facades_passes_without_internal(self, catalogue):
        from ecodom.building import FacadeMembership, Opening, Room, RoomKind
        from test_building import _simple_building
        b = _simple_building()
        crossing = Room(
            id="a", kind=RoomKind.MAIN,
            facades=(FacadeMembership("f1", 8.0), FacadeMembership("f2", 8.0)),
            external_openings=(Opening("oa", 2.0, facade_id="f1"),
                               Opening("oa2", 2.0, facade_id="f2")),
        )
        findings = check_ventilation(
            b._replace(rooms=(crossing, b.rooms[1])), catalogue)
        layout = {f.subject: f for f in findings
                  if f.rule_id == "ventilation.layout"}
        assert layout["room a"].verdict is Verdict.PASS

    def test_porosity_remediation_soundness(self, catalogue):
        from test_building import _simple_building
        b = _simple_building(so1=1.44, so2=2.0)
        finding = [f for f in check_ventilation(b, catalogue)
                   if f.rule_id == "ventilation.porosity"][0]
        assert finding.verdict is Verdict.FAIL
        enlarged = _simple_building(so1=1.44 + finding.remediation_quantity, so2=2.0)
        fixed = [f for f in check_ventilation(enlarged, catalogue)
                 if f.rule_id == "ventilation.porosity"][0]
        assert fixed.verdict is Verdict.PASS


class TestReport:
    @pytest.mark.parametrize("building,json_digest,text_digest", [
        ("initial_building",
         "c3c9a23fd3454690922eb1f36452049a433d475f10f46b0a1e30a41622be55d9",
         "0d2b418ab0b3b2b7a5ad5191d1e87d4cba690e28773fd70d54c76dbfd236ea90"),
        ("final_building",
         "60105d0fa2204a1a1543c827af1febd687c45454d520291eab22f3dba1a88b24",
         "8627faa5bc240555001bbe42c0701f6c01a457d9fef04e8c7af218a441d324ea"),
    ], ids=["initial", "final"])
    def test_golden_report_bytes_pinned(self, catalogue, building, json_digest,
                                        text_digest, request):
        report = compliance_report(request.getfixturevalue(building), catalogue)
        assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == json_digest
        assert hashlib.sha256(report.to_text().encode("utf-8")).hexdigest() == text_digest

    def test_initial_fixture_fails(self, initial_building, catalogue):
        report = compliance_report(initial_building, catalogue)
        assert not report.overall_pass
        failures = [f for f in report.findings if f.verdict is Verdict.FAIL]
        assert len(failures) >= 2
        by_rule = {f.rule_id for f in failures}
        assert "roof.insulation" in by_rule
        assert "ventilation.porosity" in by_rule

    def test_final_fixture_passes(self, final_building, catalogue):
        report = compliance_report(final_building, catalogue)
        assert report.overall_pass

    def test_findings_sorted(self, initial_building, catalogue):
        report = compliance_report(initial_building, catalogue)
        keys = [(f.rule_id, f.subject) for f in report.findings]
        assert keys == sorted(keys)

    def test_mineral_wool_warning_present_only_initially(
            self, initial_building, final_building, catalogue):
        initial = compliance_report(initial_building, catalogue)
        final = compliance_report(final_building, catalogue)
        moisture = [f for f in initial.findings
                    if f.rule_id == "insulation.moisture_risk"]
        assert len(moisture) == 1
        assert moisture[0].verdict is Verdict.INFORMATIONAL
        assert not [f for f in final.findings
                    if f.rule_id == "insulation.moisture_risk"]

    def test_vegetation_is_informational(self, final_building, catalogue):
        report = compliance_report(final_building, catalogue)
        site = [f for f in report.findings if f.rule_id == "site.vegetation"]
        assert len(site) == 1
        assert site[0].verdict is Verdict.INFORMATIONAL

    def test_json_report_is_deterministic(self, initial_building, catalogue):
        a = compliance_report(initial_building, catalogue).to_json()
        b = compliance_report(initial_building, catalogue).to_json()
        assert a == b

    @pytest.mark.parametrize("golden,edit,target", [
        ("initial_building", lambda b: b, ("roof.insulation", "roof", "cm")),
        ("final_building",
         lambda b: _edited(b, "roof", insulation=b.roof.insulation._replace(thickness_cm=0.0)),
         ("roof.insulation", "roof", "cm")),
        ("final_building", lambda b: _edited(b, "walls", color=ColorClass.DARK),
         ("wall.solar_protection", "wall north (north)", "solar absorptivity")),
        ("final_building", lambda b: _edited(b, "walls", overhang_depth_m=0.0),
         ("wall.solar_protection", "wall north (north)", "d/h")),
        ("final_building", lambda b: _edited(b, "windows", overhang_depth_m=0.0),
         ("window.solar_protection", "window glz_bedroom_l0 (north)", "ratio")),
        ("final_building", lambda b: b._replace(facade_pairs=()),
         ("ventilation.porosity", "building", "porosity")),
        ("final_building", lambda b: _edited(b, "facade_pairs", facade_1_area_m2=16.0),
         ("ventilation.porosity", "facade pair north_l0/south_l0", "porosity")),
        ("final_building", lambda b: _edited(b, "rooms", internal_openings=()),
         ("ventilation.layout", "room bedroom_l0", "flow path")),
        ("final_building",
         lambda b: _edited(b, "water_heater", kind=WaterHeaterKind.ELECTRIC, certified=False),
         ("water_heater.certification", "water heater (electric)", "certified")),
        ("final_building", lambda b: _edited(b, "water_heater", collector_area_m2=1.0),
         ("water_heater.solar", "water heater (solar)", "m2")),
        ("final_building", lambda b: _edited(b, "water_heater", tank_volume_l=1000.0),
         ("water_heater.solar", "water heater (solar)", "L/m2")),
        ("final_building",
         lambda b: _edited(b, "water_heater", annual_productivity_kwh_m2=100.0),
         ("water_heater.solar", "water heater (solar)", "kWh/m2.yr")),
        ("final_building", lambda b: _edited(b, "water_heater", certified=False),
         ("water_heater.solar", "water heater (solar)", "certified")),
    ], ids=["initial", "roof", "wall-dark", "wall-overhang-ratio", "window",
            "no-facade-pairs", "porosity-deficit", "room-layout", "heater-certification",
            "collector-area", "tank-ratio", "productivity", "solar-certification"])
    def test_fail_findings_carry_values(self, catalogue, request, golden, edit, target):
        # each one-edit golden reaches one Fail return of the checks
        building = edit(request.getfixturevalue(golden))
        assert validate(building) == []
        failures = [f for f in compliance_report(building, catalogue).findings
                    if f.verdict is Verdict.FAIL]
        assert target in {(f.rule_id, f.subject, f.unit) for f in failures}
        for finding in failures:
            assert finding.measured is not None
            assert finding.required is not None

    def test_fail_finding_without_values_is_a_defect(self, monkeypatch, capsys, catalogue,
                                                     final_building):
        # the report refuses it, and the CLI names it an internal error
        monkeypatch.setattr(rules, "check_roof", lambda roof, catalogue: Finding(
            "roof.insulation", "roof", Verdict.FAIL, required=8.0, unit="cm"))
        with pytest.raises(ValueError, match="must carry both measured and required") as info:
            compliance_report(final_building, catalogue)
        assert not isinstance(info.value, InputError)
        assert main(["check", str(FINAL_FIXTURE)]) == EXIT_INTERNAL_ERROR
        assert "must carry both measured and required" in capsys.readouterr().err


def test_json_report_refuses_non_finite_numbers():
    report = ComplianceReport("x", "v1", (
        Finding("site", "site", Verdict.INFORMATIONAL, measured=float("inf")),))
    with pytest.raises(ValueError):
        report.to_json()
