import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecodom.building import (
    BuildingDescription,
    ColorClass,
    FacadeMembership,
    FacadePair,
    InsulationLayer,
    Opening,
    Orientation,
    Room,
    RoomKind,
    WallConstruction,
    facade_porosities,
    orientation_from_azimuth,
    validate,
)
from ecodom.dataio import SeriesFormatError, building_from_dict, building_to_dict


class TestOrientation:
    def test_cardinal_centres(self):
        assert orientation_from_azimuth(0) is Orientation.NORTH
        assert orientation_from_azimuth(90) is Orientation.EAST
        assert orientation_from_azimuth(180) is Orientation.SOUTH
        assert orientation_from_azimuth(270) is Orientation.WEST

    def test_nearest_cardinal(self):
        assert orientation_from_azimuth(100) is Orientation.EAST
        assert orientation_from_azimuth(200) is Orientation.SOUTH
        assert orientation_from_azimuth(largest_north := 44.9) is Orientation.NORTH
        assert largest_north < 45

    def test_tie_breaks(self):
        # East wins against North and South; North wins against West.
        assert orientation_from_azimuth(45) is Orientation.EAST
        assert orientation_from_azimuth(135) is Orientation.EAST
        assert orientation_from_azimuth(225) is Orientation.SOUTH
        assert orientation_from_azimuth(315) is Orientation.NORTH

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            orientation_from_azimuth(360.0)
        with pytest.raises(ValueError):
            orientation_from_azimuth(-0.1)

    @given(st.floats(min_value=0, max_value=359.999))
    def test_total_and_piecewise_constant(self, azimuth):
        o = orientation_from_azimuth(azimuth)
        assert o in Orientation
        # constant on the interior of each 90-degree arc
        if all(abs(azimuth - b) > 0.5 for b in (45, 135, 225, 315)):
            assert orientation_from_azimuth(min(azimuth + 0.2, 359.999)) is o \
                or abs(azimuth - 359.999) < 0.3


class TestColorAndMaterials:
    def test_absorptivity_constants(self):
        assert ColorClass.LIGHT.absorptivity == 0.4
        assert ColorClass.MEDIUM.absorptivity == 0.6
        assert ColorClass.DARK.absorptivity == 0.8

    def test_base_resistance_constants(self):
        assert WallConstruction.POURED_CONCRETE_15.base_resistance == 0.1
        assert WallConstruction.CONCRETE_20.base_resistance == 0.1
        assert WallConstruction.HOLLOW_CONCRETE_BLOCK.base_resistance == 0.2
        assert WallConstruction.WOOD.base_resistance == 0.5

    def test_insulation_invariants(self):
        from ecodom.building import WallSpec
        b = _simple_building()
        bad = InsulationLayer("x", 0.0, -1.0)
        wall = WallSpec(id="w1", construction=WallConstruction.WOOD,
                        color=ColorClass.LIGHT, azimuth_deg=0.0, area_m2=10.0,
                        insulation=bad)
        faults = _range_faults(b._replace(roof=b.roof._replace(insulation=bad), walls=(wall,)))
        assert faults == [
            "roof.insulation.conductivity_w_mk: must be > 0",
            "roof.insulation.thickness_cm: must be >= 0",
            "wall w1.insulation.conductivity_w_mk: must be > 0",
            "wall w1.insulation.thickness_cm: must be >= 0"]
        layer = InsulationLayer("polystyrene", 0.041, 4.1)
        assert layer.resistance == pytest.approx(1.0)

    def test_mineral_wool_detection(self):
        assert InsulationLayer("Mineral wool", 0.04, 5).is_mineral_wool
        assert InsulationLayer("laine de roche", 0.04, 5).is_mineral_wool
        assert not InsulationLayer("polystyrene", 0.041, 5).is_mineral_wool


def _range_faults(building: BuildingDescription) -> list[str]:
    """The range faults that reading the file of ``building`` reports,
    one per rule broken; none when the file reads."""
    try:
        building_from_dict(building_to_dict(building))
    except SeriesFormatError as exc:
        return str(exc).split("; ")
    return []


def _simple_building(so1=2.0, so2=2.0, sp1=8.0, sp2=8.0, si=2.0):
    """One pair, one main room per facade."""
    room_a = Room(
        id="a", kind=RoomKind.MAIN,
        facades=(FacadeMembership("f1", sp1),),
        external_openings=(Opening("oa", so1, facade_id="f1"),),
        internal_openings=(Opening("ia", si),),
    )
    room_b = Room(
        id="b", kind=RoomKind.MAIN,
        facades=(FacadeMembership("f2", sp2),),
        external_openings=(Opening("ob", so2, facade_id="f2"),),
        internal_openings=(Opening("ib", si),),
    )
    from ecodom.building import AtticRegime, RoofSpec, NO_INSULATION
    from ecodom.building import WaterHeaterKind, WaterHeaterSpec
    return BuildingDescription(
        name="t", latitude=-21.0, longitude=55.5, dwelling_type=2,
        roof=RoofSpec(ColorClass.LIGHT, AtticRegime.NONE, NO_INSULATION, 50.0),
        walls=(), windows=(), rooms=(room_a, room_b),
        facade_pairs=(FacadePair("f1", "f2", sp1, sp2),),
        water_heater=WaterHeaterSpec(WaterHeaterKind.SOLAR, 1.5, 150.0, 750.0, True),
    )


class TestPorosities:
    def test_direct_arithmetic(self):
        p = facade_porosities(_simple_building(so1=2, so2=2, sp1=8, sp2=8))[0]
        assert p.sp == 8.0
        assert p.p1 == pytest.approx(0.25)
        assert p.p2 == pytest.approx(0.25)

    def test_zero_opening(self):
        p = facade_porosities(_simple_building(so1=0.0))[0]
        assert p.p1 == 0.0

    def test_mean_facade_area(self):
        p = facade_porosities(_simple_building(sp1=6.0, sp2=10.0))[0]
        assert p.sp == pytest.approx(8.0)

    def test_service_rooms_excluded(self):
        b = _simple_building()
        kitchen = Room(
            id="k", kind=RoomKind.SERVICE,
            facades=(FacadeMembership("f1", 4.0),),
            external_openings=(Opening("ok", 3.0, facade_id="f1"),),
        )
        with_kitchen = b._replace(rooms=b.rooms + (kitchen,))
        assert facade_porosities(with_kitchen)[0].so1 == \
            facade_porosities(b)[0].so1

    @given(
        so1=st.floats(0.0, 10.0),
        so2=st.floats(0.0, 10.0),
        sp1=st.floats(1.0, 50.0),
        sp2=st.floats(1.0, 50.0),
        k=st.floats(0.01, 100.0),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, so1, so2, sp1, sp2, k):
        p = facade_porosities(_simple_building(so1, so2, sp1, sp2))[0]
        q = facade_porosities(_simple_building(so1 * k, so2 * k, sp1 * k, sp2 * k))[0]
        assert q.p1 == pytest.approx(p.p1, rel=1e-9, abs=1e-12)
        assert q.p2 == pytest.approx(p.p2, rel=1e-9, abs=1e-12)

    @given(
        so1=st.floats(0.0, 10.0),
        extra=st.floats(0.0, 10.0),
    )
    @settings(max_examples=200)
    def test_monotone_in_opening_area(self, so1, extra):
        before = facade_porosities(_simple_building(so1=so1))[0]
        after = facade_porosities(_simple_building(so1=so1 + extra))[0]
        assert after.p1 >= before.p1
        assert after.p2 == pytest.approx(before.p2)


class TestValidation:
    def test_clean_building(self):
        assert validate(_simple_building()) == []

    def test_unknown_facade(self):
        b = _simple_building()
        bad_room = b.rooms[0]._replace(
            external_openings=(Opening("oa", 2.0, facade_id="nowhere"),))
        issues = validate(b._replace(rooms=(bad_room, b.rooms[1])))
        assert len(issues) == 1
        assert "oa" in issues[0].entity
        assert "nowhere" in issues[0].message

    def test_overhang_without_height(self):
        from ecodom.building import WallSpec
        b = _simple_building()
        wall = WallSpec(id="w1", construction=WallConstruction.WOOD,
                        color=ColorClass.LIGHT, azimuth_deg=0.0, area_m2=10.0,
                        overhang_depth_m=1.0, overhang_height_m=0.0)
        issues = validate(b._replace(walls=(wall,)))
        assert len(issues) == 1
        assert issues[0].field == "overhang_height_m"

    def test_duplicate_opening_id(self):
        b = _simple_building()
        dup = b.rooms[1]._replace(
            external_openings=(Opening("oa", 1.0, facade_id="f2"),))
        issues = validate(b._replace(rooms=(b.rooms[0], dup)))
        assert any("duplicate" in i.message for i in issues)

    def test_duplicate_wall_and_window_ids(self):
        from ecodom.building import WallSpec, WindowSpec
        wall = WallSpec(id="n", construction=WallConstruction.WOOD,
                        color=ColorClass.LIGHT, azimuth_deg=0.0, area_m2=10.0)
        window = WindowSpec(id="n", azimuth_deg=0.0, glazed_area_m2=1.0, height_m=1.0)
        b = _simple_building()._replace(walls=(wall,), windows=(window,))
        assert validate(b) == []
        issues = validate(b._replace(walls=(wall, wall),
                                     windows=(window, window)))
        assert [str(i) for i in issues] == [
            "wall n.id: duplicate wall id", "window n.id: duplicate window id"]

    def test_facade_pair_names_two_facades(self):
        b = _simple_building()
        same = b._replace(facade_pairs=(FacadePair("f1", "f1", 8.0, 8.0),))
        assert [str(i) for i in validate(same)] == [
            "facade pair f1/f1.facade_id: must name two different facades"]

    @pytest.mark.parametrize("second", [("f1", "f2"), ("f2", "f1")],
                             ids=["same-order", "reversed"])
    def test_repeated_facade_pair(self, second):
        b = _simple_building()
        pairs = (FacadePair("f1", "f2", 8.0, 8.0), FacadePair(*second, 8.0, 8.0))
        issues = validate(b._replace(facade_pairs=pairs))
        assert [str(i) for i in issues] == [
            f"facade pair {second[0]}/{second[1]}.facade_id: duplicate facade pair"]

    def test_dwelling_type_and_latitude(self):
        b = _simple_building()._replace(dwelling_type=0, latitude=99.0)
        assert _range_faults(b) == ["building.latitude: must be in [-90, 90]",
                                    "building.dwelling_type: must be >= 1"]
        # a record built in code is not range-checked
        assert validate(b) == []

    def test_azimuths_and_longitude_range_checked(self):
        from ecodom.building import WallSpec, WindowSpec
        b = _simple_building()
        wall = WallSpec(id="w1", construction=WallConstruction.WOOD,
                        color=ColorClass.LIGHT, azimuth_deg=360.0, area_m2=10.0)
        window = WindowSpec(id="g1", azimuth_deg=-1.0, glazed_area_m2=1.0, height_m=1.0)
        assert _range_faults(b._replace(walls=(wall,), windows=(window,), longitude=181.0)) == [
            "building.longitude: must be in [-180, 180]",
            "wall w1.azimuth_deg: must be in [0, 360)",
            "window g1.azimuth_deg: must be in [0, 360)"]

    @pytest.mark.parametrize("azimuth,faults", [
        (0.0, []), (359.9, []), (360.0, ["wall w1.azimuth_deg: must be in [0, 360)"])])
    def test_azimuth_edges(self, azimuth, faults):
        from ecodom.building import WallSpec
        wall = WallSpec(id="w1", construction=WallConstruction.WOOD,
                        color=ColorClass.LIGHT, azimuth_deg=azimuth, area_m2=10.0)
        assert _range_faults(_simple_building()._replace(walls=(wall,))) == faults

    def test_golden_fixtures_are_valid(self, initial_building, final_building):
        assert validate(initial_building) == []
        assert validate(final_building) == []
