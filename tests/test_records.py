"""Contract of the record types.

Every named tuple in the package is read-only and copies with
``_replace`` to an equal record with an equal hash.  No record checks
its own values: a file's value rules run in the reader of that file, so
a record built in code is taken as it is.  Field annotations are
evaluated types, not postponed strings.
No other class in the package defines its own equality, hash, repr or
``_replace``.
"""

import copy
import enum
import importlib
import pickle
import pkgutil
import typing
from datetime import datetime, timezone

import pytest

import ecodom
from conftest import INITIAL_FIXTURE
from ecodom import errors
from ecodom.archetypes import compliant_zone, synthetic_weather
from ecodom.building import facade_porosities, validate
from ecodom.catalogue import default_catalogue
from ecodom.comfort import (
    DEFAULT_ZONE,
    discomfort_fraction,
    logger_points,
    paired_offset,
)
from ecodom.dataio import load_building
from ecodom.rules import Verdict, compliance_report
from ecodom.thermal import Scenario, simulate
from oracles import IndoorRecord, PsychroPoint, indoor_series, psychro_series


def _classes() -> list[type]:
    """Every class defined in an ``ecodom`` module."""
    found = {}
    for info in pkgutil.iter_modules(ecodom.__path__):
        module = importlib.import_module(f"ecodom.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                found[f"{info.name}.{obj.__name__}"] = obj
    return [found[name] for name in sorted(found)]


def _is_record(cls: type) -> bool:
    return issubclass(cls, tuple) and hasattr(cls, "_fields")


CLASSES = _classes()
RECORDS = [cls for cls in CLASSES if _is_record(cls)]


#: A logger series with blank resultant and air-speed cells.
INDOOR = indoor_series([
    IndoorRecord(datetime(2026, 2, 1, tzinfo=timezone.utc), "z1", 28.0, 28.5, 60.0, 0.3),
    IndoorRecord(datetime(2026, 2, 1, tzinfo=timezone.utc), "z2", 27.0, None, 65.0, None)])


def _samples() -> dict[type, tuple]:
    building = load_building(INITIAL_FIXTURE)
    room = building.rooms[0]
    report = compliance_report(building, default_catalogue())
    zone = compliant_zone()
    samples = (
        building, building.roof, building.roof.insulation, building.walls[0],
        building.windows[0], room, room.facades[0], room.external_openings[0],
        building.facade_pairs[0], building.water_heater,
        validate(building._replace(latitude=99.0))[0], facade_porosities(building)[0],
        default_catalogue(), report,
        next(f for f in report.findings if f.verdict is Verdict.FAIL),
        zone, zone.surfaces[0], zone.apertures, Scenario(),
        INDOOR, logger_points(INDOOR), DEFAULT_ZONE, paired_offset([1.0, 2.0], [0.5, 0.5]),
        discomfort_fraction(psychro_series([PsychroPoint(26.0, 11.7, 0.3),
                                            PsychroPoint(31.0, 18.0)])),
        simulate(zone, synthetic_weather(days=1)),
    )
    return {type(record): record for record in samples}


SAMPLES = _samples()


def _sample(cls: type) -> tuple:
    assert cls in SAMPLES, f"add a sample of {cls.__name__} to _samples()"
    return SAMPLES[cls]


def _ids(classes):
    return [cls.__name__ for cls in classes]


def test_no_record_checks_itself():
    assert [cls.__name__ for cls in CLASSES if hasattr(cls, "_check")] == []
    assert not hasattr(errors, "checked")


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_fields_are_read_only(cls):
    record = _sample(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_replace_copy_is_equal(cls):
    record = _sample(cls)
    copy = record._replace(**record._asdict())
    assert copy is not record and copy == record and type(copy) is cls
    try:
        expected = hash(record)
    except TypeError:  # a field holds a dict
        return
    assert hash(copy) == expected


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_field_annotations_are_evaluated_types(cls):
    # a postponed (string) annotation becomes a ForwardRef in a named tuple
    for name, annotation in cls.__annotations__.items():
        assert not isinstance(annotation, (str, typing.ForwardRef)), name


def test_value_semantics_come_from_named_tuples_alone():
    # Named tuples, enums and exceptions get equality, hash and repr from
    # their base; the few plain classes left keep the defaults.
    plain = [cls for cls in CLASSES
             if not (_is_record(cls) or issubclass(cls, (enum.Enum, BaseException)))]
    assert {cls.__name__ for cls in plain} == {"WeatherSeries", "_SunTrack"}
    for cls in plain:
        own = {"__eq__", "__hash__", "__repr__", "_replace"} & set(vars(cls))
        assert not own, f"{cls.__name__} defines {sorted(own)}"


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda series: pickle.loads(pickle.dumps(series))],
    ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("series", [INDOOR, logger_points(INDOOR)],
                         ids=["IndoorSeries", "PsychroSeries"])
def test_series_with_blank_cells_copy_equal(series, clone):
    # a blank cell is a mask bit over a 0.0, never a NaN, which would
    # compare unequal to itself in every copy
    assert 1 in INDOOR.blank_resultant and 1 in INDOOR.blank_air_speed
    twin = clone(series)
    assert twin == series and type(twin) is type(series)
