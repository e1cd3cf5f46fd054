"""The column parse of weather and logger files against the row-wise
loaders it replaced (``oracles.load_weather_rows`` and
``oracles.load_indoor_rows``).

Generated valid files hold blank and whitespace-only lines, blank
optional cells, naive, ``Z`` and offset timestamps, dates alone and
instants shared by several zones; they load to the oracle's values bit
for bit.  A file with one cell or one line corrupted raises the
oracle's exact message, or, when the corruption leaves it valid, loads
to the oracle's values.  Each example parses in chunks of a drawn size,
so rows of one instant, blank lines and bad lines fall on either side
of a chunk boundary.
"""

import contextlib
import tempfile
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecodom import dataio
from ecodom.dataio import SeriesFormatError, load_indoor, load_weather
from oracles import (
    indoor_series,
    load_indoor_rows,
    load_weather_rows,
    weather_records,
    weather_series,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)

START = datetime(2026, 2, 1, tzinfo=timezone.utc)
PLUS_FOUR = timezone(timedelta(hours=4))


def _stamp(instant: datetime, form: str) -> str:
    """``instant`` written in one of the forms the grammar accepts."""
    naive = instant.replace(tzinfo=None)
    if form == "date" and naive.time() == datetime.min.time():
        return naive.date().isoformat()
    return {"iso": instant.isoformat(), "naive": naive.isoformat(),
            "z": naive.isoformat() + "Z", "space": instant.isoformat(" "),
            "offset": instant.astimezone(PLUS_FOUR).isoformat()}.get(form, naive.isoformat())


FORMS = st.sampled_from(["iso", "iso", "iso", "naive", "z", "space", "offset", "date"])
# whole minutes, with an occasional day step so that midnights occur,
# and seconds or microseconds now and then
STEPS = st.sampled_from([timedelta(minutes=10), timedelta(hours=1), timedelta(days=1),
                         timedelta(seconds=90), timedelta(microseconds=250)])


def _number(low: float, high: float):
    """A number's text in [low, high], as a logger or a script writes it."""
    value = st.floats(low, high, allow_nan=False)
    return st.one_of(value.map(repr), value.map("{:.2f}".format),
                     st.integers(int(low), int(high)).map(str),
                     st.sampled_from(["-0.0", "0"]) if low <= 0.0 <= high else st.nothing())


BLANK_LINES = st.sampled_from(["", "   ", "\t"])


@st.composite
def weather_files(draw) -> str:
    lines = [",".join(dataio.WEATHER_COLUMNS)]
    instant = START
    for _ in range(draw(st.integers(0, 14))):
        instant += draw(STEPS)
        if draw(st.integers(0, 6)) == 0:
            lines.append(draw(BLANK_LINES))
        lines.append(",".join([
            _stamp(instant, draw(FORMS)), draw(_number(-20.0, 60.0)),
            draw(_number(0.0, 100.0)), draw(_number(0.0, 1200.0)), draw(_number(0.0, 500.0)),
            draw(_number(0.0, 30.0)), draw(_number(-360.0, 720.0))]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@st.composite
def indoor_files(draw) -> str:
    lines = [",".join(dataio.INDOOR_COLUMNS)]
    instant = START
    for _ in range(draw(st.integers(0, 8))):
        instant += draw(STEPS)
        text = _stamp(instant, draw(FORMS))
        # the zones logging at this instant share its text
        for zone in draw(st.permutations(["bedroom", "living", "kitchen"]))[
                :draw(st.integers(1, 3))]:
            if draw(st.integers(0, 8)) == 0:
                lines.append(draw(BLANK_LINES))
            lines.append(",".join([
                text, zone, draw(_number(-20.0, 60.0)),
                draw(st.just("") | _number(-20.0, 60.0)), draw(_number(0.0, 100.0)),
                draw(st.just("") | _number(0.0, 3.0))]))
    return "\n".join(lines) + "\n"


#: Texts that break one cell: not a number, not finite, out of range, not
#: in the timestamp grammar, or holding a comma.
BAD_TEXTS = [
    "", " ", "x", "nan", "NaN", "inf", "-inf", "1e999", "-1", "-0.5", "-1e-300", "101",
    "100.5", "-30", "-20.5", "60.5", "75", "2026-13-01T00:00:00+00:00", "20260201T000000Z",
    "2026-02-01T00:00:00.5+00:00", "2026-02-01T00:00:00+0400", "2026-02-01T00:00:00+00:00",
    "2020-01-01", "1,2", "  "]
BAD_CELLS = st.sampled_from(BAD_TEXTS)


@st.composite
def corrupted(draw, files) -> str:
    """A valid file with one cell replaced, one line dropped, doubled or
    moved, or a line's cell count changed."""
    lines = draw(files).split("\n")
    rows = [i for i, line in enumerate(lines) if i and line.strip()]
    if not rows:
        return "\n".join(lines)
    i = draw(st.sampled_from(rows))
    cells = lines[i].split(",")
    how = draw(st.sampled_from(["cell", "cell", "cell", "drop", "double", "move",
                                "short", "long", "header"]))
    if how == "cell":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(BAD_CELLS)
        lines[i] = ",".join(cells)
    elif how == "drop":
        del lines[i]
    elif how == "double":
        lines.insert(i, lines[i])
    elif how == "move":
        lines.insert(draw(st.integers(1, len(lines))), lines.pop(i))
    elif how == "short":
        lines[i] = ",".join(cells[:-1])
    elif how == "long":
        lines[i] = lines[i] + ",0"
    else:
        lines[0] = lines[0].replace("timestamp", "time")
    return "\n".join(lines)


@contextlib.contextmanager
def _file(text: str, chunk_lines: int):
    """A path holding ``text``, parsed ``chunk_lines`` lines at a time."""
    saved = dataio._CHUNK_LINES
    dataio._CHUNK_LINES = chunk_lines
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            path.write_text(text, "utf-8")
            yield path
    finally:
        dataio._CHUNK_LINES = saved


CHUNKS = st.sampled_from([1, 2, 3, 5, 1024])


def _outcome(load, path):
    """The loaded series, or the message of the SeriesFormatError raised."""
    try:
        return load(path)
    except SeriesFormatError as exc:
        return f"error: {exc}"


def _weather_bits(series) -> tuple:
    return (series.timestamps, *(getattr(series, name).tobytes()
                                 for name in dataio.WEATHER_COLUMNS[1:]))


def _indoor_bits(series) -> tuple:
    return tuple(column.tobytes() if hasattr(column, "tobytes") else column
                 for column in series)


def _same_weather(text: str, chunk_lines: int) -> None:
    with _file(text, chunk_lines) as path:
        expected = _outcome(load_weather_rows, path)
        got = _outcome(load_weather, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert _weather_bits(got) == _weather_bits(weather_series(expected))
        assert weather_records(got) == expected
        assert all(ts.tzinfo is timezone.utc for ts in got.timestamps)


def _same_indoor(text: str, chunk_lines: int) -> None:
    with _file(text, chunk_lines) as path:
        expected = _outcome(load_indoor_rows, path)
        got = _outcome(load_indoor, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert _indoor_bits(got) == _indoor_bits(indoor_series(expected))
        assert all(ts.tzinfo is timezone.utc for ts in got.timestamps)
        # a row shares the parse of the row before it when their texts match
        texts = [line.split(",")[0] for line in text.splitlines()[1:] if line.strip()]
        assert [a is b for a, b in zip(got.timestamps, got.timestamps[1:])] == [
            a == b for a, b in zip(texts, texts[1:])]


@PROPERTY
@given(text=weather_files(), chunk_lines=CHUNKS)
def test_weather_columns_equal_the_row_oracle(text, chunk_lines):
    with _file(text, chunk_lines) as path:
        assert not isinstance(_outcome(load_weather_rows, path), str)
    _same_weather(text, chunk_lines)


@PROPERTY
@given(text=indoor_files(), chunk_lines=CHUNKS)
def test_indoor_columns_equal_the_row_oracle(text, chunk_lines):
    with _file(text, chunk_lines) as path:
        assert not isinstance(_outcome(load_indoor_rows, path), str)
    _same_indoor(text, chunk_lines)


@PROPERTY
@given(text=corrupted(weather_files()), chunk_lines=CHUNKS)
def test_corrupted_weather_raises_the_oracle_message(text, chunk_lines):
    _same_weather(text, chunk_lines)


@PROPERTY
@given(text=corrupted(indoor_files()), chunk_lines=CHUNKS)
def test_corrupted_indoor_raises_the_oracle_message(text, chunk_lines):
    _same_indoor(text, chunk_lines)


WEATHER_ROWS = [
    "2026-02-01T00:00:00+00:00,25.0,80.0,0.0,0.0,3.0,90.0",
    "2026-02-01T01:00:00Z,25.5,78.5,10.0,5.0,0.0,-0.0",
    "2026-02-01T06:00:00+04:00,26.0,77.0,-0.0,12.5,2.5,120.0"]
INDOOR_ROWS = [
    "2026-02-01T00:00:00+00:00,bedroom,27.0,27.5,60.0,0.3",
    "2026-02-01T00:00:00+00:00,living,27.5,,61.0,",
    "2026-02-01T00:10:00,bedroom,27.1,-0.0,62.0,-0.0"]


@pytest.mark.parametrize("columns,rows,check", [
    (dataio.WEATHER_COLUMNS, WEATHER_ROWS, _same_weather),
    (dataio.INDOOR_COLUMNS, INDOOR_ROWS, _same_indoor)], ids=["weather", "indoor"])
def test_every_single_cell_corruption_raises_the_oracle_message(columns, rows, check):
    header = ",".join(columns)
    with _file("\n".join([header, *rows]), 2) as path:
        assert len(load_weather_rows(path) if check is _same_weather
                   else load_indoor_rows(path)) == len(rows)
    for i, row in enumerate(rows):
        for k in range(len(columns)):
            for token in BAD_TEXTS:
                cells = row.split(",")
                cells[k] = token
                lines = [header, *rows[:i], ",".join(cells), *rows[i + 1:]]
                check("\n".join(lines) + "\n", 2)


@pytest.fixture
def local_zone_plus_four(monkeypatch):
    """The process's local time zone set to UTC+4 for one test."""
    monkeypatch.setenv("TZ", "XYZ-4")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


@pytest.mark.parametrize("form", ["naive", "z", "date"])
def test_offset_free_twins_load_to_identical_columns(tmp_path, local_zone_plus_four, form):
    # a naive text is UTC, whatever the local zone of the machine
    # midnights every day, so a date alone names each instant
    header = ",".join(dataio.WEATHER_COLUMNS)
    instants = [START + timedelta(days=k) for k in range(30)]
    rows = [f",{20.0 + k / 7!r},70.0,0.0,0.0,2.0,90.0" for k in range(30)]
    paths = {}
    for name in ("iso", form):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("\n".join([header] + [_stamp(ts, name) + row for ts, row
                                                      in zip(instants, rows)]) + "\n")
    twin, utc = load_weather(paths[form]), load_weather(paths["iso"])
    assert _weather_bits(twin) == _weather_bits(utc)
    assert [ts.tzinfo for ts in twin.timestamps] == [timezone.utc] * 30
