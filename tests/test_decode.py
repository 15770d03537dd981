"""``ingest._decode_line`` decodes a line with json's scanner and hands any
line the scanner does not take whole to ``json.loads``. It must agree with a
decoder that calls ``json.loads`` on every line, on the running Python, with
json's C scanner and with its pure-Python one, and a clean line must not
reach ``json.loads``. ``ingest.store_fields`` tries a compiled grammar on a
line in ``record_to_json``'s layout before ``_decode_line``: it must yield
what ``_decode_line`` gives for any line."""

import json
import json.scanner
import re
import sys
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from contseq import files, ingest
from contseq.ingest import (ExclusionPolicy, SequenceMapper, _decode_line, _depth,
                            record_to_json, store_fields)
from contseq.model import default_table
from contseq.syngen import SyntheticSpec, corpus_chunks
from strategies import publication_records
from test_ingest import MALFORMED, line

SCANNERS = {"default": ingest._scan,
            "python": json.scanner.py_make_scanner(json.JSONDecoder())}


def _by_loads(text, idx):
    """A scanner that decodes the whole line by ``json.loads``: with it,
    :func:`_decode_line` calls ``json.loads`` on every line, as it did
    before it used json's scanner."""
    return json.loads(text), len(text)


def decoded(line, scanner):
    with mock.patch.object(ingest, "_scan", scanner):
        return _decode_line(line)


def agree(line, scanner):
    assert decoded(line, scanner) == decoded(line, _by_loads)


CLEAN = line()
#: trailing characters that str.isspace() accepts and json does not
NOT_JSON_SPACE = "\x0b\x0c\x1c\x85\xa0\u2028"
TABLE = [
    CLEAN, CLEAN + "\n",
    *(CLEAN + c for c in NOT_JSON_SPACE), *(CLEAN + c + "\n" for c in NOT_JSON_SPACE),
    "  " + CLEAN, "\t" + CLEAN, " \t\n" + CLEAN, CLEAN + "\r\n", CLEAN + " \t\r\n",
    "\ufeff" + CLEAN, CLEAN + "\ufeff",
    "", "\n", " ", "\t\r\n", *NOT_JSON_SPACE,
    line(extra=float("nan")), line(extra=float("inf")), line(extra=float("-inf")),
    CLEAN.replace('"id": "p1"', '"id": "p1", "id": "p2"'),  # a duplicate key: the last wins
    CLEAN.replace('"id": "p1"', '"id": "p1", "id": ""'),
    CLEAN.replace('"year": 2020', '"year": ' + "7" * 5000),
    CLEAN.replace('"year": 2020', '"year": 2020, "x": 1' + "0" * 5000 + ".5"),
    "[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000,
    line("p\ud800"), line("p\udc00"), line("p\U0001f600"), CLEAN.replace('"p1"', '"\\ud800"'),
    CLEAN.replace('"p1"', '"p\x01"'), CLEAN.replace('"p1"', '"p\n1"'),
    CLEAN.replace('"p1"', '"p\t1"'), CLEAN.replace('"p1"', '"p\x7f1"'),
    CLEAN[:-1] + ",}", CLEAN.replace("]}]}", "],}]}"), "[1,]", "{,}",
    CLEAN[:-1], CLEAN + CLEAN, CLEAN + ",", CLEAN + " x", '"p1"', "7", "null",
]


@pytest.mark.parametrize("scanner", SCANNERS.values(), ids=SCANNERS)
@pytest.mark.parametrize("text", TABLE + list(MALFORMED),
                         ids=[f"line{i}" for i in range(len(TABLE) + len(MALFORMED))])
def test_table_agrees_with_loads(text, scanner):
    agree(text, scanner)


@pytest.mark.parametrize("scanner", SCANNERS.values(), ids=SCANNERS)
def test_only_json_whitespace_may_follow(scanner):
    for c in NOT_JSON_SPACE:
        assert decoded(CLEAN + c, scanner) == "invalid JSON: Extra data"
    fields = decoded(CLEAN, scanner)
    for text in ("  " + CLEAN, "\t" + CLEAN, CLEAN + "\r\n", CLEAN + " \t\r\n"):
        assert decoded(text, scanner) == fields


#: characters json and str.isspace() treat differently, and JSON's own syntax
SPICE = st.sampled_from([*" \t\n\r", *NOT_JSON_SPACE, "\ufeff", *'{}[],:"\\', "\x00", "\ud800"])
values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def json_lines(draw):
    """A JSON value or a corpus record, dumped, with characters spliced in
    or around it."""
    text = draw(st.one_of(
        st.builds(json.dumps, values, ensure_ascii=st.booleans()),
        publication_records(allow_unidentifiable=True).map(record_to_json)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(SPICE, min_size=1, max_size=2)) + text[at:]
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


lines = st.one_of(json_lines(), st.text(), st.binary(), st.text(SPICE))


@pytest.mark.parametrize("scanner", SCANNERS.values(), ids=SCANNERS)
@settings(max_examples=400, deadline=None)
@given(text=lines)
def test_any_line_agrees_with_loads(text, scanner):
    agree(text, scanner)


@pytest.fixture
def loads_calls(monkeypatch):
    """The lines json.loads is called on, as ingest sees it."""
    calls, loads = [], json.loads
    monkeypatch.setattr(ingest.json, "loads", lambda s, *args, **kwargs: (
        calls.append(s), loads(s, *args, **kwargs))[1])
    return calls


def test_clean_lines_do_not_reach_loads(loads_calls):
    corpus = b"".join(corpus_chunks(SyntheticSpec(200, 1.9, 1000, seed=5))).splitlines(keepends=True)
    mapper = SequenceMapper(ExclusionPolicy(), default_table())
    _, report, notices, number = mapper.map_lines(corpus)
    assert number == report.total == 1000 and report.accepted > 0 and notices == []
    assert loads_calls == []


def test_only_lines_that_fail_as_json_reach_loads(loads_calls):
    failing = [bad for bad, message in MALFORMED.items() if message.startswith("invalid JSON")]
    SequenceMapper(ExclusionPolicy(), default_table()).map_lines(list(MALFORMED))
    assert failing and sorted(loads_calls) == sorted(failing)


def nested(depth):
    """A valid record whose unknown field holds arrays nested so that the
    line nests ``depth`` levels deep (the record itself is level 1)."""
    return CLEAN[:-1] + ', "x": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"


def deeper(frames, text):
    """``_decode_line(text)`` called ``frames`` Python frames deeper."""
    return deeper(frames - 1, text) if frames else _decode_line(text)


TOO_DEEP = f"JSON nested deeper than {ingest.MAX_DEPTH} levels"


@pytest.mark.parametrize("depth", [ingest.MAX_DEPTH, ingest.MAX_DEPTH + 1, 950])
def test_nesting_limit_gives_one_result_at_any_stack_depth(depth):
    text = nested(depth)
    result = _decode_line(text)
    if depth > ingest.MAX_DEPTH:
        assert result == TOO_DEEP
    else:
        assert type(result) is tuple and result[0] == "p1"
    assert deeper(200, text) == deeper(200, text.encode()) == result


def test_nesting_limit_holds_in_a_range_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(files, "_RANGE_BYTES", 4096)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(nested(depth) + "\n" for depth in [ingest.MAX_DEPTH, 950] * 4))
    with open(corpus, "rb") as handle:
        assert len(files._spans(handle)) > 1
    mapper = SequenceMapper(ExclusionPolicy(), default_table())
    results = list(files.read_ranges(corpus, mapper.map_lines, workers=2))
    reports = [report for _, report, _, _ in results]
    assert sum(r.accepted for r in reports) == sum(r.rejected_malformed for r in reports) == 4
    assert {notice.message for _, _, notices, _ in results for notice in notices} == {TOO_DEEP}


def test_only_nesting_outside_strings_counts(monkeypatch):
    scanned = []
    monkeypatch.setattr(ingest, "_depth", lambda line: (scanned.append(line),
                                                        _depth(line))[1])
    for text in ["x" * 1000, "[" * ingest.MAX_DEPTH, CLEAN, nested(ingest.MAX_DEPTH - 4)]:
        _decode_line(text)  # no longer than the limit, or no more brackets than it
    assert scanned == []
    quoted = line(extra="[" * 600 + "{" * 600)  # brackets in a string do not nest
    assert _decode_line(quoted)[0] == "p1" and scanned == [quoted.encode()]
    unterminated = '{"x": "' + "[" * 600
    assert _decode_line(unterminated).startswith("invalid JSON: Unterminated string")


# ---------------------------------------------------------------------------
# ``store_fields`` (crawl's reader) tries the compiled grammar ``_RECORD``
# first and hands every line it does not take to ``_decode_line``.

def by_decode_line(lines):
    """What :func:`store_fields` must yield for ``lines``: ``_decode_line``'s
    fields or message for each line that is not blank."""
    return [f[:3] if type(f) is tuple else f for f in map(_decode_line, lines) if f is not None]


def quoted(text: str) -> str:
    return '"' + text + '"'


#: Strings json reads as themselves that are not blank, some with raw
#: whitespace (U+3000, U+2028, U+0085, U+00A0) around or inside them.
NAMES = ["p1", "a1", "a2", "inst", "\u00e9t\u00e9", "x\x7fy", " a", "b ", "\u3000c",
         "\u2028d", "\u0085e", "\u00a0f", "g\u3000h"]
#: Blank strings: every character is one str.isspace() accepts.
BLANKS = ["", " ", "\u3000", "\u2028", "\u0085", "\u00a0", " \u3000\u2028 ", "\x1f", "\t"]
#: Characters json must escape; raw, each makes its line malformed.
NEEDS_ESCAPE = ['q"q', "b\\s", "t\tt", "a\x1fb", "c\x00", "d\x0c", "\x1c e", "f\n"]
#: A placeholder for bytes that are not UTF-8, which replace it in the line.
BAD, INVALID_UTF8 = "\ue000", [b"\xff", b"\xed\xa0\x80", b"\xc3(", b"\xe3\x80"]
#: Texts for a string slot: raw strings, strings spelled with escapes (which
#: json reads and the grammar does not), and one holding invalid UTF-8.
STRING_TEXTS = ([quoted(s) for s in NAMES + BLANKS + NEEDS_ESCAPE + ["i" + BAD + "j"]]
                + [json.dumps(s) for s in NEEDS_ESCAPE + ["\u00e9t\u00e9", "\u3000c", "\u3000"]]
                + ['"\\u0070"', '"\\/"', '"\\ud800"', "7", "null", '["a1"]'])
#: Texts for an author id that add a key to its object, or repeat one.
AUTHOR_KEYS = ['"a1","x":1', '"a1","author_id":"a9"', '"a1","author_id":" "']
#: Texts for a country (None: no country), some adding or repeating a key.
COUNTRY_TEXTS = [None, '"Poland"', '"  "', '""', "null", "1", '["Poland"]', "{}", '"\\u3000"',
                 '"Poland","x":1', '"Poland","country":"Japan"', '"Poland","country":7',
                 '"Poland","institution":""']
#: Texts for the other parts of a line.
FIELD_TEXTS = {
    "year": ["-0", "9" * 18, "1" + "0" * 18, "7" * 5000, "01", "2020.0", "1e3", '"2020"',
             "true", "-"],
    "end": ["", "\r\n", " \n", "\x0c\n", " \t\r\n", "\u2028\n", " x\n", "{}\n", ",\n"],
    "extra": [',"x":1', ',"id":"p9"', ',"id":""', ',"year":2021', ',"year":"x"', ',"authors":[]',
              ',"schema_version":2', ',"schema_version":1'],
    "start": ["\ufeff", " ", "\t"],
    "year_last": [True],
}


def _clean():
    """The parts of a clean line, one that takes the grammar."""
    return {"id": '"p1"', "year": "2020", "authors": [
        ['"a1"', [['"inst"', '"Poland"'], ['"i2"', None]]], ['"a2"', [['"i3"', '"  "']]]],
        "extra": "", "year_last": False, "end": "\n", "start": ""}


def _slots(record):
    """The (container, key) of every string slot of a line's parts."""
    slots = [(record, "id")]
    for author in record["authors"]:
        slots.append((author, 0))
        slots.extend((affiliation, 0) for affiliation in author[1])
    return slots


def _render(record) -> str:
    authors = ",".join('{"author_id":%s,"affiliations":[%s]}' % (author_id, ",".join(
        '{"institution":%s%s}' % (institution, "" if country is None else ',"country":' + country)
        for institution, country in affiliations)) for author_id, affiliations in record["authors"])
    year = ',"year":' + record["year"]
    return (record["start"] + '{"schema_version":1,"id":' + record["id"]
            + ("" if record["year_last"] else year) + ',"authors":[' + authors + "]"
            + (year if record["year_last"] else "") + record["extra"] + "}" + record["end"])


def _encoded(record) -> list[bytes]:
    """A line's bytes, once for each of ``INVALID_UTF8`` if it holds ``BAD``."""
    line, placeholder = _render(record).encode(), BAD.encode()
    if placeholder not in line:
        return [line]
    return [line.replace(placeholder, bad) for bad in INVALID_UTF8]


def one_change_lines() -> list[bytes]:
    """The clean line, each change of one of its parts, and each cut of it."""
    records = []
    for slot in range(len(_slots(_clean()))):
        for text in STRING_TEXTS:
            records.append(_clean())
            container, key = _slots(records[-1])[slot]
            container[key] = text
    for author in range(2):
        for text in AUTHOR_KEYS:
            records.append(_clean())
            records[-1]["authors"][author][0] = text
    for author, affiliation in (0, 0), (0, 1), (1, 0):
        for text in COUNTRY_TEXTS:
            records.append(_clean())
            records[-1]["authors"][author][1][affiliation][1] = text
    for field, texts in FIELD_TEXTS.items():
        for text in texts:
            records.append({**_clean(), field: text})
    for emptied in ([], [['"a1"', []]], [['"a1"', [['"i"', None]]], ['"a2"', []]]):
        records.append({**_clean(), "authors": emptied})
    records.append(_clean())
    records[-1]["authors"].append(records[-1]["authors"][0])  # a repeated author
    clean = _render(_clean()).encode()
    return [line for record in records for line in _encoded(record)] + [
        clean[:cut] for cut in range(1, len(clean))]


def test_each_one_change_agrees_with_decode_line():
    lines = one_change_lines()
    assert [list(store_fields([line])) for line in lines] == [by_decode_line([line])
                                                               for line in lines]


def _set_slot(draw, record):
    container, key = draw(st.sampled_from(_slots(record)))
    container[key] = draw(st.sampled_from(STRING_TEXTS))


def _set_author_key(draw, record):
    if record["authors"]:
        draw(st.sampled_from(record["authors"]))[0] = draw(st.sampled_from(AUTHOR_KEYS))


def _set_country(draw, record):
    affiliations = [aff for author in record["authors"] for aff in author[1]]
    if affiliations:
        draw(st.sampled_from(affiliations))[1] = draw(st.sampled_from(COUNTRY_TEXTS))


def _set_field(draw, record):
    field = draw(st.sampled_from(sorted(FIELD_TEXTS)))
    record[field] = draw(st.sampled_from(FIELD_TEXTS[field]))


def _empty(draw, record):
    if not record["authors"] or draw(st.booleans()):
        record["authors"] = []
    else:
        draw(st.sampled_from(record["authors"]))[1] = []


MUTATIONS = [_set_slot, _set_author_key, _set_country, _set_field, _empty]


@st.composite
def compact_lines(draw):
    """A line in :func:`record_to_json`'s layout with up to three of
    ``MUTATIONS``, perhaps cut short; a repeated author repeats its object's text."""
    name = st.sampled_from(NAMES).map(quoted)
    authors = [[draw(name), [[draw(name), draw(st.sampled_from(COUNTRY_TEXTS[:4]))]
                             for _ in range(draw(st.integers(1, 3)))]]
               for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        authors.append(authors[0])
    record = {**_clean(), "id": draw(name), "year": draw(st.sampled_from(["2020", "0", "-7"])),
              "authors": authors}
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2, 3]))):  # most lines are clean
        draw(st.sampled_from(MUTATIONS))(draw, record)
    line = draw(st.sampled_from(_encoded(record)))
    if draw(st.integers(0, 19)) == 0:
        line = line[:draw(st.integers(1, len(line) - 1))]
    return line


def test_grammar_agrees_with_decode_line(monkeypatch):
    """For any lines, ``store_fields`` yields what ``_decode_line`` gives,
    and at least half of the drawn lines take the grammar."""
    decoded, drawn = [], []
    monkeypatch.setattr(ingest, "_decode_line", lambda line: (decoded.append(line),
                                                              _decode_line(line))[1])

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(compact_lines(), min_size=1, max_size=6))
    def agree(lines):
        drawn.extend(lines)
        assert list(store_fields(lines)) == by_decode_line(lines)

    agree()
    assert len(drawn) - len(decoded) >= len(drawn) / 2, (len(drawn), len(decoded))


def test_grammar_takes_record_to_json_lines(monkeypatch):
    decoded = []
    monkeypatch.setattr(ingest, "_decode_line", lambda line: (decoded.append(line),
                                                              _decode_line(line))[1])
    lines = b"".join(corpus_chunks(SyntheticSpec(200, 1.9, 500, seed=5))).splitlines(True)
    assert list(store_fields(lines)) == by_decode_line(lines) and decoded == []


def test_re_whitespace_is_str_isspace():
    """The grammar's blank check reads re's ``\\s`` as :meth:`str.isspace`,
    on every code point of the running Python's Unicode database."""
    space = re.compile(r"\s").fullmatch
    assert [hex(c) for c in range(sys.maxunicode + 1)
            if bool(space(chr(c))) != chr(c).isspace()] == []


def test_grammar_fails_in_linear_time():
    """Lines that almost match fail the grammar in linear time: a 200 kB
    blank institution, 20,000 authors without the closing brace, and 20,000
    affiliations cut short go through ``store_fields`` in under a second."""
    author = '{"author_id":"a","affiliations":[{"institution":"i","country":"c"}]}'
    lines = [(head + tail).encode() for head, tail in [
        ('{"schema_version":1,"id":"p","year":1,"authors":[',
         '{"author_id":"a","affiliations":[{"institution":"' + " " * 200_000 + '"}]}]}\n'),
        ('{"schema_version":1,"id":"p","year":1,"authors":[', ",".join([author] * 20_000) + "]\n"),
        ('{"schema_version":1,"id":"p","year":1,"authors":[{"author_id":"a","affiliations":[',
         ",".join(['{"institution":"i","country":"c"}'] * 20_000))]]
    start = time.perf_counter()
    fields = list(store_fields(lines))
    assert time.perf_counter() - start < 1
    assert fields == by_decode_line(lines) and all(type(f) is str for f in fields)
