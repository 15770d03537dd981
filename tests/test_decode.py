"""``ingest._decode_line`` decodes a line with json's scanner and hands any
line the scanner does not take whole to ``json.loads``. It must agree with a
decoder that calls ``json.loads`` on every line, on the running Python, with
json's C scanner and with its pure-Python one, and a clean line must not
reach ``json.loads``."""

import json
import json.scanner
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from contseq import files, ingest
from contseq.ingest import (ExclusionPolicy, SequenceMapper, _decode_line, _depth,
                            record_to_json)
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
