"""The fused ingest (:class:`contseq.ingest.SequenceMapper`) against the
library API: ``parse_corpus`` then ``classify`` then ``render_sequence``
must give the same sequences text, report and notices for any lines."""

import gc
import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from contseq import ingest
from contseq.ingest import (MAX_NOTICES, ExclusionPolicy, IngestReport, MalformedRecord,
                            RejectReason, SequenceMapper, classify, parse_corpus)
from contseq.mapping import render_sequence
from contseq.model import default_table
from contseq.syngen import SyntheticSpec, corpus_chunks

TABLE = default_table().with_aliases({"UK": "United Kingdom", "Polska": "Poland"})
ABSENT = object()  # an affiliation without a "country" key

#: Known labels, their alias, case and space variants, blanks, None and unknowns.
labels = st.sampled_from([
    "Poland", "Germany", "United Kingdom", "Japan", "Brazil", "Kenya", "Australia",
    "polska", "Polska", " poland ", "POLAND", "United  Kingdom", "uk", "UK",
    "", "   ", None, ABSENT, "Atlantis", "Narnia ",
])


def affiliation(label):
    aff = {"institution": "inst"}
    if label is not ABSENT:
        aff["country"] = label
    return aff


@st.composite
def records(draw):
    """A valid record object; labels and authors may repeat."""
    pool = draw(st.lists(labels, min_size=1, max_size=4))
    authors = [{"author_id": draw(st.sampled_from(["a1", "a2", "a3"])),
                "affiliations": [affiliation(draw(st.sampled_from(pool)))
                                 for _ in range(draw(st.integers(1, 7)))]}
               for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        authors.append(authors[0])  # a repeated author
    return {"schema_version": 1, "id": "p1", "year": 2020, "authors": authors}


#: One schema break per entry: (path to the field, replacement); ABSENT deletes.
BREAKS = [
    ((), []), ((), "x"), ((), 3), ((), None),
    (("schema_version",), ABSENT), (("schema_version",), 2), (("schema_version",), "1"),
    (("schema_version",), True),
    (("id",), ABSENT), (("id",), ""), (("id",), "  "), (("id",), 7),
    (("year",), ABSENT), (("year",), "2020"), (("year",), True), (("year",), 2020.5),
    (("authors",), ABSENT), (("authors",), []), (("authors",), {}), (("authors",), "a"),
    (("authors", 0), "a1"), (("authors", 0), None),
    (("authors", 0, "author_id"), ABSENT), (("authors", 0, "author_id"), " "),
    (("authors", 0, "author_id"), 5),
    (("authors", 0, "affiliations"), ABSENT), (("authors", 0, "affiliations"), []),
    (("authors", 0, "affiliations"), "x"),
    (("authors", 0, "affiliations", 0), "inst"),
    (("authors", 0, "affiliations", 0, "institution"), ABSENT),
    (("authors", 0, "affiliations", 0, "institution"), ""),
    (("authors", 0, "affiliations", 0, "institution"), 1),
    (("authors", 0, "affiliations", 0, "country"), 1),
    (("authors", 0, "affiliations", 0, "country"), ["Poland"]),
]


@st.composite
def broken_records(draw):
    obj = draw(records())
    path, value = draw(st.sampled_from(BREAKS))
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is ABSENT:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def encoded(obj) -> bytes:
    return json.dumps(obj, ensure_ascii=False).encode()


line_bodies = st.one_of(
    records().map(encoded),
    broken_records().map(encoded),
    records().map(encoded).flatmap(  # truncated JSON
        lambda raw: st.integers(1, len(raw) - 1).map(lambda cut: raw[:cut])),
    st.sampled_from([b"", b"  ", b"\t", b"\xc2\xa0", b"\xff", b"{\"id\": \"p\xfe\"}",
                     b"not json", b"[" * 5000, b"{\"year\": 1" + b"0" * 5000 + b"}",
                     b"\xef\xbb\xbf{}", b"{} {}"]),
    st.binary(max_size=20).map(lambda raw: raw.replace(b"\n", b"")),
)
corpora = st.lists(
    st.tuples(line_bodies, st.sampled_from([b"\n", b"\r\n", b" \n", b"\x0c\n",
                                           b"\xc2\xa0\n"])).map(b"".join),
    max_size=14,
).flatmap(lambda lines: st.sampled_from([lines, lines[:-1] + [lines[-1].rstrip(b"\r\n")]])
          if lines else st.just(lines))


def library(lines, policy):
    """Sequences text, report and notices through the record-building API."""
    report, notices, out = IngestReport(), [], []
    for item in parse_corpus(lines):
        if isinstance(item, MalformedRecord):
            report.rejected_malformed += 1
            notices.append(item)
            continue
        result = classify(item, policy, TABLE)
        report.tally(result)
        if not isinstance(result, RejectReason):
            out.append(render_sequence(result) + "\n")
    return "".join(out), report, notices


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora, st.integers(1, 6))
def test_fused_path_agrees_with_library(lines, limit):
    policy = ExclusionPolicy(limit)
    text, report, notices = library(lines, policy)
    mapper = SequenceMapper(policy, TABLE)
    for _ in range(2):  # a mapper's second pass, with the table's cache warm, agrees too
        assert mapper.map_lines(lines) == (text, report, notices[:MAX_NOTICES], len(lines))


def test_records_breaking_both_rules_are_too_many_affiliations():
    obj = {"schema_version": 1, "id": "p1", "year": 2020, "authors": [
        {"author_id": "a1", "affiliations": [affiliation("Atlantis")] * 3}]}
    result = SequenceMapper(ExclusionPolicy(2), TABLE).map_lines([encoded(obj) + b"\n"])
    assert result[1] == IngestReport(rejected_too_many_affiliations=1)


#: Ids of a canonical head: plain, blank, whitespace (U+3000 too), invalid
#: UTF-8, a raw control byte, and escaped ones, which no canonical head holds.
HEAD_IDS = [b"p1", b"p2", "\u00e9t\u00e9".encode(), b"", b" ", b"  ", "\u3000".encode(),
            b"\t", b"\xff", b"p\xfe1", b"\xed\xa0\x80", b'p\\"1', b"\\u0070", b"\\u3000"]
#: Years: 18 digits, 19 and more, -0, and some that are not JSON integers.
HEAD_YEARS = [b"2020", b"0", b"-0", b"-7", b"999999999999999999", b"1000000000000000000",
              b"1" + b"0" * 40, b"01", b"2020.0", b'"2020"', b"true"]
#: What a tail may add after the authors: unknown fields, and duplicate keys
#: that override the head's id, year or schema_version, validly or not.
TAIL_EXTRAS = [b"", b',"x":{"id":""}', b',"id":"p9"', b',"id":""', b',"id":"\\u3000"',
               b',"id":7', b',"year":2021', b',"year":"x"', b',"year":true',
               b',"schema_version":1', b',"schema_version":2', b',"schema_version":1.0',
               b',"authors":[]']


def compact(obj) -> bytes:
    """``obj`` in :func:`contseq.ingest.record_to_json`'s layout."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")).encode()


@st.composite
def tails(draw):
    authors = draw(st.one_of(records().map(lambda obj: compact(obj["authors"])),
                             st.sampled_from([b"[]", b'"a"', b"[1]", b'[{"author_id":"a"}]'])))
    return (authors + draw(st.sampled_from(TAIL_EXTRAS)) + b"}"
            + draw(st.sampled_from([b"\n", b"\r\n", b""])))


@st.composite
def canonical_corpora(draw):
    """Lines in record_to_json's layout whose heads vary around a few tails."""
    pool = draw(st.lists(tails(), min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(1, 16))):
        line = (b'{"schema_version":1,"id":"' + draw(st.sampled_from(HEAD_IDS)) + b'","year":'
                + draw(st.sampled_from(HEAD_YEARS)) + b',"authors":' + draw(st.sampled_from(pool)))
        if draw(st.integers(0, 9)) == 0:  # truncated
            line = line[:draw(st.integers(1, len(line) - 1))]
        lines.append(line)
    return lines


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(canonical_corpora(), st.integers(1, 6))
def test_canonical_lines_sharing_tails_agree_with_library(lines, limit):
    policy = ExclusionPolicy(limit)
    text, report, notices = library(lines, policy)
    mapper = SequenceMapper(policy, TABLE)
    for _ in range(2):  # the second pass finds every stored tail in the memo
        assert mapper.map_lines(lines) == (text, report, notices[:MAX_NOTICES], len(lines))


def test_a_repeated_tail_is_decoded_once(monkeypatch):
    decoded, decode = [], ingest._decode_line
    monkeypatch.setattr(ingest, "_decode_line", lambda line: (decoded.append(line),
                                                              decode(line))[1])
    corpus = b"".join(corpus_chunks(SyntheticSpec(5000, 1.9, 20_000, seed=3))).splitlines(True)
    spaced = [json.dumps(json.loads(line)).encode() + b"\n" for line in corpus[:50]]
    lines = corpus[:10_000] + spaced + corpus[10_000:]
    distinct = {line[ingest._CANONICAL.match(line).end():] for line in corpus}
    mapper = SequenceMapper(ExclusionPolicy(), TABLE)
    for half in lines[:10_000], lines[10_000:]:  # the memo outlives a call
        assert mapper.map_lines(half)[1].accepted == len(half)
    assert not any(map(ingest._CANONICAL.match, spaced))
    assert len(decoded) == len(distinct) + len(spaced) < len(lines) // 10


@pytest.mark.parametrize("repeats", [1, 3])
def test_the_tail_memo_keeps_to_its_budget(monkeypatch, repeats):
    """Distinct ~2 KB tails, each on ``repeats`` lines in a row: the memo
    fills to its budget, and is dropped only if it was hit less than it holds."""
    budget, decode = ingest._TAIL_BUDGET, ingest._decode_line
    mapper = SequenceMapper(ExclusionPolicy(), TABLE)
    held = []  # the memo's key bytes whenever a line is decoded, before it may store
    monkeypatch.setattr(ingest, "_decode_line", lambda line: (
        held.append(sum(map(len, mapper._tails))), decode(line))[1])
    institution = "i" * 2000
    lines = [compact({"schema_version": 1, "id": f"p{k}", "year": 2020, "authors": [
        {"author_id": f"a{k}", "affiliations": [{"institution": institution,
                                                 "country": "Poland"}]}]}) + b"\n"
             for k in range(3 * budget // 2000) for _ in range(repeats)]
    for start in range(0, len(lines), 500):
        chunk = lines[start:start + 500]
        assert mapper.map_lines(chunk)[1].accepted == len(chunk)
        held.append(sum(map(len, mapper._tails)))
    assert budget - 2100 < max(held) <= budget
    assert (held[-1] == 0) == (repeats == 1)


def case_variants(word: str) -> list[str]:
    """Every spelling of ``word`` by the case of each of its letters."""
    return ["".join(c.upper() if k >> i & 1 else c for i, c in enumerate(word))
            for k in range(1 << len(word))]


def test_retained_memory_does_not_grow_with_label_spellings():
    """20,000 lines, each with its own set of case variants of three countries,
    in json.dumps's default layout, so no tail is looked up: after mapping
    them, a mapper holds under 1 MB, though the sets never repeat."""
    poland, japan, kenya = map(case_variants, ["poland", "japan", "kenya"])
    lines = [encoded({"schema_version": 1, "id": f"p{k}", "year": 2020, "authors": [
        {"author_id": f"a{k}", "affiliations": [affiliation(poland[k % 64]),
                                                affiliation(japan[k // 64 % 32]),
                                                affiliation(kenya[k // 2048])]}]}) + b"\n"
             for k in range(20_000)]
    assert not any(map(ingest._CANONICAL.match, lines))
    SequenceMapper(ExclusionPolicy(), TABLE).map_lines(lines[:1])  # caches, before the count
    gc.collect()
    tracemalloc.start()
    try:
        mapper = SequenceMapper(ExclusionPolicy(), TABLE)
        report = mapper.map_lines(lines)[1]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.accepted == len(lines)
    assert held < 1 << 20, f"{held / 2**20:.2f} MB held"
