"""The fused ingest (:class:`contseq.ingest.SequenceMapper`) against the
library API: ``parse_corpus`` then ``classify`` then ``render_sequence``
must give the same sequences text, report and notices for any lines."""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from contseq.ingest import (MAX_NOTICES, ExclusionPolicy, IngestReport, MalformedRecord,
                            RejectReason, SequenceMapper, classify, parse_corpus)
from contseq.mapping import render_sequence
from contseq.model import default_table

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
    for _ in range(2):  # the second pass runs from the memo
        assert mapper.map_lines(lines) == (text, report, notices[:MAX_NOTICES], len(lines))


def test_records_breaking_both_rules_are_too_many_affiliations():
    obj = {"schema_version": 1, "id": "p1", "year": 2020, "authors": [
        {"author_id": "a1", "affiliations": [affiliation("Atlantis")] * 3}]}
    result = SequenceMapper(ExclusionPolicy(2), TABLE).map_lines([encoded(obj) + b"\n"])
    assert result[1] == IngestReport(rejected_too_many_affiliations=1)
