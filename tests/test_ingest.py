import io
import json

import pytest
from hypothesis import given, strategies as st

from contseq.cli import main
from contseq.errors import ContractViolationError
from contseq.ingest import (ExclusionPolicy, IngestReport, MalformedRecord,
                            RejectReason, SCHEMA_VERSION, _decode_line, classify,
                            filter_record, parse_corpus, parse_record_line,
                            record_to_json, write_corpus)
from contseq.mapping import render_sequence
from contseq.model import ContinentSequence, PublicationRecord
from helpers import publication_countries, record
from strategies import publication_records


def line(pub_id="p1", year=2020, authors=None, raw=False, **extra):
    """A corpus line; with ``raw``, its strings' characters are not escaped."""
    if authors is None:
        authors = [{"author_id": "a1",
                    "affiliations": [{"institution": "inst", "country": "Poland"}]}]
    obj = {"schema_version": SCHEMA_VERSION, "id": pub_id, "year": year,
           "authors": authors, **extra}
    return json.dumps(obj, ensure_ascii=not raw)


#: A malformed line and its exact message; map prints these on stderr.
MALFORMED = {
    "not json at all": "invalid JSON: Expecting value",
    json.dumps({"id": "p", "year": 2020, "authors": []}):  # no schema_version
        "unsupported schema_version None",
    json.dumps({"schema_version": 99, "id": "p", "year": 2020, "authors": []}):
        "unsupported schema_version 99",
    line(schema_version=True): "unsupported schema_version True",
    line(schema_version=1.0): "unsupported schema_version 1.0",
    # a byte-order mark is not stripped from corpus lines
    "\ufeff" + line(): "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)",
    line(year="2020"): "'year' must be an integer",
    line(year=True): "'year' must be an integer",
    json.dumps({"schema_version": 1, "id": "", "year": 2020, "authors": [{}]}):
        "missing or empty 'id'",
    line(authors=[]): "'authors' must be a non-empty array",
    line(authors=[{"author_id": "a", "affiliations": []}]):
        "author 0: 'affiliations' must be a non-empty array",
    line(authors=[{"author_id": "", "affiliations": [{"institution": "x"}]}]):
        "author 0: missing or empty 'author_id'",
    line(authors=[{"author_id": "a", "affiliations": [{"institution": ""}]}]):
        "author 0, affiliation 0: missing or empty 'institution'",
    line(authors=[{"author_id": "a", "affiliations": [{"institution": "x", "country": 7}]}]):
        "author 0, affiliation 0: 'country' must be a string",
    "[1, 2, 3]": "record is not a JSON object",
    b'{"schema_version": 1, "id": "p\xff"}': "invalid UTF-8: invalid start byte at byte 30",
    " \t\n": "invalid JSON: Expecting value",  # blank: malformed on its own
    line("p\ud800"): "invalid Unicode: unpaired surrogate escape",
    line(authors=[{"author_id": "b\udfff", "affiliations": [{"institution": "x"}]}]):
        "invalid Unicode: unpaired surrogate escape",
    line("p\udbff").replace("dbff", "DBFF"): "invalid Unicode: unpaired surrogate escape",
    # a str line may hold a raw surrogate, which no UTF-8 line can
    line("p\ud800", raw=True): "invalid Unicode: unpaired surrogate at character 30",
    line(authors=[{"author_id": "b\udfff", "affiliations": [{"institution": "x"}]}], raw=True):
        "invalid Unicode: unpaired surrogate at character 76",
    line(authors=[{"author_id": "a", "affiliations": [{"institution": "x\ud800"}]}], raw=True):
        "invalid Unicode: unpaired surrogate at character 114",
    line(authors=[{"author_id": "a",
                   "affiliations": [{"institution": "x", "country": "\udc00land"}]}], raw=True):
        "invalid Unicode: unpaired surrogate at character 129",
}


class TestParse:
    def test_two_author_line(self):
        text = line(authors=[
            {"author_id": "a1", "affiliations": [{"institution": "x", "country": "Poland"}]},
            {"author_id": "a2", "affiliations": [{"institution": "y", "country": "Germany"}]}])
        parsed = parse_record_line(text, 1)
        assert isinstance(parsed, PublicationRecord)
        assert len(parsed.authors) == 2
        assert parsed.pub_id == "p1" and parsed.year == 2020

    def test_missing_authors_is_notice_and_stream_continues(self):
        source = io.StringIO(
            json.dumps({"schema_version": 1, "id": "p1", "year": 2020}) + "\n"
            + line("p2") + "\n")
        items = list(parse_corpus(source))
        assert isinstance(items[0], MalformedRecord)
        assert items[0].line_number == 1 and "authors" in items[0].message
        assert isinstance(items[1], PublicationRecord) and items[1].pub_id == "p2"

    def test_empty_file(self):
        assert list(parse_corpus(io.StringIO(""))) == []

    def test_blank_lines_skipped(self):
        source = io.StringIO("\n" + line() + "\n   \n")
        items = list(parse_corpus(source))
        assert len(items) == 1 and isinstance(items[0], PublicationRecord)

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_malformed_variants(self, bad):
        assert parse_record_line(bad, 3) == MalformedRecord(3, MALFORMED[bad])

    def test_surrogate_pair_escape_is_one_character(self):
        assert parse_record_line(line("p\U0001f600")).pub_id == "p\U0001f600"

    def test_blank_country_becomes_absent(self):
        parsed = parse_record_line(line(authors=[
            {"author_id": "a", "affiliations": [{"institution": "x", "country": "  "}]}]))
        assert parsed.authors[0].affiliations[0].country is None

    def test_unknown_fields_ignored(self):
        parsed = parse_record_line(line(doi="10.1/xyz"))
        assert isinstance(parsed, PublicationRecord)

    def test_unreadable_source_raises(self):
        with pytest.raises(OSError):
            list(parse_corpus("/nonexistent/corpus.jsonl"))

    def test_line_numbers_count_all_lines(self):
        source = io.StringIO(line() + "\n\nbroken\n")
        items = list(parse_corpus(source))
        assert items[1].line_number == 3

    def test_blank_check_agrees_with_strip(self):
        """The decoder's ``not s or s.isspace()`` is ``not s.strip()``."""
        texts = ["", *map(chr, range(0xD800)), *map(chr, range(0xE000, 0x110000))]
        assert [s for s in texts if (not s.strip()) != (not s or s.isspace())] == []

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("blank", ["\x85", " ", "\x1f"])
    def test_whitespace_only_fields(self, blank, raw):
        def authors(author_id="a", **aff):
            return [{"author_id": author_id, "affiliations": [{"institution": "x", **aff}]}]
        assert _decode_line(line(blank, raw=raw)) == "missing or empty 'id'"
        assert (_decode_line(line(authors=authors(blank), raw=raw))
                == "author 0: missing or empty 'author_id'")
        assert (_decode_line(line(authors=authors(institution=blank), raw=raw))
                == "author 0, affiliation 0: missing or empty 'institution'")
        fields = _decode_line(line(authors=authors(country=blank), raw=raw))
        assert fields == ("p1", 2020, ["a"], frozenset({None}), 1,
                          authors(institution="x", country=None))


class TestFilter:
    def test_six_affiliations_rejected(self, table):
        bad = record("p", [["Poland"] * 6])
        assert filter_record(bad, ExclusionPolicy(), table) is RejectReason.TOO_MANY_AFFILIATIONS

    def test_five_affiliations_boundary_accepted(self, table):
        ok = record("p", [["Poland"] * 5])
        assert filter_record(ok, ExclusionPolicy(), table) is None

    def test_missing_country_rejected(self, table):
        bad = record("p", [["Poland", None]])
        assert filter_record(bad, ExclusionPolicy(), table) is RejectReason.COUNTRY_UNIDENTIFIABLE

    def test_unresolvable_label_rejected(self, table):
        bad = record("p", [["Atlantis"]])
        assert filter_record(bad, ExclusionPolicy(), table) is RejectReason.COUNTRY_UNIDENTIFIABLE

    def test_affiliation_rule_checked_first(self, table):
        both = record("p", [["Atlantis"] * 6])
        assert filter_record(both, ExclusionPolicy(), table) is RejectReason.TOO_MANY_AFFILIATIONS

    def test_worked_example_accepted(self, table):
        from golden import WORKED_EXAMPLES
        layout = WORKED_EXAMPLES[0][1]
        assert filter_record(record("cc", layout), ExclusionPolicy(), table) is None

    def test_pure(self, table):
        rec = record("p", [["Poland", None]])
        first = filter_record(rec, ExclusionPolicy(), table)
        assert filter_record(rec, ExclusionPolicy(), table) is first

    @given(rec=publication_records(max_affiliations=7, allow_unidentifiable=True),
           k=st.integers(1, 7), extra=st.integers(0, 3))
    def test_monotone_in_policy(self, rec, k, extra, table):
        loose = filter_record(rec, ExclusionPolicy(k + extra), table)
        if filter_record(rec, ExclusionPolicy(k), table) is None:
            assert loose is None


class TestClassify:
    @given(rec=publication_records(max_affiliations=7, allow_unidentifiable=True),
           k=st.integers(1, 7))
    def test_agrees_with_oracle(self, rec, k, table):
        result = classify(rec, ExclusionPolicy(k), table)
        if any(len(author.affiliations) > k for author in rec.authors):
            assert result is RejectReason.TOO_MANY_AFFILIATIONS
            return
        try:
            countries = publication_countries(rec, table)
        except ContractViolationError:
            assert result is RejectReason.COUNTRY_UNIDENTIFIABLE
            return
        assert isinstance(result, ContinentSequence)
        assert result.total_countries == len(countries)


class TestReport:
    def test_partition(self, table):
        lines = [
            line("p1"),
            "broken",
            line("p2", authors=[{"author_id": "a", "affiliations":
                                 [{"institution": "x", "country": "Poland"}] * 6}]),
            line("p3", authors=[{"author_id": "a", "affiliations":
                                 [{"institution": "x"}]}]),
            line("p4"),
        ]
        report = IngestReport()
        for item in parse_corpus(io.StringIO("\n".join(lines) + "\n")):
            if isinstance(item, MalformedRecord):
                report.rejected_malformed += 1
            else:
                report.tally(filter_record(item, ExclusionPolicy(), table))
        assert report.accepted == 2
        assert report.rejected_malformed == 1
        assert report.rejected_too_many_affiliations == 1
        assert report.rejected_country_unidentifiable == 1
        assert report.total == len(lines)

    def test_merge_associative_commutative(self):
        a = IngestReport(1, 2, 3, 4)
        b = IngestReport(5, 6, 7, 8)
        c = IngestReport(9, 0, 1, 2)
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))
        assert a.merge(b).total == a.total + b.total

    def test_as_dict_total(self):
        assert IngestReport(1, 1, 1, 1).as_dict()["total"] == 4


class TestSerialization:
    def test_round_trip(self, table):
        records = [record("p1", [["Poland"], ["Germany", "France"]]),
                   record("p2", [["Poland", None]], year=1999)]
        sink = io.StringIO()
        assert write_corpus(records, sink) == 2
        parsed = list(parse_corpus(io.StringIO(sink.getvalue())))
        assert parsed == records

    def test_canonical_json_shape(self):
        rec = record("p1", [["Poland"]], year=2021)
        obj = json.loads(record_to_json(rec))
        assert list(obj) == ["schema_version", "id", "year", "authors"]
        assert obj["schema_version"] == SCHEMA_VERSION
        assert obj["authors"][0]["affiliations"][0]["country"] == "Poland"

    def test_absent_country_not_emitted(self):
        rec = record("p1", [[None]])
        assert "country" not in record_to_json(rec)


@pytest.mark.parametrize("limit", [1, 5])
def test_affiliation_rule_precedes_labels_in_map_and_classify(limit, table, tmp_path):
    """Record A's first author has a label that does not resolve and its last
    author one affiliation too many: rule 1 rejects it. Record B's author is
    at the limit and is accepted."""
    poland = {"institution": "x", "country": "Poland"}
    too_many = line("A", authors=[
        {"author_id": "a1", "affiliations": [{"institution": "x", "country": "Atlantis"}]},
        {"author_id": "a2", "affiliations": [poland] * (limit + 1)}])
    at_limit = line("B", authors=[{"author_id": "a1", "affiliations": [poland] * limit}])
    policy = ExclusionPolicy(limit)
    assert (classify(parse_record_line(too_many), policy, table)
            is RejectReason.TOO_MANY_AFFILIATIONS)
    assert render_sequence(classify(parse_record_line(at_limit), policy, table)) == "Europe (1)"
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(too_many + "\n" + at_limit + "\n")
    argv = ["map", "--threads", "1", "--input", str(corpus), "--output-dir", str(tmp_path)]
    assert main(argv if limit == 5 else [*argv, "--max-affils", str(limit)]) == 0
    assert json.loads((tmp_path / "ingest_report.json").read_text()) == IngestReport(
        accepted=1, rejected_too_many_affiliations=1).as_dict()
    assert (tmp_path / "sequences.txt").read_text() == "Europe (1)\n"


def test_policy_validation():
    with pytest.raises(ValueError):
        ExclusionPolicy(0)
