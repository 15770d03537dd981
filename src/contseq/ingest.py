"""Corpus file parsing and the article-exclusion rules.

The corpus file format is line-delimited JSON, one publication per line:

    {"schema_version": 1,
     "id": "<publication id>",
     "year": 2020,
     "authors": [{"author_id": "<id>",
                  "affiliations": [{"institution": "<text>",
                                    "country": "<territory label>"}]}]}

``schema_version`` is required and must currently be 1. ``country`` may be
omitted (or null) when the source data does not identify one; such records
are later rejected as country-unidentifiable rather than malformed. Unknown
extra fields are ignored. Blank lines are skipped. Malformed lines, and
lines that are not valid UTF-8, never abort a run: they come back as
:class:`MalformedRecord` notices and are tallied in the
:class:`IngestReport`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, astuple, dataclass
from operator import add
from typing import Iterable, Iterator

from .errors import ContractViolationError
from .files import Sink, Source, opened, writing
from .mapping import map_to_sequence
from .model import (Affiliation, AuthorRecord, ContinentSequence, ContinentTable,
                    PublicationRecord)

SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class ExclusionPolicy:
    """Record-level exclusion cutoffs. The default reproduces the source
    protocol: drop an article when any author lists more than five
    affiliations."""

    max_affiliations_per_author: int = 5

    def __post_init__(self):
        if self.max_affiliations_per_author < 1:
            raise ValueError("max_affiliations_per_author must be >= 1")


class RejectReason(enum.Enum):
    TOO_MANY_AFFILIATIONS = "too_many_affiliations"
    COUNTRY_UNIDENTIFIABLE = "country_unidentifiable"


@dataclass(frozen=True, slots=True)
class MalformedRecord:
    """Notice for a line that could not be parsed into a record."""

    line_number: int
    message: str


@dataclass
class IngestReport:
    """Mergeable counters partitioning every record read.

    ``accepted + rejected_*`` always equals the number of records read;
    :meth:`merge` is associative and commutative, so partial reports from
    concurrent workers can be combined in any order.
    """

    accepted: int = 0
    rejected_too_many_affiliations: int = 0
    rejected_country_unidentifiable: int = 0
    rejected_malformed: int = 0

    @property
    def total(self) -> int:
        return sum(astuple(self))

    def merge(self, other: "IngestReport") -> "IngestReport":
        return IngestReport(*map(add, astuple(self), astuple(other)))

    def tally(self, result: RejectReason | ContinentSequence | None) -> None:
        """Count one :func:`classify` result (None, like a sequence, is accepted)."""
        if result is RejectReason.TOO_MANY_AFFILIATIONS:
            self.rejected_too_many_affiliations += 1
        elif result is RejectReason.COUNTRY_UNIDENTIFIABLE:
            self.rejected_country_unidentifiable += 1
        else:
            self.accepted += 1

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


class _SchemaError(Exception):
    pass


def _record_from_obj(obj, lean: bool = False):
    """The :class:`PublicationRecord` of a decoded corpus line, or with
    ``lean`` only its ``(pub_id, year, author_ids)``; either way every schema
    check runs, and a violation raises :class:`_SchemaError`."""
    if not isinstance(obj, dict):
        raise _SchemaError("record is not a JSON object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise _SchemaError(f"unsupported schema_version {version!r}")
    pub_id = obj.get("id")
    if not isinstance(pub_id, str) or not pub_id.strip():
        raise _SchemaError("missing or empty 'id'")
    year = obj.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        raise _SchemaError("'year' must be an integer")
    authors_raw = obj.get("authors")
    if not isinstance(authors_raw, list) or not authors_raw:
        raise _SchemaError("'authors' must be a non-empty array")
    authors = []
    for i, raw in enumerate(authors_raw):
        if not isinstance(raw, dict):
            raise _SchemaError(f"author {i} is not an object")
        author_id = raw.get("author_id")
        if not isinstance(author_id, str) or not author_id.strip():
            raise _SchemaError(f"author {i}: missing or empty 'author_id'")
        affs_raw = raw.get("affiliations")
        if not isinstance(affs_raw, list) or not affs_raw:
            raise _SchemaError(f"author {i}: 'affiliations' must be a non-empty array")
        affiliations = []
        for j, aff in enumerate(affs_raw):
            if not isinstance(aff, dict):
                raise _SchemaError(f"author {i}, affiliation {j}: not an object")
            institution = aff.get("institution")
            if not isinstance(institution, str) or not institution.strip():
                raise _SchemaError(f"author {i}, affiliation {j}: missing or empty 'institution'")
            country = aff.get("country")
            if country is not None and not isinstance(country, str):
                raise _SchemaError(f"author {i}, affiliation {j}: 'country' must be a string")
            if country is not None and not country.strip():
                country = None
            if not lean:
                affiliations.append(Affiliation(institution, country))
        authors.append(author_id if lean else AuthorRecord(author_id, tuple(affiliations)))
    if lean:
        return pub_id, year, authors
    return PublicationRecord(pub_id, year, tuple(authors))


def parse_record_line(line: str | bytes,
                      line_number: int = 0) -> PublicationRecord | MalformedRecord:
    """Parse one corpus line (bytes are decoded as UTF-8); schema violations
    become notices, not errors."""
    try:
        obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except UnicodeDecodeError as exc:
        return MalformedRecord(line_number, f"invalid UTF-8: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        return MalformedRecord(line_number, f"invalid JSON: {exc.msg}")
    try:
        return _record_from_obj(obj)
    except _SchemaError as exc:
        return MalformedRecord(line_number, str(exc))


def corpus_lines(lines: Iterable[str | bytes],
                 start: int = 1) -> Iterator[tuple[int, str | bytes]]:
    """Number the lines from ``start``, decode bytes as UTF-8 and drop blank
    lines. A line that does not decode is passed on as bytes, for
    :func:`parse_record_line` to report."""
    for line_number, line in enumerate(lines, start):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                yield line_number, line
                continue
        if line.strip():
            yield line_number, line


def parse_corpus(source: Source) -> Iterator[PublicationRecord | MalformedRecord]:
    """Stream records from a corpus file in input order.

    Yields :class:`PublicationRecord` for well-formed lines and
    :class:`MalformedRecord` (carrying the 1-based line number) otherwise.
    A file is read as bytes and split on newlines only. An unreadable source
    raises the underlying OSError; a malformed line never stops the stream.
    """
    with opened(source, binary=True) as lines:
        for line_number, line in corpus_lines(lines):
            yield parse_record_line(line, line_number)



def store_fields(source: Source) -> Iterator[tuple[str, int, list[str]]]:
    """Stream ``(pub_id, year, author_ids)`` from a corpus file in input order.

    Yields exactly the records :func:`parse_corpus` yields as
    :class:`PublicationRecord` (the same schema checks run), but builds no
    record; malformed lines are skipped without a notice.
    """
    with opened(source, binary=True) as lines:
        for _, line in corpus_lines(lines):
            if isinstance(line, bytes):  # not valid UTF-8
                continue
            try:
                yield _record_from_obj(json.loads(line), lean=True)
            except (json.JSONDecodeError, _SchemaError):
                continue

def classify(record: PublicationRecord, policy: ExclusionPolicy,
             table: ContinentTable) -> RejectReason | ContinentSequence:
    """The reject reason of one structurally valid record, or its continent
    sequence when it is accepted.

    The affiliation-count rule is evaluated for the whole record before the
    country rule, so a record that violates both is reported as
    TOO_MANY_AFFILIATIONS. The country rule is the mapping itself, which
    resolves each label once.
    """
    limit = policy.max_affiliations_per_author
    for author in record.authors:
        if len(author.affiliations) > limit:
            return RejectReason.TOO_MANY_AFFILIATIONS
    try:
        return map_to_sequence(record, table)
    except ContractViolationError:
        return RejectReason.COUNTRY_UNIDENTIFIABLE


def filter_record(record: PublicationRecord, policy: ExclusionPolicy,
                  table: ContinentTable) -> RejectReason | None:
    """The reject reason of :func:`classify`, or None for an accepted record."""
    result = classify(record, policy, table)
    return result if isinstance(result, RejectReason) else None


def record_to_json(record: PublicationRecord) -> str:
    """Serialize one record to its canonical single-line JSON form."""
    authors = []
    for author in record.authors:
        affiliations = []
        for aff in author.affiliations:
            entry = {"institution": aff.institution}
            if aff.country is not None:
                entry["country"] = aff.country
            affiliations.append(entry)
        authors.append({"author_id": author.author_id, "affiliations": affiliations})
    obj = {"schema_version": SCHEMA_VERSION, "id": record.pub_id,
           "year": record.year, "authors": authors}
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_corpus(records: Iterable[PublicationRecord], sink: Sink) -> int:
    """Write records to a corpus file; returns the number written."""
    count = 0
    with writing(sink) as handle:
        for record in records:
            handle.write(record_to_json(record))
            handle.write("\n")
            count += 1
    return count
