"""Corpus file parsing and the article-exclusion rules.

The corpus file format is line-delimited JSON, one publication per line:

    {"schema_version": 1,
     "id": "<publication id>",
     "year": 2020,
     "authors": [{"author_id": "<id>",
                  "affiliations": [{"institution": "<text>",
                                    "country": "<territory label>"}]}]}

``schema_version`` is required and must currently be the integer 1.
``country`` may be omitted (or null) when the source data does not identify
one; such records are later rejected as country-unidentifiable rather than
malformed. Unknown extra fields are ignored. Blank lines are skipped.
Every reader reads a line through one function, ``_decode_line``, which
decodes and parses it once and walks its authors once, checking them and
collecting their ids, the set of country labels and the largest affiliation
count, so neither ``map`` nor ``crawl`` walks a record again. Malformed
lines, lines that are not valid UTF-8 and lines whose strings hold an
unpaired surrogate, escaped or raw, never abort a run: they come back as
:class:`MalformedRecord` notices and are tallied in the :class:`IngestReport`.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import asdict, astuple, dataclass
from itertools import accumulate
from operator import add
from typing import Iterable, Iterator

from .errors import ContractViolationError
from .files import Sink, Source, opened, writing
from .mapping import labels_to_sequence, render_sequence
from .model import (Affiliation, AuthorRecord, ContinentSequence, ContinentTable,
                    PublicationRecord)

SCHEMA_VERSION = 1
MAX_NOTICES = 5  # malformed-line notices SequenceMapper.map_lines returns per call
_MEMO_SIZE = 1 << 16  # label sets a SequenceMapper remembers
_scan = json.JSONDecoder().scan_once  # json.loads's own scanner, without its wrappers
_JSON_SPACE = " \t\n\r"  # the whitespace json allows around a value; str.isspace() allows more
#: Deepest nesting of arrays and objects a corpus line may hold (a record needs 5). Far below
#: the recursion limit, so a line decodes alike however deep in the stack its caller sits.
MAX_DEPTH = 500
_STRING = re.compile(rb'"(?:[^"\\]+|\\.)*"?', re.S)  # a JSON string, or an unterminated rest
_NOT_BRACKET = re.compile(rb"[^][{}]+")


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
        """Count one :func:`classify` result; anything but a reject reason
        (a sequence, its text, None) is accepted."""
        if result is RejectReason.TOO_MANY_AFFILIATIONS:
            self.rejected_too_many_affiliations += 1
        elif result is RejectReason.COUNTRY_UNIDENTIFIABLE:
            self.rejected_country_unidentifiable += 1
        else:
            self.accepted += 1

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


def _depth(line: bytes) -> int:
    """How deep the arrays and objects of a JSON line nest, outside its strings."""
    brackets = _NOT_BRACKET.sub(b"", _STRING.sub(b"", line))
    return max(accumulate(1 if c in b"[{" else -1 for c in brackets), default=0)


def _decode_line(line: str | bytes) -> (tuple[str, int, list[str], frozenset, int, list]
                                        | str | None):
    """A corpus line's ``(pub_id, year, author_ids, labels, most, authors)``
    once every schema check has passed, None if it is blank, else the message
    of the first failed check. One walk over the authors checks them and
    collects the rest: ``author_ids`` in order, the set of country ``labels``
    (None for a blank or absent one), the ``most`` affiliations any author
    lists, and ``authors``, the line's own list of author objects, in which a
    blank ``country`` is set to None. A str is read as its UTF-8 bytes.

    The text is decoded by ``_scan``, the scanner of a default
    :class:`json.JSONDecoder`, from its first character. Its object is kept
    when only JSON whitespace follows it; any other line (one that fails,
    one with trailing data, leading whitespace or a byte-order mark) is
    decoded again by :func:`json.loads`, so it gets that function's result,
    and its exception and message, on whatever Python runs it. Before
    either, a line that nests deeper than :data:`MAX_DEPTH` is malformed;
    only a line with more ``[`` and ``{`` than that is scanned for depth."""
    if isinstance(line, str):
        try:
            line = line.encode("utf-8")
        except UnicodeEncodeError as exc:  # a raw surrogate, which no UTF-8 spells
            return f"invalid Unicode: unpaired surrogate at character {exc.start}"
    try:
        text = line.decode("utf-8")
        if (len(line) > MAX_DEPTH and line.count(b"[") + line.count(b"{") > MAX_DEPTH
                and _depth(line) > MAX_DEPTH):
            return f"JSON nested deeper than {MAX_DEPTH} levels"
        try:  # StopIteration too: let out, it would end a map() over the lines early
            obj, end = _scan(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end is None or text[end:].strip(_JSON_SPACE):
            obj = json.loads(text)  # not taken whole by the scanner: json.loads decides
        # decoded UTF-8 holds no surrogate, but a \ud800-\udfff escape can spell one
        if "\\" in text and re.search(r"\\u[dD][89a-fA-F]", text):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeDecodeError as exc:
        return f"invalid UTF-8: {exc.reason} at byte {exc.start}"
    except UnicodeEncodeError:
        return "invalid Unicode: unpaired surrogate escape"
    except (ValueError, RecursionError) as exc:  # also an overlong number or deep nesting
        # json.loads rejects every blank line, so only a failed line is tested
        return None if text.isspace() or not text else f"invalid JSON: {getattr(exc, 'msg', exc)}"
    if not isinstance(obj, dict):
        return "record is not a JSON object"
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not True, not 1.0
        return f"unsupported schema_version {version!r}"
    pub_id = obj.get("id")
    # `not s or s.isspace()` is `not s.strip()` without building a string
    if not isinstance(pub_id, str) or not pub_id or pub_id.isspace():
        return "missing or empty 'id'"
    year = obj.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        return "'year' must be an integer"
    authors = obj.get("authors")
    if not isinstance(authors, list) or not authors:
        return "'authors' must be a non-empty array"
    author_ids, labels, most = [], set(), 0
    for i, author in enumerate(authors):
        if not isinstance(author, dict):
            return f"author {i} is not an object"
        author_id = author.get("author_id")
        if not isinstance(author_id, str) or not author_id or author_id.isspace():
            return f"author {i}: missing or empty 'author_id'"
        affiliations = author.get("affiliations")
        if not isinstance(affiliations, list) or not affiliations:
            return f"author {i}: 'affiliations' must be a non-empty array"
        for j, aff in enumerate(affiliations):
            if not isinstance(aff, dict):
                return f"author {i}, affiliation {j}: not an object"
            institution = aff.get("institution")
            if not isinstance(institution, str) or not institution or institution.isspace():
                return f"author {i}, affiliation {j}: missing or empty 'institution'"
            country = aff.get("country")
            if country is not None:
                if not isinstance(country, str):
                    return f"author {i}, affiliation {j}: 'country' must be a string"
                if not country or country.isspace():
                    aff["country"] = country = None
            labels.add(country)
        author_ids.append(author_id)
        if len(affiliations) > most:
            most = len(affiliations)
    return pub_id, year, author_ids, frozenset(labels), most, authors


def _record(fields: tuple | str, line_number: int) -> PublicationRecord | MalformedRecord:
    """The record of :func:`_decode_line`'s fields, or the notice of its message."""
    if isinstance(fields, str):
        return MalformedRecord(line_number, fields)
    pub_id, year, _, _, _, authors = fields
    return PublicationRecord(pub_id, year, tuple(
        AuthorRecord(author["author_id"], tuple(
            Affiliation(aff["institution"], aff.get("country")) for aff in author["affiliations"]))
        for author in authors))


def parse_record_line(line: str | bytes,
                      line_number: int = 0) -> PublicationRecord | MalformedRecord:
    """Parse one corpus line (bytes are decoded as UTF-8); schema violations,
    and a blank line, become notices, not errors."""
    return _record(_decode_line(line) or "invalid JSON: Expecting value", line_number)


def parse_corpus(source: Source) -> Iterator[PublicationRecord | MalformedRecord]:
    """Stream records from a corpus file in input order, skipping blank lines.

    Yields :class:`PublicationRecord` for well-formed lines and
    :class:`MalformedRecord` (carrying the 1-based line number) otherwise.
    A file is read as bytes and split on newlines only. An unreadable source
    raises the underlying OSError; a malformed line never stops the stream.
    """
    with opened(source, binary=True) as lines:
        for line_number, fields in enumerate(map(_decode_line, lines), 1):
            if fields is not None:
                yield _record(fields, line_number)


def store_fields(lines: Iterable[bytes]) -> Iterator[tuple[str, int, list[str]] | str]:
    """Stream the ``(pub_id, year, author_ids)`` of each record that
    :func:`parse_corpus` would yield for ``lines``, or the message of its
    malformed line, in input order, but build no record."""
    for fields in map(_decode_line, lines):
        if type(fields) is tuple:
            yield fields[:3]
        elif fields is not None:
            yield fields


def classify(record: PublicationRecord, policy: ExclusionPolicy,
             table: ContinentTable) -> RejectReason | ContinentSequence:
    """The reject reason of one structurally valid record, or its continent
    sequence when it is accepted.

    The affiliation-count rule is evaluated for the whole record before the
    country rule, so a record that violates both is reported as
    TOO_MANY_AFFILIATIONS. The country rule is the mapping itself, which
    resolves each distinct label once.
    """
    limit = policy.max_affiliations_per_author
    if any(len(author.affiliations) > limit for author in record.authors):
        return RejectReason.TOO_MANY_AFFILIATIONS
    try:
        return labels_to_sequence({aff.country for author in record.authors
                                   for aff in author.affiliations}, table)
    except ContractViolationError:
        return RejectReason.COUNTRY_UNIDENTIFIABLE


def filter_record(record: PublicationRecord, policy: ExclusionPolicy,
                  table: ContinentTable) -> RejectReason | None:
    """The reject reason of :func:`classify`, or None for an accepted record."""
    result = classify(record, policy, table)
    return result if isinstance(result, RejectReason) else None


class SequenceMapper:
    """The fused ingest: corpus lines straight to the text and report of
    :func:`parse_corpus`, :func:`classify` and :func:`render_sequence`, but
    with no record built. Rule 2 and the rendering are memoized by the set of
    a record's raw country labels, for up to ``_MEMO_SIZE`` sets per mapper."""

    def __init__(self, policy: ExclusionPolicy, table: ContinentTable):
        self.policy, self.table = policy, table
        self._memo: dict[frozenset, str | RejectReason] = {}

    def map_lines(self, lines: Iterable[bytes]) -> tuple[str, IngestReport,
                                                         list[MalformedRecord], int]:
        """The accepted records' sequences, one per line; the report; the
        notices of the first :data:`MAX_NOTICES` malformed lines, numbered
        from 1; and the number of lines read."""
        limit, memo = self.policy.max_affiliations_per_author, self._memo
        notices, out = [], []
        number = accepted = too_many = unidentifiable = malformed = 0
        for number, fields in enumerate(map(_decode_line, lines), 1):
            if type(fields) is not tuple:
                if fields is not None:
                    malformed += 1
                    if len(notices) < MAX_NOTICES:
                        notices.append(MalformedRecord(number, fields))
            elif fields[4] > limit:  # rule 1, on the most affiliations of any author
                too_many += 1
            else:
                result = memo.get(fields[3]) or self._render(fields[3])
                if result is RejectReason.COUNTRY_UNIDENTIFIABLE:
                    unidentifiable += 1
                else:
                    accepted += 1
                    out.append(result)
        return ("".join(out), IngestReport(accepted, too_many, unidentifiable, malformed),
                notices, number)

    def _render(self, labels: frozenset) -> str | RejectReason:
        """The sequence line of a label set, or COUNTRY_UNIDENTIFIABLE."""
        try:
            rendered = render_sequence(labels_to_sequence(labels, self.table)) + "\n"
        except ContractViolationError:
            rendered = RejectReason.COUNTRY_UNIDENTIFIABLE
        if len(self._memo) < _MEMO_SIZE:
            self._memo[labels] = rendered
        return rendered


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
        for count, record in enumerate(records, 1):
            handle.write(record_to_json(record) + "\n")
    return count
