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
The one schema check is ``_decode_line``, which decodes and parses a line
once and walks its authors once, checking them and collecting their ids, the
set of country labels and the largest affiliation count, so neither ``map``
nor ``crawl`` walks a record again. Two readers skip it for lines it would
accept: ``map`` does not decode a line at all when it has seen the line's
tail before, and remembers at most 1 MiB of tails (see
:class:`SequenceMapper`); ``crawl``'s :func:`store_fields` reads a line in
:func:`record_to_json`'s layout with one compiled grammar, ``_RECORD``,
which takes only lines that ``_decode_line`` accepts, and hands it every
other line. Either way a line gets the outcome ``_decode_line`` gives it.
Malformed lines, lines that are not valid UTF-8 and lines whose strings hold
an unpaired surrogate, escaped or raw, never abort a run: they come back as
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
_scan = json.JSONDecoder().scan_once  # json.loads's own scanner, without its wrappers
_JSON_SPACE = " \t\n\r"  # the whitespace json allows around a value; str.isspace() allows more
#: Deepest nesting of arrays and objects a corpus line may hold (a record needs 5). Far below
#: the recursion limit, so a line decodes alike however deep in the stack its caller sits.
MAX_DEPTH = 500
_STRING = re.compile(rb'"(?:[^"\\]+|\\.)*"?', re.S)  # a JSON string, or an unterminated rest
_NOT_BRACKET = re.compile(rb"[^][{}]+")
_HEAD_TEXT = '{"schema_version":1,"id":"'  # how every line in record_to_json's layout starts
_HEAD = _HEAD_TEXT.encode()
_YEAR = "-?(?:0|[1-9][0-9]{0,17})"  # a year of at most 18 digits, written as json writes it
#: The head of a line in :func:`record_to_json`'s layout, up to the authors
#: value: an id with no escape or control byte and a year of at most 18 digits.
#: json's parser is in one state after any head this matches, so the rest of
#: the line, its tail, alone decides the line's outcome, given an id that
#: decodes and is not blank.
_CANONICAL = re.compile(
    (re.escape(_HEAD_TEXT) + r'([^"\\\x00-\x1f]+)","year":' + _YEAR + ',"authors":').encode())
_TAIL_BUDGET = 1 << 20  # bytes of tails a SequenceMapper remembers
# Each quantified part of the grammar below is followed by a character it cannot
# match, so a line the grammar does not take fails in time linear in its length.
_CHAR = r'[^"\\\x00-\x1f]'  # a string character json reads as itself
# a string that is not blank: its first character that is not whitespace
# (re's \s is str.isspace()) is none of json's control characters
_NAME = rf'[^\S\x00-\x1f]*[^"\\\x00-\x1f\s]{_CHAR}*'
_AFFILIATION = rf'\{{"institution":"{_NAME}"(?:,"country":"{_CHAR}*")?\}}'
_AUTHOR = rf'\{{"author_id":"{_NAME}","affiliations":\[{_AFFILIATION}(?:,{_AFFILIATION})*\]\}}'
#: A whole line in :func:`record_to_json`'s layout that :func:`_decode_line`
#: accepts: no string holds an escape or a control character, the id, each
#: author id and each institution is not blank, the year is written as in
#: ``_CANONICAL``, and only JSON whitespace follows the record. Its groups are
#: the id and the year.
_RECORD = re.compile(
    rf'{re.escape(_HEAD_TEXT)}({_NAME})","year":({_YEAR}),'
    rf'"authors":\[{_AUTHOR}(?:,{_AUTHOR})*\]\}}[ \t\n\r]*')
#: An author id in a line ``_RECORD`` matches, whose strings hold no ``"``.
_AUTHOR_ID = re.compile(r'"author_id":"([^"]*)"')


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


def _decode_line(line: str | bytes) -> tuple[str, int, list[str], set, int, list] | str | None:
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
    return pub_id, year, author_ids, labels, most, authors


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
    malformed line, in input order, but build no record.

    A line that starts with ``_HEAD`` and decodes as UTF-8 is first tried
    against ``_RECORD``, whose match gives those fields; every other line
    goes to :func:`_decode_line` unchanged, so it gets that function's
    fields or message."""
    record, author_ids = _RECORD.fullmatch, _AUTHOR_ID.findall
    for line in lines:
        if line.startswith(_HEAD):
            try:
                match = record(line.decode())
            except UnicodeDecodeError:  # _decode_line words the message
                match = None
            if match:
                yield match[1], int(match[2]), author_ids(match.string)
                continue
        fields = _decode_line(line)
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
    with no record built.

    A line whose head matches ``_CANONICAL`` (the layout
    :func:`record_to_json` writes, up to ``"authors":``) looks up its tail,
    the bytes after that head, line ending included, in a memo that maps a
    tail to the line's outcome: its sequence line, or the reject reason of
    rule 1 or 2. A hit decodes nothing but the head's id, which must be
    valid UTF-8 and not blank; any other line is decoded whole, and its
    labels are resolved by the table, whose per-label cache is the only
    label cache on this path. Only a canonical line that decoded whole stores its
    tail, while the tails stored total at most ``_TAIL_BUDGET`` bytes
    (1 MiB), so that is all a mapper holds, however varied the label sets.
    This pays on a corpus whose records repeat an authors array byte for
    byte, as ``gen``'s do; on one of distinct author lists nearly every line
    misses, so a mapper whose memo is full and has been hit fewer times than
    it holds tails empties it and stops looking."""

    def __init__(self, policy: ExclusionPolicy, table: ContinentTable):
        self.policy, self.table = policy, table
        self._tails: dict[bytes, str | RejectReason] = {}
        self._room, self._hits, self._looking = _TAIL_BUDGET, 0, True

    def map_lines(self, lines: Iterable[bytes]) -> tuple[str, IngestReport,
                                                         list[MalformedRecord], int]:
        """The accepted records' sequences, one per line; the report; the
        notices of the first :data:`MAX_NOTICES` malformed lines, numbered
        from 1; and the number of lines read."""
        limit, table, tails = self.policy.max_affiliations_per_author, self.table, self._tails
        canonical, looking = _CANONICAL.match, self._looking
        too_many_affiliations = RejectReason.TOO_MANY_AFFILIATIONS
        unidentifiable_country = RejectReason.COUNTRY_UNIDENTIFIABLE
        notices, out = [], []
        number = accepted = too_many = unidentifiable = malformed = hits = 0
        for number, line in enumerate(lines, 1):
            head = looking and type(line) is bytes and canonical(line)
            tail = line[head.end():] if head else None
            result = tails.get(tail)
            if result is not None:
                try:  # all a hit leaves to check: the head's id decodes and is not blank
                    if head[1].decode().isspace():
                        result = None
                except UnicodeDecodeError:
                    result = None
            if result is not None:
                hits += 1
            else:
                fields = _decode_line(line)
                if type(fields) is not tuple:
                    if fields is not None:
                        malformed += 1
                        if len(notices) < MAX_NOTICES:
                            notices.append(MalformedRecord(number, fields))
                    continue
                if fields[4] > limit:  # rule 1, on the most affiliations of any author
                    result = too_many_affiliations
                else:
                    try:  # rule 2 is the mapping itself
                        result = render_sequence(labels_to_sequence(fields[3], table)) + "\n"
                    except ContractViolationError:
                        result = unidentifiable_country
                if tail is not None and tail not in tails:
                    if len(tail) <= self._room:
                        tails[tail] = result
                        self._room -= len(tail)
                    elif self._hits + hits < len(tails):  # full, and hit less than it holds
                        looking = self._looking = False
                        tails.clear()
            if result is too_many_affiliations:
                too_many += 1
            elif result is unidentifiable_country:
                unidentifiable += 1
            else:
                accepted += 1
                out.append(result)
        self._hits += hits
        return ("".join(out), IngestReport(accepted, too_many, unidentifiable, malformed),
                notices, number)


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
