"""Breadth-first expansion of the co-authorship graph around a seed author.

The crawl visits authors layer by layer. A visited author's publications are
collected and their co-authors enqueued only while the author passes all
three criteria: distance from the seed at most ``max_distance``, at least
``min_total_publications`` publications overall, and a last publication no
older than ``min_last_publication_year``. Authors failing a criterion are
recorded as pruned; by default their own publications still count, but the
crawl does not continue through them. The seed itself is always expanded.
"""

from __future__ import annotations

import enum
import zlib
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, count
from pathlib import Path
from typing import Collection, Iterable, Protocol

import numpy as np

from .errors import UnknownAuthorError, UnknownPublicationError
from .files import read_ranges
from .ingest import store_fields
from .model import PublicationRecord


@dataclass(frozen=True, slots=True)
class CrawlPolicy:
    """Stopping criteria; the defaults reproduce the source protocol
    (distance six, fifty publications, last publication in 2015 or later)."""

    max_distance: int = 6
    min_total_publications: int = 50
    min_last_publication_year: int = 2015
    collect_pruned_publications: bool = True

    def __post_init__(self):
        if self.max_distance < 0:
            raise ValueError("max_distance must be >= 0")
        if self.min_total_publications < 1:
            raise ValueError("min_total_publications must be >= 1")


@dataclass(frozen=True, slots=True)
class AuthorProfile:
    author_id: str
    total_publications: int
    last_publication_year: int

    def __post_init__(self):
        if self.total_publications < 1:
            raise ValueError("total_publications must be >= 1")


class PruneReason(enum.Enum):
    # checked in this order; the first failing criterion is reported
    DISTANCE_EXCEEDED = "distance_exceeded"
    LOW_PRODUCTIVITY = "low_productivity"
    STALE = "stale"


class PublicationStore(Protocol):
    """Query interface the crawl runs against.

    Implementations must answer consistently for the duration of a crawl:
    ``a in authors_of(p)`` iff ``p in publications_of(a)``, and profiles must
    agree with the publication sets. A client for a live bibliographic API
    would implement this same contract. The id queries may answer with any
    collection, a list for example: the crawl only iterates them. A
    :class:`CorpusStore` answers with lists that hold each id once.
    """

    def publications_of(self, author_id: str) -> Collection[str]: ...

    def authors_of(self, pub_id: str) -> Collection[str]: ...

    def profile(self, author_id: str) -> AuthorProfile: ...


#: Ids of one kind as buffers: their UTF-8 bytes one after another
#: (``uint8``), the ``int64`` end of each id's bytes, and each id's ``uint32``
#: digest. The ends stay ``int64`` while parts are merged; only the finished
#: store narrows its offsets.
Blob = tuple[np.ndarray, np.ndarray, np.ndarray]

#: One range's index columns: its publication ids, their years, the ``int64``
#: end of each record's author numbers, those ``int32`` numbers, the author
#: ids that the numbers index, in first-seen order, and the number of
#: malformed lines in the range.
Columns = tuple[Blob, np.ndarray, np.ndarray, np.ndarray, Blob, int]

#: The digest of an id's bytes. It depends on the bytes alone, so every
#: process and every run agrees on it, and a match is confirmed by comparing
#: the bytes, so ids whose digests collide are told apart. CRC-32 is not a
#: cryptographic digest: a corpus can be made whose ids share one. The cost
#: grows with how many do: for k distinct ids of one digest, the build's
#: merge makes about k rounds and each lookup compares up to k ids' bytes.
_digest = zlib.crc32
_CHUNK = 1 << 16  # pairs of ids that _same compares, or rows _gathered copies, at once
_LOW = 0xFFFFFFFF
#: A finished column is kept in 4 bytes per entry when its values fit: offsets
#: below this limit as ``uint32``, years within half of it either side of 0
#: as ``int32``. Otherwise it stays in 8 bytes.
_LIMIT = 1 << 32
_NO_ANSWER = ((), ())


def _numbering() -> defaultdict:
    """A dict that numbers each new key on lookup: 0, 1, 2, ..."""
    return defaultdict(count().__next__)


def _blob(ids: list[str]) -> Blob:
    # surrogatepass: a record built in code may hold an unpaired surrogate
    encoded = [id_.encode("utf-8", "surrogatepass") for id_ in ids]
    return (np.frombuffer(b"".join(encoded), dtype=np.uint8),
            np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))),
            np.fromiter(map(_digest, encoded), dtype=np.uint32, count=len(encoded)))


def _columns(entries: Iterable[tuple[str, int, list[str]] | str]) -> Columns:
    """The columns of ``(pub_id, year, author_ids)`` entries, counting each
    str entry (a malformed line's message) as a malformed line; an author
    listed twice in one entry counts once."""
    pub_ids, years, ends, members, authors = [], [], array("q"), array("i"), _numbering()
    malformed = 0
    for entry in entries:
        if type(entry) is str:
            malformed += 1
            continue
        pub_id, year, author_ids = entry
        pub_ids.append(pub_id)
        years.append(year)
        members.extend(map(authors.__getitem__, dict.fromkeys(author_ids)))
        ends.append(len(members))
    try:
        years = np.array(years, dtype=np.int64)
    except OverflowError:  # exact ints: a year beyond int64 makes an object array
        years = np.array(years, dtype=object)
    return (_blob(pub_ids), years, np.frombuffer(ends, dtype=np.int64),
            np.frombuffer(members, dtype=np.int32), _blob(list(authors)), malformed)


def _file_columns(lines: Iterable[bytes]) -> Columns:
    """The columns of some corpus lines (a range worker's task)."""
    return _columns(store_fields(lines))


def _stacked(arrays: Iterable[np.ndarray], sizes: list[int]) -> np.ndarray:
    """``arrays`` one after another, each raised by the total of the
    ``sizes`` before it: offsets or numbers within parts become offsets or
    numbers within the whole. The totals are Python ints, so each part
    keeps its dtype."""
    return np.concatenate([a + s for a, s in zip(arrays, accumulate(sizes[:-1], initial=0))])


def _joined(blobs: Iterable[Blob]) -> Blob:
    """Blobs one after another, as one."""
    datas, ends, digests = zip(*blobs)
    return (np.concatenate(datas), _stacked(ends, [len(d) for d in datas]),
            np.concatenate(digests))


def _gathered(values: np.ndarray, ends: np.ndarray,
              rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``rows`` (indices) of the rows of ``values`` that end at ``ends``,
    one after another, and their ends.

    The rows are copied a chunk at a time, so the temporaries stay small
    however many rows there are."""
    lengths = np.diff(ends, prepend=0)
    new_ends = np.cumsum(lengths[rows])
    out = np.empty(new_ends[-1] if len(rows) else 0, dtype=values.dtype)
    for chunk in range(0, len(rows), _CHUNK):
        part, stops = rows[chunk:chunk + _CHUNK], new_ends[chunk:chunk + _CHUNK]
        sizes = lengths[part]
        start, stop = stops[0] - sizes[0], stops[-1]
        # each copied byte's position in out, shifted by its row's move
        out[start:stop] = values[np.arange(start, stop) + np.repeat(ends[part] - stops, sizes)]
    return out, new_ends


def _reordered(ids: Blob, rows: np.ndarray) -> Blob:
    """The ids of ``rows`` (indices), in that order."""
    data, ends, digests = ids
    return *_gathered(data, ends, rows), digests[rows]


def _narrowed(column: np.ndarray, signed: bool = False) -> np.ndarray:
    """``column`` as ``int32`` (``signed``) or ``uint32`` if each of its
    values fits there under ``_LIMIT``, else as it is."""
    low, high = (-(_LIMIT >> 1), _LIMIT >> 1) if signed else (0, _LIMIT)
    if len(column) and not (low <= column.min() and column.max() < high):
        return column
    return column.astype(np.int32 if signed else np.uint32)


def _pairs(keys: np.ndarray) -> np.ndarray:
    """``key << 32 | index`` for each of ``keys`` (each below 2**32), sorted:
    the keys in order and, in the low 32 bits, their stable argsort."""
    pairs = keys.astype(np.uint64) << 32
    pairs |= np.arange(len(keys), dtype=np.uint64)
    pairs.sort()
    return pairs


def _firsts(ids: Blob) -> np.ndarray:
    """For each id, the index of the first id with the same bytes.

    The ids are sorted stably by digest. In each run of equal digests, the
    ids whose bytes equal those of the run's first one are matched to it;
    the rest, whose digests collide with it, go round again."""
    data, ends, digests = ids
    offsets = np.concatenate(([0], ends))
    pairs = _pairs(digests)
    runs, todo = (pairs >> 32).astype(np.uint32), (pairs & _LOW).astype(np.uint32)
    del pairs  # todo: the ids not yet matched, by digest
    firsts = np.empty(len(todo), dtype=np.uint32)
    while len(todo):
        same = np.concatenate(([True], runs[1:] != runs[:-1]))  # a run's head matches itself
        heads = np.where(same, np.arange(len(todo), dtype=np.uint32), 0)
        np.maximum.accumulate(heads, out=heads)
        heads = todo[heads]  # each id's run head
        later = ~same
        same[later] = _same(data, offsets, todo[later], heads[later])
        del later
        firsts[todo[same]] = heads[same]
        todo, runs = todo[~same], runs[~same]
    return firsts


def _same(data: np.ndarray, offsets: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether id ``a[i]`` has the bytes of id ``b[i]``, for each i.

    The ids are compared a chunk at a time and a byte position at a time,
    so the temporaries stay small however long the ids are."""
    same = np.empty(len(a), dtype=bool)
    for chunk in range(0, len(a), _CHUNK):
        a_ids, b_ids = a[chunk:chunk + _CHUNK], b[chunk:chunk + _CHUNK]
        a_starts, b_starts = offsets[a_ids], offsets[b_ids]
        lengths = offsets[a_ids + 1] - a_starts
        part = same[chunk:chunk + _CHUNK]
        np.equal(lengths, offsets[b_ids + 1] - b_starts, out=part)
        at, k = np.flatnonzero(part), 0  # the pairs equal up to byte k
        while len(at := at[lengths[at] > k]):
            part[at] = data[a_starts[at] + k] == data[b_starts[at] + k]
            at, k = at[part[at]], k + 1
    return same


class _Ids:
    """Ids of one kind, numbered in digest order: their UTF-8 bytes one
    after another under offsets, and their ``uint32`` digests, sorted, so an
    id's number is the position of its digest. The offsets are ``uint32``
    if the bytes total under 4 GiB, else ``int64``."""

    __slots__ = ("_data", "_offsets", "_digests")

    def __init__(self, ids: Blob):
        data, ends, digests = ids
        self._data = data.tobytes()
        self._offsets = memoryview(_narrowed(np.concatenate(([0], ends))))
        self._digests = memoryview(digests)

    def __len__(self) -> int:
        return len(self._digests)

    def number(self, id_: str) -> int | None:
        """The number of ``id_``, or None if it is not here."""
        key = id_.encode("utf-8", "surrogatepass")  # as _blob encodes
        digest = _digest(key)
        data, offsets, digests = self._data, self._offsets, self._digests
        number = bisect_left(digests, digest)
        while number < len(digests) and digests[number] == digest:
            if data[offsets[number]:offsets[number + 1]] == key:
                return number
            number += 1
        return None

    def decoded(self, numbers: Iterable[int]) -> list[str]:
        data, offsets = self._data, self._offsets
        return [str(data[offsets[n]:offsets[n + 1]], "utf-8", "surrogatepass")
                for n in numbers]


class CorpusStore:
    """In-memory :class:`PublicationStore` indexed from publication records.

    Only each record's publication id, year and author ids are kept, and in
    buffers, not in a Python object per id. The ids of each kind are one
    UTF-8 blob, numbered in the order of their CRC-32 digests, so the sorted
    ``uint32`` digests are the lookup keys and an id's number is its
    digest's position. A query bisects the digests for its id's and compares
    bytes, so ids whose digests collide are told apart, and it decodes only
    the ids it returns. Both directions of the co-authorship graph are
    compressed sparse rows of ``int32`` members; an author's row lists its
    publications in record order. An offset column is ``uint32`` while its
    last offset is below 2**32, and the authors' last years are ``int32``
    when every one fits; otherwise a column is 8 bytes wide. The index
    costs the cyclic garbage collector nothing. An author listed twice in
    one record counts once. An id query answers with a list of one row's
    ids, each id once; a profile is built on demand.
    :meth:`authors_of` skips the lookup for an id object that the last
    :meth:`publications_of` answer listed, asked for in that answer's order.

    Range workers return each range's ids as blobs, and the build merges
    them with numpy alone: equal digests next to each other under a stable
    sort, confirmed by bytes, find the first record of each publication id
    and make byte-equal author ids from different ranges one author.

    Profiles are store-wide: an author's publication count and last year are
    computed over everything in the store, not over what a crawl collects.
    A repeated publication id raises ValueError, except in :meth:`from_file`.
    """

    duplicates_skipped = 0  # records from_file skipped for a repeated publication id
    malformed_skipped = 0  # malformed lines from_file skipped
    # the last publications_of answer and its numbers, until authors_of passes it
    _answer, _cursor = _NO_ANSWER, 0

    def __init__(self, records: Iterable[PublicationRecord]):
        _, duplicate, _ = self._index([_columns(
            (r.pub_id, r.year, [a.author_id for a in r.authors]) for r in records)])
        if duplicate is not None:
            raise ValueError(f"duplicate publication id {duplicate!r}")

    def _index(self, parts: Iterable[Columns]) -> tuple[int, str | None, int]:
        """Index the columns of consecutive parts of a corpus, keeping the
        first record of each publication id; return the number of other
        records, the id of the first of them (None if there is none) and the
        number of malformed lines."""
        pubs, years, ends, members, authors, malformed = zip(_columns(()), *parts)
        del parts  # each column's parts go as soon as the column is joined
        malformed = sum(malformed)
        pubs, years = _joined(pubs), np.concatenate(years)
        pub_ends = _stacked(ends, [len(m) for m in members])
        members = _stacked(members, [len(e) for _, e, _ in authors])
        authors = _joined(authors)
        del ends

        kept = _firsts(pubs) == np.arange(len(years))
        duplicates = len(kept) - int(np.count_nonzero(kept))
        duplicate = None
        if duplicates:
            data, id_ends, _ = pubs
            first = int(np.argmin(kept))
            start = id_ends[first - 1] if first else 0
            duplicate = str(data[start:id_ends[first]], "utf-8", "surrogatepass")
            kept = np.flatnonzero(kept)
            members, pub_ends = _gathered(members, pub_ends, kept)
            pubs, years = _reordered(pubs, kept), years[kept]
        del kept
        # merge byte-equal authors, drop those that only skipped records
        # list, and number the rest in digest order
        members = _firsts(authors)[members]
        used = np.zeros(len(authors[1]), dtype=bool)
        used[members] = True
        rows = np.flatnonzero(used)
        del used
        rows = rows[np.argsort(authors[2][rows], kind="stable")]
        numbers = np.empty(len(authors[1]), dtype=np.int32)
        numbers[rows] = np.arange(len(rows), dtype=np.int32)
        members = numbers[members]
        authors = _reordered(authors, rows)
        del rows, numbers

        records = np.repeat(np.arange(len(years), dtype=np.int32), np.diff(pub_ends, prepend=0))
        author_members = _pairs(members)  # by author, then record
        author_members &= _LOW
        author_members = records[author_members]
        del records
        counts = np.bincount(members, minlength=len(authors[2]))
        author_offsets = np.concatenate(([0], np.cumsum(counts)))
        del counts
        # reduceat needs every row non-empty: each author has a publication.
        # An object array of years (one beyond int64) works too.
        last_years = np.maximum.reduceat(years[author_members], author_offsets[:-1])
        del years
        # number the publications in digest order too; an author's row
        # keeps its records' order
        rows = np.argsort(pubs[2], kind="stable")
        numbers = np.empty(len(rows), dtype=np.int32)
        numbers[rows] = np.arange(len(rows), dtype=np.int32)
        author_members = numbers[author_members]
        del numbers
        members, pub_ends = _gathered(members, pub_ends, rows)
        pubs = _reordered(pubs, rows)
        del rows

        self._pubs, self._authors = _Ids(pubs), _Ids(authors)
        # the blobs go before the last columns are narrowed, which then
        # reuse their space rather than grow the heap
        del pubs, authors
        # memoryviews index and slice to Python ints, not numpy scalars
        self._pub_members = memoryview(members)
        self._pub_offsets = memoryview(_narrowed(np.concatenate(([0], pub_ends))))
        self._author_members = memoryview(author_members)
        self._author_offsets = memoryview(_narrowed(author_offsets))
        last_years = _narrowed(last_years, signed=True)
        # an object array of years has no buffer; it is the rare case
        self._last_years = (last_years.tolist() if last_years.dtype == object
                            else memoryview(last_years))
        return duplicates, duplicate, malformed

    @classmethod
    def from_file(cls, path: str | Path) -> "CorpusStore":
        """Index a corpus file, skipping malformed lines.

        The store indexes all structurally valid records: the crawl operates
        on the raw collection, and the article-exclusion rules apply later,
        at mapping time. Of records sharing a publication id the first is
        kept; ``duplicates_skipped`` counts the rest, and
        ``malformed_skipped`` the malformed lines. The file is read by
        :func:`~contseq.files.read_ranges` on one worker per core; the store
        does not depend on their number.
        """
        store = cls.__new__(cls)
        store.duplicates_skipped, _, store.malformed_skipped = store._index(
            read_ranges(path, _file_columns))
        return store

    def _author(self, author_id: str) -> int:
        a = self._authors.number(author_id)
        if a is None:
            raise UnknownAuthorError(f"unknown author {author_id!r}")
        return a

    def publications_of(self, author_id: str) -> list[str]:
        a = self._author(author_id)
        offsets = self._author_offsets
        numbers = self._author_members[offsets[a]:offsets[a + 1]]
        ids = self._pubs.decoded(numbers)
        # a copy: the caller may reorder the list it gets
        self._answer, self._cursor = (tuple(ids), numbers), 0
        return ids

    def authors_of(self, pub_id: str) -> list[str]:
        p = self._answered(pub_id)
        if p is None:
            p = self._pubs.number(pub_id)
            if p is None:
                raise UnknownPublicationError(f"unknown publication {pub_id!r}")
        offsets = self._pub_offsets
        return self._authors.decoded(self._pub_members[offsets[p]:offsets[p + 1]])

    def _answered(self, pub_id: str) -> int | None:
        """The number of ``pub_id`` if the last :meth:`publications_of`
        answer lists this very object at or after the cursor, else None.

        A crawl asks for the authors of an answer's publications in the
        order it got them, so the walk from the cursor is short and the
        lookup is skipped. A miss, or a match at the end, drops the answer,
        so a caller that asks in any other order pays one walk per answer."""
        (ids, numbers), start = self._answer, self._cursor
        for at in range(start, len(ids)):
            if ids[at] is pub_id:
                if at + 1 < len(ids):
                    self._cursor = at + 1
                else:
                    self._answer = _NO_ANSWER
                return numbers[at]
        self._answer = _NO_ANSWER
        return None

    def profile(self, author_id: str) -> AuthorProfile:
        a = self._author(author_id)
        offsets = self._author_offsets
        return AuthorProfile(author_id, offsets[a + 1] - offsets[a], self._last_years[a])

    def author_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._authors.decoded(range(len(self._authors)))))

    def publication_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._pubs.decoded(range(len(self._pubs)))))


@dataclass
class CrawlResult:
    seed: str
    distances: dict[str, int]
    publication_ids: set[str]
    frontier_pruned: dict[str, PruneReason] = field(default_factory=dict)


def prune_reason(profile: AuthorProfile, distance: int,
                 policy: CrawlPolicy) -> PruneReason | None:
    """First stopping criterion the author fails, or None if expandable."""
    if distance > policy.max_distance:
        return PruneReason.DISTANCE_EXCEEDED
    if profile.total_publications < policy.min_total_publications:
        return PruneReason.LOW_PRODUCTIVITY
    if profile.last_publication_year < policy.min_last_publication_year:
        return PruneReason.STALE
    return None


def crawl(store: PublicationStore, seed: str,
          policy: CrawlPolicy | None = None) -> CrawlResult:
    """Breadth-first crawl from ``seed`` under ``policy``.

    Every discovered author is recorded at their minimal distance over the
    expanded subgraph. Each BFS layer is processed in sorted author-id order,
    so results are fully deterministic. Raises
    :class:`~contseq.errors.UnknownAuthorError` when the seed is not in the
    store; store failures propagate.
    """
    if policy is None:
        policy = CrawlPolicy()
    store.profile(seed)  # seed must exist
    distances: dict[str, int] = {seed: 0}
    pruned: dict[str, PruneReason] = {}
    # Until the last layer, the expanded authors' publications. A publication's
    # first listing reaches each co-author at the least distance.
    publications: set[str] = set()
    frontier = [seed]
    while frontier:
        next_frontier: list[str] = []
        for author in sorted(frontier):
            distance = distances[author]
            # the seed is exempt from all criteria (fixed by construction)
            reason = None if author == seed else prune_reason(
                store.profile(author), distance, policy)
            if reason is not None:
                pruned[author] = reason
                continue
            for pub_id in store.publications_of(author):
                if pub_id in publications:
                    continue
                publications.add(pub_id)
                for coauthor in store.authors_of(pub_id):
                    if coauthor not in distances:
                        distances[coauthor] = distance + 1
                        next_frontier.append(coauthor)
        frontier = next_frontier
    if policy.collect_pruned_publications:
        for author in pruned:
            publications.update(store.publications_of(author))
    return CrawlResult(seed, distances, publications, pruned)
