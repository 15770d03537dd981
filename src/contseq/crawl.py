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
from typing import AbstractSet, Collection, Iterable, Iterator, Protocol

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
    collection, a list for example: the crawl only iterates them, numbering
    each id the first time it meets it. A :class:`CorpusStore` answers with
    lists that hold each id once, and the crawl reads its numbers directly.
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
_CHUNK = 1 << 16  # ids that _same or _in_order reads, or rows _gathered copies, at once
_LOW = 0xFFFFFFFF
#: A finished column is kept in 4 bytes per entry when its values fit: offsets
#: below this limit as ``uint32``, years within half of it either side of 0
#: as ``int32``. Otherwise it stays in 8 bytes.
_LIMIT = 1 << 32


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


def _in_order(data: np.ndarray, offsets: np.ndarray, order: np.ndarray) -> None:
    """Sort ``order``, the ``uint32`` numbers of distinct ids (the bytes of
    ``data`` between ``offsets``), in place by the ids' bytes: for UTF-8,
    code-point order, as ``sorted`` sorts them.

    Each round sorts the ids that tie on the bytes before it by their next
    three bytes, padded with zeros, then by how many of the three they
    have, so an id comes before its extensions, zero bytes included; ids
    that still tie go round again. The keys are built a chunk at a time, so
    the temporaries take under 30 bytes per id, however long the ids are."""
    at = np.arange(len(order), dtype=np.uint32)  # the positions still tied, run by run
    keys = np.zeros(len(order), dtype=np.uint64)  # the first position of each one's run << 32
    depth = 0
    while len(at) > 1:  # one id alone, or none, is in order (and may have no bytes)
        for chunk in range(0, len(at), _CHUNK):
            ids = order[at[chunk:chunk + _CHUNK]]
            starts = offsets[ids] + depth
            left = offsets[ids + 1] - starts
            key = np.minimum(left, 3).astype(np.uint64)
            for k in range(3):
                byte = data.take(starts + k, mode="clip") * (left > k)
                key |= byte.astype(np.uint64) << np.uint64(24 - 8 * k)
            keys[chunk:chunk + _CHUNK] |= key
        sort = np.argsort(keys)
        keys.sort()
        sort = at[sort]
        order[at] = order[sort]  # each run keeps its positions
        del sort
        # tied with the one before: the same run, then the same three bytes
        tied = np.concatenate(([False], (keys[1:] == keys[:-1]) & (keys[1:].astype(np.uint8) == 3)))
        del keys
        member = tied.copy()
        member[:-1] |= tied[1:]
        runs = np.where(tied, 0, at)
        np.maximum.accumulate(runs, out=runs)
        at, keys, depth = at[member], runs[member].astype(np.uint64), depth + 3
        keys <<= np.uint64(32)


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

    def marks(self) -> bytearray:
        """A zero mark per number."""
        return bytearray(len(self))

    def ordered(self, marks: bytearray) -> Iterator[str]:
        """The ids of the marked numbers, sorted, decoded a chunk at a time."""
        order = np.flatnonzero(np.frombuffer(marks, dtype=np.uint8)).astype(np.uint32)
        _in_order(np.frombuffer(self._data, dtype=np.uint8), np.asarray(self._offsets), order)
        for chunk in range(0, len(order), _CHUNK):
            yield from self.decoded(order[chunk:chunk + _CHUNK].tolist())


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
    ids, each id once; a profile is built on demand. :func:`crawl` asks
    the same questions by number, so it looks up only its seed and decodes
    only the author ids it sorts and the publication ids it writes.

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

    # The numbered queries crawl() asks, of _authors and _pubs too;
    # _Numbering asks them of any store.

    def _author(self, author_id: str) -> int:
        a = self._authors.number(author_id)
        if a is None:
            raise UnknownAuthorError(f"unknown author {author_id!r}")
        return a

    def _profile(self, a: int, author_id: str) -> AuthorProfile:
        offsets = self._author_offsets
        return AuthorProfile(author_id, offsets[a + 1] - offsets[a], self._last_years[a])

    def _pubs_of(self, a: int) -> memoryview:
        offsets = self._author_offsets
        return self._author_members[offsets[a]:offsets[a + 1]]

    def _authors_in(self, p: int) -> memoryview:
        offsets = self._pub_offsets
        return self._pub_members[offsets[p]:offsets[p + 1]]

    def publications_of(self, author_id: str) -> list[str]:
        return self._pubs.decoded(self._pubs_of(self._author(author_id)))

    def authors_of(self, pub_id: str) -> list[str]:
        p = self._pubs.number(pub_id)
        if p is None:
            raise UnknownPublicationError(f"unknown publication {pub_id!r}")
        return self._authors.decoded(self._authors_in(p))

    def profile(self, author_id: str) -> AuthorProfile:
        return self._profile(self._author(author_id), author_id)

    def author_ids(self) -> tuple[str, ...]:
        return tuple(self._authors.ordered(bytearray(b"\1") * len(self._authors)))

    def publication_ids(self) -> tuple[str, ...]:
        return tuple(self._pubs.ordered(bytearray(b"\1") * len(self._pubs)))


class _Met(dict):
    """Ids numbered as they are met (id -> number), with each number's id in
    ``ids``; it answers as :class:`_Ids` does, and its marks grow with it."""

    number = dict.get

    def __init__(self):
        self.ids, self._marks = [], bytearray()

    def __missing__(self, id_: str) -> int:
        self[id_] = len(self.ids)
        self.ids.append(id_)
        self._marks.append(0)
        return self[id_]

    def decoded(self, numbers: Iterable[int]) -> list[str]:
        return [self.ids[n] for n in numbers]

    def marks(self) -> bytearray:
        return self._marks

    def ordered(self, marks: bytearray) -> Iterator[str]:
        return iter(sorted(id_ for id_, mark in zip(self.ids, marks) if mark))


class _Numbering:
    """Any :class:`PublicationStore`, asked by number as :func:`crawl` asks
    a :class:`CorpusStore`, numbering each id the first time an answer
    holds it."""

    def __init__(self, store: PublicationStore):
        self._store, self._authors, self._pubs = store, _Met(), _Met()

    def _author(self, author_id: str) -> int:
        self._store.profile(author_id)  # raises for an unknown author
        return self._authors[author_id]

    def _profile(self, a: int, author_id: str) -> AuthorProfile:
        return self._store.profile(author_id)

    def _pubs_of(self, a: int) -> list[int]:
        return [*map(self._pubs.__getitem__, self._store.publications_of(self._authors.ids[a]))]

    def _authors_in(self, p: int) -> list[int]:
        return [*map(self._authors.__getitem__, self._store.authors_of(self._pubs.ids[p]))]


class _Collected(AbstractSet[str]):
    """The publications a crawl collected, as a read-only set of ids: a
    mark per publication number, iterated in sorted order and decoded on
    the way."""

    _from_iterable = frozenset  # what &, | and - answer with

    def __init__(self, ids: _Ids | _Met, marks: bytearray):
        self._ids, self._marks, self._len = ids, marks, marks.count(1)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, pub_id) -> bool:
        p = self._ids.number(pub_id)
        return p is not None and self._marks[p] == 1

    def __iter__(self) -> Iterator[str]:
        return self._ids.ordered(self._marks)


@dataclass
class CrawlResult:
    """``distances`` lists the authors in the order the crawl visited them:
    by distance, then by id. ``publication_ids`` is a read-only set of
    ids; a crawl's set iterates in sorted order."""

    seed: str
    distances: dict[str, int]
    publication_ids: AbstractSet[str]
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
    so results are fully deterministic. The crawl keeps numbers, not ids: a
    :class:`CorpusStore` answers by number, any other store through
    :class:`_Numbering`. Raises
    :class:`~contseq.errors.UnknownAuthorError` when the seed is not in the
    store; store failures propagate.
    """
    if policy is None:
        policy = CrawlPolicy()
    numbered = store if isinstance(store, CorpusStore) else _Numbering(store)
    layer = [numbered._author(seed)]  # seed must exist
    reached, collected = numbered._authors.marks(), numbered._pubs.marks()
    reached[layer[0]] = 1
    distances: dict[str, int] = {}
    pruned: dict[str, PruneReason] = {}
    pruned_numbers: list[int] = []
    distance = 0
    while layer:
        next_layer: list[int] = []
        for author, a in sorted(zip(numbered._authors.decoded(layer), layer)):
            distances[author] = distance
            # the seed is exempt from all criteria (fixed by construction)
            reason = None if distance == 0 else prune_reason(
                numbered._profile(a, author), distance, policy)
            if reason is not None:
                pruned[author] = reason
                pruned_numbers.append(a)
                continue
            # a publication's first listing reaches each co-author at the least distance
            for p in numbered._pubs_of(a):
                if collected[p]:
                    continue
                collected[p] = 1
                for c in numbered._authors_in(p):
                    if not reached[c]:
                        reached[c] = 1
                        next_layer.append(c)
        layer, distance = next_layer, distance + 1
    if policy.collect_pruned_publications:
        for a in pruned_numbers:
            for p in numbered._pubs_of(a):
                collected[p] = 1
    return CrawlResult(seed, distances, _Collected(numbered._pubs, collected), pruned)
