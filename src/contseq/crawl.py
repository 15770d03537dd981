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
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count
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


#: One range's index columns: its publication ids, their years, the ``int64``
#: end of each record's author numbers, those ``int32`` numbers, the author
#: ids that the numbers index, in first-seen order, and the number of
#: malformed lines in the range.
Columns = tuple[list[str], list[int], array, array, list[str], int]


def _numbering() -> defaultdict:
    """A dict that numbers each new key on lookup: 0, 1, 2, ..."""
    return defaultdict(count().__next__)


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
    return pub_ids, years, ends, members, list(authors), malformed


def _file_columns(lines: Iterable[bytes]) -> Columns:
    """The columns of some corpus lines (a range worker's task)."""
    return _columns(store_fields(lines))


def _keep(columns: Columns, kept: list[int]) -> Columns:
    """``columns`` cut down to the records at the ``kept`` indices."""
    pub_ids, years, ends, members, authors, _ = columns
    starts = [0, *ends]
    return _columns((pub_ids[i], years[i], [authors[m] for m in members[starts[i]:ends[i]]])
                    for i in kept)


class CorpusStore:
    """In-memory :class:`PublicationStore` indexed from publication records.

    Only each record's publication id, year and author ids are kept. Ids are
    interned as integers (a dict from id to number and a list back, for
    authors and for publications), and both directions of the co-authorship
    graph are compressed sparse rows: ``int32`` members under ``int64``
    offsets. Beyond the id strings, the index holds no Python object per
    record, so it costs the cyclic garbage collector nothing. An author
    listed twice in one record counts once. An id query answers with a list
    of one row's ids, each id once; a profile is built on demand.

    Profiles are store-wide: an author's publication count and last year are
    computed over everything in the store, not over what a crawl collects.
    A repeated publication id raises ValueError, except in :meth:`from_file`.
    """

    duplicates_skipped = 0  # records from_file skipped for a repeated publication id
    malformed_skipped = 0  # malformed lines from_file skipped

    def __init__(self, records: Iterable[PublicationRecord]):
        duplicates, _ = self._index([_columns(
            (r.pub_id, r.year, [a.author_id for a in r.authors]) for r in records)])
        if duplicates:
            raise ValueError(f"duplicate publication id {duplicates[0]!r}")

    def _index(self, parts: Iterable[Columns]) -> tuple[list[str], int]:
        """Index the columns of consecutive parts of a corpus, keeping the
        first record of each publication id; return the other records' ids
        and the number of malformed lines.

        Each of a part's publication ids, and each of its distinct authors,
        is looked up once; a part that repeats an id is cut down to the
        first record of each id before its authors are numbered."""
        pub_number, author_number = _numbering(), _numbering()
        years: list[int] = []
        member_parts = [np.empty(0, dtype=np.int32)]
        end_parts = [np.zeros(1, dtype=np.int64)]
        members_before = 0
        duplicates: list[str] = []
        malformed = 0
        for part in parts:
            malformed += part[-1]
            pub_ids, before = part[0], len(pub_number)
            numbers = list(map(pub_number.__getitem__, pub_ids))
            if len(pub_number) - before < len(pub_ids):
                # a repeated id. New ids were numbered in order of first sight,
                # so a first record is one whose number is the next one.
                kept = []
                for i, number in enumerate(numbers):
                    if number == before + len(kept):
                        kept.append(i)
                    else:
                        duplicates.append(pub_ids[i])
                part = _keep(part, kept)
            _, part_years, ends, members, author_ids, _ = part
            years.extend(part_years)
            numbered = np.fromiter(map(author_number.__getitem__, author_ids), dtype=np.int32,
                                   count=len(author_ids))
            member_parts.append(numbered[np.frombuffer(members, dtype=np.int32)])
            end_parts.append(np.frombuffer(ends, dtype=np.int64) + members_before)
            members_before += len(members)
        pub_number.default_factory = author_number.default_factory = None  # plain lookups
        pub_members, pub_offsets = np.concatenate(member_parts), np.concatenate(end_parts)
        del member_parts, end_parts  # before the build's own temporaries
        pub_sizes = np.diff(pub_offsets)
        order = np.argsort(pub_members, kind="stable")
        author_members = np.repeat(np.arange(len(years), dtype=np.int32), pub_sizes)[order]
        counts = np.bincount(pub_members, minlength=len(author_number))
        author_offsets = np.concatenate(([0], np.cumsum(counts)))
        # exact ints: a year beyond int64 makes an object array, which reduceat handles too
        try:
            pub_years = np.array(years, dtype=np.int64)
        except OverflowError:
            pub_years = np.array(years, dtype=object)
        # reduceat needs every row non-empty: each author has a publication
        last_years = np.maximum.reduceat(pub_years[author_members], author_offsets[:-1])

        self._pub_number, self._pub_ids = pub_number, list(pub_number)
        self._author_number, self._author_ids = author_number, list(author_number)
        # memoryviews index and slice to Python ints, not numpy scalars
        self._pub_members, self._pub_offsets = memoryview(pub_members), memoryview(pub_offsets)
        self._author_members = memoryview(author_members)
        self._author_offsets = memoryview(author_offsets)
        # an object array of years has no buffer; it is the rare case
        self._last_years = (last_years.tolist() if last_years.dtype == object
                            else memoryview(last_years))
        return duplicates, malformed

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
        duplicates, store.malformed_skipped = store._index(
            read_ranges(path, _file_columns, os.cpu_count() or 1))
        store.duplicates_skipped = len(duplicates)
        return store

    def _author(self, author_id: str) -> int:
        try:
            return self._author_number[author_id]
        except KeyError:
            raise UnknownAuthorError(f"unknown author {author_id!r}") from None

    def publications_of(self, author_id: str) -> list[str]:
        a = self._author(author_id)
        offsets = self._author_offsets
        return list(map(self._pub_ids.__getitem__,
                        self._author_members[offsets[a]:offsets[a + 1]]))

    def authors_of(self, pub_id: str) -> list[str]:
        try:
            p = self._pub_number[pub_id]
        except KeyError:
            raise UnknownPublicationError(f"unknown publication {pub_id!r}") from None
        offsets = self._pub_offsets
        return list(map(self._author_ids.__getitem__,
                        self._pub_members[offsets[p]:offsets[p + 1]]))

    def profile(self, author_id: str) -> AuthorProfile:
        a = self._author(author_id)
        offsets = self._author_offsets
        return AuthorProfile(author_id, offsets[a + 1] - offsets[a], self._last_years[a])

    def author_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._author_ids))

    def publication_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._pub_ids))


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
