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
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol

from .errors import UnknownAuthorError, UnknownPublicationError
from .ingest import MalformedRecord, parse_corpus
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
    would implement this same contract.
    """

    def publications_of(self, author_id: str) -> frozenset[str]: ...

    def authors_of(self, pub_id: str) -> frozenset[str]: ...

    def profile(self, author_id: str) -> AuthorProfile: ...


class CorpusStore:
    """In-memory :class:`PublicationStore` indexed from publication records.

    Profiles are store-wide: an author's publication count and last year are
    computed over everything in the store, not over what a crawl collects.
    A repeated publication id raises ValueError, except in :meth:`from_file`.
    """

    duplicates_skipped = 0  # records from_file skipped for a repeated publication id

    def __init__(self, records: Iterable[PublicationRecord]):
        duplicates = self._index(records)
        if duplicates:
            raise ValueError(f"duplicate publication id {duplicates[0]!r}")

    def _index(self, records: Iterable[PublicationRecord]) -> list[str]:
        """Index the first record of each publication id; return the others' ids."""
        by_author: dict[str, set[str]] = defaultdict(set)
        by_pub: dict[str, set[str]] = {}
        years: dict[str, int] = {}
        duplicates = []
        for record in records:
            if record.pub_id in by_pub:
                duplicates.append(record.pub_id)
                continue
            authors = {a.author_id for a in record.authors}
            by_pub[record.pub_id] = authors
            for author_id in authors:
                by_author[author_id].add(record.pub_id)
                if author_id not in years or record.year > years[author_id]:
                    years[author_id] = record.year
        self._by_author = {a: frozenset(p) for a, p in by_author.items()}
        self._by_pub = {p: frozenset(a) for p, a in by_pub.items()}
        self._profiles = {
            a: AuthorProfile(a, len(pubs), years[a]) for a, pubs in self._by_author.items()
        }
        return duplicates

    @classmethod
    def from_file(cls, path: str | Path) -> "CorpusStore":
        """Index a corpus file, skipping malformed lines.

        The store indexes all structurally valid records: the crawl operates
        on the raw collection, and the article-exclusion rules apply later,
        at mapping time. Of records sharing a publication id the first is
        kept; ``duplicates_skipped`` counts the rest.
        """
        records = (item for item in parse_corpus(path)
                   if not isinstance(item, MalformedRecord))
        store = cls.__new__(cls)
        store.duplicates_skipped = len(store._index(records))
        return store

    def publications_of(self, author_id: str) -> frozenset[str]:
        try:
            return self._by_author[author_id]
        except KeyError:
            raise UnknownAuthorError(f"unknown author {author_id!r}") from None

    def authors_of(self, pub_id: str) -> frozenset[str]:
        try:
            return self._by_pub[pub_id]
        except KeyError:
            raise UnknownPublicationError(f"unknown publication {pub_id!r}") from None

    def profile(self, author_id: str) -> AuthorProfile:
        try:
            return self._profiles[author_id]
        except KeyError:
            raise UnknownAuthorError(f"unknown author {author_id!r}") from None

    def author_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_author))

    def publication_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_pub))


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
                if policy.collect_pruned_publications:
                    publications |= store.publications_of(author)
                continue
            for pub_id in sorted(store.publications_of(author)):
                publications.add(pub_id)
                for coauthor in store.authors_of(pub_id):
                    if coauthor not in distances:
                        distances[coauthor] = distance + 1
                        next_frontier.append(coauthor)
        frontier = next_frontier
    return CrawlResult(seed, distances, publications, pruned)
