"""Shared test builders: compact record construction, random co-authorship
stores, and independent reference implementations of country resolution
and of the bounded crawl."""

from __future__ import annotations

import random

from contseq.crawl import CorpusStore, CrawlPolicy, CrawlResult, PruneReason
from contseq.errors import ContractViolationError
from contseq.mapping import parse_sequence
from contseq.model import (Affiliation, AuthorRecord, ContinentTable,
                           PublicationRecord)


def record(pub_id: str, countries_per_author, year: int = 2020) -> PublicationRecord:
    """Build a record from per-author lists of country labels (None allowed
    for an affiliation without a country)."""
    authors = []
    for i, countries in enumerate(countries_per_author):
        affiliations = tuple(
            Affiliation(f"inst-{pub_id}-{i}-{j}", country)
            for j, country in enumerate(countries))
        authors.append(AuthorRecord(f"{pub_id}-a{i}", affiliations))
    return PublicationRecord(pub_id, year, tuple(authors))


def coauthored(pub_id: str, author_ids, year: int = 2020,
               country: str = "Poland") -> PublicationRecord:
    """A publication shared by the given author ids (for graph fixtures)."""
    authors = tuple(
        AuthorRecord(author_id, (Affiliation(f"inst-{pub_id}", country),))
        for author_id in author_ids)
    return PublicationRecord(pub_id, year, authors)


def record_for_sequence(text: str, pub_id: str, table: ContinentTable,
                        year: int = 2020) -> PublicationRecord:
    """A record whose mapping yields exactly the given rendered sequence:
    one single-affiliation author per required country."""
    sequence = parse_sequence(text)
    pools = table.countries_by_continent()
    countries = []
    for continent, n_countries in sequence.parts:
        pool = pools[continent]
        assert len(pool) >= n_countries, f"table too small for {text!r}"
        countries.extend(pool[:n_countries])
    return record(pub_id, [[c] for c in countries], year)


def author_countries(author: AuthorRecord, table: ContinentTable) -> frozenset[str]:
    """Distinct canonical country labels across one author's affiliations.

    Every affiliation must carry a resolvable country; a failure is a
    :class:`ContractViolationError` naming the author and the label.
    """
    out = set()
    for affiliation in author.affiliations:
        label = affiliation.country
        if label is None:
            raise ContractViolationError(
                f"author {author.author_id!r} has an affiliation without a country")
        hit = table.resolve(label)
        if hit is None:
            raise ContractViolationError(
                f"author {author.author_id!r}: unresolvable country label {label!r}")
        out.add(hit[0])
    return frozenset(out)


def publication_countries(record: PublicationRecord, table: ContinentTable) -> frozenset[str]:
    """Union of the authors' distinct-country sets (the publication's n_c countries)."""
    out: set[str] = set()
    for author in record.authors:
        out |= author_countries(author, table)
    return frozenset(out)


def random_store(seed: int) -> tuple[CorpusStore, list[str]]:
    """A random small co-authorship store and its author ids."""
    rng = random.Random(seed)
    n_authors = rng.randint(2, 50)
    names = [f"a{i:02d}" for i in range(n_authors)]
    n_pubs = rng.randint(max(1, n_authors // 2), n_authors * 2)
    records = []
    for p in range(n_pubs):
        members = rng.sample(names, rng.randint(1, min(4, n_authors)))
        records.append(coauthored(f"p{p:03d}", members, rng.randint(2008, 2024)))
    store = CorpusStore(records)
    return store, list(store.author_ids())


def random_policy(rng: random.Random) -> CrawlPolicy:
    return CrawlPolicy(
        max_distance=rng.randint(0, 4),
        min_total_publications=rng.randint(1, 4),
        min_last_publication_year=rng.randint(2010, 2026),
        collect_pruned_publications=rng.random() < 0.5,
    )


def oracle_crawl(store, seed: str, policy: CrawlPolicy) -> CrawlResult:
    """Reference crawl by fixpoint relaxation instead of a BFS queue.

    Repeatedly relaxes co-author edges out of every author that is
    expandable at its current distance until distances stop changing, then
    derives membership and prune reasons from the settled distances.
    """
    distances = {seed: 0}

    def expandable(author: str, distance: int) -> bool:
        if author == seed:
            return True
        if distance > policy.max_distance:
            return False
        profile = store.profile(author)
        return (profile.total_publications >= policy.min_total_publications
                and profile.last_publication_year >= policy.min_last_publication_year)

    changed = True
    while changed:
        changed = False
        for author, distance in list(distances.items()):
            if not expandable(author, distance):
                continue
            for pub_id in store.publications_of(author):
                for coauthor in store.authors_of(pub_id):
                    if coauthor not in distances or distances[coauthor] > distance + 1:
                        distances[coauthor] = distance + 1
                        changed = True

    pruned = {}
    publications = set()
    for author, distance in distances.items():
        if expandable(author, distance):
            publications |= store.publications_of(author)
            continue
        profile = store.profile(author)
        if distance > policy.max_distance:
            pruned[author] = PruneReason.DISTANCE_EXCEEDED
        elif profile.total_publications < policy.min_total_publications:
            pruned[author] = PruneReason.LOW_PRODUCTIVITY
        else:
            pruned[author] = PruneReason.STALE
        if policy.collect_pruned_publications:
            publications |= store.publications_of(author)
    return CrawlResult(seed, distances, publications, pruned)
