import random

import pytest

from contseq.crawl import (AuthorProfile, CorpusStore, CrawlPolicy,
                           PruneReason, crawl, prune_reason)
from contseq.errors import UnknownAuthorError, UnknownPublicationError
from contseq.ingest import write_corpus
from helpers import coauthored, oracle_crawl, random_policy, random_store

OPEN = CrawlPolicy(max_distance=10_000, min_total_publications=1,
                   min_last_publication_year=1900)


class TestStore:
    def test_indexing(self):
        store = CorpusStore([
            coauthored("p1", ["A", "B"], 2010),
            coauthored("p2", ["B", "C"], 2019),
        ])
        assert store.publications_of("B") == {"p1", "p2"}
        assert store.authors_of("p1") == {"A", "B"}

    def test_profile_last_year_is_max(self):
        store = CorpusStore([coauthored("p1", ["A"], 2010),
                             coauthored("p2", ["A"], 2019)])
        assert store.profile("A") == AuthorProfile("A", 2, 2019)

    def test_unknown_ids(self):
        store = CorpusStore([coauthored("p1", ["A"])])
        with pytest.raises(UnknownAuthorError):
            store.publications_of("Z")
        with pytest.raises(UnknownAuthorError):
            store.profile("Z")
        with pytest.raises(UnknownPublicationError):
            store.authors_of("nope")

    def test_duplicate_publication_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            CorpusStore([coauthored("p1", ["A"]), coauthored("p1", ["B"])])

    def test_from_file_keeps_first_of_duplicate_ids(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus([coauthored("p1", ["A"], 2010), coauthored("p2", ["B"]),
                      coauthored("p1", ["C"], 2019)], corpus)
        store = CorpusStore.from_file(corpus)
        assert store.duplicates_skipped == 1
        assert store.authors_of("p1") == {"A"}
        assert store.author_ids() == ("A", "B")

    def test_membership_round_trip(self):
        store, authors = random_store(4)
        for author in authors:
            for pub in store.publications_of(author):
                assert author in store.authors_of(pub)
        for pub in store.publication_ids():
            for author in store.authors_of(pub):
                assert pub in store.publications_of(author)


class TestCrawl:
    def test_isolated_seed(self):
        store = CorpusStore([coauthored("p1", ["A"], 2020)])
        result = crawl(store, "A")
        assert result.distances == {"A": 0}
        assert result.publication_ids == {"p1"}
        assert result.frontier_pruned == {}

    def test_path_graph_distance_cutoff(self):
        store = CorpusStore([coauthored("p1", ["A", "B"], 2020),
                             coauthored("p2", ["B", "C"], 2020)])
        policy = CrawlPolicy(max_distance=1, min_total_publications=1,
                             min_last_publication_year=1900)
        result = crawl(store, "A", policy)
        # B is expanded; C is discovered at distance 2 and collected, not expanded
        assert result.distances == {"A": 0, "B": 1, "C": 2}
        assert result.publication_ids == {"p1", "p2"}
        assert result.frontier_pruned == {"C": PruneReason.DISTANCE_EXCEEDED}

    def test_low_productivity_coauthor_collected_but_not_followed(self):
        records = [coauthored("shared", ["S", "B"], 2020)]
        records += [coauthored(f"b{i}", ["B"], 2020) for i in range(39)]
        records += [coauthored("far", ["B", "C"], 2020)]
        store = CorpusStore(records)
        policy = CrawlPolicy(max_distance=6, min_total_publications=50,
                             min_last_publication_year=2015)
        result = crawl(store, "S", policy)
        assert store.profile("B").total_publications == 41
        assert result.distances["B"] == 1
        assert result.frontier_pruned["B"] is PruneReason.LOW_PRODUCTIVITY
        # all of B's publications are still collected, but C is never reached
        assert result.publication_ids == set(store.publications_of("B")) | {"shared"}
        assert "C" not in result.distances

    def test_drop_pruned_publications_flag(self):
        store = CorpusStore([coauthored("shared", ["S", "B"], 2020),
                             coauthored("solo", ["B"], 2020)])
        policy = CrawlPolicy(max_distance=6, min_total_publications=3,
                             min_last_publication_year=2015,
                             collect_pruned_publications=False)
        result = crawl(store, "S", policy)
        assert result.frontier_pruned["B"] is PruneReason.LOW_PRODUCTIVITY
        assert result.publication_ids == {"shared"}

    def test_stale_coauthor(self):
        store = CorpusStore([coauthored("p1", ["S", "B"], 2014)])
        policy = CrawlPolicy(max_distance=6, min_total_publications=1,
                             min_last_publication_year=2015)
        result = crawl(store, "S", policy)
        assert result.frontier_pruned["B"] is PruneReason.STALE

    def test_seed_exempt_from_thresholds(self):
        store = CorpusStore([coauthored("p1", ["S", "B"], 2010)])
        policy = CrawlPolicy(max_distance=6, min_total_publications=50,
                             min_last_publication_year=2015)
        result = crawl(store, "S", policy)
        assert result.distances == {"S": 0, "B": 1}
        assert "S" not in result.frontier_pruned

    def test_unknown_seed(self):
        store = CorpusStore([coauthored("p1", ["A"])])
        with pytest.raises(UnknownAuthorError):
            crawl(store, "ghost")

    def test_deterministic(self):
        store, authors = random_store(11)
        assert crawl(store, authors[0], OPEN) == crawl(store, authors[0], OPEN)

    def test_reason_priority_distance_first(self):
        profile = AuthorProfile("x", 1, 2000)
        policy = CrawlPolicy(max_distance=1, min_total_publications=50,
                             min_last_publication_year=2015)
        assert prune_reason(profile, 2, policy) is PruneReason.DISTANCE_EXCEEDED
        assert prune_reason(profile, 1, policy) is PruneReason.LOW_PRODUCTIVITY
        assert prune_reason(AuthorProfile("x", 99, 2000), 1, policy) is PruneReason.STALE
        assert prune_reason(AuthorProfile("x", 99, 2020), 1, policy) is None

    def test_bfs_distance_property_on_coauthors(self):
        # with nothing pruned, co-authors can never sit more than one layer apart
        store, authors = random_store(23)
        result = crawl(store, authors[0], OPEN)
        assert not result.frontier_pruned
        for pub in result.publication_ids:
            present = [a for a in store.authors_of(pub) if a in result.distances]
            for u in present:
                for v in present:
                    assert abs(result.distances[u] - result.distances[v]) <= 1

    def test_bfs_distance_property_between_expanded_authors(self):
        # under pruning the mutual-offer argument applies to expanded pairs:
        # a pruned co-author may sit farther when reached only by another path
        rng = random.Random(31)
        for seed in range(15):
            store, authors = random_store(seed + 600)
            result = crawl(store, rng.choice(authors), random_policy(rng))
            expanded = set(result.distances) - set(result.frontier_pruned)
            for pub in result.publication_ids:
                both = [a for a in store.authors_of(pub) if a in expanded]
                for u in both:
                    for v in both:
                        assert abs(result.distances[u] - result.distances[v]) <= 1

    def test_distances_are_shortest_paths_in_expanded_subgraph(self):
        # all-pairs check: only expanded authors have outgoing co-author
        # edges, so path lengths are constrained exactly as the crawl is
        rng = random.Random(13)
        for seed in (1, 5, 9):
            store, authors = random_store(seed)
            result = crawl(store, authors[0], random_policy(rng))
            expanded = set(result.distances) - set(result.frontier_pruned)
            nodes = sorted(result.distances)
            inf = float("inf")
            dist = {(u, v): 0.0 if u == v else inf for u in nodes for v in nodes}
            for u in expanded:
                for pub in store.publications_of(u):
                    for v in store.authors_of(pub):
                        if v in result.distances and v != u:
                            dist[(u, v)] = 1.0
            for k in nodes:
                for i in nodes:
                    ik = dist[(i, k)]
                    if ik == inf:
                        continue
                    for j in nodes:
                        if ik + dist[(k, j)] < dist[(i, j)]:
                            dist[(i, j)] = ik + dist[(k, j)]
            for author, d in result.distances.items():
                assert dist[(authors[0], author)] == d

    def test_matches_oracle_spot(self):
        rng = random.Random(99)
        for seed in range(10):
            store, authors = random_store(seed)
            policy = random_policy(rng)
            start = rng.choice(authors)
            assert crawl(store, start, policy) == oracle_crawl(store, start, policy)

    def test_monotone_in_policy(self):
        rng = random.Random(7)
        for seed in range(25):
            store, authors = random_store(seed + 300)
            start = rng.choice(authors)
            base = CrawlPolicy(max_distance=rng.randint(0, 3),
                               min_total_publications=rng.randint(2, 4),
                               min_last_publication_year=rng.randint(2012, 2022))
            got = crawl(store, start, base).publication_ids
            relaxations = [
                CrawlPolicy(base.max_distance + 1, base.min_total_publications,
                            base.min_last_publication_year),
                CrawlPolicy(base.max_distance, base.min_total_publications - 1,
                            base.min_last_publication_year),
                CrawlPolicy(base.max_distance, base.min_total_publications,
                            base.min_last_publication_year - 5),
            ]
            for relaxed in relaxations:
                assert got <= crawl(store, start, relaxed).publication_ids


def test_policy_validation():
    with pytest.raises(ValueError):
        CrawlPolicy(max_distance=-1)
    with pytest.raises(ValueError):
        CrawlPolicy(min_total_publications=0)
    with pytest.raises(ValueError):
        AuthorProfile("a", 0, 2000)
