import gc
import importlib.util
import json
import os
import random
import re
import sys
import tempfile
import threading
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import contseq.files as files
from contseq.cli import main
from contseq.crawl import (AuthorProfile, CorpusStore, CrawlPolicy,
                           PruneReason, _Ids, _blob, crawl, prune_reason)
from contseq.errors import ContseqError, UnknownAuthorError, UnknownPublicationError
from contseq.ingest import MalformedRecord, parse_corpus, write_corpus
from contseq.syngen import SyntheticSpec, iter_corpus
from helpers import OracleStore, coauthored, oracle_crawl, random_policy, random_store
from test_map_ranges import RANGE, corpus_bytes

BENCH = Path(__file__).resolve().parents[1] / "bench"
DATA = Path(__file__).resolve().parents[1] / "src" / "contseq" / "data"

OPEN = CrawlPolicy(max_distance=10_000, min_total_publications=1,
                   min_last_publication_year=1900)


class TestStore:
    def test_indexing(self):
        store = CorpusStore([
            coauthored("p1", ["A", "B"], 2010),
            coauthored("p2", ["B", "C"], 2019),
        ])
        assert sorted(store.publications_of("B")) == ["p1", "p2"]
        assert sorted(store.authors_of("p1")) == ["A", "B"]

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

    def test_duplicate_publication_id_names_the_first_repeat(self):
        with pytest.raises(ValueError, match="'p2'"):
            CorpusStore([coauthored("p1", ["A"]), coauthored("p2", ["B"]),
                         coauthored("p2", ["C"]), coauthored("p1", ["D"])])

    def test_from_file_keeps_first_of_duplicate_ids(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus([coauthored("p1", ["A"], 2010), coauthored("p2", ["B"]),
                      coauthored("p1", ["C"], 2019)], corpus)
        store = CorpusStore.from_file(corpus)
        assert store.duplicates_skipped == 1
        assert store.authors_of("p1") == ["A"]
        assert store.author_ids() == ("A", "B")

    def test_answers_keep_record_order(self):
        """Ids are numbered in digest order, but an author's publications
        come back in record order and a record's authors as listed."""
        pubs = [f"p{i}" for i in range(50)]
        store = CorpusStore([coauthored(pub, ["B", "A"] if i % 2 else ["A", "C"])
                             for i, pub in enumerate(pubs)])
        assert store.publications_of("A") == pubs
        assert store.publications_of("B") == pubs[1::2]
        assert store.authors_of("p1") == ["B", "A"]
        assert store.authors_of("p2") == ["A", "C"]

    def test_membership_round_trip(self):
        store, authors = random_store(4)
        for author in authors:
            for pub in store.publications_of(author):
                assert author in store.authors_of(pub)
        for pub in store.publication_ids():
            for author in store.authors_of(pub):
                assert pub in store.publications_of(author)


PUB_IDS = ("p0", "p1", "p2", "p3", "p4")
AUTHOR_IDS = ("A", "B", "C", "D", "E")
#: ways to break one record's schema; each edits the decoded object in place
SCHEMA_BREAKS = {
    "schema_version": lambda obj: obj.update(schema_version=2),
    "bool_year": lambda obj: obj.update(year=True),
    "blank_author_id": lambda obj: obj["authors"][-1].update(author_id=" "),
    "empty_affiliations": lambda obj: obj["authors"][0].update(affiliations=[]),
    "non_dict_affiliation": lambda obj: obj["authors"][0].update(affiliations=["x"]),
    "blank_institution": lambda obj: obj["authors"][0]["affiliations"][0].update(
        institution=" "),
    "non_string_country": lambda obj: obj["authors"][-1]["affiliations"][0].update(
        country=7),
}
LINE_DEFECTS = (None, None, None, None, *SCHEMA_BREAKS, "truncated", "utf8", "blank")


@st.composite
def store_lines(draw) -> bytes:
    """One corpus line: mostly valid records over a small pool of ids (so
    ids repeat and an author can be listed twice), with years that include
    ones outside int64, else a broken one."""
    authors = draw(st.lists(st.sampled_from(AUTHOR_IDS), min_size=1, max_size=4))
    obj = {"schema_version": 1, "id": draw(st.sampled_from(PUB_IDS)),
           "year": draw(st.one_of(st.integers(1990, 2030),
                                  st.sampled_from([-40, 2 ** 63, 2 ** 63 + 1, 10 ** 20]))),
           "authors": [{"author_id": a, "affiliations": [
               {"institution": "I", "country": draw(st.sampled_from(["Poland", " ", None]))}]}
               for a in authors]}
    defect = draw(st.sampled_from(LINE_DEFECTS))
    if defect in SCHEMA_BREAKS:
        SCHEMA_BREAKS[defect](obj)
    line = json.dumps(obj).encode()
    if defect == "truncated":
        return line[:draw(st.integers(1, len(line) - 1))]
    if defect == "utf8":
        return line.replace(b'"I"', b'"I\xff"')
    if defect == "blank":
        return draw(st.sampled_from([b"", b"  ", b"\t"]))
    return line


def _ids(answer) -> set[str]:
    """An id query's answer as a set, once no id in it repeats."""
    ids = set(answer)
    assert len(ids) == len(answer), answer
    return ids


def _answer(query, key):
    try:
        answer = query(key)
    except ContseqError as exc:
        return type(exc)
    return answer if isinstance(answer, AuthorProfile) else _ids(answer)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(store_lines(), max_size=25))
def test_from_file_agrees_with_oracle(lines):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_bytes(b"".join(line + b"\n" for line in lines))
        store = CorpusStore.from_file(corpus)
        oracle = OracleStore(item for item in parse_corpus(corpus)
                             if not isinstance(item, MalformedRecord))
    assert store.duplicates_skipped == oracle.duplicates_skipped
    assert store.author_ids() == oracle.author_ids()
    assert store.publication_ids() == oracle.publication_ids()
    for author in (*AUTHOR_IDS, " "):
        assert _answer(store.publications_of, author) == _answer(oracle.publications_of, author)
        profile = _answer(store.profile, author)
        assert profile == _answer(oracle.profile, author)
        if isinstance(profile, AuthorProfile):  # 2019.0 == 2019: equality misses a float
            assert type(profile.last_publication_year) is int
    for pub in (*PUB_IDS, "p9"):
        assert _answer(store.authors_of, pub) == _answer(oracle.authors_of, pub)


def coauthor_line(pub_id: str, authors) -> bytes:
    return json.dumps({"schema_version": 1, "id": pub_id, "year": 2020, "authors": [
        {"author_id": a, "affiliations": [{"institution": "I"}]} for a in authors]}).encode()


def ranged_corpus() -> tuple[bytes, int]:
    """The corpus of tests/test_map_ranges.py, plus shared co-authors and
    repeated publication ids: ``q1`` twice within a range, ``p1`` again
    across range ends, each repeat naming an author found nowhere else.
    Also the range end that a line ends at."""
    data, boundary = corpus_bytes()
    head, last = data[:data.rindex(b"\n") + 1], data[data.rindex(b"\n") + 1:]
    head += b" " * (-(len(head) + 1) % RANGE) + b"\n"  # so a range starts at the q1 pair
    lines = [coauthor_line("q1", ["A", "B"]), coauthor_line("q1", ["Z"]),
             coauthor_line("q2", ["A", "C", "A"]), coauthor_line("p1", ["Y"]),
             coauthor_line("q3", ["B", "C"])]
    return head + b"".join(line + b"\n" for line in lines) + last, boundary


def store_answers(store) -> dict:
    """Every answer of a store, to compare two of them."""
    authors, pubs = store.author_ids(), store.publication_ids()
    return {"author_ids": authors, "publication_ids": pubs,
            "duplicates_skipped": store.duplicates_skipped,
            "publications_of": [_ids(store.publications_of(a)) for a in authors],
            "profile": [store.profile(a) for a in authors],
            "authors_of": [_ids(store.authors_of(p)) for p in pubs]}


def test_store_read_agrees_across_ranges_and_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(files, "_RANGE_BYTES", RANGE)
    data, boundary = ranged_corpus()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(data)
    with open(corpus, "rb") as handle:
        spans = files._spans(handle)
    assert len(spans) > 6 and any(stop == boundary for _, stop in spans), spans

    def ranges_of(pub_id):  # the ranges that hold the records of pub_id
        records = re.finditer(b'"id": "%s"' % pub_id.encode(), data)
        return [next(i for i, (start, stop) in enumerate(spans) if start <= record.start() < stop)
                for record in records]

    assert len(ranges_of("q1")) == 2 and len(set(ranges_of("q1"))) == 1
    assert len(set(ranges_of("p1"))) == 2

    pools, real_pool = [], files.futures.ProcessPoolExecutor

    def pool(processes, **kwargs):
        pools.append(processes)
        return real_pool(processes, **kwargs)

    monkeypatch.setattr(files.futures, "ProcessPoolExecutor", pool)
    builds = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(os, "cpu_count", lambda n=cores: n)
        builds.append(store_answers(CorpusStore.from_file(corpus)))
    assert pools == [2, 3]  # one core: read in process
    assert builds[0] == builds[1] == builds[2]
    oracle = OracleStore(item for item in parse_corpus(corpus)
                         if not isinstance(item, MalformedRecord))
    assert builds[0] == store_answers(oracle)
    assert builds[0]["duplicates_skipped"] == 2
    assert set(builds[0]["author_ids"]) >= {"A", "B", "C"}
    assert not set(builds[0]["author_ids"]) & {"Y", "Z"}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_store_reads_a_fifo_in_process(tmp_path, monkeypatch):
    monkeypatch.setattr(files, "_RANGE_BYTES", RANGE)
    data = ranged_corpus()[0]
    regular = tmp_path / "corpus.jsonl"
    regular.write_bytes(data)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    expected = store_answers(CorpusStore.from_file(regular))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    # a pipe is read in this process
    monkeypatch.setattr(files.futures, "ProcessPoolExecutor", None)
    assert store_answers(CorpusStore.from_file(fifo)) == expected
    writer.join(timeout=60)
    assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_store_counts_every_non_blank_line(tmp_path, monkeypatch):
    """indexed + duplicates + malformed = non-blank lines, at any worker
    count and from a pipe."""
    monkeypatch.setattr(files, "_RANGE_BYTES", RANGE)
    data = ranged_corpus()[0]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(data)
    items = list(parse_corpus(corpus))  # one per non-blank line
    malformed = sum(isinstance(item, MalformedRecord) for item in items)
    assert malformed > 0

    def counts(store):
        return len(store.publication_ids()), store.duplicates_skipped, store.malformed_skipped

    builds = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(os, "cpu_count", lambda n=cores: n)
        builds.append(counts(CorpusStore.from_file(corpus)))
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    builds.append(counts(CorpusStore.from_file(fifo)))
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert builds == [builds[0]] * 4
    assert builds[0][2] == malformed and sum(builds[0]) == len(items)


#: ids one last byte apart ("ab0", "ab1"; "é", "ê"), a 10,000-character id
#: and ids holding a line break, a comma or a quote; one set is ASCII only
UNUSUAL_IDS = {
    "ascii": ["ab0", "ab1", "x" * 10_000, "line\nbreak", "comma,id", 'quote"id'],
    "utf8": ["ab0", "é", "ê", "日本語", "😀", 'naïve, "quoted"\n'],
}


@pytest.mark.parametrize("kind", sorted(UNUSUAL_IDS))
def test_store_keeps_unusual_ids(kind, tmp_path):
    """Such ids come back from every query as they went in. An absent near
    miss, or an unpaired surrogate, which no UTF-8 spells, is an unknown id,
    not a UnicodeEncodeError."""
    ids = UNUSUAL_IDS[kind]
    records = [coauthored(pub, [pub, ids[i - 1]], 2000 + i) for i, pub in enumerate(ids)]
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(records, corpus)
    expected = store_answers(OracleStore(records))
    assert expected["author_ids"] == tuple(sorted(ids))
    for store in (CorpusStore(records), CorpusStore.from_file(corpus)):
        assert store_answers(store) == expected
        for absent in ("\ud800", "ab", "ab2", "e", "x" * 9_999, "日本"):
            with pytest.raises(UnknownAuthorError):
                store.publications_of(absent)
            with pytest.raises(UnknownAuthorError):
                store.profile(absent)
            with pytest.raises(UnknownPublicationError):
                store.authors_of(absent)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from("\0ab\x7f\x80é😀\ud800\U0010ffff"), max_size=12),
                unique=True), st.randoms(use_true_random=False))
def test_ids_sort_in_code_point_order(ids, rng):
    """Ids sort by their UTF-8 bytes, a few bytes a round, which is the
    order of ``sorted``: an id before its extensions (by zero bytes too),
    unpaired surrogates among the rest, for all ids or any marked few."""
    kind = _Ids(_blob(ids))
    assert list(kind.ordered(bytearray(b"\1") * len(ids))) == sorted(ids)
    marks = bytearray(rng.randint(0, 1) for _ in ids)
    assert list(kind.ordered(marks)) == sorted(i for i, mark in zip(ids, marks) if mark)


@pytest.mark.parametrize("digest", [len, lambda data: 7], ids=["length", "constant"])
def test_ids_whose_digests_collide_are_told_apart(digest, tmp_path, monkeypatch):
    """Real ids seldom share a digest, so the byte comparison that tells
    them apart is tried with digests under which many ids, or all of them,
    collide. The patch comes before the pool forks its workers."""
    monkeypatch.setattr(sys.modules[CorpusStore.__module__], "_digest", digest)
    test_from_file_agrees_with_oracle()
    test_store_read_agrees_across_ranges_and_workers(tmp_path, monkeypatch)
    for kind in UNUSUAL_IDS:
        (tmp_path / kind).mkdir()
        test_store_keeps_unusual_ids(kind, tmp_path / kind)


def test_store_holds_under_100_bytes_per_id(tmp_path, monkeypatch):
    """The built store holds buffers, not a Python object per id: under
    100 bytes per distinct publication or author id, by tracemalloc, on a
    20,000-record co-authorship corpus read in this process."""
    corpus = _bench_module("corpus")
    path = tmp_path / "corpus.jsonl"
    corpus.write_coauthor_corpus(path, 42, 20_000, corpus.Geography.load(DATA))
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    CorpusStore.from_file(path)  # imports and caches, before the count starts
    gc.collect()
    tracemalloc.start()
    try:
        store = CorpusStore.from_file(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    ids = len(store.publication_ids()) + len(store.author_ids())
    assert ids > 30_000
    assert held / ids <= 100, f"{held / ids:.1f} bytes per id"


def index_columns(store: CorpusStore) -> dict:
    """The store's index columns by name: every offset column, the lookup
    digests and the authors' last years, not the id bytes or the members."""
    return {"pub_id_offsets": store._pubs._offsets, "pub_digests": store._pubs._digests,
            "author_id_offsets": store._authors._offsets,
            "author_digests": store._authors._digests, "pub_offsets": store._pub_offsets,
            "author_offsets": store._author_offsets, "last_years": store._last_years}


def test_store_index_holds_4_bytes_per_entry(tmp_path):
    """On the corpus of the test above, the index columns hold 4 bytes per
    entry: any one of them back at 8 bytes fails this, however the
    allocator rounds."""
    corpus = _bench_module("corpus")
    path = tmp_path / "corpus.jsonl"
    corpus.write_coauthor_corpus(path, 42, 20_000, corpus.Geography.load(DATA))
    columns = index_columns(CorpusStore.from_file(path))
    assert sum(len(column) for column in columns.values()) > 100_000
    assert sum(column.nbytes for column in columns.values()) == 4 * sum(
        len(column) for column in columns.values()), {
        name: column.itemsize for name, column in columns.items()}


@pytest.mark.parametrize("year, width", [(2019, 4), (2 ** 31, 8), (2 ** 63, None)],
                         ids=["int32", "int64", "beyond-int64"])
def test_last_publication_year_is_an_exact_int(year, width):
    """Last years are kept as ``int32`` when they fit, else ``int64``, else
    as a list of ints; a profile reads each back as the exact int."""
    records = [coauthored("p1", ["A", "B"], 1990), coauthored("p2", ["A"], year),
               coauthored("p3", ["C"], -2 ** 31)]
    store, oracle = CorpusStore(records), OracleStore(records)
    years = store._last_years
    assert (years.itemsize if isinstance(years, memoryview) else None) == width
    for author in ("A", "B", "C"):
        profile = store.profile(author)
        assert profile == oracle.profile(author)
        assert type(profile.last_publication_year) is int


@pytest.mark.parametrize("digest", [zlib.crc32, len, lambda data: 7],
                         ids=["crc32", "length", "constant"])
def test_wide_columns_agree_with_oracle(digest, tmp_path, monkeypatch):
    """A corpus with 4 GiB of ids or members needs 8-byte offsets. A width
    limit of 0 makes every offset column and the last years 8 bytes wide, so
    the store-vs-oracle tests and the collision test run on that path."""
    module = sys.modules[CorpusStore.__module__]
    monkeypatch.setattr(module, "_LIMIT", 0)
    columns = index_columns(CorpusStore([coauthored("p1", ["A", "B"], 2010)]))
    widths = {name: column.itemsize for name, column in columns.items()
              if not name.endswith("digests")}  # digests are 4 bytes on any corpus
    assert set(widths.values()) == {8}, widths
    test_ids_whose_digests_collide_are_told_apart(digest, tmp_path, monkeypatch)


def test_gen_crawl_looks_up_no_publication(tmp_path, monkeypatch):
    """A crawl asks a CorpusStore by number: it looks up no publication id
    (only its seed's id), and it decodes no publication id until its
    publication ids are written."""
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(iter_corpus(SyntheticSpec(50, 1.9, 2000, seed=3)), corpus)
    store = CorpusStore.from_file(corpus)
    calls = Counter()

    def counting(name):
        method = getattr(_Ids, name)
        return lambda ids, arg: calls.update(
            [(name, "pub" if ids is store._pubs else "author")]) or method(ids, arg)

    monkeypatch.setattr(_Ids, "number", counting("number"))
    monkeypatch.setattr(_Ids, "decoded", counting("decoded"))
    result = crawl(store, "s00001-a01", OPEN)
    assert calls[("number", "author")] == 1 and calls[("decoded", "author")] > 0
    assert calls[("number", "pub")] == calls[("decoded", "pub")] == 0
    written = list(result.publication_ids)
    monkeypatch.undo()
    assert calls[("number", "pub")] == 0 and calls[("decoded", "pub")] > 0
    oracle = OracleStore(item for item in parse_corpus(corpus))
    expected = oracle_crawl(oracle, "s00001-a01", OPEN)
    assert len(written) > 500 and written == sorted(expected.publication_ids)
    assert result == expected


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(store_lines(), max_size=25), st.sampled_from(AUTHOR_IDS))
def test_adapter_crawls_as_the_store_does(lines, seed):
    """A crawl of any PublicationStore (here the oracle, numbered as the
    crawl meets its ids) equals the crawl of a CorpusStore of that corpus:
    distances in visiting order, prune reasons and publication ids in
    sorted order."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_bytes(b"".join(line + b"\n" for line in lines))
        store = CorpusStore.from_file(corpus)
        oracle = OracleStore(item for item in parse_corpus(corpus)
                             if not isinstance(item, MalformedRecord))
    for policy in (OPEN, CrawlPolicy(), CrawlPolicy(collect_pruned_publications=False)):
        if seed not in oracle.author_ids():
            for either in (store, oracle):
                with pytest.raises(UnknownAuthorError):
                    crawl(either, seed, policy)
            continue
        got, want = crawl(store, seed, policy), crawl(oracle, seed, policy)
        assert list(got.distances.items()) == list(want.distances.items())
        assert got.frontier_pruned == want.frontier_pruned
        assert list(got.publication_ids) == list(want.publication_ids)
        assert list(got.publication_ids) == sorted(got.publication_ids)
        assert got == want == oracle_crawl(oracle, seed, policy)


def test_authors_of_after_an_answer_agrees_with_oracle():
    """After a publications_of answer, authors_of answers right for an id
    equal to a listed one but not the same object, for ids asked out of
    order, after the caller reorders the answer in place, and raises for an
    unknown id."""
    rng = random.Random(8)
    for _ in range(20):
        names = [f"a{i:02d}" for i in range(rng.randint(2, 12))]
        records = [coauthored(f"p{p:02d}", rng.sample(names, rng.randint(1, min(4, len(names)))))
                   for p in range(rng.randint(1, 40))]
        store, oracle = CorpusStore(records), OracleStore(records)

        def check(pubs):
            for pub in pubs:
                assert _ids(store.authors_of(pub)) == oracle.authors_of(pub)

        for author in oracle.author_ids():
            answer = store.publications_of(author)
            copies = ["".join(pub) for pub in answer]
            assert all(c is not pub for c, pub in zip(copies, answer) if len(pub) > 1)
            check(copies)
            answer = store.publications_of(author)
            check(answer[::-1])
            answer = store.publications_of(author)
            rng.shuffle(answer)  # the store's own list, reordered
            check(answer)
            answer = store.publications_of(author)
            check(answer[:1])
            with pytest.raises(UnknownPublicationError):
                store.authors_of("nope")
            check(answer)


def _bench_module(name: str):
    """``bench/<name>.py``, imported as ``bench_<name>``."""
    if f"bench_{name}" not in sys.modules:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[f"bench_{name}"]


@pytest.fixture(scope="module")
def coauthor_corpus(tmp_path_factory):
    """A 5,000-record preferential-attachment corpus and its generator truth."""
    corpus = _bench_module("corpus")
    path = tmp_path_factory.mktemp("coauthor") / "corpus.jsonl"
    truth = corpus.write_coauthor_corpus(path, 5, 5000, corpus.Geography.load(DATA))
    return corpus, path, truth


@pytest.mark.parametrize("min_pubs", [50, 1])
def test_crawl_command_matches_bench_oracle(coauthor_corpus, min_pubs, tmp_path):
    corpus, path, truth = coauthor_corpus
    checks = _bench_module("checks")
    seed = truth.seed_author()
    expected = checks.oracle_crawl(truth.publications, seed, corpus.author_id,
                                   corpus.pub_id, min_pubs=min_pubs)
    distances = [int(line.rsplit(",", 1)[1]) for line in expected["crawl_distances.csv"][1:]]
    assert max(distances) >= 2  # some author besides the seed is expanded
    argv = ["crawl", "--input", str(path), "--seed-author", corpus.author_id(seed),
            "--output-dir", str(tmp_path)]
    assert main(argv + (["--min-pubs", "1"] if min_pubs == 1 else [])) == 0
    assert checks.check_crawl(tmp_path, expected) == []


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

    @pytest.mark.parametrize("collect", [True, False])
    def test_store_may_answer_with_lists(self, collect):
        class ListStore:  # answers id queries with lists, as a live API client would
            def publications_of(self, author_id):
                return sorted(store.publications_of(author_id), reverse=True)

            def authors_of(self, pub_id):
                return sorted(store.authors_of(pub_id), reverse=True)

            def profile(self, author_id):
                return store.profile(author_id)

        store, authors = random_store(3)
        policy = CrawlPolicy(max_distance=3, min_total_publications=2,
                             min_last_publication_year=2010,
                             collect_pruned_publications=collect)
        results = [crawl(store, seed, policy) for seed in authors]
        assert any(result.frontier_pruned for result in results)
        assert [crawl(ListStore(), seed, policy) for seed in authors] == results

    def test_each_publication_is_enumerated_once(self):
        class CountingStore:  # counts the authors_of questions per publication
            def __init__(self, store):
                self.publications_of, self.profile = store.publications_of, store.profile
                self._authors_of, self.asked = store.authors_of, Counter()

            def authors_of(self, pub_id):
                self.asked[pub_id] += 1
                return self._authors_of(pub_id)

        rng = random.Random(5)
        shared = 0
        for seed in range(30):
            store, authors = random_store(seed + 500)
            start = rng.choice(authors)
            for policy in (OPEN, random_policy(rng)):
                counting = CountingStore(store)
                result = crawl(counting, start, policy)
                assert set(counting.asked.values()) <= {1}
                assert result == crawl(store, start, policy) == oracle_crawl(store, start, policy)
                expanded = result.distances.keys() - result.frontier_pruned.keys()
                # publications that two expanded authors share were asked about once
                shared += sum(len(expanded.intersection(store.authors_of(p))) > 1
                             for p in counting.asked)
        assert shared > 100

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
