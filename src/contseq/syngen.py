"""Synthetic corpora with a known ground-truth sequence distribution.

Publication i draws its sequence type k with probability proportional to
k**-a over a fixed vocabulary of distinct, valid continent sequences. Each
type is materialized as a fixed publication template (one single-affiliation
author per country), so mapping a generated record reproduces its intended
sequence exactly and every record passes ingest filtering. Everything is
driven by PCG64 seeded from :class:`SyntheticSpec`, so equal specs yield
byte-identical corpora.

:func:`iter_corpus` yields the records; :func:`corpus_chunks` yields the bytes
``write_corpus`` would write for them, assembled from pieces rendered once
(a head, an id, a year piece, a type's tail), so no Python code runs per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, cycle, islice, repeat
from typing import Callable, Iterator

import numpy as np

from .ingest import record_to_json
from .model import (Affiliation, AuthorRecord, CONTINENTS, Continent,
                    ContinentSequence, ContinentTable, PublicationRecord,
                    default_table)

_DRAWS_PER_CHUNK = 1 << 16  # type indices sampled at once; bounds gen's memory
_FIRST_YEAR, _YEARS = 2015, 9  # publication i is from _FIRST_YEAR + i % _YEARS
_IDS_PER_BLOCK = 10_000  # publication i's id is _ID_PREFIX % (i // 10_000) and i % 10_000 in 4 digits
_ID_PREFIX = b"syn-%04d"
#: The largest vocabulary a spec may ask for: the vocabulary is built whole
#: before the first record, at about 470 bytes a type.
MAX_VOCABULARY = 1_000_000


@dataclass(frozen=True, slots=True)
class SyntheticSpec:
    vocabulary_size: int
    exponent: float
    corpus_size: int
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.vocabulary_size <= MAX_VOCABULARY:
            raise ValueError(f"vocabulary_size must be between 1 and {MAX_VOCABULARY:,} "
                             f"(MAX_VOCABULARY), got {self.vocabulary_size:,}")
        if self.corpus_size < 0:
            raise ValueError("corpus_size must be >= 0")
        if not self.exponent > 0:
            raise ValueError("exponent must be > 0")


def _compositions(budget: int, slots: int) -> Iterator[tuple[int, ...]]:
    # reverse-lexicographic: (budget, 0, ...) first, (0, ..., budget) last
    if slots == 1:
        yield (budget,)
        return
    for first in range(budget, -1, -1):
        for rest in _compositions(budget - first, slots - 1):
            yield (first,) + rest


def sequence_vocabulary(size: int, table: ContinentTable | None = None) -> list[ContinentSequence]:
    """The first ``size`` sequences of the deterministic type enumeration.

    Types are ordered by total country count, then by reverse-lexicographic
    composition over the six continents; type 1 is "Africa (1)". Compositions
    asking for more countries than the table has on a continent are skipped,
    so every type can be materialized with real country labels.
    """
    if table is None:
        table = default_table()
    pools = table.countries_by_continent()
    limits = [len(pools.get(c, ())) for c in CONTINENTS]
    vocabulary: list[ContinentSequence] = []
    for budget in count(1):
        if budget > sum(limits):
            raise ValueError(
                f"vocabulary_size {size} exceeds the distinct sequences "
                f"expressible with this table")
        for composition in _compositions(budget, len(CONTINENTS)):
            if any(c > limit for c, limit in zip(composition, limits)):
                continue
            parts = tuple((continent, c)
                          for continent, c in zip(CONTINENTS, composition) if c > 0)
            vocabulary.append(ContinentSequence(parts))
            if len(vocabulary) == size:
                return vocabulary


def type_probabilities(spec: SyntheticSpec) -> np.ndarray:
    """Normalized type probabilities k**-a, k = 1..vocabulary_size."""
    k = np.arange(1, spec.vocabulary_size + 1, dtype=np.float64)
    weights = k ** (-spec.exponent)
    return weights / weights.sum()


def _type_index_chunks(spec: SyntheticSpec) -> Iterator[np.ndarray]:
    """The zero-based type index of each publication, in ``int64`` chunks of
    at most ``_DRAWS_PER_CHUNK``.

    Inverse-CDF sampling: uniforms from ``PCG64(SeedSequence(seed))`` pushed
    through searchsorted on the cumulative type probabilities. The chunks
    draw the uniforms that one call for the whole corpus would.
    """
    cdf = np.cumsum(type_probabilities(spec))
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    for start in range(0, spec.corpus_size, _DRAWS_PER_CHUNK):
        uniforms = rng.random(min(_DRAWS_PER_CHUNK, spec.corpus_size - start))
        yield np.searchsorted(cdf, uniforms, side="right").astype(np.int64, copy=False)


def sample_type_indices(spec: SyntheticSpec) -> np.ndarray:
    """Zero-based type index per publication, as one array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *_type_index_chunks(spec)])


def _template_authors(type_number: int, sequence: ContinentSequence,
                      pools: dict[Continent, tuple[str, ...]]) -> tuple[AuthorRecord, ...]:
    labels = [label for continent, n in sequence.parts for label in pools[continent][:n]]
    return tuple(
        AuthorRecord(f"s{type_number:05d}-a{member:02d}",
                     (Affiliation(f"synthetic institute {type_number}-{member}", label),))
        for member, label in enumerate(labels, 1))


def _templates(spec: SyntheticSpec) -> Callable[[int], tuple[AuthorRecord, ...]]:
    """The template authors of a zero-based type index of ``spec``'s vocabulary."""
    table = default_table()
    vocabulary = sequence_vocabulary(spec.vocabulary_size, table)
    pools = table.countries_by_continent()
    return lambda key: _template_authors(key + 1, vocabulary[key], pools)


class _Memo(dict):
    """``make(key)`` for each key, made on its first lookup."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def iter_corpus(spec: SyntheticSpec) -> Iterator[PublicationRecord]:
    """Stream the corpus for ``spec`` without holding it all in memory."""
    templates = _Memo(_templates(spec))
    keys = chain.from_iterable(map(memoryview, _type_index_chunks(spec)))  # Python ints
    for i, key in enumerate(keys):
        yield PublicationRecord(f"syn-{i:08d}", _FIRST_YEAR + i % _YEARS, templates[key])


def _id_suffixes() -> list[bytes]:
    """The last four digits of each id in a block, ``b"0000"`` to ``b"9999"``."""
    return [b"%04d" % j for j in range(_IDS_PER_BLOCK)]


def corpus_chunks(spec: SyntheticSpec) -> Iterator[bytes]:
    """The bytes ``write_corpus(iter_corpus(spec))`` writes, one chunk per
    block of ``_IDS_PER_BLOCK`` lines.

    A line is a head that ends in the block's id prefix, the id's last four
    digits, the year's piece (``","year":2015``) and the type's tail. The
    head and year pieces are cut from a :func:`record_to_json` line, as the
    tails are; each chunk is one join over C-level iterators.
    """
    template = _templates(spec)

    def tail(key: int) -> bytes:  # the line's end from ',"authors":' on
        line = record_to_json(PublicationRecord("", _FIRST_YEAR, template(key)))
        return (line[line.index(',"authors":'):] + "\n").encode()

    tails = _Memo(tail)  # rendered on the type's first draw
    suffixes = _id_suffixes()
    years = []
    for year in range(_FIRST_YEAR, _FIRST_YEAR + _YEARS):  # "|" marks where the id goes
        line = record_to_json(PublicationRecord("|", year, template(0))).encode()
        head, after = line.split(b"|", 1)
        years.append(after[:after.index(b',"authors":')])
    keys = chain.from_iterable(map(memoryview, _type_index_chunks(spec)))  # Python ints
    for block, start in enumerate(range(0, spec.corpus_size, _IDS_PER_BLOCK)):
        # zip stops at the first iterator to run out, so no key is taken past the block
        lines = zip(repeat(head + _ID_PREFIX % block, spec.corpus_size - start), suffixes,
                    islice(cycle(years), start % _YEARS, None), map(tails.__getitem__, keys))
        yield b"".join(chain.from_iterable(lines))


def generate_corpus(spec: SyntheticSpec) -> list[PublicationRecord]:
    """Materialize the full synthetic corpus for ``spec``."""
    return list(iter_corpus(spec))
