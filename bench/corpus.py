"""Seeded inputs for the benchmark, with the ground truth each check needs.

Two corpora:

* ``zipf_truth`` describes the corpus that ``contseq gen`` writes; its truth
  comes from the generator's own type sampler.
* ``write_coauthor_corpus`` writes a messy co-authorship corpus of its own.
  Authors join publications by preferential attachment (Barabasi & Albert,
  Science 1999), so the co-authorship graph has hubs a crawl can traverse.
  Each author has a fixed list of one to four affiliations, mostly in a
  home country drawn from heavy-tailed country weights. Country labels vary
  in case and whitespace, and some use alias-file spellings. A few records
  are deliberately bad: an author with more than five affiliations, an
  unresolvable or missing country, or a truncated JSON line. The generator
  never writes invalid UTF-8 or a duplicate publication id, because either
  one aborts a whole ``map`` or ``crawl`` run today.
"""

from __future__ import annotations

import csv
import gc
import json
from collections import Counter
from itertools import chain
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ACCEPTED, TOO_MANY, UNIDENTIFIABLE, MALFORMED = range(4)
REPORT_KEYS = ("accepted", "rejected_too_many_affiliations",
               "rejected_country_unidentifiable", "rejected_malformed")

# Co-authorship process. Publication i has 1 + Poisson(EXTRA_AUTHORS)
# author slots; each slot is a new author with probability P_NEW, otherwise
# an existing author, drawn uniformly with probability P_UNIFORM and in
# proportion to their publication count otherwise.
EXTRA_AUTHORS = 2.5
MAX_AUTHORS = 12
P_NEW = 0.26
P_UNIFORM = 0.3
AFFILIATION_COUNTS = (1, 2, 3, 4)
AFFILIATION_WEIGHTS = (0.55, 0.25, 0.12, 0.08)
P_ABROAD = 0.4          # an extra affiliation lies outside the home country
COUNTRY_EXPONENT = 0.8  # country weight ~ rank ** -COUNTRY_EXPONENT
FIRST_YEAR, YEARS = 2000, 24

# Label spellings: alias spelling (where the alias file has one), case and
# whitespace variants.
P_ALIAS, P_CASE, P_SPACE = 0.3, 0.2, 0.15

# Per-record defects, drawn independently.
P_TRUNCATED, P_TOO_MANY, P_UNRESOLVABLE = 0.005, 0.015, 0.015
JUNK_LABELS = ("Atlantis", "Unknown", "N/A", "Earth", "Middle-earth", "Zembla")
MISSING = object()  # affiliation without a "country" field
# Sequence parts are ordered by continent name.
CONTINENT_NAMES = ("Africa", "Asia", "Australia & Oceania", "Europe",
                   "North America", "South America")


def normalize(label: str) -> str:
    """The README's label comparison: trim, collapse whitespace, casefold."""
    return " ".join(label.split()).casefold()


@dataclass(frozen=True)
class Geography:
    continent: dict[str, str]             # canonical label -> continent name
    spellings: dict[str, tuple[str, ...]]  # canonical label -> canonical + aliases
    known: frozenset[str]                 # normalized labels that resolve
    aliased: tuple[str, ...]              # alias targets, in alias-file order

    @classmethod
    def load(cls, data_dir: Path) -> "Geography":
        with open(data_dir / "continents.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        continent = {label: name for label, name in rows}
        spellings = {label: [label] for label in continent}
        aliased = {}
        with open(data_dir / "aliases-example.csv", encoding="utf-8", newline="") as handle:
            for alias, target in list(csv.reader(handle))[1:]:
                spellings[target].append(alias)
                aliased[target] = None
        known = frozenset(normalize(s) for group in spellings.values() for s in group)
        return cls(continent, {k: tuple(v) for k, v in spellings.items()}, known,
                   tuple(aliased))


def author_id(index: int) -> str:
    return f"a{index:07d}"


def pub_id(line: int) -> str:
    return f"p{line:07d}"


@dataclass
class CoauthorTruth:
    """What the generator knows about every line it wrote.

    Authors and publications are numbered; their ids are zero-padded, so
    ids sort as their numbers do.
    """

    buckets: bytearray       # bucket code per line
    sequences: list          # expected sequence text per line, or None
    publications: list       # (line, year, author numbers) per parsable line
    author_labels: list      # author number -> bit set of their raw labels
    defect_labels: dict      # line -> bit set of raw labels, where a defect changed them

    @property
    def records(self) -> int:
        return len(self.buckets)

    @property
    def authors(self) -> int:
        return len(self.author_labels)

    def report(self, records: int | None = None) -> dict:
        """Expected ``ingest_report.json`` for the first ``records`` lines."""
        counts = Counter(self.buckets[:records])
        report = {key: counts[code] for code, key in enumerate(REPORT_KEYS)}
        report["total"] = sum(counts.values())
        return report

    def sequence_counts(self, records: int | None = None) -> Counter:
        return Counter(s for s in self.sequences[:records] if s is not None)

    def seed_author(self) -> int:
        """The author with the most publications (smallest number on ties)."""
        authorships = chain.from_iterable(authors for _, _, authors in self.publications)
        return int(np.argmax(np.bincount(np.fromiter(authorships, dtype=np.int64))))

    def distinct_raw_label_sets(self) -> int:
        labels, defects = self.author_labels, self.defect_labels
        seen = set()
        for i, _, authors in self.publications:
            bits = defects.get(i)
            if bits is None:
                bits = 0
                for a in authors:
                    bits |= labels[a]
            seen.add(bits)
        return len(seen)


def _variants(label: str, geo: Geography) -> list[str]:
    """Every spelling of a country: (spelling, case, spacing) flattened."""
    out = []
    for spelling in geo.spellings[label]:
        for case in (spelling, spelling.upper(), spelling.lower(), spelling.title()):
            if normalize(case) != normalize(spelling):
                case = spelling
            spaced = "  " + case.replace(" ", "  ") + " "
            out += [case, spaced if normalize(spaced) == normalize(spelling) else case]
    return out


def write_coauthor_corpus(path: Path, seed: int, records: int,
                          geo: Geography) -> CoauthorTruth:
    """Write ``records`` publications to ``path`` and return their truth."""
    gc.disable()  # the generator allocates millions of small objects
    try:
        return _write_coauthor_corpus(path, seed, records, geo)
    finally:
        gc.enable()


def _write_coauthor_corpus(path: Path, seed: int, records: int,
                           geo: Geography) -> CoauthorTruth:
    for junk in JUNK_LABELS:
        if normalize(junk) in geo.known:
            raise ValueError(f"junk label {junk!r} resolves in the territory table")
    slot_seq, author_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.Generator(np.random.PCG64(slot_seq))
    arng = np.random.Generator(np.random.PCG64(author_seq))

    # Aliased countries head the weight order, as high-volume countries
    # tend to be the ones with many spellings.
    order = [*geo.aliased, *(c for c in geo.continent if c not in geo.aliased)]
    weights = np.arange(1, len(order) + 1, dtype=np.float64) ** -COUNTRY_EXPONENT
    country_cdf = np.cumsum(weights) / weights.sum()
    variants = [_variants(c, geo) for c in order]
    escaped = [[json.dumps(v, ensure_ascii=False) for v in vs] for vs in variants]
    continent_of = [CONTINENT_NAMES.index(geo.continent[c]) for c in order]
    # Raw label sets are kept as bit sets: one bit per distinct label text.
    bit_of: dict = {}
    for label in chain(chain.from_iterable(variants), JUNK_LABELS, ("",)):
        bit_of.setdefault(label, 1 << len(bit_of))
    variant_bits = [[bit_of[v] for v in vs] for vs in variants]

    # Author slots. Slot s is a new author, a uniformly drawn existing
    # author, or the author of a uniformly drawn earlier authorship slot,
    # which picks authors in proportion to their publication count.
    sizes = np.minimum(1 + rng.poisson(EXTRA_AUTHORS, records), MAX_AUTHORS)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    slot_u = rng.random((int(starts[-1]), 2))
    kind = np.where(slot_u[:, 0] < P_NEW, 0,
                    np.where(slot_u[:, 0] < P_NEW + (1 - P_NEW) * P_UNIFORM, 1, 2))
    kind[0] = 0
    new_before = np.cumsum(kind == 0) - (kind == 0)
    record_start = np.repeat(starts[:-1], sizes)
    kind[(kind == 2) & (record_start == 0)] = 1  # no earlier slot to copy yet
    pick = np.where(kind == 1, slot_u[:, 1] * new_before,
                    slot_u[:, 1] * record_start).astype(np.int64)
    slot_author = []
    for k, p, n in zip(kind.tolist(), pick.tolist(), new_before.tolist()):
        slot_author.append(n if k == 0 else p if k == 1 else slot_author[p])

    # Authors: one to four affiliations, the first in the home country.
    authors = int((kind == 0).sum())
    aff_counts = np.minimum(1 + np.searchsorted(
        np.cumsum(AFFILIATION_WEIGHTS), arng.random(authors), side="right"), 4)
    places = np.minimum(np.searchsorted(country_cdf, arng.random((authors, 4)),
                                        side="right"), len(order) - 1)
    abroad = arng.random((authors, 4)) < P_ABROAD
    abroad[:, 0] = False
    places = np.where(abroad, places, places[:, :1])
    u = arng.random((authors, 4, 5))
    n_spellings = np.array([len(geo.spellings[c]) for c in order])[places]
    spelling = np.where((n_spellings > 1) & (u[..., 0] < P_ALIAS),
                        1 + (u[..., 1] * (n_spellings - 1)).astype(np.int64), 0)
    case = np.where(u[..., 2] < P_CASE, 1 + (u[..., 3] * 3).astype(np.int64), 0)
    variant = (spelling * 4 + case) * 2 + (u[..., 4] < P_SPACE)

    fragments, countries, labels, affs_of = [], [], [], []
    for a, (k, place, var) in enumerate(zip(aff_counts.tolist(), places.tolist(),
                                            variant.tolist())):
        affs = [(f"Institute {a}-{j}", place[j], var[j]) for j in range(k)]
        affs_of.append(affs)
        fragments.append('{"author_id":"%s","affiliations":[%s]}' % (author_id(a), ",".join(
            '{"institution":"%s","country":%s}' % (inst, escaped[c][v]) for inst, c, v in affs)))
        countries.append(frozenset(place[:k]))
        bits = 0
        for _, c, v in affs:
            bits |= variant_bits[c][v]
        labels.append(bits)

    def fragment(a: int, affs) -> str:
        parts = []
        for institution, label in affs:
            entry = {"institution": institution}
            if label is not MISSING:
                entry["country"] = label
            parts.append(entry)
        return json.dumps({"author_id": author_id(a), "affiliations": parts},
                          ensure_ascii=False, separators=(",", ":"))

    truth = CoauthorTruth(bytearray(records), [None] * records, [], labels, {})
    rendered: dict[tuple, str] = {}
    defect_u = rng.random((records, 6)).tolist()
    starts = starts.tolist()
    lines: list[str] = []
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        for i in range(records):
            chosen = list(dict.fromkeys(slot_author[starts[i]:starts[i + 1]]))
            year = FIRST_YEAR + i * YEARS // records
            frags = [fragments[a] for a in chosen]
            d = defect_u[i]
            too_many, unresolvable = d[1] < P_TOO_MANY, d[2] < P_UNRESOLVABLE
            if too_many or unresolvable:
                k = int(d[3] * len(chosen))
                affs = [(inst, variants[c][v]) for inst, c, v in affs_of[chosen[k]]]
                if too_many:
                    extra = 6 - len(affs) + int(d[4] * 2)
                    affs += [(f"Visiting {i}-{j}", affs[0][1]) for j in range(extra)]
                if unresolvable:
                    junk = (*JUNK_LABELS, "", MISSING)[int(d[5] * (len(JUNK_LABELS) + 2))]
                    affs[-1] = (affs[-1][0], junk)
                frags[k] = fragment(chosen[k], affs)
                bits = 0
                for a in chosen:
                    if a != chosen[k]:
                        bits |= labels[a]
                for _, label in affs:
                    if label is not MISSING:
                        bits |= bit_of[label]
                truth.defect_labels[i] = bits
            line = (f'{{"schema_version":1,"id":"{pub_id(i)}","year":{year},'
                    f'"authors":[{",".join(frags)}]}}')
            if d[0] < P_TRUNCATED:
                line = line[:1 + int(d[4] * (len(line) - 2))]
                truth.buckets[i] = MALFORMED
            else:
                truth.publications.append((i, year, tuple(chosen)))
                if too_many:
                    truth.buckets[i] = TOO_MANY
                elif unresolvable:
                    truth.buckets[i] = UNIDENTIFIABLE
                else:
                    counts = [0] * len(CONTINENT_NAMES)
                    for c in frozenset().union(*[countries[a] for a in chosen]):
                        counts[continent_of[c]] += 1
                    key = tuple(counts)
                    text = rendered.get(key)
                    if text is None:
                        text = rendered[key] = ", ".join(
                            f"{name} ({n})" for name, n in zip(CONTINENT_NAMES, key) if n)
                    truth.sequences[i] = text
            lines.append(line)
            if len(lines) == 4096:
                sink.write("\n".join(lines) + "\n")
                lines.clear()
        if lines:
            sink.write("\n".join(lines) + "\n")
    return truth


@dataclass
class ZipfTruth:
    records: int
    counts: Counter          # expected sequence text -> count
    raw_label_sets: int
    authors: int

    def sequence_counts(self, records: int | None = None) -> Counter:
        return self.counts

    def report(self, records: int | None = None) -> dict:
        n = self.records if records is None else records
        return {"accepted": n, "rejected_too_many_affiliations": 0,
                "rejected_country_unidentifiable": 0, "rejected_malformed": 0,
                "total": n}


def zipf_truth(vocab: int, exponent: float, size: int, seed: int,
               records: int | None = None) -> ZipfTruth:
    """Truth for ``contseq gen`` output, from the generator's type sampler.

    Each sampled type k is one record whose authors hold the first n
    countries of each continent in its sequence, so the distinct raw-label
    sets are the distinct types and every type contributes its country
    count to the author total. ``records`` limits the truth to a prefix.
    """
    from contseq.model import default_table
    from contseq.syngen import SyntheticSpec, sample_type_indices, sequence_vocabulary

    spec = SyntheticSpec(vocabulary_size=vocab, exponent=exponent,
                         corpus_size=size, seed=seed)
    indices = sample_type_indices(spec)[:records]
    bincount = np.bincount(indices, minlength=vocab)
    vocabulary = sequence_vocabulary(vocab, default_table())
    counts = Counter()
    authors = 0
    for k in np.flatnonzero(bincount):
        parts = vocabulary[k].parts
        counts[", ".join(f"{c.value} ({n})" for c, n in parts)] = int(bincount[k])
        authors += sum(n for _, n in parts)
    return ZipfTruth(len(indices), counts, len(counts), authors)
