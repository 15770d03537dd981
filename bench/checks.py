"""Output checks against the generators' ground truth.

Every check returns a list of problems; an empty list means the output is
right. The crawl oracle is an independent breadth-first search over the
generator's own edge list, following the README's crawling rules.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

RANK_HEADER = ["rank", "sequence", "count", "percent"]
CRAWL_FILES = ("crawl_distances.csv", "crawl_pruned.csv", "crawl_publications.txt")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def check_report(out: Path, expected: dict) -> list[str]:
    got = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    return [] if got == expected else [f"ingest_report.json is {got}, expected {expected}"]


def check_sequences(out: Path, expected: Counter) -> list[str]:
    got = Counter(_lines(out / "sequences.txt"))
    if got == expected:
        return []
    wrong = sorted(set(got) ^ set(expected) | {s for s in got if got[s] != expected[s]})
    return [f"sequences.txt: {len(wrong)} sequences with wrong counts, "
            f"first {wrong[0]!r}: {got[wrong[0]]} != {expected[wrong[0]]}"]


def check_rank(out: Path, expected: Counter) -> list[str]:
    """rank.csv holds the expected counts in rank order, with exact percents."""
    with open(out / "rank.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != RANK_HEADER:
        return ["rank.csv: missing or wrong header"]
    total = sum(expected.values())
    want = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
    # percent is 100 * frequency, frequency = count / total, to two decimals
    want = [[str(r), s, str(n), f"{100.0 * (n / total):.2f}"]
            for r, (s, n) in enumerate(want, start=1)]
    got = rows[1:]
    if got == want:
        return []
    for row, ref in zip(got, want):
        if row != ref:
            return [f"rank.csv: row {row} != expected {ref}"]
    return [f"rank.csv: {len(got)} rows, expected {len(want)}"]


def check_nonempty(out: Path, names) -> list[str]:
    return [f"{name}: missing or empty" for name in names
            if not (out / name).is_file() or (out / name).stat().st_size == 0]


def oracle_crawl(publications, seed: int, author_id, pub_id, max_distance: int = 6,
                 min_pubs: int = 50, min_year: int = 2015) -> dict[str, list[str]]:
    """Expected crawl output lines, by file name, under the default policy.

    ``publications`` holds ``(pub, year, authors)`` for every record the
    store indexes, with publications and authors as numbers whose ids
    (``pub_id(n)``, ``author_id(n)``) sort as the numbers do. Profiles are
    store-wide; the seed is exempt from the criteria; pruned authors'
    publications are collected but their co-authors are not enqueued.
    """
    authors_of = {pub: authors for pub, _, authors in publications}
    n_authors = 1 + max(max(authors) for authors in authors_of.values())
    pubs_of: list[list[int]] = [[] for _ in range(n_authors)]
    last_year = [0] * n_authors
    for pub, year, authors in publications:
        for a in authors:
            pubs_of[a].append(pub)
            if year > last_year[a]:
                last_year[a] = year
    distance = {seed: 0}
    pruned: dict[int, str] = {}
    collected: set[int] = set()
    layer = [seed]
    depth = 0
    while layer:
        following = []
        for author in layer:
            reason = None
            if author != seed:
                if depth > max_distance:
                    reason = "distance_exceeded"
                elif len(pubs_of[author]) < min_pubs:
                    reason = "low_productivity"
                elif last_year[author] < min_year:
                    reason = "stale"
            collected.update(pubs_of[author])
            if reason is not None:
                pruned[author] = reason
                continue
            for pub in pubs_of[author]:
                for co in authors_of[pub]:
                    if co not in distance:
                        distance[co] = depth + 1
                        following.append(co)
        layer = following
        depth += 1
    return {
        "crawl_distances.csv": ["author_id,distance"] + [
            f"{author_id(a)},{d}" for a, d in sorted(distance.items(), key=lambda kv: (kv[1], kv[0]))],
        "crawl_pruned.csv": ["author_id,reason"] + [
            f"{author_id(a)},{pruned[a]}" for a in sorted(pruned)],
        "crawl_publications.txt": [pub_id(p) for p in sorted(collected)],
    }


def check_crawl(out: Path, expected: dict[str, list[str]]) -> list[str]:
    problems = []
    for name in CRAWL_FILES:
        got, want = _lines(out / name), expected[name]
        if got != want:
            first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                         min(len(got), len(want)))
            problems.append(f"{name}: differs from the oracle at line {first + 1} "
                            f"({len(got)} lines, expected {len(want)})")
    return problems
