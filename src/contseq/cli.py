"""Batch command-line pipeline.

Stages communicate through files so every artifact (corpus, sequences, rank
table, curves, fits) stays independently inspectable:

    contseq gen       --output-dir out --vocab 5000 --exponent 1.9 --size 100000
    contseq map       --input out/corpus.jsonl --output-dir out
    contseq rank      --input out/sequences.txt --output-dir out
    contseq fit-zipf  --input out/rank.csv --output-dir out
    contseq heap      --input out/sequences.txt --output-dir out
    contseq plotdata  --rank-file out/rank.csv --heap-file out/heap_curve.csv --output-dir out
    contseq crawl     --input out/corpus.jsonl --seed-author s00001-a01 --output-dir out

Exit codes: 0 success, 1 I/O or configuration error, 2 empty result,
3 insufficient data for a fit. All outputs are UTF-8 with Unix line endings
and fixed numeric formatting, so a rerun with identical inputs and options
is byte-identical; each is replaced atomically, so a failed command leaves
the previous file, or none. Randomized commands take ``--seed`` (default 0)
and print the seed they used.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import json
import sys
from collections import defaultdict
from concurrent.futures import BrokenExecutor
from functools import partial
from itertools import chain, count, islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .crawl import CorpusStore, CrawlPolicy, crawl
from .errors import ContseqError, EmptyInputError, InsufficientDataError, SequenceFormatError
from .files import at_row, opened, read_ranges, writing
# parse_record_line, filter_record and map_to_sequence are unused here;
# bench/layers.py patches them by name.
from .ingest import (MAX_NOTICES, ExclusionPolicy, IngestReport, SequenceMapper,
                     filter_record, parse_record_line)
from .mapping import map_to_sequence, parse_sequence, render_sequence
from .model import (ContinentSequence, ContinentTable, default_table, load_aliases,
                    load_continent_table)
from .stats import (RankTable, default_sample_sizes, fit_heap, fit_zipf,
                    format_fit_report, heap_curve, read_heap_file,
                    read_rank_file, write_heap_file, write_rank_file,
                    zipf_sensitivity)
from .syngen import SyntheticSpec, corpus_chunks

_POINT_FORMAT = "%.8g"  # plot-data value precision


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 means "empty result" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _count(text: str, low: int = 1) -> int:
    """argparse type of the count flags: an integer >= 1, or >= ``low``
    (``--seed`` takes ``low=0``)."""
    if not (text.isdecimal() and int(text) >= low):
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return int(text)


def _rank_window(text: str) -> tuple[int | None, int | None]:
    """argparse type of ``--fit-range``: ``(lo, hi)`` from LO:HI, each side an
    integer >= 1 or empty (open), and LO <= HI."""
    sides = text.split(":")
    if len(sides) == 2 and all(s == "" or s.isdecimal() and int(s) >= 1 for s in sides):
        lo, hi = (int(s) if s else None for s in sides)
        if lo is None or hi is None or lo <= hi:
            return lo, hi
    raise argparse.ArgumentTypeError(
        f"expected LO:HI with integers 1 <= LO <= HI, either side empty, got {text!r}")


def _load_table(continents: str | None, aliases: str | None) -> ContinentTable:
    table = load_continent_table(continents) if continents else default_table()
    return load_aliases(aliases, table) if aliases else table


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with writing(path) as sink:
        sink.writelines(line + "\n" for line in lines)


def _write_csv(path: Path, rows: Iterable[tuple]) -> None:
    """Quoted only where a cell needs it, so plain ids stay as they are."""
    with writing(path) as sink:
        csv.writer(sink, lineterminator="\n").writerows(rows)


def _read_sequences(path: str) -> tuple[np.ndarray, list[ContinentSequence]]:
    """The ``int32`` sequence code of each non-blank line of a sequences
    file, and the distinct sequences by code, in first-seen order.

    The file is read once, as bytes split at ``\\n``, and a byte-order mark
    is dropped from the first row only. Each distinct stripped line is then
    decoded and parsed once, in the order of its first row, so the first row
    that is not UTF-8 (ValueError) or does not parse (SequenceFormatError) is
    the one named. Texts that differ only in case or spacing parse to one
    sequence and share its code."""
    numbers = defaultdict(count().__next__)  # stripped line -> its number, in first-seen order
    with opened(path, binary=True) as lines:
        lines = chain((line.removeprefix(codecs.BOM_UTF8) for line in islice(lines, 1)), lines)
        rows = np.fromiter(map(numbers.__getitem__, map(bytes.strip, lines)), dtype=np.int32)
    codes = np.full(len(numbers), -1, dtype=np.int32)  # -1: a blank line
    sequences: dict[ContinentSequence, int] = {}
    for number, line in enumerate(numbers):
        try:
            if text := line.decode().strip():
                codes[number] = sequences.setdefault(parse_sequence(text), len(sequences))
        except (UnicodeDecodeError, SequenceFormatError) as exc:
            row = int(np.argmax(rows == number)) + 1  # the line's first row
            if isinstance(exc, SequenceFormatError):
                raise SequenceFormatError(at_row(path, row, exc)) from None
            raise ValueError(at_row(path, row, "invalid UTF-8")) from None
    rows = codes[rows]  # each line's sequence code
    return (rows[rows >= 0] if (codes < 0).any() else rows), list(sequences)


# ---------------------------------------------------------------------------
# map

def cmd_map(args) -> int:
    """Parse a corpus file, apply the exclusion rules, and write one
    canonical sequence per accepted record plus a report."""
    # built here, not in the workers, so that a bad table fails before any output opens
    mapper = SequenceMapper(ExclusionPolicy(args.max_affils),
                            _load_table(args.continents, args.aliases))
    report = IngestReport()
    warned = lines_before = 0
    with writing(args.output_dir / "sequences.txt") as sink:
        for sequences, part, notices, lines in read_ranges(
                args.input, mapper.map_lines, args.threads):
            sink.write(sequences)
            report = report.merge(part)
            for notice in notices:
                if warned < MAX_NOTICES:
                    print(f"warning: line {lines_before + notice.line_number}: "
                          f"{notice.message}", file=sys.stderr)
                    warned += 1
            lines_before += lines
    if report.rejected_malformed > warned:
        print(f"warning: {report.rejected_malformed - warned} more malformed lines",
              file=sys.stderr)
    with writing(args.output_dir / "ingest_report.json") as sink:
        sink.write(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    print(f"accepted {report.accepted} of {report.total} records "
          f"({report.rejected_malformed} malformed, "
          f"{report.rejected_too_many_affiliations} too many affiliations, "
          f"{report.rejected_country_unidentifiable} country unidentifiable)")
    return 0 if report.accepted > 0 else 2


# ---------------------------------------------------------------------------
# rank

def cmd_rank(args) -> int:
    """Aggregate a sequences file into the rank,sequence,count,percent table."""
    codes, sequences = _read_sequences(args.input)
    table = RankTable.from_counts(dict(zip(sequences, np.bincount(codes).tolist())))
    write_rank_file(table, args.output_dir / "rank.csv")
    top = table.entries[0]
    print(f"{len(table)} distinct sequences over {table.total_count} records; "
          f"rank 1 is {render_sequence(top.sequence)!r} at {100 * top.frequency:.2f}%")
    return 0


# ---------------------------------------------------------------------------
# fits

def _fit_rank_file(path: str, args, method: str):
    """The rank table in ``path`` and its Zipf fit under the ``--fit-*`` flags."""
    table = read_rank_file(path)
    min_rank, max_rank = args.fit_range
    return table, fit_zipf(table, min_count=args.fit_min_count, min_rank=min_rank,
                           max_rank=max_rank, method=method)


def cmd_fit_zipf(args) -> int:
    """Fit the rank-frequency exponent of a rank file and sweep the
    sensitivity battery."""
    table, fit = _fit_rank_file(args.input, args, args.fit_method)
    sensitivity = zipf_sensitivity(table, min_count=args.fit_min_count,
                                   method=args.fit_method)
    with writing(args.output_dir / "zipf_fit.txt") as sink:
        sink.write(format_fit_report(fit, sensitivity))
    print(f"zipf exponent {fit.exponent:.6f} +/- {fit.uncertainty:.6f} "
          f"(ranks {fit.fit_range[0]:g}..{fit.fit_range[1]:g}, "
          f"r^2 {fit.r_squared:.4f})")
    return 0


def cmd_heap(args) -> int:
    """Sample the vocabulary-growth curve of a sequences file and fit it."""
    corpus, _ = _read_sequences(args.input)
    if not corpus.size:
        raise EmptyInputError("no sequences in input")
    print(f"seed {args.seed}")
    sizes = default_sample_sizes(len(corpus), points=args.heap_points)
    curve = heap_curve(corpus, sample_sizes=sizes, repeats=args.heap_repeats,
                       seed=args.seed)
    fit = fit_heap(curve)  # before any write: a failed fit leaves the previous files
    write_heap_file(curve, args.output_dir / "heap_curve.csv")
    with writing(args.output_dir / "heap_fit.txt") as sink:
        sink.write(format_fit_report(fit))
    print(f"heap exponent {fit.exponent:.6f} +/- {fit.uncertainty:.6f} "
          f"(N {fit.fit_range[0]:g}..{fit.fit_range[1]:g})")
    return 0


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    """Write a synthetic corpus with a known Zipfian type distribution."""
    spec = SyntheticSpec(vocabulary_size=args.vocab, exponent=args.exponent,
                         corpus_size=args.size, seed=args.seed)
    path = args.output_dir / "corpus.jsonl"
    with writing(path, binary=True) as sink:
        print(f"seed {args.seed}")
        sink.writelines(corpus_chunks(spec))
    print(f"wrote {spec.corpus_size} records to {path}")
    return 0


# ---------------------------------------------------------------------------
# crawl

def cmd_crawl(args) -> int:
    """Crawl the co-authorship graph of a corpus file from a seed author."""
    policy = CrawlPolicy(max_distance=args.max_distance,
                         min_total_publications=args.min_pubs,
                         min_last_publication_year=args.min_year,
                         collect_pruned_publications=not args.drop_pruned_pubs)
    store = CorpusStore.from_file(args.input)
    # any PublicationStore may stand in for the CorpusStore (bench/layers.py wraps it)
    if skipped := getattr(store, "duplicates_skipped", 0):
        print(f"warning: duplicate publication ids: kept the first record of each, "
              f"skipped {skipped}", file=sys.stderr)
    if malformed := getattr(store, "malformed_skipped", 0):
        print(f"warning: skipped {malformed} malformed lines", file=sys.stderr)
    result = crawl(store, args.seed_author, policy)
    distances, pruned = result.distances, result.frontier_pruned
    # by distance, then id: a stable sort of the ids in order
    by_distance = sorted(distances)
    by_distance.sort(key=distances.__getitem__)
    _write_csv(args.output_dir / "crawl_distances.csv", chain(
        [("author_id", "distance")], ((author, distances[author]) for author in by_distance)))
    _write_csv(args.output_dir / "crawl_pruned.csv", chain(
        [("author_id", "reason")], ((author, pruned[author].value) for author in sorted(pruned))))
    _write_lines(args.output_dir / "crawl_publications.txt", sorted(result.publication_ids))
    print(f"visited {len(distances)} authors ({len(distances) - len(pruned)} expanded, "
          f"{len(pruned)} pruned); collected {len(result.publication_ids)} publications")
    return 0


# ---------------------------------------------------------------------------
# plotdata

def _write_plot(out: Path, name: str, xs, ys, fit, slope: float) -> None:
    """x TAB y points in ``<name>_points.tsv``, the fitted line in ``<name>_fit.tsv``."""
    scale = 10.0 ** fit.intercept
    for kind, values in (("points", ys), ("fit", [scale * x ** slope for x in xs])):
        _write_lines(out / f"{name}_{kind}.tsv",
                     (f"{x:g}\t{_POINT_FORMAT % y}" for x, y in zip(xs, values)))
    print(f"{name} plot data: {len(xs)} points, fitted exponent {fit.exponent:.6f}")


def cmd_plotdata(args) -> int:
    """Emit two-column x TAB y data plus fitted-line companions for the
    rank-frequency and vocabulary-growth figures."""
    if not args.rank_file and not args.heap_file:
        raise ValueError("need --rank-file and/or --heap-file")
    plots = []  # every fit before any write: a failed fit leaves the previous files
    if args.rank_file:
        table, fit = _fit_rank_file(args.rank_file, args, "ols")
        plots.append(("rank", [e.rank for e in table.entries],
                      [e.frequency for e in table.entries], fit, -fit.exponent))
    if args.heap_file:
        curve = read_heap_file(args.heap_file)
        fit = fit_heap(curve)
        plots.append(("heap", [p.n for p in curve.points],
                      [p.v_mean for p in curve.points], fit, fit.exponent))
    for plot in plots:
        _write_plot(args.output_dir, *plot)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contseq", description="Continent-sequence corpus analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, input_help=None):
        """Subcommand ``name`` running ``func``; it reads ``--input`` iff ``input_help``."""
        p = sub.add_parser(name, help=help)
        if input_help:
            p.add_argument("--input", required=True, help=input_help)
        p.add_argument("--output-dir", type=Path, required=True)
        p.set_defaults(func=func)
        return p

    p = command("map", cmd_map, "parse a corpus, apply exclusion rules, emit canonical "
                "sequences", "corpus file (JSON lines)")
    p.add_argument("--continents", help="territory table CSV (default: built-in)")
    p.add_argument("--aliases", help="alias table CSV")
    p.add_argument("--max-affils", type=_count, default=5,
                   help="reject records where an author has more affiliations")
    p.add_argument("--threads", type=_count, help="worker processes (default: all cores)")

    command("rank", cmd_rank, "build the rank-frequency table of a sequences file",
            "sequences file, one per line")

    p = command("fit-zipf", cmd_fit_zipf, "fit the rank-frequency exponent of a rank file",
                "rank file (rank.csv)")
    p.add_argument("--fit-min-count", type=int, default=10)
    p.add_argument("--fit-range", type=_rank_window, default=(None, None),
                   help="rank window LO:HI (either side open)")
    p.add_argument("--fit-method", choices=("ols", "mle"), default="ols")

    p = command("heap", cmd_heap, "sample and fit the vocabulary-growth curve",
                "sequences file, one per line")
    p.add_argument("--heap-points", type=_count, default=20, help="log-spaced sample sizes")
    p.add_argument("--heap-repeats", type=_count, default=5)
    p.add_argument("--seed", type=partial(_count, low=0), default=0)

    p = command("gen", cmd_gen, "generate a synthetic corpus with a known Zipfian "
                "distribution")
    p.add_argument("--vocab", type=_count, default=1000, help="distinct sequence types")
    p.add_argument("--exponent", type=float, default=1.9)
    p.add_argument("--size", type=int, default=10000, help="number of records")
    p.add_argument("--seed", type=partial(_count, low=0), default=0)

    p = command("crawl", cmd_crawl, "breadth-first co-authorship crawl over a corpus file",
                "corpus file (JSON lines)")
    p.add_argument("--seed-author", required=True, help="author id to start from")
    p.add_argument("--max-distance", type=int, default=6)
    p.add_argument("--min-pubs", type=_count, default=50)
    p.add_argument("--min-year", type=int, default=2015)
    p.add_argument("--drop-pruned-pubs", action="store_true",
                   help="do not collect pruned authors' publications")

    p = command("plotdata", cmd_plotdata, "emit plot-ready data for the rank and heap figures")
    p.add_argument("--rank-file", help="rank file to plot")
    p.add_argument("--heap-file", help="heap curve file to plot")
    p.add_argument("--fit-min-count", type=int, default=10)
    p.add_argument("--fit-range", type=_rank_window, default=(None, None),
                   help="rank window LO:HI for the fitted line")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (exit 1) or --help
        return exc.code
    try:
        return args.func(args)
    except (ContseqError, OSError, ValueError, BrokenExecutor) as exc:  # or a worker died
        print(f"error: {exc}", file=sys.stderr)
        return {EmptyInputError: 2, InsufficientDataError: 3}.get(type(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
