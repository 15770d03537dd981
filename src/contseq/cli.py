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
import json
import os
import sys
from collections import Counter
from contextlib import ExitStack
from functools import partial
from itertools import islice
from multiprocessing import Pool
from pathlib import Path
from typing import Iterable, Iterator

from .crawl import CorpusStore, CrawlPolicy, crawl
from .errors import ContseqError, EmptyInputError, InsufficientDataError
from .files import opened, writing
# filter_record and map_to_sequence are unused here; bench/layers.py patches them by name.
from .ingest import (ExclusionPolicy, IngestReport, MalformedRecord, RejectReason, classify,
                     corpus_lines, filter_record, parse_record_line, write_corpus)
from .mapping import load_aliases, map_to_sequence, parse_sequence, render_sequence
from .model import ContinentTable, default_table, load_continent_table
from .stats import (RankTable, default_sample_sizes, fit_heap, fit_zipf,
                    format_fit_report, heap_curve, read_heap_file,
                    read_rank_file, write_heap_file, write_rank_file,
                    zipf_sensitivity)
from .syngen import SyntheticSpec, iter_corpus

_POINT_FORMAT = "%.8g"  # plot-data value precision
_MAX_MALFORMED_WARNINGS = 5
_CHUNK_LINES = 65536


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 means "empty result" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """argparse type of the count flags: an integer >= 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _load_table(continents: str | None, aliases: str | None) -> ContinentTable:
    table = load_continent_table(continents) if continents else default_table()
    if aliases:
        table = table.with_aliases(load_aliases(aliases))
    return table


def _out_dir(args) -> Path:
    path = Path(args.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_fit_range(text: str | None) -> tuple[int | None, int | None]:
    if text is None:
        return None, None
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise ValueError(f"--fit-range must look like LO:HI, got {text!r}")
    lo = int(lo_text) if lo_text else None
    hi = int(hi_text) if hi_text else None
    return lo, hi


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with writing(path) as sink:
        sink.writelines(line + "\n" for line in lines)


def _read_sequences(path: str) -> Iterator[str]:
    """The non-blank lines of a sequences file, stripped."""
    with opened(path) as source:
        yield from filter(None, map(str.strip, source))


# ---------------------------------------------------------------------------
# map

def _map_chunk(table: ContinentTable, policy: ExclusionPolicy, payload):
    start_line, lines = payload
    report = IngestReport()
    sequences: list[str] = []
    notices: list[MalformedRecord] = []
    for line_number, line in corpus_lines(lines, start_line):
        item = parse_record_line(line, line_number)
        if isinstance(item, MalformedRecord):
            report.rejected_malformed += 1
            if len(notices) < _MAX_MALFORMED_WARNINGS:
                notices.append(item)
            continue
        result = classify(item, policy, table)
        report.tally(result)
        if not isinstance(result, RejectReason):
            sequences.append(render_sequence(result))
    return sequences, report, notices


def _line_chunks(handle):
    start = 1
    while lines := list(islice(handle, _CHUNK_LINES)):
        yield start, lines
        start += len(lines)


def cmd_map(args) -> int:
    """Parse a corpus file, apply the exclusion rules, and write one
    canonical sequence per accepted record plus a report."""
    out = _out_dir(args)
    # Built here, not in the workers: a pool whose workers fail to start
    # respawns them forever.
    work = partial(_map_chunk, _load_table(args.continents, args.aliases),
                   ExclusionPolicy(args.max_affils))
    threads = args.threads or os.cpu_count() or 1
    report = IngestReport()
    warned = 0
    with ExitStack() as stack:
        source = stack.enter_context(opened(args.input, binary=True))
        sink = stack.enter_context(writing(out / "sequences.txt"))
        if threads > 1:
            results = stack.enter_context(Pool(threads)).imap(work, _line_chunks(source))
        else:
            results = map(work, _line_chunks(source))
        for sequences, part, notices in results:
            sink.writelines(s + "\n" for s in sequences)
            report = report.merge(part)
            for notice in notices:
                if warned < _MAX_MALFORMED_WARNINGS:
                    print(f"warning: line {notice.line_number}: {notice.message}",
                          file=sys.stderr)
                    warned += 1
    if report.rejected_malformed > warned:
        print(f"warning: {report.rejected_malformed - warned} more malformed lines",
              file=sys.stderr)
    with writing(out / "ingest_report.json") as sink:
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
    out = _out_dir(args)
    counts: dict = {}
    for text, n in Counter(_read_sequences(args.input)).items():
        sequence = parse_sequence(text)
        counts[sequence] = counts.get(sequence, 0) + n
    table = RankTable.from_counts(counts)
    write_rank_file(table, out / "rank.csv")
    top = table.entries[0]
    print(f"{len(table)} distinct sequences over {table.total_count} records; "
          f"rank 1 is {render_sequence(top.sequence)!r} at {100 * top.frequency:.2f}%")
    return 0


# ---------------------------------------------------------------------------
# fits

def cmd_fit_zipf(args) -> int:
    """Fit the rank-frequency exponent of a rank file and sweep the
    sensitivity battery."""
    out = _out_dir(args)
    table = read_rank_file(args.input)
    min_rank, max_rank = _parse_fit_range(args.fit_range)
    fit = fit_zipf(table, min_count=args.fit_min_count, min_rank=min_rank,
                   max_rank=max_rank, method=args.fit_method)
    sensitivity = zipf_sensitivity(table, min_count=args.fit_min_count,
                                   method=args.fit_method)
    with writing(out / "zipf_fit.txt") as sink:
        sink.write(format_fit_report(fit, sensitivity))
    print(f"zipf exponent {fit.exponent:.6f} +/- {fit.uncertainty:.6f} "
          f"(ranks {fit.fit_range[0]:g}..{fit.fit_range[1]:g}, "
          f"r^2 {fit.r_squared:.4f})")
    return 0


def cmd_heap(args) -> int:
    """Sample the vocabulary-growth curve of a sequences file and fit it."""
    out = _out_dir(args)
    corpus = list(_read_sequences(args.input))
    if not corpus:
        raise EmptyInputError("no sequences in input")
    print(f"seed {args.seed}")
    sizes = default_sample_sizes(len(corpus), points=args.heap_points)
    curve = heap_curve(corpus, sample_sizes=sizes, repeats=args.heap_repeats,
                       seed=args.seed)
    write_heap_file(curve, out / "heap_curve.csv")
    fit = fit_heap(curve)
    with writing(out / "heap_fit.txt") as sink:
        sink.write(format_fit_report(fit))
    print(f"heap exponent {fit.exponent:.6f} +/- {fit.uncertainty:.6f} "
          f"(N {fit.fit_range[0]:g}..{fit.fit_range[1]:g})")
    return 0


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    """Write a synthetic corpus with a known Zipfian type distribution."""
    out = _out_dir(args)
    spec = SyntheticSpec(vocabulary_size=args.vocab, exponent=args.exponent,
                         corpus_size=args.size, seed=args.seed)
    print(f"seed {args.seed}")
    written = write_corpus(iter_corpus(spec), out / "corpus.jsonl")
    print(f"wrote {written} records to {out / 'corpus.jsonl'}")
    return 0


# ---------------------------------------------------------------------------
# crawl

def cmd_crawl(args) -> int:
    """Crawl the co-authorship graph of a corpus file from a seed author."""
    out = _out_dir(args)
    store = CorpusStore.from_file(args.input)
    # any PublicationStore may stand in for the CorpusStore (bench/layers.py wraps it)
    if skipped := getattr(store, "duplicates_skipped", 0):
        print(f"warning: duplicate publication ids: kept the first record of each, "
              f"skipped {skipped}", file=sys.stderr)
    policy = CrawlPolicy(max_distance=args.max_distance,
                         min_total_publications=args.min_pubs,
                         min_last_publication_year=args.min_year,
                         collect_pruned_publications=not args.drop_pruned_pubs)
    result = crawl(store, args.seed_author, policy)
    by_distance = sorted(result.distances.items(), key=lambda kv: (kv[1], kv[0]))
    _write_lines(out / "crawl_distances.csv", ["author_id,distance"] + [
        f"{author},{distance}" for author, distance in by_distance])
    _write_lines(out / "crawl_pruned.csv", ["author_id,reason"] + [
        f"{author},{result.frontier_pruned[author].value}"
        for author in sorted(result.frontier_pruned)])
    _write_lines(out / "crawl_publications.txt", sorted(result.publication_ids))
    expanded = len(result.distances) - len(result.frontier_pruned)
    print(f"visited {len(result.distances)} authors ({expanded} expanded, "
          f"{len(result.frontier_pruned)} pruned); "
          f"collected {len(result.publication_ids)} publications")
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
        print("error: need --rank-file and/or --heap-file", file=sys.stderr)
        return 1
    out = _out_dir(args)
    if args.rank_file:
        table = read_rank_file(args.rank_file)
        min_rank, max_rank = _parse_fit_range(args.fit_range)
        fit = fit_zipf(table, min_count=args.fit_min_count, min_rank=min_rank,
                       max_rank=max_rank)
        _write_plot(out, "rank", [e.rank for e in table.entries],
                    [e.frequency for e in table.entries], fit, -fit.exponent)
    if args.heap_file:
        curve = read_heap_file(args.heap_file)
        fit = fit_heap(curve)
        _write_plot(out, "heap", [p.n for p in curve.points],
                    [p.v_mean for p in curve.points], fit, fit.exponent)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contseq",
                     description="Continent-sequence corpus analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="parse a corpus, apply exclusion rules, "
                                   "emit canonical sequences")
    p.add_argument("--input", required=True, help="corpus file (JSON lines)")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--continents", help="territory table CSV (default: built-in)")
    p.add_argument("--aliases", help="alias table CSV")
    p.add_argument("--max-affils", type=_count, default=5,
                   help="reject records where an author has more affiliations")
    p.add_argument("--threads", type=_count,
                   help="worker processes (default: all cores)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("rank", help="build the rank-frequency table of a "
                                    "sequences file")
    p.add_argument("--input", required=True, help="sequences file, one per line")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("fit-zipf", help="fit the rank-frequency exponent of a "
                                        "rank file")
    p.add_argument("--input", required=True, help="rank file (rank.csv)")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--fit-min-count", type=int, default=10)
    p.add_argument("--fit-range", help="rank window LO:HI (either side open)")
    p.add_argument("--fit-method", choices=("ols", "mle"), default="ols")
    p.set_defaults(func=cmd_fit_zipf)

    p = sub.add_parser("heap", help="sample and fit the vocabulary-growth curve")
    p.add_argument("--input", required=True, help="sequences file, one per line")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--heap-points", type=_count, default=20,
                   help="log-spaced sample sizes")
    p.add_argument("--heap-repeats", type=_count, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_heap)

    p = sub.add_parser("gen", help="generate a synthetic corpus with a known "
                                   "Zipfian distribution")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--vocab", type=_count, default=1000, help="distinct sequence types")
    p.add_argument("--exponent", type=float, default=1.9)
    p.add_argument("--size", type=int, default=10000, help="number of records")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("crawl", help="breadth-first co-authorship crawl over a "
                                     "corpus file")
    p.add_argument("--input", required=True, help="corpus file (JSON lines)")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed-author", required=True, help="author id to start from")
    p.add_argument("--max-distance", type=int, default=6)
    p.add_argument("--min-pubs", type=_count, default=50)
    p.add_argument("--min-year", type=int, default=2015)
    p.add_argument("--drop-pruned-pubs", action="store_true",
                   help="do not collect pruned authors' publications")
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser("plotdata", help="emit plot-ready data for the rank and "
                                        "heap figures")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--rank-file", help="rank file to plot")
    p.add_argument("--heap-file", help="heap curve file to plot")
    p.add_argument("--fit-min-count", type=int, default=10)
    p.add_argument("--fit-range", help="rank window LO:HI for the fitted line")
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (exit 1) or --help
        return exc.code
    try:
        return args.func(args)
    except EmptyInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ContseqError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
