"""In-process run of one contseq command, for the per-layer metrics.

The command runs through ``contseq.cli.main`` in this process. With
``--traced``, timing wrappers sit around the package's public functions,
outside the package, where the CLI looks the functions up; so each call is
timed per record in the stage's own order. Without it, the same command
runs bare, and the difference of the two walls is the tracing overhead.
Each mode runs in a fresh process, so neither inherits the other's heap.
Writes the wall time, metrics and the commands' exit codes to
``<output-dir>/<traced|untraced>.json``.

    python3 bench/layers.py map --input C --output-dir D [--aliases A] --sequences S [--traced]
    python3 bench/layers.py crawl --input C --output-dir D --seed-author X [--traced]
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from collections import defaultdict
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import contseq.cli as cli
import contseq.ingest as ingest
from contseq.crawl import CorpusStore
from contseq.model import ContinentTable

clock = time.perf_counter


MAP_LAYERS = (("parse_record_line", "ingest.parse_s"), ("filter_record", "ingest.filter_s"),
              ("map_to_sequence", "mapping.map_s"), ("render_sequence", "mapping.render_s"))


class Spans:
    """Busy time of timed functions and calls of counted ones, per name."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)

    def wrap(self, name: str, fn):
        seconds = self.seconds

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            seconds[name] += clock() - start
            return result
        return timed

    def count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted


def run_cli(argv: list[str]) -> tuple[int, float]:
    """Exit code and wall time of one in-process command, output discarded."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        start = clock()
        code = cli.main(argv)
        return code, clock() - start


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def decode_floor(path: str) -> float:
    """Seconds for bare ``json.loads`` over the non-blank lines of a corpus."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    loads, error = json.loads, json.JSONDecodeError
    start = clock()
    for line in lines:
        try:
            loads(line)
        except error:
            pass
    return clock() - start


def command(args) -> list[str]:
    """The contseq command line this run executes."""
    if args.command == "map":
        argv = ["map", "--input", args.input, "--threads", "1"]
        if args.aliases:
            argv += ["--aliases", args.aliases]
    else:
        argv = ["crawl", "--input", args.input, "--seed-author", args.seed_author]
    mode = "traced" if args.traced else "untraced"
    return argv + ["--output-dir", str(Path(args.output_dir) / mode)]


def trace_map(args) -> dict:
    out = Path(args.output_dir)
    spans = Spans()
    with ExitStack() as patches:
        for attr, name in MAP_LAYERS:
            patches.enter_context(
                mock.patch.object(cli, attr, spans.wrap(name, getattr(cli, attr))))
        patches.enter_context(mock.patch.object(
            ContinentTable, "resolve",
            spans.count("model.resolve_calls", ContinentTable.resolve)))
        code, traced = run_cli(command(args))
    # A failed command writes no report; the benchmark records its exit code.
    accepted = 0 if code else json.loads(
        (out / "traced" / "ingest_report.json").read_text())["accepted"]
    metrics = {name: spans.seconds[name] for _, name in MAP_LAYERS}
    metrics["cli.map_other_s"] = traced - sum(metrics.values())
    metrics.update({
        "ingest.decode_floor_s": decode_floor(args.input),
        "model.resolve_calls": spans.calls["model.resolve_calls"],
        "model.resolve_per_accepted": spans.calls["model.resolve_calls"] / max(accepted, 1),
    })
    # The stats layers run on the full sequences file, after import.
    stats = out / "stats"
    rank, to_stats = str(stats / "rank.csv"), ["--output-dir", str(stats)]
    commands = {
        "stats.rank_s": [["rank", "--input", args.sequences, *to_stats]],
        "stats.fit_s": [["fit-zipf", "--input", rank, *to_stats],
                        ["fit-zipf", "--input", rank, "--fit-method", "mle",
                         "--output-dir", str(stats / "mle")]],
        "stats.heap_s": [["heap", "--input", args.sequences, "--seed", "1", *to_stats]],
        "stats.plotdata_s": [["plotdata", "--rank-file", rank, "--heap-file",
                              str(stats / "heap_curve.csv"), *to_stats]],
    }
    codes = [code]
    for name, argvs in commands.items():
        metrics[name] = 0.0
        for stage in argvs:
            stage_code, seconds = run_cli(stage)
            codes.append(stage_code)
            metrics[name] += seconds
    return {"wall": traced, "metrics": metrics, "exit_codes": codes}


class CountingStore:
    """A PublicationStore proxy that counts every query."""

    def __init__(self, store, spans: Spans):
        self.publications_of = spans.count("crawl.store_queries", store.publications_of)
        self.authors_of = spans.count("crawl.store_queries", store.authors_of)
        self.profile = spans.count("crawl.store_queries", store.profile)


def trace_crawl(args) -> dict:
    spans = Spans()
    found = {}
    real_crawl = cli.crawl

    class TracedCorpusStore:
        @staticmethod
        def from_file(path):
            before = maxrss_mb()
            store = spans.wrap("crawl.store_build_s", CorpusStore.from_file)(path)
            found["rss"] = maxrss_mb() - before
            return CountingStore(store, spans)

    def traced_crawl(*call_args, **kwargs):
        result = spans.wrap("crawl.traverse_s", real_crawl)(*call_args, **kwargs)
        found["counts"] = (len(result.distances), len(result.frontier_pruned),
                           len(result.publication_ids))
        return result

    # CorpusStore.from_file parses through ingest.parse_corpus, which looks
    # parse_record_line up in the ingest module.
    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(cli, "CorpusStore", TracedCorpusStore))
        patches.enter_context(mock.patch.object(cli, "crawl", traced_crawl))
        patches.enter_context(mock.patch.object(
            ingest, "parse_record_line",
            spans.wrap("ingest.parse_s", ingest.parse_record_line)))
        code, traced = run_cli(command(args))
    # A failed command may stop before either call; its exit code is recorded.
    visited, pruned, collected = found.get("counts", (0, 0, 0))
    metrics = {
        "ingest.parse_s": spans.seconds["ingest.parse_s"],
        "ingest.decode_floor_s": decode_floor(args.input),
        "crawl.store_build_s": spans.seconds["crawl.store_build_s"],
        "crawl.store_rss_mb": found.get("rss", 0.0),
        "crawl.traverse_s": spans.seconds["crawl.traverse_s"],
        "crawl.store_queries": spans.calls["crawl.store_queries"],
        "crawl.authors_visited": visited,
        "crawl.authors_pruned": pruned,
        "crawl.publications_collected": collected,
    }
    return {"wall": traced, "metrics": metrics, "exit_codes": [code]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("map", "crawl"))
    parser.add_argument("--input", required=True)
    parser.add_argument("--output-dir", required=True)
    parser.add_argument("--aliases")
    parser.add_argument("--sequences", help="full sequences file for the stats layers")
    parser.add_argument("--seed-author")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    if not args.traced:
        code, wall = run_cli(command(args))
        result = {"wall": wall, "metrics": {}, "exit_codes": [code]}
    elif args.command == "map":
        result = trace_map(args)
    else:
        result = trace_crawl(args)
    mode = "traced" if args.traced else "untraced"
    # The command makes the directory, unless it failed before that.
    Path(args.output_dir).mkdir(parents=True, exist_ok=True)
    (Path(args.output_dir) / f"{mode}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
