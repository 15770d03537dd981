"""contseq benchmark: seeded workloads, stage timings, output checks, layers.

Run from the repository root:

    python3 bench/run.py --workload zipf-1m --seed 42 --seconds 25 --trace 0

A run generates its workload's input from ``--seed``, runs the real
``contseq`` stage commands as subprocesses and checks every output against
the generator's ground truth. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports per-layer metrics from a separate traced in-process run
(``bench/layers.py``). The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the run record (machine, versions, input properties, and
every command's wall time, peak RSS, problems and output digests).

An operation is one stage command. It fails on a non-zero exit or when its
output fails the workload's check; the error rate is failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import corpus

clock = time.perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
DATA = SRC / "contseq" / "data"
WORK = ROOT / ".bench_work"
LAYERS = Path(__file__).resolve().parent / "layers.py"
COMMAND_TIMEOUT = 170.0  # seconds; a run must end within 180
SECONDS = 25.0  # default measuring time: two passes of zipf-1m or coauthor-crawl

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "records_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "ingest.parse_s": "s", "ingest.decode_floor_s": "s", "ingest.filter_s": "s",
    "mapping.map_s": "s", "mapping.render_s": "s",
    "model.resolve_calls": "count", "model.resolve_per_accepted": "count/record",
    "cli.map_other_s": "s", "cli.map_speedup_2w": "ratio", "cli.import_s": "s",
    "stats.rank_s": "s", "stats.fit_s": "s", "stats.heap_s": "s", "stats.plotdata_s": "s",
    "crawl.store_build_s": "s", "crawl.store_rss_mb": "MB", "crawl.traverse_s": "s",
    "crawl.store_queries": "count", "crawl.authors_visited": "count",
    "crawl.authors_pruned": "count", "crawl.publications_collected": "count",
    "trace.overhead_s": "s",
}

EXCLUDED_INPUTS = (
    "No corpus holds invalid UTF-8 bytes or duplicate publication ids: today "
    "either one aborts a whole map or crawl run (ROADMAP item 4), which would "
    "leave nothing to measure. Add them to a workload once that is fixed.")
CRAWL_ROW_NOTE = (
    "coauthor-crawl replaces the ROADMAP 'crawl --min-pubs 1' row: gen's 1M "
    "corpus is 5,000 disjoint author cliques, so no crawl on it gets past one hop.")


@dataclass(frozen=True)
class Sizes:
    zipf_records: int = 1_000_000
    zipf_vocab: int = 5000
    zipf_trace_records: int = 262_144  # the traced map reads this prefix
    coauthor_records: int = 300_000


# Commands start from this small launcher rather than from the benchmark
# process: a child's peak RSS as wait4 reports it is at least the RSS of the
# process that forked it, and the benchmark holds the ground truth.
LAUNCHER = """\
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([proc.returncode, time.perf_counter() - start, usage.ru_maxrss]))
"""


class Commands:
    """Runs commands in child processes and keeps one entry per operation."""

    def __init__(self, stderr: Path):
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        stderr.parent.mkdir(parents=True, exist_ok=True)
        self.stderr = stderr  # every command's standard error, appended
        self.ops: list[dict] = []

    def launch(self, argv: list) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS (MB) of ``python <argv>``."""
        with open(self.stderr, "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", LAUNCHER, sys.executable, *argv], env=self.env,
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=COMMAND_TIMEOUT)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"launcher exited with {proc.returncode}; see {self.stderr}")
        code, seconds, maxrss_kb = json.loads(out)
        return code, seconds, maxrss_kb / 1024

    def run(self, stage: str, args: list) -> dict:
        """Run ``contseq <args>`` as one operation."""
        code, seconds, rss = self.launch(["-m", "contseq.cli", *map(str, args)])
        shown = [os.path.relpath(a, ROOT) if isinstance(a, Path) else a for a in args]
        op = {"stage": stage, "args": shown, "seconds": seconds,
              "peak_rss_mb": rss, "exit": code,
              "problems": [] if code == 0 else [f"exit code {code}"]}
        self.ops.append(op)
        return op

    def python(self, argv: list) -> float:
        """Run a Python script that must succeed; returns its wall time."""
        code, seconds, _ = self.launch(argv)
        if code != 0:
            raise RuntimeError(f"python {argv} exited with {code}; see {self.stderr}")
        return seconds


def verify(op: dict, check, *args) -> None:
    """Add the problems a check finds; a check that crashes is a problem too."""
    if op["exit"] != 0:
        return
    try:
        op["problems"] += check(*args)
    except Exception as exc:  # a crashing check is a failed operation, not a crash
        op["problems"].append(f"check raised {exc!r}")


def digests(op: dict, out: Path, names) -> None:
    op["outputs"] = {name: checks.sha256(out / name) for name in names
                     if (out / name).is_file()}


def run_layers(commands: Commands, out: Path, args: list, seed: int) -> dict:
    """The untraced and the traced in-process run, each in a fresh process.

    The two run in an order that alternates with the seed's parity, so that
    over many runs the order does not bias ``trace.overhead_s``. Returns the
    traced run's metrics plus ``trace.overhead_s``, and the exit codes of
    the untraced command followed by the traced run's commands.
    """
    result = {}
    for mode in ("untraced", "traced")[::1 if seed % 2 == 0 else -1]:
        commands.python([LAYERS, *args, "--output-dir", out] +
                        (["--traced"] if mode == "traced" else []))
        result[mode] = json.loads((out / f"{mode}.json").read_text(encoding="utf-8"))
    untraced, traced = result["untraced"], result["traced"]
    metrics = dict(traced["metrics"], **{"trace.overhead_s": traced["wall"] - untraced["wall"]})
    return {"metrics": metrics, "exit_codes": untraced["exit_codes"] + traced["exit_codes"]}


MAP_FILES = ("sequences.txt", "ingest_report.json")
FIT_FILES = ("zipf_fit.txt",)
HEAP_FILES = ("heap_curve.csv", "heap_fit.txt")
PLOT_FILES = ("rank_points.tsv", "rank_fit.tsv", "heap_points.tsv", "heap_fit.tsv")


def nonempty(names):
    return lambda out: checks.check_nonempty(out, names)


def map_outputs_check(truth, records=None):
    def check(out: Path) -> list[str]:
        return (checks.check_report(out, truth.report(records))
                + checks.check_sequences(out, truth.sequence_counts(records)))
    return check


class Workload:
    name = ""
    reader = ""  # the stage that reads the corpus
    why = ""
    setups = 1   # set-ups per untraced run; setup_s is their median

    def __init__(self, work: Path, seed: int, sizes: Sizes, commands: Commands):
        self.work, self.seed, self.sizes, self.commands = work, seed, sizes, commands
        self.corpus = work / "corpus.jsonl"
        self.out = work / "out"
        self.truth = None

    def setup(self) -> float:
        """Write the corpus once; returns the seconds writing took.

        The corpus is then flushed to disk, so that write-back does not land
        in the first stage's time.
        """
        seconds = self.write_corpus()
        if self.corpus.is_file():
            with open(self.corpus, "rb+") as handle:
                os.fsync(handle.fileno())
        return seconds

    def write_corpus(self) -> float:
        raise NotImplementedError

    def stages(self) -> list[tuple[str, list[str], object, tuple[str, ...]]]:
        """(stage, args, check(out) -> problems, output names) in run order."""
        raise NotImplementedError

    def properties(self) -> dict:
        raise NotImplementedError

    def trace(self) -> dict:
        raise NotImplementedError

    @property
    def records(self) -> int:
        return self.truth.records

    def run_stages(self) -> list[dict]:
        ops = []
        for stage, args, check, outputs in self.stages():
            op = self.commands.run(stage, args)
            out = Path(args[args.index("--output-dir") + 1])
            verify(op, check, out)
            digests(op, out, outputs)
            ops.append(op)
        return ops

    def in_process(self, stage: str, code: int) -> dict:
        """Record a command the traced run made in-process."""
        op = {"stage": f"in-process {stage}", "exit": code,
              "problems": [] if code == 0 else [f"exit code {code}"]}
        self.commands.ops.append(op)
        return op

    def trace_map(self, map_args: list, corpus_path: Path, truth_check) -> dict:
        """Per-layer metrics of the map workloads."""
        metrics = {}
        walls = {}
        for threads in ("1", "2"):
            out = self.work / f"map{threads}"
            op = self.commands.run(f"map --threads {threads}", [
                "map", "--input", self.corpus, "--output-dir", out,
                "--threads", threads, *map_args])
            verify(op, map_outputs_check(self.truth), out)
            walls[threads] = op["seconds"]
        metrics["cli.map_speedup_2w"] = walls["1"] / walls["2"]
        layers = self.work / "layers"
        result = run_layers(self.commands, layers, [
            "map", "--input", str(corpus_path), "--sequences",
            str(self.work / "map2" / "sequences.txt"), *map_args], self.seed)
        metrics.update(result["metrics"])
        untraced, traced, *stats_codes = result["exit_codes"]
        for run, code in (("untraced", untraced), ("traced", traced)):
            verify(self.in_process(f"{run} map", code), truth_check, layers / run)
        for stage, code in zip(("rank", "fit-zipf", "fit-zipf mle", "heap", "plotdata"),
                               stats_codes):
            op = self.in_process(stage, code)
        verify(op, checks.check_nonempty, layers / "stats", (
            "rank.csv", "zipf_fit.txt", "mle/zipf_fit.txt", "heap_curve.csv",
            "heap_fit.txt", "rank_points.tsv", "rank_fit.tsv", "heap_points.tsv",
            "heap_fit.tsv"))
        return metrics


class ZipfWorkload(Workload):
    name = "zipf-1m"
    reader = "map"
    # One 1M-record gen takes 9-14 s, more than half a pass, so a run sets
    # up once and setup_s is one sample per run.
    setups = 1
    why = ("The criterion-8 corpus of contseq gen: clean and highly repetitive, "
           "so per-country-set memoization, fused ingest and the 2-worker split "
           "show their full effect. Runs no crawl.")

    def write_corpus(self) -> float:
        op = self.commands.run("gen", [
            "gen", "--output-dir", self.work, "--vocab", str(self.sizes.zipf_vocab),
            "--exponent", "1.9", "--size", str(self.sizes.zipf_records),
            "--seed", str(self.seed)])
        if op["exit"] == 0:
            self.truth = corpus.zipf_truth(self.sizes.zipf_vocab, 1.9,
                                           self.sizes.zipf_records, self.seed)
        return op["seconds"]

    def stages(self):
        out, mle = self.out, self.out / "mle"
        counts = self.truth.counts
        return [
            ("map", ["map", "--input", self.corpus, "--output-dir", out, "--threads", "2"],
             map_outputs_check(self.truth), MAP_FILES),
            ("rank", ["rank", "--input", out / "sequences.txt", "--output-dir", out],
             lambda o: checks.check_rank(o, counts), ("rank.csv",)),
            ("fit-zipf", ["fit-zipf", "--input", out / "rank.csv", "--output-dir", out],
             nonempty(FIT_FILES), FIT_FILES),
            ("fit-zipf mle", ["fit-zipf", "--input", out / "rank.csv", "--output-dir", mle,
                              "--fit-method", "mle"], nonempty(FIT_FILES), FIT_FILES),
            ("heap", ["heap", "--input", out / "sequences.txt", "--output-dir", out,
                      "--seed", "1"], nonempty(HEAP_FILES), HEAP_FILES),
            ("plotdata", ["plotdata", "--rank-file", out / "rank.csv", "--heap-file",
                          out / "heap_curve.csv", "--output-dir", out],
             nonempty(PLOT_FILES), PLOT_FILES),
        ]

    def properties(self) -> dict:
        return {"records": self.truth.records, "bytes": self.corpus.stat().st_size,
                "sha256": checks.sha256(self.corpus),
                "distinct_raw_label_sets": self.truth.raw_label_sets,
                "distinct_sequences": len(self.truth.counts),
                "authors": self.truth.authors}

    def trace(self) -> dict:
        prefix = self.work / "prefix.jsonl"
        records = min(self.sizes.zipf_trace_records, self.records)
        with open(self.corpus, encoding="utf-8") as src, \
                open(prefix, "w", encoding="utf-8", newline="\n") as dst:
            for _, line in zip(range(records), src):
                dst.write(line)
        truth = corpus.zipf_truth(self.sizes.zipf_vocab, 1.9, self.sizes.zipf_records,
                                  self.seed, records)
        return self.trace_map([], prefix, map_outputs_check(truth))


class CoauthorWorkload(Workload):
    """Shared set-up of the two workloads on the generated co-authorship corpus."""

    setups = 2  # about 5 s each

    def write_corpus(self) -> float:
        self.truth = None  # free the previous set-up's truth first
        start = clock()
        self.truth = corpus.write_coauthor_corpus(
            self.corpus, self.seed, self.sizes.coauthor_records, corpus.Geography.load(DATA))
        return clock() - start

    def properties(self) -> dict:
        return {"records": self.truth.records, "bytes": self.corpus.stat().st_size,
                "sha256": checks.sha256(self.corpus),
                "distinct_raw_label_sets": self.truth.distinct_raw_label_sets(),
                "distinct_sequences": len(self.truth.sequence_counts()),
                "authors": self.truth.authors,
                "expected_report": self.truth.report()}


class MessyWorkload(CoauthorWorkload):
    name = "messy-300k"
    reader = "map"
    why = ("Larger, messier records: varied label spellings, aliases and every "
           "reject bucket, so memoization by country set helps far less; map "
           "runs on one worker.")

    def map_args(self) -> list:
        return ["--aliases", DATA / "aliases-example.csv"]

    def stages(self):
        out = self.out
        counts = self.truth.sequence_counts()
        return [
            ("map", ["map", "--input", self.corpus, "--output-dir", out, "--threads", "1",
                     *self.map_args()], map_outputs_check(self.truth), MAP_FILES),
            ("rank", ["rank", "--input", out / "sequences.txt", "--output-dir", out],
             lambda o: checks.check_rank(o, counts), ("rank.csv",)),
            ("fit-zipf", ["fit-zipf", "--input", out / "rank.csv", "--output-dir", out],
             nonempty(FIT_FILES), FIT_FILES),
            ("heap", ["heap", "--input", out / "sequences.txt", "--output-dir", out,
                      "--seed", "1"], nonempty(HEAP_FILES), HEAP_FILES),
        ]

    def trace(self) -> dict:
        return self.trace_map(self.map_args(), self.corpus, map_outputs_check(self.truth))


class CrawlWorkload(CoauthorWorkload):
    name = "coauthor-crawl"
    reader = "crawl"
    why = ("The only workload that builds a CorpusStore and traverses a real "
           "graph (preferential attachment); runs no map.")

    def setup(self) -> float:
        seconds = super().setup()
        self.oracle = None
        return seconds

    def expected(self) -> dict:
        if self.oracle is None:
            self.seed_author = corpus.author_id(self.truth.seed_author())
            self.oracle = checks.oracle_crawl(self.truth.publications, self.truth.seed_author(),
                                              corpus.author_id, corpus.pub_id)
        return self.oracle

    def stages(self):
        expected = self.expected()
        return [("crawl", ["crawl", "--input", self.corpus, "--output-dir", self.out,
                           "--seed-author", self.seed_author],
                 lambda o: checks.check_crawl(o, expected), checks.CRAWL_FILES)]

    def properties(self) -> dict:
        props = super().properties()
        props["seed_author"] = self.seed_author
        return props

    def trace(self) -> dict:
        expected = self.expected()
        layers = self.work / "layers"
        result = run_layers(self.commands, layers, [
            "crawl", "--input", str(self.corpus), "--seed-author", self.seed_author],
            self.seed)
        metrics = result["metrics"]
        for run, code in zip(("untraced", "traced"), result["exit_codes"]):
            op = self.in_process(f"{run} crawl", code)
            verify(op, checks.check_crawl, layers / run, expected)
        counts = {"crawl.authors_visited": len(expected["crawl_distances.csv"]) - 1,
                  "crawl.authors_pruned": len(expected["crawl_pruned.csv"]) - 1,
                  "crawl.publications_collected": len(expected["crawl_publications.txt"])}
        for name, want in counts.items():
            if metrics[name] != want:
                self.commands.ops[-1]["problems"].append(f"{name} {metrics[name]} != {want}")
        return metrics


WORKLOADS = {w.name: w for w in (ZipfWorkload, MessyWorkload, CrawlWorkload)}


def import_seconds(commands: Commands, repeats: int = 3) -> float:
    """``import contseq.cli`` in a fresh interpreter, minus bare start-up."""
    bare, full = [], []
    for _ in range(repeats):
        bare.append(commands.python(["-c", "pass"]))
        full.append(commands.python(["-c", "import contseq.cli"]))
    return statistics.median(full) - statistics.median(bare)


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cores": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "git_sha": sha}


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes()) -> tuple[dict, dict]:
    """One benchmark run; returns (result, record)."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Kept next to the run record, outside the directory the run empties.
    stderr = WORK / f"{name}-trace{int(trace)}-stderr.log"
    stderr.unlink(missing_ok=True)
    commands = Commands(stderr)
    workload = WORKLOADS[name](work, seed, sizes, commands)
    record = {"workload": name, "why": workload.why, "seed": seed, "trace": int(trace),
              "machine": machine(), "notes": [EXCLUDED_INPUTS]}
    if name == "coauthor-crawl":
        record["notes"].append(CRAWL_ROW_NOTE)
    units = PER_LAYER if trace else END_TO_END
    metrics = dict.fromkeys(units, 0)  # what a failed run leaves unmeasured
    try:
        if trace:
            workload.setup()
            metrics.update(workload.trace())
            metrics["cli.import_s"] = import_seconds(commands)
        else:
            setups = [workload.setup() for _ in range(workload.setups)]
            passes = []
            start = clock()
            while not passes or clock() - start < seconds:
                passes.append(workload.run_stages())
            reads = [next(op for op in ops if op["stage"] == workload.reader)
                     for ops in passes]
            metrics.update({
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(sum(op["seconds"] for op in ops) for ops in passes),
                "records_per_s": statistics.median(workload.records / op["seconds"]
                                                   for op in reads),
                "peak_rss_mb": statistics.median(max(op["peak_rss_mb"] for op in ops)
                                                 for ops in passes),
            })
            record["setup_seconds"] = setups
            record["passes"] = len(passes)
        record["input"] = workload.properties()
    except Exception as exc:  # a failed run is reported, not a crash
        traceback.print_exc()
        commands.ops.append({"stage": "benchmark", "exit": None,
                             "problems": [f"run raised {exc!r}"]})
    finally:
        record["operations"] = commands.ops
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for op in commands.ops if op["problems"])
    result = {"correct": failed == 0, "attempted": len(commands.ops), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description="contseq benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help="measure whole passes until this many seconds (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "contseq" / "cli.py").is_file():
        print(f"error: no contseq sources at {SRC}; run from the repository root",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    (WORK / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
