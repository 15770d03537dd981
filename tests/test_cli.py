import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import contseq
from contseq import cli, files
from contseq.cli import main
from contseq.ingest import write_corpus
from contseq.model import ContinentTable
from contseq.stats import read_heap_file
from contseq.syngen import SyntheticSpec, corpus_chunks, iter_corpus
from golden import GOLDEN_RANK_LINES, fixture_sequences
from helpers import coauthored, record
from test_crawl import DATA, _bench_module


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def small_corpus(tmp_path, table):
    records = [record(f"p{i}", [["Poland"], ["Germany"]]) for i in range(30)]
    records += [record(f"q{i}", [["Japan"]]) for i in range(10)]
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    return path


class TestMapCommand:
    def test_writes_sequences_and_report(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["map", "--input", str(small_corpus),
                     "--output-dir", str(out), "--threads", "1"]) == 0
        lines = (out / "sequences.txt").read_text().splitlines()
        assert len(lines) == 40
        assert lines[0] == "Europe (2)"
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["accepted"] == 40 and report["total"] == 40
        assert "accepted 40 of 40" in capsys.readouterr().out

    def test_malformed_only_file_exits_2(self, tmp_path, capsys):
        source = tmp_path / "bad.jsonl"
        write_lines(source, ["not json", "{\"id\": 1}"])
        out = tmp_path / "out"
        assert main(["map", "--input", str(source),
                     "--output-dir", str(out), "--threads", "1"]) == 2
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["accepted"] == 0 and report["rejected_malformed"] == 2
        assert "warning" in capsys.readouterr().err

    def test_unreadable_input_exits_1(self, tmp_path):
        assert main(["map", "--input", str(tmp_path / "missing.jsonl"),
                     "--output-dir", str(tmp_path / "out")]) == 1

    def test_thread_counts_agree(self, small_corpus, tmp_path):
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(["map", "--input", str(small_corpus), "--output-dir",
                     str(one), "--threads", "1"]) == 0
        assert main(["map", "--input", str(small_corpus), "--output-dir",
                     str(two), "--threads", "2"]) == 0
        assert (one / "sequences.txt").read_bytes() == (two / "sequences.txt").read_bytes()
        assert (one / "ingest_report.json").read_bytes() == (two / "ingest_report.json").read_bytes()

    def test_resolves_each_affiliation_once(self, tmp_path, monkeypatch):
        records = [record(f"p{i}", [["Poland", "Germany"], ["Japan"], ["Poland"]])
                   for i in range(5)]
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(records, corpus)
        calls = []
        resolve = ContinentTable.resolve

        def counted(self, label):
            calls.append(label)
            return resolve(self, label)

        monkeypatch.setattr(ContinentTable, "resolve", counted)
        assert main(["map", "--input", str(corpus), "--output-dir", str(tmp_path / "out"),
                     "--threads", "1"]) == 0
        # the five records' tails differ (their author ids hold the pub id),
        # so each record resolves each of its distinct labels once
        assert sorted(calls) == sorted(["Germany", "Japan", "Poland"] * 5)

    def test_exclusion_override(self, tmp_path):
        source = tmp_path / "corpus.jsonl"
        write_corpus([record("p1", [["Poland"] * 3])], source)
        out = tmp_path / "out"
        assert main(["map", "--input", str(source), "--output-dir", str(out),
                     "--max-affils", "2", "--threads", "1"]) == 2
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rejected_too_many_affiliations"] == 1

    def test_alias_table_flag(self, tmp_path):
        source = tmp_path / "corpus.jsonl"
        write_corpus([record("p1", [["UK"], ["United Kingdom"]])], source)
        aliases = tmp_path / "aliases.csv"
        aliases.write_text("alias,canonical_label\nUK,United Kingdom\n")
        out = tmp_path / "out"
        assert main(["map", "--input", str(source), "--output-dir", str(out),
                     "--aliases", str(aliases), "--threads", "1"]) == 0
        assert (out / "sequences.txt").read_text() == "Europe (1)\n"


class TestRankCommand:
    def test_golden_rank_file(self, tmp_path):
        source = tmp_path / "sequences.txt"
        write_lines(source, fixture_sequences())
        out = tmp_path / "out"
        assert main(["rank", "--input", str(source), "--output-dir", str(out)]) == 0
        lines = (out / "rank.csv").read_text().splitlines()
        assert tuple(lines[:21]) == GOLDEN_RANK_LINES
        assert len(lines) == 1 + 20 + 18  # header + top-20 + filler

    def test_empty_input_exits_2(self, tmp_path):
        source = tmp_path / "sequences.txt"
        source.write_text("")
        assert main(["rank", "--input", str(source),
                     "--output-dir", str(tmp_path / "out")]) == 2

    def test_idempotent(self, tmp_path):
        source = tmp_path / "sequences.txt"
        write_lines(source, ["Asia (1)"] * 5 + ["Europe (1)"] * 3)
        out = tmp_path / "out"
        main(["rank", "--input", str(source), "--output-dir", str(out)])
        first = (out / "rank.csv").read_bytes()
        main(["rank", "--input", str(source), "--output-dir", str(out)])
        assert (out / "rank.csv").read_bytes() == first


class TestFitCommands:
    @pytest.fixture
    def noiseless_rank_file(self, tmp_path):
        from contseq.stats import write_rank_file
        from test_stats import table_from_ranked_counts
        counts = [round(1e12 * r ** -2.0) for r in range(1, 101)]
        path = tmp_path / "rank.csv"
        write_rank_file(table_from_ranked_counts(counts), path)
        return path

    def test_fit_zipf_noiseless(self, noiseless_rank_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fit-zipf", "--input", str(noiseless_rank_file),
                     "--output-dir", str(out)]) == 0
        report = (out / "zipf_fit.txt").read_text()
        assert "exponent 2.000000" in report
        assert "sensitivity_range" in report
        assert "zipf exponent 2.000000" in capsys.readouterr().out

    def test_fit_zipf_range_and_mle(self, noiseless_rank_file, tmp_path):
        out = tmp_path / "out"
        assert main(["fit-zipf", "--input", str(noiseless_rank_file),
                     "--output-dir", str(out), "--fit-range", "5:50",
                     "--fit-method", "mle"]) == 0
        report = (out / "zipf_fit.txt").read_text()
        assert report.startswith("method mle")
        assert "fit_range 5 50" in report

    def test_fit_zipf_insufficient_exits_3(self, tmp_path):
        source = tmp_path / "sequences.txt"
        write_lines(source, ["Asia (1)"] * 20 + ["Europe (1)"] * 15)
        main(["rank", "--input", str(source), "--output-dir", str(tmp_path)])
        assert main(["fit-zipf", "--input", str(tmp_path / "rank.csv"),
                     "--output-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("counts", [[50] * 20, [10 ** 9, 10, 10]], ids=["flat", "steep"])
    def test_fit_zipf_mle_outside_its_interval_exits_3(self, counts, tmp_path, capsys):
        from contseq.stats import write_rank_file
        from test_stats import table_from_ranked_counts
        write_rank_file(table_from_ranked_counts(counts), tmp_path / "rank.csv")
        out = tmp_path / "out"
        assert main(["fit-zipf", "--input", str(tmp_path / "rank.csv"), "--output-dir",
                     str(out), "--fit-method", "mle"]) == 3
        assert capsys.readouterr() == (
            "", "error: no likelihood maximum for an exponent in [0.05, 20]\n")
        assert not out.exists()

    def test_heap_command(self, tmp_path, capsys):
        source = tmp_path / "sequences.txt"
        write_lines(source, [["Asia (1)", "Europe (1)", "Europe (2)"][i % 3]
                             for i in range(500)])
        out = tmp_path / "out"
        assert main(["heap", "--input", str(source), "--output-dir", str(out),
                     "--heap-points", "6", "--heap-repeats", "3",
                     "--seed", "7"]) == 0
        console = capsys.readouterr().out
        assert "seed 7" in console
        curve = (out / "heap_curve.csv").read_text().splitlines()
        assert curve[0] == "n,v,repeats,v_mean,v_sd"
        assert (out / "heap_fit.txt").read_text().startswith("method ols")
        # rerun is byte-identical for the same seed
        first = (out / "heap_curve.csv").read_bytes()
        main(["heap", "--input", str(source), "--output-dir", str(out),
              "--heap-points", "6", "--heap-repeats", "3", "--seed", "7"])
        assert (out / "heap_curve.csv").read_bytes() == first


    def test_failed_heap_fit_keeps_previous_files(self, tmp_path):
        """A heap run that exits 3 leaves both files of the last good run."""
        good, short = tmp_path / "good.txt", tmp_path / "short.txt"
        write_lines(good, [["Asia (1)", "Europe (1)", "Europe (2)"][i % 3]
                           for i in range(300)])
        write_lines(short, ["Asia (1)"])
        out = tmp_path / "out"
        assert main(["heap", "--input", str(good), "--output-dir", str(out),
                     "--heap-points", "5"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(["heap", "--input", str(short), "--output-dir", str(out)]) == 3
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("garbage", [False, True])
    def test_rank_and_heap_read_sequences_alike(self, tmp_path, capsys, garbage):
        lines = [["Asia (1)", "asia (1)", "Europe (1)", "Europe (2)"][i % 4]
                 for i in range(2000)]
        if garbage:
            lines[5] = "garbage"
        source = tmp_path / "sequences.txt"
        write_lines(source, lines)
        codes = [main([command, "--input", str(source), "--output-dir", str(tmp_path / command)])
                 for command in ("rank", "heap")]
        out, err = capsys.readouterr()
        if garbage:
            assert codes == [1, 1]
            assert err.splitlines() == [
                f"error: {source}: row 6: cannot parse sequence part 'garbage'"] * 2
        else:
            assert codes == [0, 0]
            assert out.startswith("3 distinct sequences over 2000 records")
            curve = read_heap_file(tmp_path / "heap" / "heap_curve.csv")
            assert {point.v for point in curve.points} == {3}  # Asia (1) twice is one


class TestGenCommand:
    def test_gen_prints_seed_and_is_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--output-dir", str(a), "--vocab", "40",
                     "--exponent", "1.9", "--size", "200", "--seed", "3"]) == 0
        assert "seed 3" in capsys.readouterr().out
        assert main(["gen", "--output-dir", str(b), "--vocab", "40",
                     "--exponent", "1.9", "--size", "200", "--seed", "3"]) == 0
        assert (a / "corpus.jsonl").read_bytes() == (b / "corpus.jsonl").read_bytes()

    def test_gen_bad_spec_exits_1(self, tmp_path):
        assert main(["gen", "--output-dir", str(tmp_path), "--vocab", "0"]) == 1

    def test_gen_and_write_corpus_match_the_pinned_corpus(self, tmp_path):
        # sha256 of this gen's corpus.jsonl when gen still serialized every record
        pinned = "00a018f27cf5978f277b180d53316c0b479740b62d4aa264d67df8e296b99906"
        assert main(["gen", "--output-dir", str(tmp_path), "--vocab", "40",
                     "--exponent", "1.9", "--size", "2000", "--seed", "3"]) == 0
        assert hashlib.sha256((tmp_path / "corpus.jsonl").read_bytes()).hexdigest() == pinned
        records = io.StringIO()
        write_corpus(iter_corpus(SyntheticSpec(40, 1.9, 2000, seed=3)), records)
        assert hashlib.sha256(records.getvalue().encode()).hexdigest() == pinned

    def test_failed_gen_leaves_previous_corpus(self, tmp_path, monkeypatch):
        argv = ["gen", "--output-dir", str(tmp_path), "--vocab", "40", "--size", "500"]
        assert main(argv) == 0
        before = (tmp_path / "corpus.jsonl").read_bytes()

        def failing(spec):
            yield b"".join(islice(next(corpus_chunks(spec)).splitlines(keepends=True), 100))
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "corpus_chunks", failing)
        assert main(argv + ["--seed", "1"]) == 1
        assert (tmp_path / "corpus.jsonl").read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == ["corpus.jsonl"]


class TestCrawlCommand:
    def test_outputs(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus([
            coauthored("p1", ["A", "B"], 2020),
            coauthored("p2", ["B", "C"], 2014),
            coauthored("p3", ["C"], 2013),
        ], corpus)
        out = tmp_path / "out"
        assert main(["crawl", "--input", str(corpus), "--seed-author", "A",
                     "--output-dir", str(out), "--max-distance", "6",
                     "--min-pubs", "1", "--min-year", "2015"]) == 0
        distances = (out / "crawl_distances.csv").read_text().splitlines()
        assert distances == ["author_id,distance", "A,0", "B,1", "C,2"]
        pruned = (out / "crawl_pruned.csv").read_text().splitlines()
        assert pruned == ["author_id,reason", "C,stale"]
        pubs = (out / "crawl_publications.txt").read_text().splitlines()
        assert pubs == ["p1", "p2", "p3"]

    def test_ids_round_trip_through_csv(self, tmp_path):
        """An id holding a comma or a quote is quoted; a plain id is not."""
        corpus = tmp_path / "corpus.jsonl"
        write_corpus([
            coauthored("p1", ["A", "Smith, J"], 2020),
            coauthored("p2", ["Smith, J", 'O"Brien'], 2014),
            coauthored("p3", ['O"Brien'], 2013),
        ], corpus)
        out = tmp_path / "out"
        assert main(["crawl", "--input", str(corpus), "--seed-author", "A",
                     "--output-dir", str(out), "--min-pubs", "1", "--min-year", "2015"]) == 0
        with open(out / "crawl_distances.csv", newline="") as handle:
            assert list(csv.reader(handle)) == [
                ["author_id", "distance"], ["A", "0"], ["Smith, J", "1"], ['O"Brien', "2"]]
        with open(out / "crawl_pruned.csv", newline="") as handle:
            assert list(csv.reader(handle)) == [["author_id", "reason"], ['O"Brien', "stale"]]
        assert (out / "crawl_distances.csv").read_text().splitlines()[1] == "A,0"

    def test_unknown_seed_exits_1(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus([coauthored("p1", ["A"])], corpus)
        assert main(["crawl", "--input", str(corpus), "--seed-author", "ghost",
                     "--output-dir", str(tmp_path / "out")]) == 1


class TestPlotdataCommand:
    def test_rank_points_and_fit_line(self, tmp_path):
        source = tmp_path / "sequences.txt"
        write_lines(source, ["Asia (1)"] * 40 + ["Europe (1)"] * 20 + ["Europe (2)"] * 10)
        main(["rank", "--input", str(source), "--output-dir", str(tmp_path)])
        out = tmp_path / "plot"
        assert main(["plotdata", "--rank-file", str(tmp_path / "rank.csv"),
                     "--output-dir", str(out)]) == 0
        points = (out / "rank_points.tsv").read_text().splitlines()
        assert len(points) == 3
        assert points[0].split("\t") == ["1", "%.8g" % (40 / 70)]
        fit_lines = (out / "rank_fit.tsv").read_text().splitlines()
        assert len(fit_lines) == 3
        # the fitted line evaluates the reported power law at each rank
        from contseq.stats import fit_zipf, read_rank_file
        fit = fit_zipf(read_rank_file(tmp_path / "rank.csv"))
        for line, rank in zip(fit_lines, (1, 2, 3)):
            x, y = line.split("\t")
            assert x == str(rank)
            assert y == "%.8g" % (10 ** fit.intercept * rank ** -fit.exponent)

    def test_heap_plot(self, tmp_path):
        source = tmp_path / "sequences.txt"
        write_lines(source, [["Asia (1)", "Europe (1)", "Europe (2)"][i % 3]
                             for i in range(300)])
        main(["heap", "--input", str(source), "--output-dir", str(tmp_path),
              "--heap-points", "5", "--seed", "1"])
        out = tmp_path / "plot"
        assert main(["plotdata", "--heap-file", str(tmp_path / "heap_curve.csv"),
                     "--output-dir", str(out)]) == 0
        assert (out / "heap_points.tsv").exists() and (out / "heap_fit.tsv").exists()

    def test_failed_heap_fit_keeps_previous_files(self, tmp_path):
        """A run whose heap fit exits 3 writes no plot file, not even its
        rank plot: all four files of the last good run keep their bytes."""
        header = "n,v,repeats,v_mean,v_sd"
        runs = {"good": (40, ["10,2,1,2.0,0.0", "20,3,1,3.0,0.0", "40,3,1,3.0,0.0"]),
                "short": (50, ["10,1,1,1.0,0.0", "20,2,1,2.0,0.0"])}
        out, files = tmp_path / "plot", {}
        for name, (top, points) in runs.items():
            source = tmp_path / f"{name}.txt"
            write_lines(source, ["Asia (1)"] * top + ["Europe (1)"] * 20 + ["Europe (2)"] * 10)
            main(["rank", "--input", str(source), "--output-dir", str(tmp_path / name)])
            write_lines(tmp_path / name / "heap.csv", [header, *points])
            assert main(["plotdata", "--rank-file", str(tmp_path / name / "rank.csv"),
                         "--heap-file", str(tmp_path / name / "heap.csv"),
                         "--output-dir", str(out)]) == (0 if name == "good" else 3)
            files[name] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(files["good"]) == 4 and files["short"] == files["good"]

    def test_no_inputs_exits_1(self, tmp_path):
        assert main(["plotdata", "--output-dir", str(tmp_path)]) == 1

    def test_missing_artifact_exits_1(self, tmp_path):
        assert main(["plotdata", "--rank-file", str(tmp_path / "nope.csv"),
                     "--output-dir", str(tmp_path)]) == 1


class TestEndToEnd:
    def test_recovers_generating_exponent(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["gen", "--output-dir", str(out), "--vocab", "5000",
                     "--exponent", "1.9", "--size", "300000", "--seed", "5"]) == 0
        assert main(["map", "--input", str(out / "corpus.jsonl"),
                     "--output-dir", str(out), "--threads", "1"]) == 0
        assert main(["rank", "--input", str(out / "sequences.txt"),
                     "--output-dir", str(out)]) == 0
        assert main(["fit-zipf", "--input", str(out / "rank.csv"),
                     "--output-dir", str(out)]) == 0
        report = (out / "zipf_fit.txt").read_text()
        exponent = float(report.splitlines()[1].split()[1])
        assert 1.85 <= exponent <= 1.95


def test_import_loads_no_scipy():
    """The package needs numpy alone: importing the CLI loads no scipy module."""
    code = ("import sys, contseq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(contseq.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


def test_fits_load_no_scipy(tmp_path):
    """Every fit is numpy only: fit-zipf (OLS and MLE), heap and plotdata
    import neither scipy.stats nor scipy.optimize."""
    sequences = tmp_path / "sequences.txt"
    write_lines(sequences, fixture_sequences())
    out = str(tmp_path)
    commands = [
        ["fit-zipf", "--input", f"{out}/rank.csv", "--output-dir", out],
        ["heap", "--input", str(sequences), "--output-dir", out, "--heap-repeats", "2"],
        ["plotdata", "--rank-file", f"{out}/rank.csv", "--heap-file",
         f"{out}/heap_curve.csv", "--output-dir", out],
        ["fit-zipf", "--input", f"{out}/rank.csv", "--output-dir", out, "--fit-method", "mle"],
    ]
    code = ("import json, sys\n"
            "from contseq.cli import main\n"
            f"main(['rank', '--input', {str(sequences)!r}, '--output-dir', {out!r}])\n"
            f"for argv in {commands!r}:\n"
            "    print(json.dumps([main(argv), 'scipy.stats' in sys.modules,\n"
            "                      'scipy.optimize' in sys.modules]), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(contseq.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    loaded = [json.loads(line) for line in result.stderr.splitlines()]
    assert loaded == [[0, False, False]] * 4


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Under two hash seeds, every command writes the same bytes and prints
    the same: no output follows the order of a set or of str hashes. The
    corpus spans more than two read ranges, so map and crawl read it in a
    pool of workers."""
    corpus = _bench_module("corpus")
    path = tmp_path / "corpus.jsonl"
    truth = corpus.write_coauthor_corpus(path, 5, 16_000, corpus.Geography.load(DATA))
    assert path.stat().st_size > 2 * files._RANGE_BYTES
    seed = corpus.author_id(truth.seed_author())
    commands = [  # each writes to the directory named by its index
        ["map", "--input", str(path), "--threads", "2",
         "--aliases", str(DATA / "aliases-example.csv")],
        ["rank", "--input", "0/sequences.txt"],
        ["fit-zipf", "--input", "1/rank.csv"],
        ["fit-zipf", "--input", "1/rank.csv", "--fit-method", "mle"],
        ["heap", "--input", "0/sequences.txt", "--seed", "1"],
        ["plotdata", "--rank-file", "1/rank.csv", "--heap-file", "4/heap_curve.csv"],
        ["crawl", "--input", str(path), "--seed-author", seed],
        ["crawl", "--input", str(path), "--seed-author", seed, "--min-pubs", "1"],
    ]
    runs = []
    for hash_seed in ("1", "2"):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(contseq.__file__).parents[1]))
        printed = [subprocess.run([sys.executable, "-m", "contseq.cli", *argv,
                                   "--output-dir", str(i)], cwd=cwd, env=env,
                                  capture_output=True, timeout=120)
                   for i, argv in enumerate(commands)]
        written = {str(f.relative_to(cwd)): f.read_bytes()
                   for f in sorted(cwd.rglob("*")) if f.is_file()}
        runs.append(([(p.returncode, p.stdout, p.stderr) for p in printed], written))
    assert [code for code, _, _ in runs[0][0]] == [0] * len(commands), runs[0][0]
    assert runs[0] == runs[1]
