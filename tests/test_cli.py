import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contseq
from contseq.cli import main
from contseq.ingest import write_corpus
from contseq.model import ContinentTable
from golden import GOLDEN_RANK_LINES, fixture_sequences
from helpers import coauthored, record


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
        assert len(calls) == 5 * 4

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
    """scipy is imported by the fits that need it, not by every command."""
    code = ("import sys, contseq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(contseq.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"
