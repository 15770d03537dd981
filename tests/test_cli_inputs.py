"""Every input file the CLI reads, good and bad: documented exit codes and
one-line errors, count-flag validation, corpus lines that are not valid
UTF-8, and inputs read from named pipes."""

import codecs
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import contseq
from contseq.cli import main
from contseq.ingest import parse_corpus, record_to_json
from helpers import coauthored

GOOD_RECORD = record_to_json(coauthored("p1", ["A", "B"])).encode() + b"\n"
BAD_UTF8 = b'{"schema_version": 1, "id": "p\xff"}\n'
#: A record of A and a co-author whose ids hold unpaired surrogate escapes.
LONE_SURROGATE = json.dumps({"schema_version": 1, "id": "p\ud800", "year": 2020, "authors": [
    {"author_id": author, "affiliations": [{"institution": "I", "country": "Poland"}]}
    for author in ("A", "b\udfff")]}).encode() + b"\n"
RANK_HEADER = b"rank,sequence,count,percent\n"
HEAP_HEADER = b"n,v,repeats,v_mean,v_sd\n"
#: A cell over the csv module's default field size limit of 131,072 characters.
HUGE_FIELD = b"A" * 200_000

MAP = ["map", "--threads", "1", "--input"]
CRAWL = ["crawl", "--seed-author", "A", "--min-pubs", "1", "--input"]
RANK = ["rank", "--input"]
HEAP = ["heap", "--input"]
FIT = ["fit-zipf", "--input"]
PLOT_RANK = ["plotdata", "--rank-file"]
PLOT_HEAP = ["plotdata", "--heap-file"]
CONTINENTS = ["map", "--threads", "1", "--input", "{corpus}", "--continents"]
ALIASES = ["map", "--threads", "1", "--input", "{corpus}", "--aliases"]

MISSING = None
#: (command up to the file argument, file contents, exit code)
CASES = {
    "corpus-missing-map": (MAP, MISSING, 1),
    "corpus-missing-crawl": (CRAWL, MISSING, 1),
    "corpus-empty-map": (MAP, b"", 2),
    "corpus-empty-crawl": (CRAWL, b"", 1),
    "corpus-truncated-line-map": (MAP, GOOD_RECORD + GOOD_RECORD[:20] + b"\n", 0),
    "corpus-invalid-utf8-map": (MAP, GOOD_RECORD + BAD_UTF8, 0),
    "corpus-invalid-utf8-only-map": (MAP, BAD_UTF8, 2),
    "corpus-invalid-utf8-crawl": (CRAWL, BAD_UTF8 + GOOD_RECORD, 0),
    "corpus-lone-surrogate-map": (MAP, LONE_SURROGATE, 2),
    "corpus-lone-surrogate-crawl": (CRAWL, LONE_SURROGATE + GOOD_RECORD, 0),
    "sequences-missing-rank": (RANK, MISSING, 1),
    "sequences-missing-heap": (HEAP, MISSING, 1),
    "sequences-empty-rank": (RANK, b"", 2),
    "sequences-empty-heap": (HEAP, b"\n  \n", 2),
    "sequences-bad-count-rank": (RANK, b"Asia (x)\n", 1),
    "sequences-bad-count-heap": (HEAP, b"Asia (1)\nAsia (x)\n", 1),
    "sequences-invalid-utf8-rank": (RANK, b"Asia (1)\n\xff\n", 1),
    "sequences-invalid-utf8-heap": (HEAP, b"Asia (1)\n\xff\n", 1),
    "sequences-unparsable-lone-cr-rank": (RANK, b"Asia (1)\rEurope (1)\n", 1),
    "sequences-unparsable-lone-cr-heap": (HEAP, b"Asia (1)\rEurope (1)\n", 1),
    "sequences-unparsable-repeated-bom-rank": (RANK, (codecs.BOM_UTF8 + b"Asia (1)\n") * 2, 1),
    "sequences-unparsable-repeated-bom-heap": (HEAP, (codecs.BOM_UTF8 + b"Asia (1)\n") * 2, 1),
    "rank-missing-fit": (FIT, MISSING, 1),
    "rank-missing-plot": (PLOT_RANK, MISSING, 1),
    "rank-empty-fit": (FIT, b"", 2),
    "rank-empty-plot": (PLOT_RANK, b"", 2),
    "rank-header-only-fit": (FIT, RANK_HEADER, 2),
    "rank-wrong-header-fit": (FIT, b"rank,seq\n", 1),
    "rank-wrong-header-plot": (PLOT_RANK, b"rank,seq\n", 1),
    "rank-short-row-fit": (FIT, RANK_HEADER + b'1,"Asia (1)",5\n', 1),
    "rank-short-row-plot": (PLOT_RANK, RANK_HEADER + b'1,"Asia (1)",5\n', 1),
    "rank-non-numeric-fit": (FIT, RANK_HEADER + b'1,"Asia (1)",x,100.00\n', 1),
    "rank-non-numeric-plot": (PLOT_RANK, RANK_HEADER + b'x,"Asia (1)",5,100.00\n', 1),
    "rank-non-numeric-rank-fit": (FIT, RANK_HEADER + b'x,"Asia (1)",5,100.00\n', 1),
    "rank-unparsable-sequence-fit": (FIT, RANK_HEADER + b'1,"Asia (x)",5,100.00\n', 1),
    "rank-invalid-utf8-fit": (FIT, RANK_HEADER + b'1,"Asia (1)",5,\xff\n', 1),
    "rank-invalid-utf8-plot": (PLOT_RANK, RANK_HEADER + b'1,"Asia (1)",5,\xff\n', 1),
    "rank-impossible-count-fit": (FIT, RANK_HEADER + b'1,"Asia (1)",0,50.00\n', 1),
    "rank-impossible-count-plot": (PLOT_RANK, RANK_HEADER + b'1,"Asia (1)",0,50.00\n', 1),
    "rank-huge-field-fit": (FIT, RANK_HEADER + b'1,"' + HUGE_FIELD + b'",5,100.00\n', 1),
    "heap-missing-plot": (PLOT_HEAP, MISSING, 1),
    "heap-empty-plot": (PLOT_HEAP, b"", 2),
    "heap-header-only-plot": (PLOT_HEAP, HEAP_HEADER, 2),
    "heap-wrong-header-plot": (PLOT_HEAP, b"n,v\n", 1),
    "heap-short-row-plot": (PLOT_HEAP, HEAP_HEADER + b"10,5,1\n", 1),
    "heap-non-numeric-plot": (PLOT_HEAP, HEAP_HEADER + b"10,5,1,x,0.0\n", 1),
    "heap-invalid-utf8-plot": (PLOT_HEAP, HEAP_HEADER + b"10,5,1,5.0,\xff\n", 1),
    "heap-non-numeric-n-plot": (PLOT_HEAP, HEAP_HEADER + b"x,5,1,5.0,0.0\n", 1),
    "heap-impossible-point-plot": (PLOT_HEAP, HEAP_HEADER + b"10,50,1,5.0,0.0\n", 1),
    "heap-impossible-mean-nan-plot": (PLOT_HEAP, HEAP_HEADER + b"10,5,1,nan,0.0\n", 1),
    "heap-impossible-mean-negative-plot": (PLOT_HEAP, HEAP_HEADER + b"10,5,1,-3,0.0\n", 1),
    "heap-impossible-sd-plot": (PLOT_HEAP, HEAP_HEADER + b"10,5,1,5.0,inf\n", 1),
    "continents-missing": (CONTINENTS, MISSING, 1),
    "continents-empty": (CONTINENTS, b"", 1),
    "continents-wrong-header": (CONTINENTS, b"country,continent\n", 1),
    "continents-short-row": (CONTINENTS, b"territory,continent\nPoland\n", 1),
    "continents-unknown-continent": (CONTINENTS, b"territory,continent\nPoland,Atlantis\n", 1),
    "continents-invalid-utf8": (CONTINENTS, b"territory,continent\nPoland,Europe\xff\n", 1),
    "continents-huge-field": (CONTINENTS,
                              b"territory,continent\n" + HUGE_FIELD + b",Europe\n", 1),
    "continents-duplicate-territory": (CONTINENTS,
                                       b"territory,continent\nPoland,Europe\n poland ,Europe\n", 1),
    "continents-empty-label": (CONTINENTS, b"territory,continent\nPoland,Europe\n ,Asia\n", 1),
    "aliases-missing": (ALIASES, MISSING, 1),
    "aliases-empty": (ALIASES, b"", 1),
    "aliases-wrong-header": (ALIASES, b"alias,target\n", 1),
    "aliases-short-row": (ALIASES, b"alias,canonical_label\nUK\n", 1),
    "aliases-unknown-target": (ALIASES, b"alias,canonical_label\nUK,Narnia\n", 1),
    "aliases-unknown-target-alias": (ALIASES,
                                     b"alias,canonical_label\nUK,United Kingdom\nGB,UK\n", 1),
    "aliases-unknown-target-alias-first": (ALIASES,
                                           b"alias,canonical_label\nGB,UK\nUK,United Kingdom\n", 1),
    "aliases-invalid-utf8": (ALIASES, b"alias,canonical_label\nUK,United Kingdom\xff\n", 1),
    "aliases-duplicate-alias": (ALIASES,
                                b"alias,canonical_label\nUK,United Kingdom\nuk,United Kingdom\n", 1),
    "aliases-empty-alias": (ALIASES, b"alias,canonical_label\n ,United Kingdom\n", 1),
    "aliases-shadows-territory": (ALIASES, b"alias,canonical_label\nPoland,Germany\n", 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_input_file_exit_code(name, tmp_path, capsys):
    command, contents, expected = CASES[name]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(GOOD_RECORD)
    target = tmp_path / "input"
    if contents is not None:
        target.write_bytes(contents)
    argv = [a.format(corpus=corpus) for a in command]
    argv += [str(target), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
    if expected == 0 or (expected == 2 and command is MAP):  # no error raised
        assert errors == []
    else:
        assert len(errors) == 1 and errors[0].startswith("error: "), err
        if any(kind in name for kind in ("wrong-header", "short-row", "invalid-utf8",
                                         "non-numeric", "unparsable-", "impossible-",
                                         "unknown-continent", "duplicate-", "empty-label",
                                         "empty-alias", "bad-count", "unknown-target",
                                         "shadows-", "huge-field")):
            assert errors[0].startswith(f"error: {target}: row "), err
            assert errors[0].endswith(": invalid UTF-8") == ("invalid-utf8" in name), err


@pytest.mark.parametrize("argv", [
    ["map", "--input", "c.jsonl", "--threads"],
    ["map", "--input", "c.jsonl", "--max-affils"],
    ["heap", "--input", "s.txt", "--heap-points"],
    ["heap", "--input", "s.txt", "--heap-repeats"],
    ["gen", "--vocab"],
    ["crawl", "--input", "c.jsonl", "--seed-author", "A", "--min-pubs"],
])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_count_flags_reject_non_positive(argv, value, tmp_path, capsys):
    assert main([*argv, value, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("contseq") and f"argument {argv[-1]}: " in err[-1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["gen"], ["heap", "--input", "{sequences}"]])
@pytest.mark.parametrize("value", ["-1", "x"])
def test_bad_seed_is_a_usage_error(command, value, tmp_path, capsys):
    """``--seed`` must be an integer >= 0; anything else fails before any file
    is read or written."""
    sequences = tmp_path / "sequences.txt"
    sequences.write_bytes(b"Asia (1)\nEurope (1)\n" * 100)
    out = tmp_path / "out"
    argv = [a.format(sequences=sequences) for a in command]
    assert main([*argv, "--seed", value, "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (f"contseq {command[0]}: error: argument --seed: "
                       f"expected an integer >= 0, got {value!r}"), err
    assert not out.exists()


def test_rank_table_errors_name_the_file(tmp_path, capsys):
    target = tmp_path / "rank.csv"
    target.write_bytes(RANK_HEADER + b'1,"Asia (1)",5,50.00\n3,"Europe (1)",5,50.00\n')
    for command in (FIT, PLOT_RANK):
        assert main([*command, str(target), "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {target}: ranks must be dense; expected 2, got 3\n")


@pytest.mark.parametrize("command", [RANK, HEAP])
def test_first_bad_row_in_file_order_is_named(command, tmp_path, capsys):
    """A line that does not parse, before one that is not UTF-8: the first
    is reported."""
    target = tmp_path / "sequences.txt"
    target.write_bytes(b"Asia (1)\n\nAsia (x)\n\xff\n")
    assert main([*command, str(target), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {target}: row 3: cannot parse sequence part 'Asia (x)'\n")


def test_cr_only_alias_table_loads(tmp_path, capsys):
    """A table whose rows end in a lone CR (as old Mac spreadsheets save them)
    reads as the same table with LF endings."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(POLAND_AND_PL)
    runs = []
    for name, ending in (("lf", b"\n"), ("cr", b"\r")):
        aliases = tmp_path / f"{name}.csv"
        aliases.write_bytes(b"alias,canonical_label" + ending + b"PL,Poland" + ending)
        out = tmp_path / name
        assert main([*MAP, str(corpus), "--aliases", str(aliases),
                     "--output-dir", str(out)]) == 0
        runs.append(({path.name: path.read_bytes() for path in out.iterdir()},
                     capsys.readouterr()))
    assert runs[0] == runs[1]
    assert (tmp_path / "cr" / "sequences.txt").read_bytes() == b"Europe (1)\n" * 2


def test_cr_only_table_names_the_row_that_does_not_decode(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(POLAND_AND_PL)
    aliases = tmp_path / "cr_bad.csv"
    aliases.write_bytes(b"alias,canonical_label\rUK,United Kingdom\rPL,Pol\xffand\r")
    assert main([*MAP, str(corpus), "--aliases", str(aliases),
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {aliases}: row 3: invalid UTF-8\n"


def test_a_row_after_a_multiline_record_is_named_by_its_line(tmp_path, capsys):
    """After a record over lines 3 and 4, a short row, a row that does not
    decode and a row that csv cannot read, each on line 5, all name row 5."""
    multiline = RANK_HEADER + b'1,"Asia (1)",5,50.00\n2,"Asia (1),\nEurope (1)",3,30.00\n'
    errors = []
    for row in (b'3,"Europe (1)",2\n', b'3,"Europe (1)",2,\xff\n',
                b'3,"' + HUGE_FIELD + b'",2,20.00\n'):
        target = tmp_path / "rank.csv"
        target.write_bytes(multiline + row)
        assert main([*FIT, str(target), "--output-dir", str(tmp_path / "out")]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: {target}: row 5: {message}\n" for message in (
        "expected 4 columns, got 3", "invalid UTF-8", "field larger than field limit (131072)")]


@pytest.mark.parametrize("argv, message", [
    ([*CRAWL, "{corpus}", "--max-distance", "-1"], "max_distance must be >= 0"),
    ([*CRAWL, "{missing}", "--max-distance", "-1"], "max_distance must be >= 0"),
    (["gen", "--size", "-1"], "corpus_size must be >= 0"),
    (["gen", "--exponent", "nan"], "exponent must be > 0"),
    ([*CONTINENTS, "{bad}"], "{bad}: row 2: unknown continent 'Atlantis'"),
], ids=["crawl", "crawl-missing-input", "gen-size", "gen-exponent", "map-continents"])
def test_bad_option_fails_before_any_work(argv, message, tmp_path, capsys):
    """A bad option or table is reported before any input is read and
    before the output directory is made."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(GOOD_RECORD)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"territory,continent\nPoland,Atlantis\n")
    paths = {"corpus": corpus, "missing": tmp_path / "missing.jsonl", "bad": bad}
    out = tmp_path / "out"
    assert main([*(a.format(**paths) for a in argv), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not out.exists()


@pytest.mark.parametrize("rows", [
    b"100,50,1,50.0,0.0\n" * 3,
    # three sizes whose logarithms round to one float
    b"".join(b"%d,5,1,5.0,0.0\n" % (10 ** 16 + 2 * i) for i in range(3)),
], ids=["equal", "equal-logarithms"])
def test_heap_file_of_one_sample_size_is_insufficient_data(rows, tmp_path, capsys):
    target = tmp_path / "heap.csv"
    target.write_bytes(HEAP_HEADER + rows)
    out = tmp_path / "out"
    assert main([*PLOT_HEAP, str(target), "--output-dir", str(out)]) == 3
    assert capsys.readouterr().err == "error: need >= 2 distinct sample sizes, have 1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    ([*RANK, "{target}"], "{target}: row 2: cannot parse sequence part 'garbage'"),
    (["crawl", "--seed-author", "ghost", "--input", "{corpus}"], "unknown author 'ghost'"),
], ids=["rank-bad-row", "crawl-unknown-seed"])
def test_failed_command_leaves_no_output_directory(argv, message, tmp_path, capsys):
    """A command that fails on its input, even after reading all of it,
    makes no output directory."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(GOOD_RECORD)
    target = tmp_path / "sequences.txt"
    target.write_bytes(b"Asia (1)\ngarbage\n")
    paths = {"corpus": corpus, "target": target}
    out = tmp_path / "out"
    assert main([*(a.format(**paths) for a in argv), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not out.exists()


@pytest.fixture
def rank_file(tmp_path):
    from contseq.stats import write_rank_file
    from test_stats import table_from_ranked_counts
    path = tmp_path / "rank.csv"
    write_rank_file(table_from_ranked_counts([round(1e12 * r ** -2.0) for r in range(1, 301)]),
                    path)
    return path


FIT_RANGE_COMMANDS = [["fit-zipf", "--input"], ["plotdata", "--rank-file"]]


@pytest.mark.parametrize("command", FIT_RANGE_COMMANDS)
@pytest.mark.parametrize("window", ["a:b", "1:2:3", "5", "5:2", "0:10", "-1:5", " 5:50", ""])
def test_bad_fit_range_is_a_usage_error(command, window, rank_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*command, str(rank_file), "--output-dir", str(out), "--fit-range", window]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"contseq {command[0]}: error: argument --fit-range: "), err
    assert not out.exists()


@pytest.mark.parametrize("command", FIT_RANGE_COMMANDS)
@pytest.mark.parametrize("window, lo, hi", [("5:50", 5, 50), ("2:", 2, None),
                                            (":200", None, 200), (":", None, None)])
def test_fit_range_sides_are_optional(command, window, lo, hi, rank_file, tmp_path, capsys):
    from contseq.stats import fit_zipf, format_fit_report, read_rank_file, zipf_sensitivity
    table = read_rank_file(rank_file)
    out = tmp_path / "out"
    assert main([*command, str(rank_file), "--output-dir", str(out), "--fit-range", window]) == 0
    fit = fit_zipf(table, min_rank=lo, max_rank=hi)
    if command[0] == "fit-zipf":
        assert (out / "zipf_fit.txt").read_text() == format_fit_report(
            fit, zipf_sensitivity(table))
    else:
        assert f"fitted exponent {fit.exponent:.6f}" in capsys.readouterr().out


@pytest.mark.parametrize("command", FIT_RANGE_COMMANDS)
def test_one_rank_window_is_valid_but_too_short(command, rank_file, tmp_path):
    assert main([*command, str(rank_file), "--output-dir", str(tmp_path / "out"),
                 "--fit-range", "7:7"]) == 3


def test_zero_distance_and_size_stay_valid(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(GOOD_RECORD)
    assert main(["crawl", "--input", str(corpus), "--seed-author", "A",
                 "--min-pubs", "1", "--max-distance", "0",
                 "--output-dir", str(tmp_path / "crawl")]) == 0
    assert main(["gen", "--size", "0", "--output-dir", str(tmp_path / "gen")]) == 0
    assert (tmp_path / "gen" / "corpus.jsonl").read_bytes() == b""


def test_crawl_keeps_first_of_duplicate_ids(tmp_path, capsys):
    outputs, warnings = [], []
    for name, contents in (("once", GOOD_RECORD), ("twice", GOOD_RECORD * 2)):
        corpus = tmp_path / f"{name}.jsonl"
        corpus.write_bytes(contents)
        out = tmp_path / name
        assert main([*CRAWL, str(corpus), "--output-dir", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        warnings.append(capsys.readouterr().err.splitlines())
    assert outputs[0] == outputs[1]
    assert warnings[0] == []
    assert len(warnings[1]) == 1 and warnings[1][0].startswith("warning: "), warnings
    assert "skipped 1" in warnings[1][0]


def test_crawl_warns_of_malformed_lines(tmp_path, capsys):
    lines = [record_to_json(coauthored(pub_id, ["A", "B"])).encode() + b"\n"
             for pub_id in ("p1", "p2", "p3", "p1", "p2")]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"".join(lines[:3]) + b"garbage\n" + b"".join(lines[3:]))
    assert main([*CRAWL, str(corpus), "--output-dir", str(tmp_path / "out")]) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 2 and "skipped 2" in warnings[0], warnings
    assert warnings[1] == "warning: skipped 1 malformed lines"


def test_non_integer_schema_version_is_malformed(tmp_path, capsys):
    """``map`` counts a ``schema_version`` of true or 1.0 malformed; ``crawl``
    skips it."""
    record = json.loads(GOOD_RECORD)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(GOOD_RECORD + b"".join(
        json.dumps({**record, "id": pub_id, "schema_version": version}).encode() + b"\n"
        for pub_id, version in (("p2", True), ("p3", 1.0))))
    assert main([*MAP, str(corpus), "--output-dir", str(tmp_path / "map")]) == 0
    report = json.loads((tmp_path / "map" / "ingest_report.json").read_text())
    assert (report["accepted"], report["rejected_malformed"]) == (1, 2)
    assert capsys.readouterr().err.splitlines() == [
        "warning: line 2: unsupported schema_version True",
        "warning: line 3: unsupported schema_version 1.0"]
    assert main([*CRAWL, str(corpus), "--output-dir", str(tmp_path / "crawl")]) == 0
    assert capsys.readouterr().err.splitlines() == ["warning: skipped 2 malformed lines"]
    assert (tmp_path / "crawl" / "crawl_publications.txt").read_text() == "p1\n"


#: A corpus of one record in Poland and one in PL, an alias-file spelling.
POLAND_AND_PL = GOOD_RECORD + record_to_json(
    coauthored("p2", ["A", "B"], country="PL")).encode() + b"\n"


@pytest.mark.parametrize("command, contents", [
    (CONTINENTS, b"territory,continent\nPoland,Europe\nPL,Europe\n"),
    (ALIASES, b"alias,canonical_label\nPL,Poland\n"),
    (RANK, b"Asia (1)\nEurope (1)\nAsia (1)\n"),
    (HEAP, b"Asia (1)\nEurope (1)\nEurope (2)\n" * 40),
], ids=["continents", "aliases", "rank", "heap"])
def test_leading_byte_order_mark_is_dropped(command, contents, tmp_path, capsys):
    """A table or sequences file that starts with a UTF-8 BOM reads as the
    same file without it."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(POLAND_AND_PL)
    runs = []
    for name, data in (("plain", contents), ("bom", codecs.BOM_UTF8 + contents)):
        target = tmp_path / f"{name}.input"
        target.write_bytes(data)
        out = tmp_path / name
        argv = [a.format(corpus=corpus) for a in command]
        assert main([*argv, str(target), "--output-dir", str(out)]) == 0
        runs.append(({path.name: path.read_bytes() for path in out.iterdir()},
                     capsys.readouterr()))
    assert runs[0] == runs[1]


def _run_cli(args: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    """``python -m contseq.cli`` in a session of its own, killed on timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(contseq.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "contseq.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"contseq {' '.join(args)} did not exit within {timeout} s")
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


@pytest.mark.parametrize("extra", [["--max-affils", "0"], ["--continents", "{bad}"]])
def test_map_with_bad_setup_exits_with_workers(tmp_path, extra):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(GOOD_RECORD)
    bad = tmp_path / "bad.csv"
    bad.write_text("territory,continent\nPoland,Atlantis\n", encoding="utf-8")
    result = _run_cli(["map", "--input", str(corpus), "--output-dir", str(tmp_path / "out"),
                       "--threads", "2", *(a.format(bad=bad) for a in extra)])
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith(("error: ", "contseq map: error: "))


def _blank(line: bytes) -> bool:
    try:
        return not line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


corpus_lines = st.lists(st.one_of(
    st.binary(max_size=30),
    st.text(max_size=10).map(str.encode),
    st.sampled_from([GOOD_RECORD.strip(), BAD_UTF8.strip(), b"", b" \r", b"\xc2\xa0"]),
).map(lambda line: line.replace(b"\n", b"")), max_size=25)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpus_lines)
def test_map_partitions_arbitrary_bytes(lines):
    non_blank = sum(not _blank(line) for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_bytes(b"".join(line + b"\n" for line in lines))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["map", "--input", str(corpus), "--output-dir", tmp,
                         "--threads", "1"])
        report = json.loads((Path(tmp) / "ingest_report.json").read_text())
        assert len(list(parse_corpus(corpus))) == non_blank
    assert report["total"] == non_blank
    assert code == (0 if report["accepted"] else 2)


#: (command up to the file argument, what the named pipe holds, the error
#: after ``error: <pipe>: ``); each bad row follows a blank line or a header.
FIFO_CASES = {
    "rank-unparsable": (RANK, b"Asia (1)\n\nnot a sequence\n",
                        "row 3: cannot parse sequence part 'not a sequence'"),
    "rank-invalid-utf8": (RANK, b"Asia (1)\n\n\xff\n", "row 3: invalid UTF-8"),
    "heap-unparsable": (HEAP, b"Asia (1)\n\nnot a sequence\n",
                        "row 3: cannot parse sequence part 'not a sequence'"),
    "heap-invalid-utf8": (HEAP, b"Asia (1)\n\n\xff\n", "row 3: invalid UTF-8"),
    "fit-invalid-utf8": (FIT, RANK_HEADER + b'1,"Asia (1)",5,\xff\n', "row 2: invalid UTF-8"),
    "continents-invalid-utf8": (CONTINENTS, b"territory,continent\nPoland,Europe\xff\n",
                                "row 2: invalid UTF-8"),
    "aliases-invalid-utf8": (ALIASES, b"alias,canonical_label\nUK,United Kingdom\xff\n",
                             "row 2: invalid UTF-8"),
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("name", sorted(FIFO_CASES))
def test_bad_row_read_from_a_fifo(name, tmp_path):
    """A bad row in an input read from a named pipe is found in the one pass
    that reads it: the command exits 1 naming the row, and does not wait for
    a second read of a pipe that is empty by then."""
    command, contents, message = FIFO_CASES[name]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(GOOD_RECORD)
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(contents,), daemon=True)
    writer.start()
    argv = [a.format(corpus=corpus) for a in command]
    result = _run_cli([*argv, str(fifo), "--output-dir", str(tmp_path / "out")], timeout=30)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (result.returncode, result.stderr) == (1, f"error: {fifo}: {message}\n")
