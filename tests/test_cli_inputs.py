"""Every input file the CLI reads, good and bad: documented exit codes and
one-line errors, count-flag validation, and corpus lines that are not
valid UTF-8."""

import io
import json
import os
import signal
import subprocess
import sys
import tempfile
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
RANK_HEADER = b"rank,sequence,count,percent\n"
HEAP_HEADER = b"n,v,repeats,v_mean,v_sd\n"

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
    "sequences-missing-rank": (RANK, MISSING, 1),
    "sequences-missing-heap": (HEAP, MISSING, 1),
    "sequences-empty-rank": (RANK, b"", 2),
    "sequences-empty-heap": (HEAP, b"\n  \n", 2),
    "sequences-bad-count-rank": (RANK, b"Asia (x)\n", 1),
    "sequences-invalid-utf8-rank": (RANK, b"Asia (1)\n\xff\n", 1),
    "sequences-invalid-utf8-heap": (HEAP, b"Asia (1)\n\xff\n", 1),
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
    "rank-invalid-utf8-fit": (FIT, RANK_HEADER + b'1,"Asia (1)",5,\xff\n', 1),
    "rank-invalid-utf8-plot": (PLOT_RANK, RANK_HEADER + b'1,"Asia (1)",5,\xff\n', 1),
    "heap-missing-plot": (PLOT_HEAP, MISSING, 1),
    "heap-empty-plot": (PLOT_HEAP, b"", 2),
    "heap-header-only-plot": (PLOT_HEAP, HEAP_HEADER, 2),
    "heap-wrong-header-plot": (PLOT_HEAP, b"n,v\n", 1),
    "heap-short-row-plot": (PLOT_HEAP, HEAP_HEADER + b"10,5,1\n", 1),
    "heap-non-numeric-plot": (PLOT_HEAP, HEAP_HEADER + b"10,5,1,x,0.0\n", 1),
    "heap-invalid-utf8-plot": (PLOT_HEAP, HEAP_HEADER + b"10,5,1,5.0,\xff\n", 1),
    "continents-missing": (CONTINENTS, MISSING, 1),
    "continents-empty": (CONTINENTS, b"", 1),
    "continents-wrong-header": (CONTINENTS, b"country,continent\n", 1),
    "continents-short-row": (CONTINENTS, b"territory,continent\nPoland\n", 1),
    "continents-unknown-continent": (CONTINENTS, b"territory,continent\nPoland,Atlantis\n", 1),
    "continents-invalid-utf8": (CONTINENTS, b"territory,continent\nPoland,Europe\xff\n", 1),
    "aliases-missing": (ALIASES, MISSING, 1),
    "aliases-empty": (ALIASES, b"", 1),
    "aliases-wrong-header": (ALIASES, b"alias,target\n", 1),
    "aliases-short-row": (ALIASES, b"alias,canonical_label\nUK\n", 1),
    "aliases-unknown-target": (ALIASES, b"alias,canonical_label\nUK,Narnia\n", 1),
    "aliases-invalid-utf8": (ALIASES, b"alias,canonical_label\nUK,United Kingdom\xff\n", 1),
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
        if any(kind in name for kind in ("wrong-header", "short-row", "invalid-utf8")):
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
