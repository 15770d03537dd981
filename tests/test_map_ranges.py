"""``map`` over byte ranges: outputs that do not depend on where the ranges
fall or on how many workers read them, file line numbers in warnings, and
the input mapped in this process: one that cannot seek, or any at one thread."""

import json
import os
import threading

import pytest

import contseq.cli as cli
import contseq.files as files
from contseq.cli import main
from contseq.ingest import (ExclusionPolicy, IngestReport, MalformedRecord, RejectReason,
                            classify, parse_corpus)
from contseq.mapping import render_sequence
from contseq.model import default_table

RANGE = 256  # bytes per range in these tests


def record_line(pub_id: str, countries, pad: int = 0) -> bytes:
    authors = [{"author_id": f"{pub_id}-a{i}",
                "affiliations": [{"institution": "inst" + "x" * pad, "country": country}]}
               for i, country in enumerate(countries)]
    return json.dumps({"schema_version": 1, "id": pub_id, "year": 2020,
                       "authors": authors}).encode()


def corpus_bytes() -> tuple[bytes, int]:
    """A corpus with blank, CRLF, malformed and invalid UTF-8 lines, one line
    longer than a range, one line ending exactly at a range end, and a last
    line without a newline; also that range end."""
    data = b""
    boundary = 0
    for i in range(70):
        kind = i % 10
        if kind == 2:
            data += b"\n" if i % 20 else b"  \r\n"
        elif kind == 4:
            data += record_line(f"p{i}", ["Poland", "Japan", "Atlantis"]) + b"\r\n"
        elif kind == 6:
            data += b'{"schema_version": 1, "id": "p\xff"}\n'
        elif kind == 7:
            data += record_line(f"p{i}", ["Kenya"])[:30] + b"\n"
        elif i == 31:
            data += record_line(f"p{i}", ["Brazil"], pad=2 * RANGE) + b"\n"
        elif i == 45:  # padded so that its newline is the last byte of a range
            pad = -(len(data) + len(record_line(f"p{i}", ["Chile"])) + 1) % RANGE
            data += record_line(f"p{i}", ["Chile"], pad=pad) + b"\n"
            boundary = len(data)
        else:
            data += record_line(f"p{i}", ["Germany", "Poland"][: 1 + i % 2]) + b"\n"
    return data + record_line("last", ["Japan"]), boundary


def run_map(corpus, out, threads: int, capsys) -> dict:
    code = main(["map", "--input", str(corpus), "--output-dir", str(out),
                 "--threads", str(threads)])
    captured = capsys.readouterr()
    return {"code": code, "stdout": captured.out, "stderr": captured.err,
            **{name: (out / name).read_bytes()
               for name in ("sequences.txt", "ingest_report.json")}}


def test_outputs_agree_across_ranges_and_threads(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(files, "_RANGE_BYTES", RANGE)
    data, boundary = corpus_bytes()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(data)
    with open(corpus, "rb") as handle:
        spans = files._spans(handle)
    assert len(spans) > 6 and any(stop == boundary for _, stop in spans), spans
    assert [start for start, _ in spans[1:]] == [stop for _, stop in spans[:-1]]

    runs = [run_map(corpus, tmp_path / f"t{threads}", threads, capsys)
            for threads in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]

    # the library API agrees, and the warnings carry file line numbers
    sequences, malformed, report = [], [], IngestReport()
    for item in parse_corpus(corpus):
        if isinstance(item, MalformedRecord):
            malformed.append(item)
            report.rejected_malformed += 1
            continue
        result = classify(item, ExclusionPolicy(), default_table())
        report.tally(result)
        if not isinstance(result, RejectReason):
            sequences.append(render_sequence(result) + "\n")
    assert runs[0]["sequences.txt"].decode() == "".join(sequences)
    assert json.loads(runs[0]["ingest_report.json"]) == report.as_dict()
    assert len(malformed) > 5
    assert runs[0]["stderr"].splitlines() == [
        f"warning: line {notice.line_number}: {notice.message}" for notice in malformed[:5]
    ] + [f"warning: {len(malformed) - 5} more malformed lines"]


def test_workers_are_capped_by_ranges(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(files, "_RANGE_BYTES", RANGE)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"".join(record_line(f"p{i}", ["Poland"]) + b"\n" for i in range(4)))
    sizes, spanned = [], []

    def pool(processes, *args):
        sizes.append(processes)
        return real_pool(processes, *args)

    def spans(handle):
        spanned.append(handle)
        return real_spans(handle)

    real_pool, real_spans = files.Pool, files._spans
    monkeypatch.setattr(files, "Pool", pool)
    with open(corpus, "rb") as handle:
        ranges = len(files._spans(handle))
    assert 1 < ranges < 8
    monkeypatch.setattr(files, "_spans", spans)
    assert run_map(corpus, tmp_path / "single", 1, capsys)["code"] == 0
    assert sizes == spanned == []  # one thread: no pool, and the file is not split
    assert run_map(corpus, tmp_path / "many", 8, capsys)["code"] == 0
    monkeypatch.setattr(files, "_RANGE_BYTES", 1 << 20)
    assert run_map(corpus, tmp_path / "one", 8, capsys)["code"] == 0
    assert sizes == [ranges]  # no pool for a single range


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_input_is_streamed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(files, "_RANGE_BYTES", RANGE)
    data, _ = corpus_bytes()
    regular = tmp_path / "corpus.jsonl"
    regular.write_bytes(data)
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    real_pool, map_lines, chunks = files.Pool, cli.SequenceMapper.map_lines, []

    def chunked(mapper, lines):
        chunks.append(sum(map(len, lines)))
        return map_lines(mapper, lines)

    # a pipe, and a file at one thread, are mapped in this process
    monkeypatch.setattr(files, "Pool", None)
    monkeypatch.setattr(cli.SequenceMapper, "map_lines", chunked)
    longest = max(map(len, data.splitlines(keepends=True)))
    streamed = []
    for source, threads, name in ((fifo, 2, "fifo"), (regular, 1, "one")):
        chunks.clear()
        streamed.append(run_map(source, tmp_path / name, threads, capsys))
        # in bounded chunks of whole lines, not the whole input at once
        assert len(chunks) > 6 and sum(chunks) == len(data) and max(chunks) < RANGE + longest
    writer.join(timeout=60)
    assert not writer.is_alive()
    monkeypatch.setattr(files, "Pool", real_pool)
    monkeypatch.setattr(cli.SequenceMapper, "map_lines", map_lines)
    assert streamed[0] == streamed[1] == run_map(regular, tmp_path / "file", 2, capsys)
