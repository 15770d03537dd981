"""The shared file layer: opener, header-checked CSV reader, atomic writer,
and the atomicity it gives the CLI's outputs."""

import builtins
import io

import pytest

from contseq import files
from contseq.cli import main
from contseq.errors import TableFormatError, TableValidationError
from contseq.files import opened, read_csv, writing
from contseq.ingest import record_to_json
from helpers import record


class TestOpened:
    def test_path_text_keeps_line_endings(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\r\nb\n")
        with opened(path) as lines:
            assert list(lines) == ["a\r\n", "b\n"]

    def test_path_text_splits_at_a_lone_cr(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"\xef\xbb\xbfa\rb\r\nc\n")
        with opened(path) as lines:
            assert list(lines) == ["a\r", "b\r\n", "c\n"]

    def test_path_text_names_the_row_that_does_not_decode(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\nb\n\xff\nc\n")
        with opened(path) as lines:
            assert next(lines) == "a\n"
            with pytest.raises(ValueError, match=r"f\.txt: row 3: invalid UTF-8$"):
                list(lines)

    def test_path_binary(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\xff\nb\n")
        with opened(str(path), binary=True) as lines:
            assert list(lines) == [b"a\xff\n", b"b\n"]

    def test_handle_and_lines_pass_through(self):
        handle = io.StringIO("x\n")
        with opened(handle) as lines:
            assert lines is handle
        with opened(["x\n"]) as lines:
            assert lines == ["x\n"]


def cells(*values):
    return list(values)


def fail_on(value):
    """A ``read_csv`` parse that raises on the row whose first cell is ``value``."""
    def parse(*values):
        if values[0] == value:
            raise ValueError(f"bad value {value!r}")
        return list(values)
    return parse


class TestReadCsv:
    def test_rows_with_numbers_blank_rows_skipped(self):
        lines = ["A, B\n", "1,2\n", "\n", "  \n", "3,4\n"]
        assert read_csv(lines, "a,b", cells) == [["1", "2"], ["3", "4"]]
        with pytest.raises(ValueError, match=r"^row 5: bad value '3'$"):
            read_csv(lines, "a,b", fail_on("3"))

    def test_wrong_header(self):
        with pytest.raises(TableFormatError, match="row 1: expected header 'a,b'"):
            read_csv(["a,c\n"], "a,b", cells, TableFormatError)

    def test_short_and_long_rows_carry_row_number(self):
        with pytest.raises(ValueError, match="row 3: expected 2 columns, got 1"):
            read_csv(["a,b\n", "1,2\n", "1\n"], "a,b", cells)
        with pytest.raises(ValueError, match="row 2: expected 2 columns, got 3"):
            read_csv(["a,b\n", "1,2,3\n"], "a,b", cells)

    def test_empty_source_raises_empty_type(self):
        with pytest.raises(ValueError, match="row 1"):
            read_csv([], "a,b", cells)
        with pytest.raises(LookupError, match="row 1"):
            read_csv([], "a,b", cells, empty=LookupError)

    def test_unreadable_row_carries_row_number(self):
        with pytest.raises(TableFormatError, match=r"^row 3: field larger than field limit"):
            read_csv(["a,b\n", "1,2\n", "x" * 200_000 + ",3\n"], "a,b", cells,
                     TableFormatError)

    def test_quoted_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('a,b\n"x, y",2\n', encoding="utf-8")
        assert read_csv(path, "a,b", cells) == [["x, y", "2"]]

    def test_parse_error_keeps_its_type(self):
        def parse(a, b):
            raise TableValidationError(f"no {a}")
        with pytest.raises(TableValidationError, match=r"^row 2: no x$"):
            read_csv(["a,b\n", "x,y\n"], "a,b", parse, TableFormatError)

    def test_a_record_is_named_by_its_last_row(self):
        lines = ["a,b\n", '"x\n', 'y",2\n', "3,4\n"]
        with pytest.raises(ValueError, match=r"^row 4: bad value '3'$"):
            read_csv(lines, "a,b", fail_on("3"))
        with pytest.raises(ValueError, match=r"^row 3: bad value 'x\\ny'$"):
            read_csv(lines, "a,b", fail_on("x\ny"))


class TestWriting:
    def test_replaces_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with writing(path) as sink:
            sink.write("new\n")
            assert path.read_text() == "old\n"
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("previous", [None, b"old\n"])
    def test_exception_keeps_previous_and_removes_temp(self, tmp_path, previous):
        path = tmp_path / "out.txt"
        if previous is not None:
            path.write_bytes(previous)
        with pytest.raises(RuntimeError):
            with writing(str(path)) as sink:
                sink.write("partial\n")
                raise RuntimeError("boom")
        assert (path.read_bytes() if path.exists() else None) == previous
        assert len(list(tmp_path.iterdir())) == (previous is not None)

    def test_makes_a_missing_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        with pytest.raises(RuntimeError):
            with writing(path) as sink:
                sink.write("partial\n")
                raise RuntimeError("boom")
        assert list(path.parent.iterdir()) == []  # no temporary file is left
        with writing(path) as sink:
            sink.write("new\n")
        assert path.read_bytes() == b"new\n"

    def test_unix_line_endings_and_utf8(self, tmp_path):
        path = tmp_path / "out.txt"
        with writing(path) as sink:
            sink.write("Zürich\n")
        assert path.read_bytes() == "Zürich\n".encode("utf-8")

    def test_handle_passes_through_unclosed(self):
        handle = io.StringIO()
        with writing(handle) as sink:
            sink.write("x")
        assert sink is handle and handle.getvalue() == "x"


class _FailAfterFirstLine:
    """A write handle that raises on any write after a full line."""

    def __init__(self, handle, written: list):
        self.handle, self.written = handle, written

    def write(self, text):
        if "\n" in "".join(self.written):
            raise RuntimeError("forced failure")
        self.written.append(text)
        return self.handle.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


@pytest.fixture
def fail_after_first_line(monkeypatch):
    """Make every file the package writes raise after its first line;
    returns the text that reached the file."""
    written: list[str] = []

    def fake_open(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        return _FailAfterFirstLine(handle, written) if "w" in mode else handle

    monkeypatch.setattr(files, "open", fake_open, raising=False)
    return written


@pytest.mark.parametrize("previous", [None, b"Asia (1)\nAsia (1)\n"])
def test_failed_map_leaves_previous_sequences(tmp_path, fail_after_first_line, previous,
                                              monkeypatch):
    monkeypatch.setattr(files, "_RANGE_BYTES", 1)  # one line per chunk, so one write per line
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(record_to_json(record(f"p{i}", [["Poland"]])) + "\n"
                              for i in range(3)), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    if previous is not None:
        (out / "sequences.txt").write_bytes(previous)
    with pytest.raises(RuntimeError, match="forced"):
        main(["map", "--input", str(corpus), "--output-dir", str(out), "--threads", "1"])
    assert fail_after_first_line == ["Europe (1)\n"]
    assert sorted(p.name for p in out.iterdir()) == ([] if previous is None else ["sequences.txt"])
    if previous is not None:
        assert (out / "sequences.txt").read_bytes() == previous


@pytest.mark.parametrize("previous", [None, b"rank,sequence,count,percent\n"])
def test_failed_rank_leaves_previous_rank_file(tmp_path, fail_after_first_line, previous):
    sequences = tmp_path / "sequences.txt"
    sequences.write_text("Asia (1)\nEurope (1)\nAsia (1)\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    if previous is not None:
        (out / "rank.csv").write_bytes(previous)
    with pytest.raises(RuntimeError, match="forced"):
        main(["rank", "--input", str(sequences), "--output-dir", str(out)])
    assert fail_after_first_line == ["rank,sequence,count,percent\n"]
    assert sorted(p.name for p in out.iterdir()) == ([] if previous is None else ["rank.csv"])
    if previous is not None:
        assert (out / "rank.csv").read_bytes() == previous
