"""The package's file layer: one opener, one CSV reader, one byte-range
reader, one writer, and the row-located message their errors share.

Readers take a path, an open handle, or any iterable of lines. Writers take
a path or an open handle; a path gets its missing directories as it is opened
and is replaced atomically, so a command that fails or is killed leaves the
previous file, or none, in place (a killed one may leave its hidden
``.<name>.<pid>.tmp`` behind). Pass a handle to write to a stream or a device.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
from collections import deque
from concurrent import futures  # futures.process, and most of multiprocessing, load on use
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TextIO, TypeVar, Union

from .errors import ContseqError

#: What every reader accepts: a path, an open stream, or raw lines.
Source = Union[str, Path, IO[str], Iterable[str]]
#: What every writer accepts: a path or an open text stream.
Sink = Union[str, Path, TextIO]
T = TypeVar("T")

_RANGE_BYTES = 1 << 22  # file bytes per range, and per chunk of lines read in process


def named(source: Source, message) -> str:
    """``<path>: <message>``, without the path when ``source`` is no file."""
    return f"{source}: {message}" if isinstance(source, (str, Path)) else str(message)


def at_row(source: Source, row: int, message) -> str:
    """``message`` located at a 1-based row of ``source``: ``<path>: row N: <message>``."""
    return named(source, f"row {row}: {message}")


@contextmanager
def opened(source: Source, binary: bool = False) -> Iterator[Iterable]:
    """``source`` itself, or the file it names: UTF-8 text with its line
    endings kept and a leading byte-order mark dropped, or bytes when
    ``binary``. Text is decoded one row at a time as it is read, so a row
    that does not decode raises a ValueError naming the file and the row."""
    if not isinstance(source, (str, Path)):
        yield source
        return
    with open(source, "rb") as handle:
        yield handle if binary else _decoded(source, handle)


def _decoded(source: Source, handle: IO[bytes]) -> Iterator[str]:
    """The text rows of ``handle``. A row ends at ``\\n``, ``\\r\\n`` or a lone
    ``\\r``, as in text mode and for ``csv.reader``'s ``line_num``; each byte
    line is split before it is decoded, as no UTF-8 character holds those bytes."""
    rows = (row for line in handle for row in line.splitlines(keepends=True))
    for number, row in enumerate(rows, 1):
        try:
            yield row.decode("utf-8-sig" if number == 1 else "utf-8")
        except UnicodeDecodeError:
            raise ValueError(at_row(source, number, "invalid UTF-8")) from None


def read_csv(source: Source, header: str, parse: Callable[..., T],
             error: type[Exception] = ValueError, empty: type[Exception] | None = None) -> list[T]:
    """``parse(*cells)`` of each data row of a CSV source, in order.

    The first row must match ``header`` (comma-separated column names,
    compared trimmed and case-insensitively); blank rows are skipped, and
    every other row must have one cell per column. A violation, or a row
    that csv cannot read, raises ``error``; a source with no rows at all
    raises ``empty`` (default: ``error``); a ValueError or ContseqError from
    ``parse`` is raised again as its own type. Each message is located by
    :func:`at_row` at ``csv.reader``'s ``line_num``: a record's last row.
    """
    names = header.split(",")
    parsed = []
    with opened(source) as lines:
        rows = csv.reader(lines)
        try:
            first = next(rows, None)
            if first is None:
                raise (empty or error)(at_row(source, 1,
                                              f"empty file, expected header {header!r}"))
            if [cell.strip().casefold() for cell in first] != names:
                raise error(at_row(source, rows.line_num, f"expected header {header!r}"))
            for cells in rows:
                if not cells or (len(cells) == 1 and not cells[0].strip()):
                    continue
                if len(cells) != len(names):
                    raise error(at_row(source, rows.line_num,
                                       f"expected {len(names)} columns, got {len(cells)}"))
                try:
                    parsed.append(parse(*cells))
                except (ValueError, ContseqError) as exc:
                    raise type(exc)(at_row(source, rows.line_num, exc)) from None
        except csv.Error as exc:  # e.g. a field over csv's size limit
            raise error(at_row(source, rows.line_num, exc)) from None
    return parsed


def _spans(handle) -> list[tuple[int, int]]:
    """Byte ranges ``(start, stop)`` of about ``_RANGE_BYTES`` covering a
    seekable file, each ending at a newline or at EOF. Leaves the handle at
    offset 0."""
    size = os.fstat(handle.fileno()).st_size
    bounds = [0]
    for cut in range(_RANGE_BYTES, size, _RANGE_BYTES):
        handle.seek(cut - 1)
        handle.readline()
        bounds.append(handle.tell())
    handle.seek(0)
    return [(start, stop) for start, stop in zip(bounds, bounds[1:] + [size]) if start < stop]


_work: Callable | None = None  # a pool worker's own, kept across its ranges


def _start_worker(work: Callable) -> None:
    global _work
    _work = work


def _read_range(path: str, span: tuple[int, int]) -> bytes:
    """A pool worker's task: ``_work`` over the lines of one byte range, pickled."""
    start, stop = span
    with open(path, "rb") as handle:
        handle.seek(start)
        return pickle.dumps(_work(io.BytesIO(handle.read(stop - start))), pickle.HIGHEST_PROTOCOL)


def read_ranges(path: str | Path, work: Callable[[Iterable[bytes]], T],
                workers: int | None = None) -> Iterator[T]:
    """``work`` over the byte lines of a file, once per range of about
    ``_RANGE_BYTES``, its results in file order.

    With more than one worker (default: ``os.cpu_count()``) and a seekable
    file of more than one range, a pool of up to ``workers`` processes runs
    ``work``, given at most one range more than it has workers ahead of the
    caller; each worker keeps ``work`` across its ranges and reads them from
    the file itself, and one that dies raises ``BrokenProcessPool`` here.
    Otherwise (one worker, one range, or a pipe) the file is read in this
    process, in chunks of whole lines. Either way ``work`` sees each line once.

    A worker's result is unpickled in the caller's thread: memory that a
    pool thread allocates stays in that thread's malloc arena once freed,
    where the caller cannot reuse it."""
    workers = workers or os.cpu_count() or 1
    with open(path, "rb") as source:
        spans = _spans(source) if workers > 1 and source.seekable() else []
        if len(spans) <= 1:
            yield from map(work, iter(partial(source.readlines, _RANGE_BYTES), []))
            return
    workers = min(workers, len(spans))
    pool = futures.ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(work,))
    ahead = deque()
    try:
        for span in spans:
            ahead.append(pool.submit(_read_range, str(path), span))
            if len(ahead) > workers:
                yield pickle.loads(ahead.popleft().result())
        yield from (pickle.loads(future.result()) for future in ahead)
    finally:
        pool.shutdown(cancel_futures=True)


@contextmanager
def writing(sink: Sink) -> Iterator[TextIO]:
    """A UTF-8 text handle with Unix line endings for ``sink``.

    A path is written through a temporary file in its directory (made if
    missing), which replaces it once the block ends without an exception
    and is removed otherwise. An open handle is used as it is.
    """
    if not isinstance(sink, (str, Path)):
        yield sink
        return
    path = Path(sink)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
