"""The package's file layer: one opener, one CSV reader, one writer.

Readers take a path, an open handle, or any iterable of lines. Writers take
a path or an open handle; a path is replaced atomically, so a command that
fails or is killed leaves the previous file, or none, in place (a killed
one may leave its hidden ``.<name>.<pid>.tmp`` behind). Pass a handle to
write to a stream or a device.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, TextIO, Union

#: What every reader accepts: a path, an open stream, or raw lines.
Source = Union[str, Path, IO[str], Iterable[str]]
#: What every writer accepts: a path or an open text stream.
Sink = Union[str, Path, TextIO]


@contextmanager
def opened(source: Source, binary: bool = False) -> Iterator[Iterable]:
    """``source`` itself, or the file it names: UTF-8 text with its line
    endings kept, or bytes when ``binary``. A file's UnicodeDecodeError
    becomes a ValueError naming the file and its first row that does not
    decode."""
    if not isinstance(source, (str, Path)):
        yield source
        return
    with (open(source, "rb") if binary
          else open(source, encoding="utf-8", newline="")) as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            with open(source, "rb") as raw:
                for row, line in enumerate(raw, 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError:
                        raise ValueError(f"{source}: row {row}: invalid UTF-8") from None
            raise


def read_csv(source: Source, header: str, error: type[Exception] = ValueError,
             empty: type[Exception] | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(row_number, cells)`` for the data rows of a CSV source.

    The first row must match ``header`` (comma-separated column names,
    compared trimmed and case-insensitively); blank rows are skipped, and
    every other row must have one cell per column. A violation raises
    ``error`` with the 1-based row number, and the file's path when the
    source is one; a source with no rows at all raises ``empty`` (default:
    ``error``).
    """
    names = header.split(",")
    where = f"{source}: " if isinstance(source, (str, Path)) else ""
    with opened(source) as lines:
        rows = csv.reader(lines)
        first = next(rows, None)
        if first is None:
            raise (empty or error)(f"{where}row 1: empty file, expected header {header!r}")
        if [cell.strip().casefold() for cell in first] != names:
            raise error(f"{where}row 1: expected header {header!r}")
        for number, row in enumerate(rows, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(names):
                raise error(f"{where}row {number}: expected {len(names)} columns, "
                            f"got {len(row)}")
            yield number, row


@contextmanager
def writing(sink: Sink) -> Iterator[TextIO]:
    """A UTF-8 text handle with Unix line endings for ``sink``.

    A path is written through a temporary file in its directory, which
    replaces it once the block ends without an exception and is removed
    otherwise. An open handle is used as it is.
    """
    if not isinstance(sink, (str, Path)):
        yield sink
        return
    path = Path(sink)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
