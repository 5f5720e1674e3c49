"""Header-first CSV tables: the one reader and writer of every CSV file of the pipeline.

A table is a header row followed by data rows of the same width.  Cells are
written by the csv module, which renders a Python float with ``str`` (equal to
``repr``, so every float reads back bit-exact) and ``None`` as an empty cell.
Callers convert numpy arrays with ``.tolist()`` so cells never depend on how
numpy prints its scalars.

Large all-numeric tables (the trace files) have a bulk path with the same file
format.  ``write_numeric_table`` renders the body as one string, with the
cells ``str`` of Python numbers and ``\\r\\n`` line ends, byte for byte what
``write_table`` writes for the same rows.  ``read_numeric_table`` checks the
header as ``read_table`` does and then parses the whole body in one numpy
call into a structured array; a blank line or a cell numpy does not parse as
its field's type (``1_0``, ``1.0`` for an integer) is a malformed row.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator, Sequence

import numpy as np


class TraceFormatError(ValueError):
    """Raised when a trace, label or table file violates the expected schema."""


def _check_header(path: str, first_row, header: Sequence[str]) -> None:
    if first_row != list(header):
        raise TraceFormatError(f"{path}: expected header {','.join(header)}")


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then every row of ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path: str, header: Sequence[str]) -> Iterator[list[str]]:
    """Yield the data rows of a table after checking its header and row widths."""
    width = len(header)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _check_header(path, next(reader, None), header)
        for row in reader:
            if len(row) != width:
                raise TraceFormatError(f"{path}: malformed row {row!r}")
            yield row


def write_numeric_table(path: str, header: Sequence[str], row_format: str,
                        records: Iterable[Sequence]) -> None:
    """Write ``header``, then ``row_format.format(*record)`` for every record.

    ``row_format`` renders one or more whole rows, each ended by ``\\r\\n``; a
    ``{}`` field renders a Python float or int as ``str``, as the csv module
    does.  Cells must be numbers or strings that need no quoting.
    """
    body = "".join(row_format.format(*record) for record in records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n" + body)


def read_numeric_table(path: str, header: Sequence[str], dtype: np.dtype) -> np.ndarray:
    """The data rows of a table as one structured array with one field per column."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first, _, body = text.partition("\n")
    _check_header(path, next(csv.reader([first]), None), header)
    if not body:
        return np.empty(0, dtype=dtype)
    if body.startswith("\n") or "\n\n" in body:  # numpy would skip a blank line
        raise TraceFormatError(f"{path}: malformed row: blank line")
    try:
        return np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)
    except ValueError as exc:
        raise TraceFormatError(f"{path}: malformed row: {exc}") from None
