"""Header-first CSV tables: the one reader and writer of every CSV file of the pipeline.

A table is a header row followed by data rows of the same width.  Cells are
written by the csv module, which renders a Python float with ``str`` (equal to
``repr``, so every float reads back bit-exact) and ``None`` as an empty cell.
Callers convert numpy arrays with ``.tolist()`` so cells never depend on how
numpy prints its scalars.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator, Sequence


class TraceFormatError(ValueError):
    """Raised when a trace, label or table file violates the expected schema."""


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then every row of ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path: str, header: Sequence[str]) -> Iterator[list[str]]:
    """Yield the data rows of a table after checking its header and row widths."""
    header = list(header)
    width = len(header)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise TraceFormatError(f"{path}: expected header {','.join(header)}")
        for row in reader:
            if len(row) != width:
                raise TraceFormatError(f"{path}: malformed row {row!r}")
            yield row
