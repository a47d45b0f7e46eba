"""The one CSV codec behind every table the package reads or writes.

A table is a header row and data rows in the ``csv`` module's default
dialect.  Any fault in a file being read raises :class:`ParameterError`
naming the table and, past the header, the 0-based data row (blank rows
are skipped but counted), so malformed input is a validation error.
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .params import ParameterError

#: rows parsed per pass; small, so that the raw records die young instead
#: of reaching the older garbage-collector generations, whose collections
#: would walk the growing columns
_CHUNK_ROWS = 256

_CELL_ERRORS = (ValueError, KeyError, OverflowError)


def write_table(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write the header row, then every row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(
    path: str | Path,
    name: str,
    header: Sequence[str],
    parsers: Sequence[Callable[[str], Any]],
) -> list[list]:
    """Parsed columns of a table whose header cells, stripped, match.

    Each parser turns one cell into a value and raises ``ValueError``,
    ``KeyError`` or ``OverflowError`` (``numpy.int64``) for a cell it
    rejects.  Rows are parsed a chunk at a time, column by column; a
    chunk that fails is parsed again row by row to find the bad row.
    """
    columns: list[list] = [[] for _ in parsers]

    def extend(chunk: list[list[str]]) -> None:
        kept = [record for record in chunk if record]
        for record in kept:
            if len(record) != len(parsers):
                raise ValueError(
                    f"expected {len(parsers)} columns, got {len(record)}"
                )
        for column, parse, cells in zip(columns, parsers, zip(*kept)):
            column.extend(map(parse, cells))

    row = None
    with open(path, newline="") as handle:
        records = csv.reader(handle)
        try:
            if [cell.strip() for cell in next(records, [])] != list(header):
                raise ValueError(
                    f"{name} CSV header must be {','.join(header)}"
                )
            row = 0
            while chunk := list(islice(records, _CHUNK_ROWS)):
                try:
                    extend(chunk)
                except _CELL_ERRORS:
                    for record in chunk:
                        extend([record])
                        row += 1
                    raise
                row += len(chunk)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParameterError(
                name, f"unreadable near line {records.line_num}: {exc}"
            ) from None
        except _CELL_ERRORS as exc:
            reason = (
                f"unknown value {exc}" if isinstance(exc, KeyError)
                else str(exc)
            )
            where = name if row is None else f"{name}[{row}]"
            raise ParameterError(where, reason) from None
    return columns
