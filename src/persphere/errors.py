"""Exception types shared across the file-format readers, and the one CSV
and JSON reader and writer every file format goes through."""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np


class ParseError(ValueError):
    """A file exists but its contents do not match the expected format."""


class Table(NamedTuple):
    """Data rows of a CSV file, as returned by `read_csv`."""

    header: list[str] | None
    linenos: list[int]
    text: list[list[str]]
    values: np.ndarray


def read_csv(path, header=None, text=0, inf_column=None, empty_ok=False) -> Table:
    """
    Read a UTF-8 CSV file with one column count for every row.

    `header` is the required first line; a header ending in ",..." is a
    prefix, and the file's own header line then sets the column count.
    Without a header, the first row sets it. A leading UTF-8 byte-order
    mark is skipped. Lines are stripped of surrounding whitespace, so CRLF
    endings parse, and blank lines are skipped. The first `text` columns of
    each row are kept as strings; the others must be finite reals, except
    that `inf` is allowed in column `inf_column`. A file with no data rows
    is an error unless `empty_ok`.

    Every failure raises ParseError starting "path:lineno:" for a row and
    "path:" for the whole file. Returns a Table: the header fields (None
    without a header), the line number of each data row, the text columns
    of each row, and the other columns as a (rows, columns - text) array.
    """
    linenos, texts, rows = [], [], []
    width = None
    fields = None
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            if header is not None:
                line = fh.readline().strip()
                prefix = header[:-3] if header.endswith(",...") else None
                if line != header and not (prefix and line.startswith(prefix)):
                    raise ParseError(f"{path}: expected header {header!r}, got {line!r}")
                fields = line.split(",")
                width = len(fields)
            for lineno, line in enumerate(fh, start=2 if header is not None else 1):
                line = line.strip()
                if not line:
                    continue
                row = line.split(",")
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ParseError(
                        f"{path}:{lineno}: expected {width} columns, got {len(row)}"
                    )
                try:
                    rows.append([float(f) for f in row[text:]])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                linenos.append(lineno)
                texts.append(row[:text])
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not rows and not empty_ok:
        raise ParseError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=float).reshape(len(rows), width - text)
    bad = ~np.isfinite(values)
    if inf_column is not None:
        bad[:, inf_column - text] &= values[:, inf_column - text] != np.inf
    if bad.any():
        r = int(np.argmax(bad.any(axis=1)))
        raise ParseError(
            f"{path}:{linenos[r]}: non-finite value {values[r][bad[r]][0]}"
        )
    return Table(fields, linenos, texts, values)


def write_csv(path, values, header=None, text=None) -> None:
    """
    Write a CSV file that `read_csv` reads back to the same values.

    `header` is a list of fields for the first line. Each data row is the
    row's `text` cells, if given, then its `values` row as `%.17g` numbers
    (`inf` for infinity), joined by commas and ended by LF. A header field
    or text cell holding a comma or a line break raises ValueError before
    the file is opened.
    """
    rows = np.asarray(values, dtype=float)
    if rows.ndim != 2:
        raise ValueError("values must be a 2-D array")
    text = [[]] * rows.shape[0] if text is None else text
    for cell in [*(header or []), *(c for row in text for c in row)]:
        if any(ch in cell for ch in ",\r\n"):
            raise ValueError(f"{path}: text cell {cell!r} contains a comma or line break")
    width = len(text[0]) if text else 0
    template = ",".join(["%s"] * width + ["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.writelines(template % (*t, *r) for t, r in zip(text, rows.tolist(), strict=True))


def write_json(path, payload: dict) -> None:
    """Write `payload` as JSON with indent 2, sorted keys and a final LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """Read a JSON file; malformed or non-UTF-8 contents raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
