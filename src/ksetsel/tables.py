"""CSV tables: the one writer and the one reader of every file the package handles.

A table is a header line of column names, then one comma-separated row
per line, each ended by `\\n`.  The reader skips blank lines wherever
they sit and names every error by its file and line, blank lines counted.
"""

from __future__ import annotations

import itertools

import numpy as np

_SLICE = 4096  # cells formatted and written at a time, so a wide row is never held whole as text


def _cells(row):
    """row's cells in order; a 1-D array cell stands for its values, taken as Python scalars a slice at a time."""
    for cell in row:
        if isinstance(cell, np.ndarray):
            for start in range(0, cell.shape[0], _SLICE):
                yield from cell[start : start + _SLICE].tolist()
        else:
            yield cell


def write_table(path, header, rows, float_format: str = ".10g") -> None:
    """Write header, then each row; floats (numpy's too) take float_format, other cells str.

    A 1-D array cell is written as its values in place of the cell.
    Lines are written a fixed number of cells at a time, so writing a
    row holds the text of one slice of it, however wide it is.
    """

    def text(v) -> str:
        return format(v, float_format) if isinstance(v, float) else str(v)

    with open(path, "w", newline="\n") as fh:
        for row in itertools.chain([header], rows):
            cells, sep = _cells(row), ""
            while part := list(itertools.islice(cells, _SLICE)):
                fh.write(sep + ",".join(map(text, part)))
                sep = ","
            fh.write("\n")


def read_table(path, key: str, prefix: str, noun: str, error: type[Exception]):
    """Read a `key,{prefix}0,...,{prefix}{d-1}` table: an int key column and d >= 1 float columns.

    Returns the int64 keys, the finite float64 (rows, d) values and each
    row's 1-based line in the file.  Every problem raises `error` as
    "PATH: row LINE ..."; noun names the value columns in the message.
    """
    header, keys, rows, lines = None, [], [], []
    with open(path) as fh:  # one line at a time: only the parsed rows are held, never the text
        for line_no, ln in enumerate(fh, start=1):
            parts = ln.strip().split(",")
            if parts == [""]:
                continue
            if header is None:
                header, d = parts, len(parts) - 1
                if d < 1 or header != [key] + [f"{prefix}{i}" for i in range(d)]:
                    raise error(f"{path}: malformed header, expected {key},{prefix}0,...,{prefix}{{d-1}}")
                continue
            if len(parts) != d + 1:
                raise error(f"{path}: row {line_no} has {len(parts) - 1} {noun}, expected {d}")
            try:
                keys.append(int(parts[0]))
                rows.append(np.array([float(v) for v in parts[1:]], dtype=np.float64))
            except ValueError as exc:
                raise error(f"{path}: row {line_no}: {exc}") from exc
            lines.append(line_no)
    if not rows:
        raise error(f"{path}: need a header and at least one row")
    values = np.stack(rows)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise error(f"{path}: row {lines[bad[0]]}: {noun} must be finite")
    return np.array(keys, dtype=np.int64), values, lines
