"""CSV tables: the one writer and the one reader of every file the package handles.

A table is a header line of column names, then one comma-separated row
per line, each ended by `\\n`.  The reader skips blank lines wherever
they sit and names every error by its file and line, blank lines counted.
"""

from __future__ import annotations

import numpy as np


def write_table(path, header, rows, float_format: str = ".10g") -> None:
    """Write header, then each row; floats (numpy's too) take float_format, other cells str."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, float_format) if isinstance(v, float) else str(v) for v in row) + "\n")


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
