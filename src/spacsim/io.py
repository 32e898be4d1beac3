"""CSV and manifest serialisation.

Numbers are written as shortest round-trip decimals (at most 17
significant digits), files are UTF-8 with LF line endings and are
written atomically (temp file plus rename), and every output CSV is
accompanied by a ``<out>.manifest`` JSON sidecar carrying the fully
resolved run configuration, so any output can be reproduced
byte-identically from its sidecar alone.

Every CSV goes through :func:`write_columns`, and every float through
one numpy kernel (:mod:`spacsim._shortest`) whose text is byte for byte
``repr``; there is no second formatting path.  Rows are formatted and
written in slices of :data:`SLICE_ROWS`, so memory stays bounded for
any table.  Within a slice each float column's distinct bit patterns
are formatted once (runs of a repeated value, such as a grid's x axis
or an echoed parameter, and repeated axes, such as its p axis), with
one kernel call for all float columns.  Label columns (lists of
strings) are written as they are, each distinct label encoded once.
The kernel and the label encoder give planes (byte position x distinct
value); each column's planes, without those NUL in every text, are
transposed once into its distinct texts, each ending in the column's
separator (``,``, or a newline for the last column).  Every column,
float or label, then takes one path: its distinct texts are gathered
into the slice's rows by each row's index among them.  The slice is
one NUL-padded byte matrix built from these gathers alone, and its
non-NUL bytes are the file bytes, so no Python string is made per
cell.  :func:`write_csv`
takes rows and is a thin wrapper around :func:`write_columns`.
:func:`fmt` is ``repr`` of one value (for manifests and command lines),
and :func:`fmt_column` and :func:`fmt_tiled` return the kernel's text
as Python strings.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._shortest import segments
from .params import grid_values

WIGNER_BOUND = 2.0 / math.pi
WIGNER_BOUND_SLACK = 1e-9

#: Rows formatted and written per step; bounds the working memory of a CSV.
SLICE_ROWS = 1 << 14

_COMMA, _NEWLINE = ord(","), ord("\n")


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of a float column and each value's index among them.

    Runs of bit-identical consecutive values are collapsed first, then
    the run heads are made unique on their bits, so -0.0 and 0.0 and
    differently signed NaNs stay apart.
    """
    bits = values.view(np.int64)
    heads = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    patterns, index = np.unique(bits[heads], return_inverse=True)
    return patterns.view(np.float64), np.repeat(index, np.diff(heads, append=bits.size))


def fmt_column(values) -> list[str]:
    """:func:`fmt` of every value of an array-like, in row-major order: a one-column CSV body, split."""
    lines = b"".join(_rows(*_cells(["value"], [np.asarray(values, dtype=float)])))
    return lines.decode("ascii").split("\n")[:-1]


def fmt(value: float) -> str:
    """Shortest decimal that round-trips to the same double: ``repr``, which the kernel reproduces."""
    return repr(float(value))


def fmt_tiled(axis, reps: int) -> list[str]:
    """:func:`fmt_column` of ``np.tile(axis, reps)``, formatting each axis value once."""
    return fmt_column(axis) * reps


def _mixed(name: str) -> ValueError:
    return ValueError(f"column {name!r} mixes labels and numbers")


def _is_labels(column, name: str) -> bool:
    """True for a list whose first entry is a string; raises ValueError, naming the column, for a list of numbers that holds one."""
    if not isinstance(column, list) or not column:
        return False
    if isinstance(column[0], str):
        return True
    if any(isinstance(value, str) for value in column):  # float() would read "2.5" as a number
        raise _mixed(name)
    return False


def _label_planes(column: list[str], name: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct labels as NUL-padded UTF-8 planes (bytes, labels), and each row's index among them.

    Raises ValueError, naming the column, if a distinct entry is not a string.
    """
    names = list(dict.fromkeys(column))
    if not all(isinstance(label, str) for label in names):
        raise _mixed(name)
    position = {name: i for i, name in enumerate(names)}
    index = np.fromiter(map(position.__getitem__, column), dtype=np.intp, count=len(column))
    encoded = np.array([name.encode("utf-8") for name in names])
    return encoded.view(np.uint8).reshape(len(names), -1).T, index


def _slice_bytes(parts: list[tuple[np.ndarray, np.ndarray]], rows: int) -> bytearray:
    """The CSV lines of ``rows`` rows: ``parts`` holds each column's (texts from :func:`_trimmed`, row index).

    The matrix is a numpy view of a ``bytearray``, whose ``translate``
    deletes the NUL bytes in one pass with no copy to ``bytes`` first:
    on a 16,384-row grid slice this took about 20 % less time than a
    numpy mask (2-vCPU Xeon, numpy 2.4).
    """
    widths = [texts.shape[1] for texts, _ in parts]
    buffer = bytearray(rows * sum(widths))
    matrix = np.frombuffer(buffer, dtype=np.uint8).reshape(rows, -1)
    at = 0
    for (texts, index), width in zip(parts, widths):
        matrix[:, at : at + width] = texts.take(index, axis=0)
        at += width
    return buffer.translate(None, b"\0")


def _trimmed(planes: np.ndarray, separator: int) -> np.ndarray:
    """A column's texts, one row per distinct value, from its planes: NUL-padded, then ``separator``.

    The planes that are NUL in every text are dropped before the one
    transpose, so they are not copied into each row, and every text
    carries the separator that follows it in the file (``,``, or a
    newline after the last column), so a slice is built from gathers
    alone.
    """
    used = np.flatnonzero(planes.any(axis=1))
    texts = np.empty((planes.shape[1], used.size + 1), dtype=np.uint8)
    texts[:, :-1] = planes[used].T
    texts[:, -1] = separator
    return texts


def _csv_chunks(header: list[str], cells: list, rows: int) -> Iterator[bytes | bytearray]:
    """The bytes of a CSV: the header line, then the rows."""
    yield (",".join(header) + "\n").encode("utf-8")
    yield from _rows(cells, rows)


def _cells(header: list[str], columns: list) -> tuple[list, int]:
    """Each column as a flat float array or as (label planes, row index), and the number of rows.

    Raises ValueError, naming the column, if a column mixes labels and
    numbers, and, naming the lengths, unless every column has the same
    number of entries.
    """
    cells = [_label_planes(c, name) if _is_labels(c, name) else np.asarray(c, dtype=float).reshape(-1) for name, c in zip(header, columns)]
    lengths = [len(c[1]) if isinstance(c, tuple) else c.size for c in cells]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of different lengths: {', '.join(map(str, lengths))}")
    return cells, lengths[0] if lengths else 0


def _rows(cells: list, rows: int) -> Iterator[bytearray]:
    """The CSV lines of the cells' rows, one ``bytearray`` per slice of rows."""
    separators = [_COMMA] * (len(cells) - 1) + [_NEWLINE]
    cells = [(_trimmed(c[0], separator), c[1]) if isinstance(c, tuple) else c for c, separator in zip(cells, separators)]
    for start in range(0, rows, SLICE_ROWS):
        stop = min(start + SLICE_ROWS, rows)
        floats = [_distinct(c[start:stop]) for c in cells if not isinstance(c, tuple)]
        planes = segments(np.concatenate([patterns for patterns, _ in floats])) if floats else None
        at, parts, next_float = 0, [], iter(floats)
        for c, separator in zip(cells, separators):
            if isinstance(c, tuple):
                parts.append((c[0], c[1][start:stop]))
            else:
                patterns, index = next(next_float)
                parts.append((_trimmed(planes[:, at : at + patterns.size], separator), index))
                at += patterns.size
        yield _slice_bytes(parts, stop - start)


def _transposed(rows: list[list]) -> list[list]:
    return [list(column) for column in zip(*rows)]


def write_columns(path: str | Path, header: list[str], columns: list) -> None:
    """Write a CSV atomically from its columns: header row, LF endings, UTF-8.

    A column is array-like floats, formatted with :func:`fmt`, or a list
    of strings (plain labels, no commas, or numbers already formatted)
    written as they are; a column that mixes the two is refused.  Every
    column has one entry per row, and the header one name per column;
    otherwise ValueError is raised and no file is written.
    """
    if len(header) != len(columns):
        raise ValueError(f"a header of {len(header)} names for {len(columns)} columns")
    cells, rows = _cells(header, columns)
    _atomic_write(Path(path), _csv_chunks(header, cells, rows))


def write_csv(path: str | Path, header: list[str], rows: list[list[float | str]]) -> None:
    """Write a CSV atomically from its rows; see :func:`write_columns`.

    Cells are floats, except for plain-label string columns (no commas).
    Every row has one cell per header name; otherwise ValueError, naming
    the first row that differs, is raised and no file is written.
    """
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"a header of {len(header)} names for {len(row)} columns in row {i}")
    write_columns(path, header, _transposed(rows) if rows else [[]] * len(header))


def read_csv(path: str | Path) -> tuple[list[str], list[list[float | str]]]:
    """Parse a CSV written by :func:`write_csv`; labels stay strings."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row: list[float | str] = []
        for tok in line.split(","):
            try:
                row.append(float(tok))
            except ValueError:
                row.append(tok)
        rows.append(row)
    return header, rows


def csv_round_trips(path: str | Path) -> bool:
    """True when parse-then-reserialise reproduces the file bytes."""
    header, rows = read_csv(path)
    return Path(path).read_bytes() == b"".join(_csv_chunks(header, *_cells(header, _transposed(rows))))


def _atomic_write(path: Path, chunks: Iterable[bytes | bytearray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    # created as open(path, "w") creates a file, so the mode follows the umask (mkstemp gives 0600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class WignerGrid:
    """Rectangular phase-space grid of Wigner values.

    ``values`` is row-major: entry (i, j) belongs to the point
    x_min + i*step + 1j*(p_min + j*step).
    """

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        xs, ps = self.axes()
        if self.values.shape != (xs.size, ps.size):
            raise ValueError(
                f"grid shape {self.values.shape} inconsistent with ranges "
                f"({xs.size} x {ps.size} expected)"
            )

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            grid_values(self.x_min, self.x_max, self.step),
            grid_values(self.p_min, self.p_max, self.step),
        )

    def within_bounds(self) -> bool:
        """True when all values respect the +-2/pi Wigner bound, within :data:`WIGNER_BOUND_SLACK`."""
        limit = WIGNER_BOUND + WIGNER_BOUND_SLACK
        return bool(np.all(self.values >= -limit) and np.all(self.values <= limit))

    def columns(self) -> list:
        """The x, p and value columns for :func:`write_columns`, p varying fastest."""
        xs, ps = self.axes()
        return [np.repeat(xs, ps.size), np.tile(ps, xs.size), self.values]

    def rows(self) -> list[list[float]]:
        xs, ps = self.axes()
        return [
            [float(x), float(p), float(self.values[i, j])]
            for i, x in enumerate(xs)
            for j, p in enumerate(ps)
        ]


def manifest_path(out_path: str | Path) -> Path:
    return Path(str(out_path) + ".manifest")


def write_manifest(
    out_path: str | Path, command: str, config: dict, version: str, summary: dict | None = None
) -> None:
    """Write the sidecar manifest describing one finished run."""
    payload = {
        "tool": "spacsim",
        "version": version,
        "command": command,
        "config": config,
        "out": str(out_path),
        "created": datetime.now(timezone.utc).isoformat(),
    }
    if summary is not None:
        payload["summary"] = summary
    _atomic_write(manifest_path(out_path), [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def load_manifest(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def manifest_argv(manifest: dict, out_override: str | None = None) -> list[str]:
    """Rebuild the command line that produced an output file.

    Uses the resolved configuration recorded in the sidecar.  Only on the
    same machine and numpy build does the rerun reproduce the output byte
    for byte; other SIMD loops moved ``fig1b`` by up to 1.3e-13.
    """
    argv = [str(manifest["command"])]  # a hand-edited command that is not a string is then an unknown command
    config = dict(manifest["config"])
    out = out_override if out_override is not None else manifest["out"]
    for key, value in sorted(config.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(value, (list, tuple)):
            argv.extend([flag, ",".join(fmt(v) if isinstance(v, float) else str(v) for v in value)])
        elif isinstance(value, float):
            argv.extend([flag, fmt(value)])
        else:
            argv.extend([flag, str(value)])
    argv.extend(["--out", str(out)])
    return argv
