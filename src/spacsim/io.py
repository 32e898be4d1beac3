"""CSV and manifest serialisation.

Numbers are written as shortest round-trip decimals (at most 17
significant digits), files are UTF-8 with LF line endings and are
written atomically (temp file plus rename), and every output CSV is
accompanied by a ``<out>.manifest`` JSON sidecar carrying the fully
resolved run configuration, so any output can be reproduced
byte-identically from its sidecar alone.

Every CSV goes through :func:`write_columns`, which formats a whole
column at a time with :func:`fmt_column`: one ``repr`` per run of
bit-identical consecutive floats (echoed parameters, a grid's x axis,
fitted scales, exact zeros), or one per float where runs are short.
Text columns pass through unchanged: labels, and axes that repeat as a
whole rather than value by value (the p axis of a Wigner grid), which
:func:`fmt_tiled` formats once and tiles.  :func:`write_csv` takes rows
and is a thin wrapper around it, so there is one formatting path, and
the bytes are those of :func:`fmt` applied cell by cell.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .sweeps import grid_values

WIGNER_BOUND = 2.0 / math.pi
WIGNER_BOUND_SLACK = 1e-9


def fmt(value: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(value))


def fmt_column(values) -> list[str]:
    """:func:`fmt` of every value of an array-like, in row-major order.

    Each run of bit-identical consecutive values is formatted once.  Runs
    are found on the bits, not by float equality or ``np.unique``, which
    would merge -0.0 with 0.0; a column with more runs than half its
    length is formatted value by value.
    """
    flat = np.asarray(values, dtype=float).ravel()
    bits = flat.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * (starts.size + 1) > flat.size:
        return list(map(repr, flat.tolist()))
    starts = np.concatenate(([0], starts))
    cells = np.array(list(map(repr, flat[starts].tolist())), dtype=object)
    return np.repeat(cells, np.diff(starts, append=flat.size)).tolist()


def fmt_tiled(axis, reps: int) -> list[str]:
    """:func:`fmt_column` of ``np.tile(axis, reps)``, formatting each axis value once."""
    return fmt_column(axis) * reps


def _column_cells(column) -> list[str]:
    if isinstance(column, list) and column and isinstance(column[0], str):
        return column
    return fmt_column(column)


def _csv_text(header: list[str], columns: list) -> str:
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*(_column_cells(column) for column in columns))))
    return "\n".join(lines) + "\n"


def _transposed(rows: list[list]) -> list[list]:
    return [list(column) for column in zip(*rows)]


def write_columns(path: str | Path, header: list[str], columns: list) -> None:
    """Write a CSV atomically from its columns: header row, LF endings, UTF-8.

    A column is array-like floats, formatted with :func:`fmt`, or a list
    of strings (plain labels, no commas, or numbers already formatted)
    written as they are.  Every column has one entry per row.
    """
    _atomic_write(Path(path), _csv_text(header, columns))


def write_csv(path: str | Path, header: list[str], rows: list[list[float | str]]) -> None:
    """Write a CSV atomically from its rows; see :func:`write_columns`.

    Cells are floats, except for plain-label string columns (no commas).
    """
    write_columns(path, header, _transposed(rows))


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
    return Path(path).read_bytes() == _csv_text(header, _transposed(rows)).encode("utf-8")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
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

    def within_bounds(self, slack: float = WIGNER_BOUND_SLACK) -> bool:
        """True when all values respect the +-2/pi Wigner bound."""
        limit = WIGNER_BOUND + slack
        return bool(np.all(self.values >= -limit) and np.all(self.values <= limit))

    def columns(self) -> list:
        """The x, p and value columns for :func:`write_columns`, p varying fastest."""
        xs, ps = self.axes()
        return [np.repeat(xs, ps.size), fmt_tiled(ps, xs.size), self.values]

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
    _atomic_write(manifest_path(out_path), json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def manifest_argv(manifest: dict, out_override: str | None = None) -> list[str]:
    """Rebuild the command line that produced an output file.

    Uses the resolved configuration recorded in the sidecar; running
    the result reproduces the original output byte for byte.
    """
    argv = [manifest["command"]]
    config = dict(manifest["config"])
    out = out_override if out_override is not None else manifest["out"]
    for key, value in sorted(config.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, (list, tuple)):
            argv.extend([flag, ",".join(fmt(v) if isinstance(v, float) else str(v) for v in value)])
        elif isinstance(value, float):
            argv.extend([flag, fmt(value)])
        else:
            argv.extend([flag, str(value)])
    argv.extend(["--out", str(out)])
    return argv
