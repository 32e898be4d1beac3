"""Serialisation: round-trip formatting, atomicity, grid type, manifests."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacsim import io
from spacsim.io import (
    WignerGrid,
    csv_round_trips,
    fmt,
    fmt_column,
    fmt_tiled,
    load_manifest,
    manifest_argv,
    manifest_path,
    read_csv,
    write_columns,
    write_csv,
    write_manifest,
)


class TestFormatting:
    @pytest.mark.parametrize("value", [0.0, 1.0, 0.1, 2 / 3, math.pi, 1e-300, -4.0, float("nan")])
    def test_shortest_round_trip(self, value):
        text = fmt(value)
        assert len(text.replace("-", "").replace(".", "").replace("e", "")) <= 18
        back = float(text)
        assert back == value or (math.isnan(back) and math.isnan(value))


class TestCsv:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [[0.1, 2 / 3, float("nan")], [1e-17, -math.pi, 4.0]]
        write_csv(path, ["a", "b", "c"], rows)
        header, back = read_csv(path)
        assert header == ["a", "b", "c"]
        assert back[1] == rows[1]
        assert math.isnan(back[0][2])
        assert csv_round_trips(path)

    def test_line_endings_and_encoding(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[1.5]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == b"x\n1.5\n"

    def test_string_labels_survive(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "v"], [["m_a", 0.25]])
        _, rows = read_csv(path)
        assert rows[0] == ["m_a", 0.25]
        assert csv_round_trips(path)


class TestWignerGrid:
    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError):
            WignerGrid(x_min=0, x_max=1, p_min=0, p_max=1, step=0.5, values=np.zeros((2, 3)))

    def test_rows_orientation(self):
        values = np.arange(9.0).reshape(3, 3)
        grid = WignerGrid(x_min=-1, x_max=1, p_min=-1, p_max=1, step=1.0, values=values)
        rows = grid.rows()
        assert rows[0] == [-1.0, -1.0, 0.0]
        assert rows[1] == [-1.0, 0.0, 1.0]   # p varies fastest
        assert rows[3] == [0.0, -1.0, 3.0]

    def test_bound_check(self):
        inside = np.full((2, 2), 0.6)
        outside = np.full((2, 2), 0.7)
        grid = WignerGrid(x_min=0, x_max=1, p_min=0, p_max=1, step=1.0, values=inside)
        assert grid.within_bounds()
        grid = WignerGrid(x_min=0, x_max=1, p_min=0, p_max=1, step=1.0, values=outside)
        assert not grid.within_bounds()


class TestManifest:
    def test_round_trip_and_argv(self, tmp_path):
        out = tmp_path / "run.csv"
        config = {"r": 1.0, "s_max": 0.5, "phis": [0.5, 2 / 3], "trunc": 128, "backend": "oracle"}
        write_manifest(out, "fig1a", config, "0.1.0")
        manifest = load_manifest(manifest_path(out))
        assert manifest["command"] == "fig1a"
        assert manifest["config"] == config
        argv = manifest_argv(manifest, out_override=str(tmp_path / "again.csv"))
        assert argv[0] == "fig1a"
        assert "--phis" in argv and "0.5,0.6666666666666666" in argv
        assert argv[-2:] == ["--out", str(tmp_path / "again.csv")]

    def test_manifest_is_json_with_timestamp(self, tmp_path):
        out = tmp_path / "run.csv"
        write_manifest(out, "point", {"r": 0.0}, "0.1.0")
        payload = json.loads(manifest_path(out).read_text())
        assert payload["tool"] == "spacsim"
        assert "created" in payload


class TestColumnWriter:
    VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e-5, 0.1, 2 / 3, 1e16, 1.5e300]

    def test_matches_per_cell_fmt(self, tmp_path):
        path = tmp_path / "c.csv"
        labels = [f"q{i}" for i in range(len(self.VALUES))]
        negated = [-v for v in self.VALUES]
        write_columns(path, ["label", "v", "neg"], [labels, np.array(self.VALUES), negated])
        expected = "label,v,neg\n" + "".join(
            f"{label},{fmt(v)},{fmt(n)}\n" for label, v, n in zip(labels, self.VALUES, negated)
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert csv_round_trips(path)

    def test_write_csv_writes_the_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        labels = ["m_a"] * len(self.VALUES)
        write_csv(a, ["q", "v"], [[label, v] for label, v in zip(labels, self.VALUES)])
        write_columns(b, ["q", "v"], [labels, self.VALUES])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_tables(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_bytes() == b"a,b\n"
        write_columns(path, ["a", "b"], [[], np.empty(0)])
        assert path.read_bytes() == b"a,b\n"

    def test_grid_columns_match_grid_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rng = np.random.default_rng(3)
        grid = WignerGrid(x_min=-1, x_max=1, p_min=-0.3, p_max=0.6, step=0.1, values=rng.standard_normal((21, 10)))
        write_columns(a, ["x", "p", "w"], grid.columns())
        write_csv(b, ["x", "p", "w"], grid.rows())
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("ranges", [(0, 0, -0.3, 0.6), (-1, 1, 0.2, 0.2), (-0.5, 0.5, -0.5, 0.5)])
    def test_grid_columns_match_grid_rows_on_other_axes(self, ranges, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        x_min, x_max, p_min, p_max = ranges
        shape = (round((x_max - x_min) / 0.1) + 1, round((p_max - p_min) / 0.1) + 1)
        values = np.zeros(shape)  # all one run
        values[::2, 1:] = np.random.default_rng(3).standard_normal(values[::2, 1:].shape)
        grid = WignerGrid(x_min=x_min, x_max=x_max, p_min=p_min, p_max=p_max, step=0.1, values=values)
        write_columns(a, ["x", "p", "w"], grid.columns())
        write_csv(b, ["x", "p", "w"], grid.rows())
        assert a.read_bytes() == b.read_bytes()


class TestRunCompression:
    """Runs of bit-identical values are formatted once; the bytes equal per-cell :func:`fmt`."""

    @staticmethod
    def assert_per_cell(tmp_path, *columns):
        path = tmp_path / "r.csv"
        header = [f"c{i}" for i in range(len(columns))]
        write_columns(path, header, [np.asarray(c, dtype=float) for c in columns])
        lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in zip(*columns)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        assert csv_round_trips(path)

    def test_signed_zeros_and_non_finite_runs(self, tmp_path):
        column = [0.0] * 5 + [-0.0] * 5 + [0.0, -0.0, 0.0] + [math.nan] * 6 + [math.inf] * 4 + [-math.inf] * 4
        column += [-0.0] * 3 + [5e-324] * 5 + [-5e-324] + [5e-324] * 3 + [0.25] * 8
        assert sum(a != b for a, b in zip(column, column[1:])) < len(column) // 2  # the run path
        self.assert_per_cell(tmp_path, column, column[::-1])

    def test_differently_signed_nans_keep_their_text(self, tmp_path):
        nans = np.array([math.nan, -math.nan, math.nan, math.nan, -math.nan, -math.nan] * 3)
        self.assert_per_cell(tmp_path, nans)

    @pytest.mark.parametrize("column", [[], [-0.0], [5e-324], [2 / 3, 2 / 3]])
    def test_short_columns(self, column, tmp_path):
        self.assert_per_cell(tmp_path, column)

    def test_all_distinct_column(self, tmp_path):
        column = np.random.default_rng(11).standard_normal(101)
        self.assert_per_cell(tmp_path, column, np.repeat(column[:5], [1, 30, 20, 40, 10]))

    def test_two_dimensional_and_strided_input(self, tmp_path):
        block = np.repeat(np.array([[0.1, -0.0], [-0.0, 0.3]]), 8, axis=1)
        path = tmp_path / "s.csv"
        write_columns(path, ["a", "b"], [block, np.repeat(block, 2)[::2]])
        expected = [f"{fmt(a)},{fmt(b)}" for a, b in zip(block.ravel(), block.ravel())]
        assert path.read_text() == "a,b\n" + "\n".join(expected) + "\n"

    def test_tiled_axis(self):
        axis = np.array([-0.5, -0.0, 0.0, 0.5])
        assert fmt_tiled(axis, 3) == [fmt(v) for v in np.tile(axis, 3)]
        assert fmt_tiled(axis, 0) == []


def repr_mismatches(values) -> list[tuple[float, str]]:
    """(value, kernel text) wherever the vectorised kernel differs from ``repr``."""
    values = np.asarray(values, dtype=float).ravel()
    return [(v, text) for v, text in zip(values.tolist(), fmt_column(values)) if text != repr(v)]


class TestKernelAgainstRepr:
    """The numpy kernel writes exactly the bytes of ``repr``; no value may differ."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2018).integers(0, 2**64, size=2**18, dtype=np.uint64)
        assert repr_mismatches(bits.view(np.float64)) == []

    def test_powers_and_their_neighbours(self):
        powers = np.array([2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
        around = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert repr_mismatches(np.concatenate([around, -around])) == []

    def test_extremes_and_layout_edges(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        values = [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
        values += [0.0, -0.0, math.inf, -math.inf, *nans.view(np.float64)]
        values += [1e16, np.nextafter(1e16, 0.0), 1e-4, 1e-5, 0.0001, np.nextafter(1e-4, 0.0), 123456789012345678.0]
        values += [2.0**53 + k for k in range(-4, 5)] + [0.1 * k for k in range(-40, 41)] + list(range(-1000, 1001))
        assert repr_mismatches(values) == []

    @settings(deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    def test_any_floats(self, values):
        assert repr_mismatches(values) == []

    def test_csv_bytes_across_slices(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "SLICE_ROWS", 7)  # slice edges every 7 rows
        rng = np.random.default_rng(7)
        columns = [
            rng.integers(0, 2**64, size=50, dtype=np.uint64).view(np.float64),
            np.repeat([0.0, -0.0, math.nan, 1e-5, 2.5], 10),
            np.tile([0.25, -3.0, 1e22, 5e-324, -math.inf], 10),
        ]
        labels = [f"q{i % 3}" for i in range(50)]
        path = tmp_path / "s.csv"
        write_columns(path, ["label", "a", "b", "c"], [labels, *columns])
        lines = ["label,a,b,c"] + [",".join([label, *map(repr, row)]) for label, row in zip(labels, zip(*(c.tolist() for c in columns)))]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_peak_memory_is_bounded_by_the_row_slice(tmp_path):
    """A 2^20-row, three-column grid CSV stays within a fixed memory bound.

    Rows are formatted and written SLICE_ROWS (2^14) at a time; writing
    this table peaks at about 11 MB of traced memory (numpy reports its
    buffers to tracemalloc), and a writer that builds the whole file as
    Python strings first peaks at about 270 MB.  The bound is 32 MB.
    """
    axis = np.linspace(-4.0, 4.0, 1024)
    columns = [np.repeat(axis, 1024), np.tile(axis, 1024), np.random.default_rng(20).standard_normal(1 << 20)]
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_columns(path, ["x", "p", "w"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 50 * 2**20
    path.unlink()
    assert peak < 32 * 2**20
