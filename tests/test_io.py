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

    def test_columns_of_different_lengths_are_refused_before_any_file(self, tmp_path):
        path = tmp_path / "c.csv"
        with pytest.raises(ValueError, match="lengths: 5, 3"):
            write_columns(path, ["a", "b"], [np.arange(5.0), np.arange(3.0)])
        with pytest.raises(ValueError, match="lengths: 2, 3"):
            write_columns(path, ["q", "v"], [["m_a", "m_b"], [0.1, 0.2, 0.3]])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("column", [["x", 1.0], [1.0, "x"], [1.0, "2.5"]])
    def test_a_column_of_labels_and_numbers_is_refused_before_any_file(self, tmp_path, column):
        with pytest.raises(ValueError, match="column 'b' mixes labels and numbers"):
            write_columns(tmp_path / "c.csv", ["a", "b"], [[0.5, 2.0], column])
        assert list(tmp_path.iterdir()) == []

    def test_a_ragged_list_column_is_refused_before_any_file(self, tmp_path):
        with pytest.raises(ValueError):
            write_columns(tmp_path / "c.csv", ["a"], [[[1.0, 2.0], [3.0]]])
        assert list(tmp_path.iterdir()) == []

    def test_ragged_rows_are_refused_before_any_file(self, tmp_path):
        path = tmp_path / "c.csv"
        with pytest.raises(ValueError, match="a header of 2 names for 3 columns in row 0"):
            write_csv(path, ["a", "b"], [[1.0, 2.0, 3.0], [4.0, 5.0]])
        with pytest.raises(ValueError, match="a header of 2 names for 1 columns in row 2"):
            write_csv(path, ["q", "v"], [["m_a", 0.1], ["m_b", 0.2], ["m_c"]])
        assert list(tmp_path.iterdir()) == []

    def test_a_header_of_other_width_is_refused_before_any_file(self, tmp_path):
        path = tmp_path / "c.csv"
        x = np.arange(4.0)
        with pytest.raises(ValueError, match="a header of 1 names for 2 columns"):
            write_columns(path, ["a"], [x, x])
        with pytest.raises(ValueError, match="a header of 2 names for 1 columns"):
            write_csv(path, ["a", "b"], [[1.0], [2.0]])
        assert list(tmp_path.iterdir()) == []

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

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_patterns(self, patterns):
        assert repr_mismatches(np.array(patterns, dtype=np.uint64).view(np.float64)) == []

    @pytest.mark.parametrize(
        "patterns",
        [
            # the excluded right endpoint: r = 0, z an integer and an odd significand
            [0x437E4FDECDC1ED5B, 0x43596B19568AD6BB, 0x439E5FF6B33F0D6F, 0x4365928FB292FD4B],
            # r == delta, where the left endpoint keeps the big divisor
            [0x436E98DB2FFC69E4, 0x2E0982E7D2486CB6, 0x58EA147D7A5F55B5, 0x43AEBC76A2723904],
            # r == delta, where the left endpoint sends the lane to the small divisor
            [0x4357E736998BD2DF, 0x7864BAE7367B5208, 0x1C87FF772452F255, 0x451A6906EC3A2083],
            # dist divisible by 100, y not an integer
            [0x19A18D2EAF839421, 0x5C241445635C862E, 0x3F54E662078F9B80, 0x18865C7DB340EC9E],
            # dist divisible by 100, y an integer: a tie, rounded down to the even digit
            [0x4300ECF9EA6E5C12, 0x4307B95730AD453A, 0x431FCBF95CC7E801, 0x43036462576AFC02],
            # dist divisible by 100, y an integer: a tie, y already even
            [0x43059289543DBAA6, 0x431BEF36BC74DCFF, 0x43102B2F47EFCB9B, 0x42E2D4D5FE10D48C],
            # the shorter interval of a power of two, found by the big divisor
            np.array([2.0**-29, 2.0**-24, 2.0**-14, 1.0]).view(np.uint64).tolist(),
            # the shorter interval, y rounded up, and at 2^-25 (e = -77) its one tie
            np.array([2.0**-30, 2.0**-27, 2.0**-23, 2.0**-25]).view(np.uint64).tolist(),
        ],
        ids=["right-endpoint", "r-delta-big", "r-delta-small", "dist-100", "tie-down", "tie-even", "shorter", "shorter-up"],
    )
    def test_rare_dragonbox_branches(self, patterns):
        bits = np.array(patterns, dtype=np.uint64)
        assert repr_mismatches(np.concatenate([bits, bits | np.uint64(1 << 63)]).view(np.float64)) == []

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

    @pytest.mark.parametrize("slice_rows", [1, 7, io.SLICE_ROWS])
    def test_every_segment_in_one_call(self, slice_rows, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "SLICE_ROWS", slice_rows)
        magnitudes = [1.234e-4, 0.0012, 0.05, 1.5, 12.25, 123.125, 1234.5, 12345678.9, 1200.0, 5e10, 1e15]
        magnitudes += [1e-5, 2.5e-7, 1.5e20, 1e100, 2.5e-300, 0.0, math.inf, math.nan]
        values = np.array(magnitudes + [-v for v in magnitudes])
        np.random.default_rng(24).shuffle(values)
        texts = [repr(v) for v in values.tolist()]
        points = {t.index(".") for t in texts if "." in t and "e" not in t and not t.lstrip("-").startswith("0.")}
        assert "-0.0001234" in texts and "-1000000000000000.0" in texts and len(points) >= 5
        assert {"1e-05", "-1e+100", "2.5e-300", "0.0", "-0.0", "inf", "-inf", "nan"} <= set(texts)
        assert fmt_column(values) == texts
        labels = [f"q{i % 4}" for i in range(values.size)]
        path = tmp_path / "s.csv"
        write_columns(path, ["a", "b", "label"], [values, values[::-1], labels])
        lines = "".join(f"{a},{b},{label}\n" for a, b, label in zip(texts, texts[::-1], labels))
        assert path.read_bytes() == ("a,b,label\n" + lines).encode("utf-8")


def test_peak_memory_is_bounded_by_the_row_slice(tmp_path):
    """A 2^20-row, three-column grid CSV stays within a fixed memory bound.

    Rows are formatted and written SLICE_ROWS (2^14) at a time; writing
    this table peaks at 6.6 MiB of traced memory (numpy reports its
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
