"""Property tests of every command's error contract.

Any argv for fig1a, fig1b, fig2a, fig2b or fig3, with valid and invalid
numbers (NaN, infinities, negative values, 1e300) in the scenario
flags, the range flags, ``--phis``, ``--s-values`` and ``--trunc``,
exits 0, 2 or 3, prints no traceback and no numpy warning, and leaves
no file behind when it fails.  Every valid grid has at most 50 points
and every valid truncation is at most 48 levels, so an example takes
milliseconds.  The same holds for ``wigner`` (grids of at most 50 x 50
points), ``audit`` (at most 3 x 3 states, malformed float lists and
unknown quantities), ``point``, an ``--out`` that is an existing
directory, and ``rerun`` of hand-made manifests.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spacsim.audit import ALL_QUANTITIES
from spacsim.cli import main

SPECIAL = (float("nan"), float("inf"), float("-inf"), -1.0, -0.0, 0.0, 1e300, -1e300, 1e-300)


#: Float-list texts that are not lists of floats.
MALFORMED = ("1,abc", "0.5;1", "0x1p3", "1e", "[1]")


def rarely(hostile, usual):
    """``usual``, or about one time in ten ``hostile``, so that many examples are valid throughout.

    The hostile branch sits at a middle value, which hypothesis draws no
    more often than any other; it favours the ends of a range.
    """
    return st.integers(0, 15).flatmap(lambda k: hostile if k == 7 else usual)


def value(lo: float, hi: float):
    return rarely(st.sampled_from(SPECIAL), st.floats(lo, hi))


def values(lo: float, hi: float):
    """One to three comma-separated values, or a malformed list."""
    listed = st.lists(value(lo, hi), min_size=1, max_size=3).map(lambda vs: ",".join(map(repr, vs)))
    return rarely(st.sampled_from(MALFORMED), listed)


def scenario_flags(draw) -> list[str]:
    """Some of the scenario flags, then --trunc and --backend."""
    argv = []
    scenario = {"r": (0.0, 3.0), "theta": (0.0, 6.3), "delta": (0.0, 6.3), "phi": (0.0, 3.2), "s": (0.0, 4.0)}
    for flag, (lo, hi) in scenario.items():
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(value(lo, hi))!r}")
    trunc = rarely(st.sampled_from(["5", "0", "-1", str(2**20 + 1), "1e300", "nan"]), st.integers(6, 48).map(str))
    argv.append(f"--trunc={draw(trunc)}")
    argv.append(f"--backend={draw(st.sampled_from(['oracle', 'printed']))}")
    return argv


@st.composite
def sweep_argv(draw) -> list[str]:
    """A grid of at most 50 points unless an end or the step is special.

    ``--phis`` and ``--s-values`` are now and then empty, which runs a
    sweep over no angle or no coupling.
    """
    command = draw(st.sampled_from(["fig1a", "fig1b", "fig2a", "fig2b", "fig3"]))
    axis = "s" if command in ("fig1a", "fig2a") else "r"
    lo = draw(value(0.0, 3.0))
    step = draw(value(0.05, 1.0))
    hi = draw(rarely(st.sampled_from(SPECIAL), st.integers(0, 49).map(lambda count: lo + count * step)))
    argv = [command, f"--{axis}-min={lo!r}", f"--{axis}-max={hi!r}", f"--{axis}-step={step!r}"]
    if command == "fig3":
        argv.append(f"--s-values={draw(rarely(st.just(''), values(0.0, 4.0)))}")
    elif draw(st.booleans()):
        argv.append(f"--phis={draw(rarely(st.just(''), values(0.0, 3.2)))}")
    return argv + scenario_flags(draw)


@settings(max_examples=80, deadline=2000, derandomize=True, database=None)
@given(sweep_argv())
@example(["fig1a", "--s-min=0.0", "--s-max=0.5", "--s-step=0.25", "--phis=", "--trunc=16"])  # no angle
@example(["fig1b", "--r-min=0.0", "--r-max=0.5", "--r-step=0.25", "--phis=", "--trunc=16"])
@example(["fig3", "--r-min=0.0", "--r-max=0.5", "--r-step=0.25", "--s-values=", "--trunc=16"])  # no coupling
def test_sweep_commands_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out.csv"
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(out)])
        assert code in (0, 2, 3), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        written = sorted(path.name for path in Path(scratch).iterdir())
        assert written == (["out.csv", "out.csv.manifest"] if code == 0 else []), (code, stderr.getvalue())


@st.composite
def wigner_argv(draw) -> list[str]:
    """A grid of at most 50 x 50 points unless an end or the step is special."""
    step = draw(value(0.1, 1.0))
    argv = ["wigner", f"--grid-step={step!r}"]
    for axis in ("x", "p"):
        lo = draw(value(-3.0, 3.0))
        hi = draw(rarely(st.sampled_from(SPECIAL), st.integers(0, 49).map(lambda count: lo + count * step)))
        argv += [f"--{axis}-min={lo!r}", f"--{axis}-max={hi!r}"]
    return argv + scenario_flags(draw)


@st.composite
def audit_argv(draw) -> list[str]:
    """At most 3 x 3 states and, unless a flag is special, a Wigner grid of at most 41 x 41 points."""
    names = rarely(st.just("bogus"), st.sampled_from(ALL_QUANTITIES))
    step = draw(value(0.1, 1.0))
    half_width = draw(rarely(st.sampled_from(SPECIAL), st.integers(0, 20).map(lambda count: count * step)))
    return [
        "audit",
        f"--r-values={draw(values(0.0, 2.0))}",
        f"--s-values={draw(values(0.0, 4.0))}",
        f"--quantities={','.join(draw(st.lists(names, min_size=1, max_size=3)))}",
        f"--wigner-half-width={half_width!r}",
        f"--wigner-step={step!r}",
        *scenario_flags(draw),
    ]


@st.composite
def point_argv(draw) -> list[str]:
    return ["point", *scenario_flags(draw)]


#: Small runs that hand-made manifests start from; every range stays small.
SMALL_CONFIGS = {
    "fig1a": {"phis": [1.0], "s_min": 0.0, "s_max": 0.5, "s_step": 0.25, "trunc": 32},
    "fig3": {"s_values": [0.5], "r_min": 0.0, "r_max": 0.5, "r_step": 0.25, "trunc": 32},
    "wigner": {"x_min": -1.0, "x_max": 1.0, "p_min": -1.0, "p_max": 1.0, "grid_step": 0.25, "trunc": 32},
    "audit": {"r_values": [0.5], "s_values": [0.5], "wigner_half_width": 1.0, "wigner_step": 0.5, "trunc": 32},
    "point": {"trunc": 32},
    "rerun": {"manifest": "hand.manifest"},  # rerun takes its manifest as a positional, so this flag is unknown
}


@st.composite
def manifest_text(draw) -> str:
    """The manifest of a small run with up to two hostile values, or now and then a broken manifest."""
    command = draw(rarely(st.just("bogus"), st.sampled_from(sorted(SMALL_CONFIGS))))
    config = dict(SMALL_CONFIGS.get(command, {}))
    hostile = st.one_of(
        st.sampled_from(SPECIAL),
        st.booleans(),
        st.none(),
        st.sampled_from(["oracle", "printed", "abc", "", "1,abc", "--out"]),
        st.lists(st.sampled_from(SPECIAL), max_size=3),
        st.dictionaries(st.just("a"), st.integers(), max_size=1),
    )
    keys = st.sampled_from(sorted({key for small in SMALL_CONFIGS.values() for key in small} | {"backend", "r", "phi", "bogus"}))
    config.update(draw(st.dictionaries(keys, hostile, max_size=2)))
    manifest = {"command": command, "config": config, "out": "elsewhere.csv"}
    broken = draw(rarely(st.sampled_from(["command", "config", "out", "command-type", "config-type", "not-an-object"]), st.none()))
    if broken == "command-type":
        manifest["command"] = 3
    elif broken == "config-type":
        manifest["config"] = draw(st.sampled_from([[], "abc", 7, None]))
    elif broken == "not-an-object":
        manifest = [manifest]
    elif broken:
        del manifest[broken]
    return json.dumps(manifest)


def assert_exits_cleanly(case: list[str] | str, out_is_directory: bool) -> None:
    """Run an argv, or ``rerun`` of a manifest text, with --out in a scratch directory (unless ``point``)."""
    with tempfile.TemporaryDirectory() as scratch:
        given_files = set()
        if isinstance(case, str):
            (Path(scratch) / "hand.manifest").write_text(case)
            given_files.add("hand.manifest")
            case = ["rerun", str(Path(scratch) / "hand.manifest")]
        writes = case[0] != "point"
        if out_is_directory:
            (Path(scratch) / "out.csv").mkdir()
            given_files.add("out.csv")
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(case + (["--out", str(Path(scratch) / "out.csv")] if writes else []))
        assert code in (0, 2, 3), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        written = {"out.csv", "out.csv.manifest"} if code == 0 and writes else set()
        assert not (written and out_is_directory), stderr.getvalue()
        assert sorted(path.name for path in Path(scratch).iterdir()) == sorted(written | given_files), stderr.getvalue()
        if out_is_directory:
            assert list((Path(scratch) / "out.csv").iterdir()) == []


@settings(max_examples=40, deadline=2000, derandomize=True, database=None)
@given(wigner_argv(), rarely(st.just(True), st.just(False)))
def test_wigner_exits_cleanly(argv, out_is_directory):
    assert_exits_cleanly(argv, out_is_directory)


@settings(max_examples=30, deadline=2000, derandomize=True, database=None)
@given(audit_argv(), rarely(st.just(True), st.just(False)))
def test_audit_exits_cleanly(argv, out_is_directory):
    assert_exits_cleanly(argv, out_is_directory)


@settings(max_examples=25, deadline=2000, derandomize=True, database=None)
@given(point_argv())
def test_point_exits_cleanly(argv):
    assert_exits_cleanly(argv, False)


@settings(max_examples=40, deadline=2000, derandomize=True, database=None)
@given(manifest_text(), rarely(st.just(True), st.just(False)))
@example(json.dumps({"command": 3, "config": {}, "out": "elsewhere.csv"}), False)  # argparse got a non-string argv
def test_rerun_of_hand_made_manifests_exits_cleanly(text, out_is_directory):
    assert_exits_cleanly(text, out_is_directory)


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1a", "--phis", "1,abc"],
        ["fig3", "--s-values", "0.5;1"],
        ["audit", "--r-values", "0x1p3"],
        ["audit", "--s-values", "1e"],
    ],
)
def test_malformed_float_list_is_invalid_input(argv, tmp_path):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    assert "expected comma-separated floats, got " in stderr.getvalue()
    assert list(tmp_path.iterdir()) == []
