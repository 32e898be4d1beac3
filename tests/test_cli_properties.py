"""Property test of the sweep commands' error contract.

Any argv for fig1a, fig1b, fig2a, fig2b or fig3, with valid and invalid
numbers (NaN, infinities, negative values, 1e300) in the scenario
flags, the range flags, ``--phis``, ``--s-values`` and ``--trunc``,
exits 0, 2 or 3, prints no traceback and no numpy warning, and leaves
no file behind when it fails.  Every valid grid has at most 50 points
and every valid truncation is at most 48 levels, so an example takes
milliseconds.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spacsim.cli import main

SPECIAL = (float("nan"), float("inf"), float("-inf"), -1.0, -0.0, 0.0, 1e300, -1e300, 1e-300)


def number(lo: float, hi: float):
    return st.one_of(st.floats(lo, hi), st.sampled_from(SPECIAL))


def numbers(lo: float, hi: float):
    """Comma-separated values, possibly none."""
    return st.lists(number(lo, hi), max_size=3).map(lambda values: ",".join(map(repr, values)))


@st.composite
def range_flags(draw, name: str) -> list[str]:
    """--<name>-min/max/step, on a grid of at most 50 points unless an end or the step is special."""
    lo = draw(number(0.0, 3.0))
    step = draw(number(0.05, 1.0))
    hi = draw(st.one_of(st.integers(0, 49).map(lambda count: lo + count * step), st.sampled_from(SPECIAL)))
    return [f"--{name}-min={lo!r}", f"--{name}-max={hi!r}", f"--{name}-step={step!r}"]


@st.composite
def sweep_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["fig1a", "fig1b", "fig2a", "fig2b", "fig3"]))
    argv = [command, *draw(range_flags("s" if command in ("fig1a", "fig2a") else "r"))]
    scenario = {"r": (0.0, 3.0), "theta": (0.0, 6.3), "delta": (0.0, 6.3), "phi": (0.0, 3.2), "s": (0.0, 4.0)}
    for flag, (lo, hi) in scenario.items():
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(number(lo, hi))!r}")
    if command == "fig3":
        argv.append(f"--s-values={draw(numbers(0.0, 4.0))}")
    elif draw(st.booleans()):
        argv.append(f"--phis={draw(numbers(0.0, 3.2))}")
    trunc = st.one_of(st.integers(6, 48).map(str), st.sampled_from(["5", "0", "-1", str(2**20 + 1), "1e300", "nan"]))
    argv.append(f"--trunc={draw(trunc)}")
    argv.append(f"--backend={draw(st.sampled_from(['oracle', 'printed']))}")
    return argv


@settings(max_examples=80, deadline=2000, derandomize=True, database=None)
@given(sweep_argv())
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
