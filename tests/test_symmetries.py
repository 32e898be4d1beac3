"""Exact symmetries of the parameters: checks that need no reference route.

Two maps of the angles leave the physics unchanged, so the oracle must
respect them to rounding:

- conjugation, (theta, delta) -> (-theta, -delta) mod 2 pi, sends alpha
  and the weak value to their conjugates and the state to its complex
  conjugate: <a> -> <a>* and W(x, p) -> W(x, -p);
- parity, (theta + pi, delta + pi) mod 2 pi, sends alpha and the weak
  value to their negatives and the state to Pi times itself, up to a
  sign: <a> -> -<a> and W(x, p) -> W(-x, -p).

Under both, the witnesses, the minimum variances, ``n_mean`` and the
fidelity to the initial state do not change.

Each bound is ten times the largest move measured over 200 random
points (r <= 2.5, s <= 4, phi <= 3, truncation 96; numpy 2.4.6,
x86-64), relative to max(1, |v|), and absolute for W over ten 81 x 81
panels on [-4, 4]^2:

==================  ========  =======
quantity            measured  bound
==================  ========  =======
n_mean              1.2e-15   1.2e-14
S_os                1.3e-14   1.3e-13
S_ass               9.0e-14   9.0e-13
fidelity            2.1e-15   2.1e-14
<a>                 2.2e-15   2.2e-14
grid W (absolute)   3.5e-15   3.5e-14
==================  ========  =======

The minimum variances were not in that measurement; over 1,200 further
points they moved by at most 1.3e-14, and S_os by 2.4e-14, so they share
S_os's bound.  A move past a bound is a broken symmetry, not rounding.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spacsim.fock import final_pointer_state, moments
from spacsim.params import ExperimentParams
from spacsim.squeezing import point_report
from spacsim.sweeps import grid_values
from spacsim.wigner import wigner_grid_values

TWO_PI = 2.0 * math.pi

#: Largest relative move of each report field under either map.
REPORT_BOUNDS = {
    "s_os": 1.3e-13,
    "s_ass": 9.0e-13,
    "var_x_min": 1.3e-13,
    "var_y_min": 1.3e-13,
    "n_mean": 1.2e-14,
    "fidelity_to_initial": 2.1e-14,
}
M_A_BOUND = 2.2e-14
W_BOUND = 3.5e-14

AXIS = grid_values(-4.0, 4.0, 0.1)


def _wrapped(angle: float) -> float:
    """The angle modulo 2 pi, in [0, 2 pi): a tiny negative angle would round to 2 pi itself."""
    angle %= TWO_PI
    return 0.0 if angle == TWO_PI else angle


def conjugated(p: ExperimentParams) -> ExperimentParams:
    return p.with_(theta=_wrapped(-p.theta), delta=_wrapped(-p.delta))


def parity(p: ExperimentParams) -> ExperimentParams:
    return p.with_(theta=_wrapped(p.theta + math.pi), delta=_wrapped(p.delta + math.pi))


def w_at_x_minus_p(state) -> np.ndarray:
    """W(x, -p) on (AXIS, AXIS)."""
    return wigner_grid_values(state, AXIS, -AXIS)


def w_at_minus_x_minus_p(state) -> np.ndarray:
    """W(-x, -p) on (AXIS, AXIS), from the increasing x axis -AXIS[::-1]."""
    return wigner_grid_values(state, -AXIS[::-1], -AXIS)[::-1]


#: Each map, what it does to <a>, and the original state's W that the mapped state's W on (AXIS, AXIS) must equal.
MAPS = (
    (conjugated, np.conj, w_at_x_minus_p),
    (parity, np.negative, w_at_minus_x_minus_p),
)

points = st.builds(
    ExperimentParams,
    r=st.floats(0.0, 2.5),
    theta=st.floats(0.0, TWO_PI, exclude_max=True),
    delta=st.floats(0.0, TWO_PI),
    phi=st.floats(0.0, 3.0),
    s=st.floats(0.0, 4.0),
    trunc=st.just(96),
)


def move(old, new) -> float:
    return abs(new - old) / max(1.0, abs(old))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(points)
def test_reports_and_mean_field_keep_both_symmetries(p):
    report, m_a = point_report(p), moments(final_pointer_state(p)).m_a
    for mapped, on_m_a, _ in MAPS:
        q = mapped(p)
        image = point_report(q)
        for field, bound in REPORT_BOUNDS.items():
            assert move(getattr(report, field), getattr(image, field)) <= bound, (mapped.__name__, field)
        assert move(on_m_a(m_a), moments(final_pointer_state(q)).m_a) <= M_A_BOUND, mapped.__name__


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(points)
def test_wigner_grid_keeps_both_symmetries(p):
    state = final_pointer_state(p)
    for mapped, _, mirrored in MAPS:
        found = wigner_grid_values(final_pointer_state(mapped(p)), AXIS, AXIS)
        assert np.max(np.abs(found - mirrored(state))) <= W_BOUND, mapped.__name__
