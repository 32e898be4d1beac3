"""Output checks for the benchmark's invocations, run outside the timed region.

No golden bytes are stored, because later versions of the program may
change the last digits.  Instead a seeded sample of rows of every CSV
is recomputed through reference routes:

* sweep and fidelity rows: the pointer state built here from ``spacs``
  and ``displace``, then ``moments`` and ``fidelity`` (printed rows:
  ``printed_moments``);
* Wigner cells of grids and of the audit: ``wigner_point`` on that
  state (printed cells: scalar ``printed_wigner``);
* audit moment and normalisation rows: the same state and its norm,
  and ``printed_moments`` / ``printed_kappa_sq``.

A value agrees when ``|got - ref| <= TOLERANCE * max(1, |ref|)``.  On
every row the checker also requires the expected row count, finite
numbers (the printed fidelity column is NaN by design), oracle Wigner
values within +-2/pi, audit residual columns consistent with the
values, and all seven audit quantities.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

from spacsim.fock import FockVector, displace, fidelity, moments, spacs
from spacsim.params import FIGURE_PRESET, ExperimentParams, weak_value
from spacsim.printed import printed_kappa_sq, printed_moments, printed_wigner
from spacsim.squeezing import min_variances, s_ass, s_os
from spacsim.wigner import wigner_point

TOLERANCE = 1e-9
#: Rows recomputed per CSV (per quantity for the audit).
SAMPLE = 12
WIGNER_BOUND = 2.0 / math.pi + 1e-9
AUDIT_QUANTITIES = ("n_mean", "m_a", "m_a2", "m_a2d2", "m_a4", "kappa_sq", "wigner")
SWEEP_HEADER = ["phi", None, "s_os", "s_ass", "var_x_min", "var_y_min", "n_mean", "fidelity"]
AUDIT_HEADER = [
    "quantity", "r", "theta", "delta", "phi", "s", "x", "p",
    "oracle_re", "oracle_im", "printed_re", "printed_im",
    "raw_residual", "fitted_scale", "scaled_residual",
]


def base_params(spec: dict) -> ExperimentParams:
    return FIGURE_PRESET.with_(
        r=float(spec["r"]), s=float(spec["s"]), theta=spec["theta"], delta=spec["delta"], trunc=spec["trunc"]
    )


def reference_state(p: ExperimentParams) -> tuple[FockVector, FockVector, float]:
    """Initial SPACS, the normalised pointer state and its squared norm before normalising."""
    initial = spacs(p.alpha, p.trunc)
    w = weak_value(p.delta, p.phi)
    vec = (1 + w) * displace(p.s / 2, initial).amps + (1 - w) * displace(-p.s / 2, initial).amps
    norm_sq = float(np.vdot(vec, vec).real)
    return initial, FockVector(dim=vec.size, amps=vec / math.sqrt(norm_sq)), norm_sq


def expected_report(p: ExperimentParams, backend: str) -> list[float]:
    """Sweep columns s_os .. fidelity for one point."""
    if backend == "printed":
        m, fid = printed_moments(p), math.nan
    else:
        initial, final, _ = reference_state(p)
        m, fid = moments(final), fidelity(initial, final)
    var_x, var_y = min_variances(m)
    return [s_os(m), s_ass(m), var_x, var_y, m.n_mean, fid]


def agrees(got: complex, ref: complex) -> bool:
    if isinstance(got, float) and isinstance(ref, float) and math.isnan(got) and math.isnan(ref):
        return True
    return abs(got - ref) <= TOLERANCE * max(1.0, abs(ref))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(rows: list[list[str]], first: int) -> np.ndarray:
    return np.array([[float(v) for v in row[first:]] for row in rows])


def sample_rows(rng: random.Random, n: int) -> list[int]:
    """Indices of the rows, out of ``n``, that are recomputed."""
    return list(range(n)) if SAMPLE >= n else sorted(rng.sample(range(n), SAMPLE))


def check_output(spec: dict, path: Path, rng: random.Random) -> list[str]:
    """Problems found in one invocation's CSV; empty when it is correct."""
    header, rows = read_csv(path)
    if len(rows) != spec["rows"]:
        return [f"{len(rows)} rows, expected {spec['rows']}"]
    kind = spec["kind"]
    if kind == "sweep":
        return _check_sweep(spec, header, rows, rng)
    if kind == "fig3":
        return _check_fig3(spec, header, rows, rng)
    if kind == "wigner":
        return _check_wigner(spec, header, rows, rng)
    return _check_audit(spec, header, rows, rng)


def _check_sweep(spec, header, rows, rng) -> list[str]:
    want = [spec["swept"] if name is None else name for name in SWEEP_HEADER]
    if header != want:
        return [f"header {header}, expected {want}"]
    values = _floats(rows, 0)
    finite = values[:, :-1] if spec["backend"] == "printed" else values
    if not np.all(np.isfinite(finite)):
        return ["non-finite value in a sweep row"]
    base = base_params(spec)
    problems = []
    for i in sample_rows(rng, len(rows)):
        p = base.with_(phi=float(values[i, 0]), **{spec["swept"]: float(values[i, 1])})
        for name, got, ref in zip(header[2:], values[i, 2:], expected_report(p, spec["backend"])):
            if not agrees(float(got), ref):
                problems.append(f"row {i} {name}: {got!r} vs reference {ref!r}")
    return problems


def _check_fig3(spec, header, rows, rng) -> list[str]:
    couplings = [float(name[len("fidelity_s"):]) for name in header[1:] if name.startswith("fidelity_s")]
    if header[0] != "r" or len(couplings) != len(header) - 1 or not couplings:
        return [f"header {header}"]
    values = _floats(rows, 0)
    if not np.all(np.isfinite(values)):
        return ["non-finite value in a fidelity row"]
    base = base_params(spec)
    problems = []
    for i in sample_rows(rng, len(rows)):
        j = rng.randrange(len(couplings))
        initial, final, _ = reference_state(base.with_(r=float(values[i, 0]), s=couplings[j]))
        ref = fidelity(initial, final)
        if not agrees(float(values[i, j + 1]), ref):
            problems.append(f"row {i} {header[j + 1]}: {values[i, j + 1]!r} vs reference {ref!r}")
    return problems


def _check_wigner(spec, header, rows, rng) -> list[str]:
    if header != ["x", "p", "w"]:
        return [f"header {header}"]
    values = _floats(rows, 0)
    if not np.all(np.isfinite(values)):
        return ["non-finite value in a Wigner row"]
    printed = spec["backend"] == "printed"
    if not printed and np.max(np.abs(values[:, 2])) > WIGNER_BOUND:
        return [f"Wigner value {np.max(np.abs(values[:, 2]))!r} beyond 2/pi"]
    p = base_params(spec)
    state = None if printed else reference_state(p)[1]
    problems = []
    for i in sample_rows(rng, len(rows)):
        z = complex(values[i, 0], values[i, 1])
        ref = printed_wigner(p, z) if printed else wigner_point(state, z)
        if not agrees(float(values[i, 2]), ref):
            problems.append(f"cell {i} at {z}: {values[i, 2]!r} vs reference {ref!r}")
    return problems


def _check_audit(spec, header, rows, rng) -> list[str]:
    if header != AUDIT_HEADER:
        return [f"header {header}"]
    missing = set(AUDIT_QUANTITIES) - {row[0] for row in rows}
    if missing:
        return [f"audit quantities missing: {sorted(missing)}"]
    values = _floats(rows, 1)
    cols = {name: values[:, k] for k, name in enumerate(AUDIT_HEADER[1:])}
    oracle = cols["oracle_re"] + 1j * cols["oracle_im"]
    printed = cols["printed_re"] + 1j * cols["printed_im"]
    wigner = np.array([row[0] == "wigner" for row in rows])
    problems = []
    numeric = np.delete(values, [5, 6], axis=1)  # x and p are NaN outside Wigner rows
    if not np.all(np.isfinite(numeric)) or not np.all(np.isfinite(values[wigner][:, 5:7])):
        problems.append("non-finite value in an audit row")
    if np.max(np.abs(oracle[wigner].real), initial=0.0) > WIGNER_BOUND:
        problems.append("oracle Wigner value beyond 2/pi")
    raw = np.abs(printed - oracle)
    scaled = np.abs(printed - cols["fitted_scale"] * oracle)
    for name, ref in (("raw_residual", raw), ("scaled_residual", scaled)):
        bad = np.abs(cols[name] - ref) > TOLERANCE * np.maximum(1.0, ref)
        if np.any(bad):
            problems.append(f"{name} inconsistent with the values in {int(bad.sum())} rows")
    trunc = spec["trunc"]
    for quantity in AUDIT_QUANTITIES:
        group = [i for i, row in enumerate(rows) if row[0] == quantity]
        for i in (group[k] for k in sample_rows(rng, len(group))):
            p = ExperimentParams(
                r=cols["r"][i], theta=cols["theta"][i], delta=cols["delta"][i],
                phi=cols["phi"][i], s=cols["s"][i], trunc=trunc,
            )
            _, state, norm_sq = reference_state(p)
            if quantity == "wigner":
                z = complex(cols["x"][i], cols["p"][i])
                want = (wigner_point(state, z), printed_wigner(p, z))
            elif quantity == "kappa_sq":
                want = (2.0 / norm_sq, printed_kappa_sq(p))
            else:
                want = (getattr(moments(state), quantity), getattr(printed_moments(p), quantity))
            for label, got, ref in (("oracle", oracle[i], want[0]), ("printed", printed[i], want[1])):
                if not agrees(complex(got), complex(ref)):
                    problems.append(f"row {i} {quantity} {label}: {got!r} vs reference {ref!r}")
    return problems
