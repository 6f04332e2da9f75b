"""Fixed-step integration of the chain dynamics and envelope verification.

Three linear systems are integrated with classical fixed-step RK4:

``forward``      p' = A(t) p       on the S+1 state probabilities
``reduced_hom``  y' = B(t) y       the reduced homogeneous-in-y system
``transformed``  w' = B**(t) w     the weighted transformed system

The verifiers integrate batches of random initial vectors and compare the
trajectory norms against the exponential envelopes, with a step-halving
run certifying that integrator error stays below the allowed slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import check_horizon, cumulative_simpson, write_csv
from .chain import ChainSpec, eval_transposed, evaluation_times
from .transform import (apply_weights, build_reduced, require_essential_nonnegativity,
                        to_bstar, validate_weights)

SYSTEMS = ("forward", "reduced_hom", "transformed")

MAX_STATE = 1e12          # blow-up guard threshold
MIN_DRAW_NORM = 1e-6      # random initial vectors below this l1 norm are redrawn
VIOLATION_CAP = 100       # violations stored per report (the count is exact)


class OdeBlowUpError(RuntimeError):
    """A trajectory left the finite range; the model is likely mis-specified."""


@dataclass(frozen=True)
class Trajectory:
    """States on a uniform time grid, tagged with their coordinate system.

    coords is 'p' (probabilities, dimension S+1), 'y' (reduced coordinates,
    dimension S) or 'w' (weighted transformed coordinates, dimension S).
    """

    grid: np.ndarray
    states: np.ndarray
    coords: str


_COORDS = {"forward": "p", "reduced_hom": "y", "transformed": "w"}


def _weight_vector(weights, S):
    return np.ones(S) if weights is None else validate_weights(weights, S)


def _system_matrices(system, spec, weights, ts):
    """Coefficient matrices of the chosen system at the times ts.

    Returns (mats, constant): mats is a read-only view over ts; for a
    homogeneous chain it repeats a single matrix and is flagged, enabling
    the constant-step fast path of the integrator.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")
    ts = np.asarray(ts, dtype=float)
    times = evaluation_times(spec, ts)

    if system == "forward":
        mats = eval_transposed(spec, times)
    else:
        B = build_reduced(spec, times)
        if system == "reduced_hom":
            mats = B
        else:
            d = _weight_vector(weights, spec.S)
            mats = apply_weights(to_bstar(B), d)
    return np.broadcast_to(mats, ts.shape + mats.shape[1:]), spec.is_homogeneous


def _rk4_stream(mats, h, x0, constant=False):
    """Yield (k, state) at the n+1 full-step points of a 2n+1 half-step matrix grid.

    Classical RK4 with fixed step h; mats must be sampled at spacing h/2 so
    every stage time is on the grid. For a constant coefficient matrix the
    exact one-step RK4 operator I + hM + ... + (hM)^4/24 is precomputed and
    applied once per step. States may be vectors or column batches.
    """
    n = (mats.shape[0] - 1) // 2
    x = np.array(x0, dtype=float)
    yield 0, x
    if constant:
        M = np.asarray(mats[0], dtype=float)
        dim = M.shape[0]
        P = np.eye(dim)
        for denom in (4.0, 3.0, 2.0, 1.0):
            P = np.eye(dim) + (h / denom) * (M @ P)
        for k in range(n):
            x = P @ x
            _guard(x, (k + 1) * h)
            yield k + 1, x
        return
    sixth = h / 6.0
    half = 0.5 * h
    for k in range(n):
        M0, Mm, M1 = mats[2 * k], mats[2 * k + 1], mats[2 * k + 2]
        k1 = M0 @ x
        k2 = Mm @ (x + half * k1)
        k3 = Mm @ (x + half * k2)
        k4 = M1 @ (x + h * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        _guard(x, (k + 1) * h)
        yield k + 1, x


def _guard(x, t):
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if not math.isfinite(peak) or peak > MAX_STATE:
        raise OdeBlowUpError(f"state magnitude {peak} at t={t} exceeds {MAX_STATE}")


def solve(system: str, spec: ChainSpec, x0, tmax: float, n_steps: int,
          weights=None) -> Trajectory:
    """Integrate one of the chain systems from x0 over [0, tmax].

    Parameters
    ----------
    system : {'forward', 'reduced_hom', 'transformed'}
    spec : ChainSpec
    x0 : array_like
        Initial vector of the system dimension (S+1 for forward, S
        otherwise); a (dim, m) column batch integrates m trajectories at
        once.
    tmax : float
    n_steps : int
        Number of fixed RK4 steps (>= 1); the grid has n_steps+1 points.
    weights : (S,) array_like, optional
        Positive weights for the transformed system; defaults to ones.

    Raises
    ------
    OdeBlowUpError
        If a state exceeds 1e12 in magnitude or becomes non-finite.
    """
    tmax, n = check_horizon(tmax, n_steps)
    dim = spec.S + 1 if system == "forward" else spec.S
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[0] != dim:
        raise ValueError(f"initial state for {system!r} must have leading "
                         f"dimension {dim}, got shape {x0.shape}")
    ts = np.linspace(0.0, tmax, 2 * n + 1)
    mats, constant = _system_matrices(system, spec, weights, ts)
    states = np.empty((n + 1,) + x0.shape)
    for k, x in _rk4_stream(mats, tmax / n, x0, constant):
        states[k] = x
    return Trajectory(grid=ts[::2], states=states, coords=_COORDS[system])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an envelope verification run.

    worst_upper is the largest observed ratio ||w(t)|| / (env_up(t) ||w(0)||)
    and must stay below 1 + slack_total; worst_lower (bounds kind only) is
    the smallest lower-envelope ratio and must stay above 1 - slack_total.
    slack_total widens the requested slack by the measured integrator and
    quadrature margins. ratio_upper_max / ratio_lower_min hold the per-grid
    extremes across trials for CSV export.
    """

    kind: str
    passed: bool
    n_trials: int
    seed: int
    tmax: float
    n_steps: int
    slack: float
    integrator_margin: float
    quadrature_margin: float
    slack_total: float
    worst_upper: float
    worst_lower: float | None
    n_violations: int
    violations: tuple
    grid: np.ndarray
    ratio_upper_max: np.ndarray
    ratio_lower_min: np.ndarray | None = None
    prob_sum_error: float | None = None
    prob_min: float | None = None


def _draw_columns(rng, dim, count, signed):
    lo = -1.0 if signed else 0.0
    X = rng.uniform(lo, 1.0, size=(dim, count))
    while True:
        small = np.abs(X).sum(axis=0) < MIN_DRAW_NORM
        if not small.any():
            break
        X[:, small] = rng.uniform(lo, 1.0, size=(dim, int(small.sum())))
    return X


def _propagator_divergence(mats_fine, h, constant, envelope):
    """Richardson-style integrator margin from step-h and step-h/2 propagators.

    mats_fine is sampled at spacing h/4; the step-h run uses every second
    matrix. Returns 2 * max_k ||Phi_h(t_k) - Phi_{h/2}(t_k)||_1->1 / envelope[k]:
    a conservative relative bound on trajectory-norm error, normalized by
    the envelope appearing in the checked ratios.
    """
    dim = mats_fine.shape[-1]
    eye = np.eye(dim)
    fine = _rk4_stream(mats_fine, 0.5 * h, eye, constant)
    kf, Xf = next(fine)
    worst = 0.0
    for kc, Xc in _rk4_stream(mats_fine[::2], h, eye, constant):
        while kf < 2 * kc:
            kf, Xf = next(fine)
        diff = float(np.abs(Xc - Xf).sum(axis=0).max())
        worst = max(worst, diff / float(envelope[kc]))
    return 2.0 * worst


@dataclass(frozen=True)
class _Setup:
    """What both verifiers share: the step grid, the weighted stack and the envelopes."""

    d: np.ndarray
    tmax: float
    n: int
    h: float
    ts_fine: np.ndarray     # halved grid, 4n+1 points; the step grid is ts_fine[::4]
    mats_fine: np.ndarray   # B**(t) on the halved grid
    constant: bool
    env_up: np.ndarray
    env_lo: np.ndarray
    quad_margin: float


def _verification_setup(spec, weights, tmax, n_steps) -> _Setup:
    """Checks, grids, transformed stack, precondition, envelopes and quadrature margin.

    Each system is evaluated once, on the halved grid of 4n+1 points; the
    RK4 grid of step h with its midpoints is the [::2] slice, which equals
    linspace(0, tmax, 2n+1) bit for bit. B*(t) must be essentially
    non-negative at every point of the halved grid, else NonnegativityError
    is raised before any trial runs. The envelopes integrate the column-sum
    extremes by Simpson's rule on the step grid; the quadrature margin is
    their largest difference from the integrals on the halved grid.
    """
    d = _weight_vector(weights, spec.S)
    tmax, n = check_horizon(tmax, n_steps)
    h = tmax / n
    ts_fine = np.linspace(0.0, tmax, 4 * n + 1)
    times = evaluation_times(spec, ts_fine)
    bstar = to_bstar(build_reduced(spec, times))
    require_essential_nonnegativity(bstar, times)
    weighted = apply_weights(bstar, d)
    mats_fine = np.broadcast_to(weighted, ts_fine.shape + weighted.shape[1:])

    sums = weighted.sum(axis=-2)
    h_up = np.broadcast_to(sums.max(axis=-1), ts_fine.shape)
    h_lo = np.broadcast_to(sums.min(axis=-1), ts_fine.shape)
    I_up = cumulative_simpson(h_up[::2], h)
    I_lo = cumulative_simpson(h_lo[::2], h)
    I_up_f = cumulative_simpson(h_up, 0.5 * h)
    I_lo_f = cumulative_simpson(h_lo, 0.5 * h)
    quad_margin = max(float(np.max(np.abs(I_up_f[::2] - I_up))),
                      float(np.max(np.abs(I_lo_f[::2] - I_lo))))
    return _Setup(d=d, tmax=tmax, n=n, h=h, ts_fine=ts_fine, mats_fine=mats_fine,
                  constant=spec.is_homogeneous, env_up=np.exp(I_up), env_lo=np.exp(I_lo),
                  quad_margin=quad_margin)


def verify_bounds(spec: ChainSpec, weights, tmax: float, n_steps: int = 10_000,
                  n_trials: int = 100, seed: int = 0,
                  slack: float = 1e-8) -> VerificationReport:
    """Check the exponential envelopes on random trajectories of the transformed system.

    Each trial draws one signed initial vector (entries uniform in [-1, 1]),
    checked against the upper envelope only, and one nonnegative initial
    vector (entries uniform in [0, 1]), checked against both envelopes.
    Draws with l1 norm below 1e-6 are rejected and redrawn. The seed fixes
    all draws, making runs bit-reproducible.

    A ratio beyond 1 +/- slack_total at any grid time is recorded as a
    violation and fails the report; slack_total = slack + the measured
    step-halving integrator margin + the quadrature refinement margin.
    Raises NonnegativityError, before any trial runs, if B*(t) is not
    essentially non-negative on the halved grid.
    """
    n_trials = int(n_trials)
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    st = _verification_setup(spec, weights, tmax, n_steps)
    n, h, ts = st.n, st.h, st.ts_fine
    integ_margin = _propagator_divergence(st.mats_fine, h, st.constant, st.env_lo)
    slack_total = slack + integ_margin + st.quad_margin

    rng = np.random.default_rng(seed)
    X_signed = _draw_columns(rng, spec.S, n_trials, signed=True)
    X_nonneg = _draw_columns(rng, spec.S, n_trials, signed=False)

    ratio_up_max = np.zeros(n + 1)
    ratio_lo_min = np.full(n + 1, np.inf)
    violations = []
    for X0, check_lower, offset in ((X_signed, False, 0), (X_nonneg, True, n_trials)):
        norms0 = np.abs(X0).sum(axis=0)
        for k, X in _rk4_stream(st.mats_fine[::2], h, X0, st.constant):
            norms = np.abs(X).sum(axis=0)
            up = norms / (st.env_up[k] * norms0)
            ratio_up_max[k] = max(ratio_up_max[k], up.max())
            for j in np.nonzero(up > 1.0 + slack_total)[0]:
                violations.append(("upper", offset + int(j), float(ts[4 * k]), float(up[j])))
            if check_lower:
                lo = norms / (st.env_lo[k] * norms0)
                ratio_lo_min[k] = min(ratio_lo_min[k], lo.min())
                for j in np.nonzero(lo < 1.0 - slack_total)[0]:
                    violations.append(("lower", offset + int(j), float(ts[4 * k]),
                                       float(lo[j])))

    violations.sort(key=lambda v: (v[2], v[1]))
    return VerificationReport(
        kind="bounds", passed=not violations, n_trials=n_trials, seed=seed,
        tmax=st.tmax, n_steps=n, slack=slack, integrator_margin=integ_margin,
        quadrature_margin=st.quad_margin, slack_total=slack_total,
        worst_upper=float(ratio_up_max.max()), worst_lower=float(ratio_lo_min.min()),
        n_violations=len(violations), violations=tuple(violations[:VIOLATION_CAP]),
        grid=ts[::4], ratio_upper_max=ratio_up_max, ratio_lower_min=ratio_lo_min)


def verify_convergence_coupling(spec: ChainSpec, weights, tmax: float,
                                n_steps: int = 10_000, n_pairs: int = 50,
                                seed: int = 0, slack: float = 1e-8) -> VerificationReport:
    """Tie the envelope back to the chain: differences of probability trajectories.

    Draws pairs of random probability vectors, integrates the forward
    system for both, maps the difference of the non-zero-state coordinates
    through the tail-sum transform and the weights, and checks the upper
    envelope on the resulting norm. Probability conservation (column sums
    within 1e-10 of one) and nonnegativity (entries >= -1e-12) are checked
    on every forward trajectory as well. Raises NonnegativityError, before
    any pair runs, if B*(t) is not essentially non-negative on the halved
    grid.
    """
    n_pairs = int(n_pairs)
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    # envelopes and quadrature margin belong to the transformed system
    st = _verification_setup(spec, weights, tmax, n_steps)
    d, n, h, ts = st.d, st.n, st.h, st.ts_fine

    # trajectories come from the forward system
    mats_fine, constant = _system_matrices("forward", spec, None, ts)

    rng = np.random.default_rng(seed)
    P = rng.uniform(0.0, 1.0, size=(spec.S + 1, 2 * n_pairs))
    P /= P.sum(axis=0)

    norms0 = _coupling_norms(P[1:, :n_pairs] - P[1:, n_pairs:], d)
    safe_norms0 = np.where(norms0 < 1e-300, 1.0, norms0)

    # forward-propagator error maps through the tail-sum transform with a
    # factor sum(d), and a pair of probability vectors has l1 norm <= 2
    fwd_div = _propagator_divergence(mats_fine, h, constant, st.env_up)
    integ_margin = float(fwd_div * d.sum() * 2.0 / float(np.min(safe_norms0)))
    slack_total = slack + integ_margin + st.quad_margin

    ratio_max = np.zeros(n + 1)
    prob_sum_err = 0.0
    prob_min = math.inf
    violations = []
    for k, X in _rk4_stream(mats_fine[::2], h, P, constant):
        prob_sum_err = max(prob_sum_err, float(np.abs(X.sum(axis=0) - 1.0).max()))
        prob_min = min(prob_min, float(X.min()))
        norms = _coupling_norms(X[1:, :n_pairs] - X[1:, n_pairs:], d)
        up = norms / (st.env_up[k] * safe_norms0)
        ratio_max[k] = up.max()
        for j in np.nonzero(up > 1.0 + slack_total)[0]:
            violations.append(("coupling", int(j), float(ts[4 * k]), float(up[j])))

    if prob_sum_err > 1e-10:
        violations.append(("probability-sum", -1, 0.0, prob_sum_err))
    if prob_min < -1e-12:
        violations.append(("probability-negative", -1, 0.0, prob_min))

    violations.sort(key=lambda v: (v[2], v[1]))
    return VerificationReport(
        kind="coupling", passed=not violations, n_trials=n_pairs, seed=seed,
        tmax=st.tmax, n_steps=n, slack=slack, integrator_margin=integ_margin,
        quadrature_margin=st.quad_margin, slack_total=slack_total,
        worst_upper=float(ratio_max.max()), worst_lower=None,
        n_violations=len(violations), violations=tuple(violations[:VIOLATION_CAP]),
        grid=ts[::4], ratio_upper_max=ratio_max,
        prob_sum_error=prob_sum_err, prob_min=float(prob_min))


def _coupling_norms(y, d):
    """l1 norms of D T y for a column batch y: weights times tail sums."""
    u = np.cumsum(y[::-1], axis=0)[::-1]
    return np.abs(d[:, None] * u).sum(axis=0)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write a single-vector trajectory as CSV: t, then one column per component."""
    states = traj.states
    if states.ndim != 2:
        raise ValueError("CSV export expects a single-vector trajectory")
    header = ["t"] + [f"{traj.coords}{i}" for i in range(states.shape[1])]
    write_csv(path, header, (traj.grid, *states.T))


def verification_to_csv(report: VerificationReport, path) -> None:
    """Write per-grid worst ratios as CSV (t, ratio_upper_max[, ratio_lower_min])."""
    header = ["t", "ratio_upper_max"]
    columns = [report.grid, report.ratio_upper_max]
    if report.ratio_lower_min is not None:
        header.append("ratio_lower_min")
        columns.append(report.ratio_lower_min)
    write_csv(path, header, columns)
