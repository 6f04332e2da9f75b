"""Fixed-step integration of the chain dynamics and envelope verification.

Three linear systems are integrated with classical fixed-step RK4:

``forward``      p' = A(t) p       on the S+1 state probabilities
``reduced_hom``  y' = B(t) y       the reduced homogeneous-in-y system
``transformed``  w' = B**(t) w     the weighted transformed system

The verifiers scan the identity with steps h and h/2. Every trajectory of
a random initial vector x0 is Phi_k x0 for the step-h propagators Phi_k,
and its norm is compared with the exponential envelopes; the distance to
the step-h/2 propagators certifies the integrator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

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
    """Coefficient matrices of the chosen system at evaluation_times(spec, ts).

    A homogeneous chain gives a stack of one matrix, the same at every time
    of ts; :func:`_rk4_stream` then applies its exact one-step operator.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")
    times = evaluation_times(spec, ts)
    if system == "forward":
        return eval_transposed(spec, times)
    B = build_reduced(spec, times)
    if system == "reduced_hom":
        return B
    return apply_weights(to_bstar(B), _weight_vector(weights, spec.S))


def _rk4_stream(mats, n, h, x0):
    """Yield (k, state) after k = 0..n classical RK4 steps of size h from x0.

    mats holds the coefficient matrix at spacing h/2 (2n+1 matrices), so
    every stage time is on the grid, or one matrix for a constant system,
    whose exact one-step operator I + hM + ... + (hM)^4/24 is then applied
    once per step. States may be vectors or column batches; started from
    the identity, the stream yields the step-h propagators.
    """
    x = np.array(x0, dtype=float)
    yield 0, x
    if len(mats) == 1:
        P = np.eye(len(mats[0]))
        for denom in (4.0, 3.0, 2.0, 1.0):
            P = np.eye(len(P)) + (h / denom) * (mats[0] @ P)
    sixth = h / 6.0
    half = 0.5 * h
    for k in range(n):
        if len(mats) == 1:
            x = P @ x
        else:
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
    mats = _system_matrices(system, spec, weights, ts)
    states = np.empty((n + 1,) + x0.shape)
    for k, x in _rk4_stream(mats, n, tmax / n, x0):
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


def _propagators(mats_fine, n, h):
    """Yield (k, Phi_k, ||Phi_k - Psi_k||_1->1) for k = 0..n from two identity scans.

    Phi_k and Psi_k are the RK4 propagators from 0 to t_k = k h with steps
    h and h/2; mats_fine holds the matrices at spacing h/4 (or just one).
    Twice the divergence estimates the integrator error of Phi_k x0 relative
    to ||x0||_1, the conservative Richardson-style margin.
    """
    eye = np.eye(mats_fine.shape[-1])
    halved = islice(_rk4_stream(mats_fine, 2 * n, 0.5 * h, eye), 0, None, 2)
    for (k, phi), (_, psi) in zip(_rk4_stream(mats_fine[::2], n, h, eye), halved):
        yield k, phi, float(np.abs(phi - psi).sum(axis=0).max())


def _beyond(phase, ratios, broken, t, first_trial=0):
    """Candidate violations (phase, trial, t, ratio) where broken holds."""
    return [(phase, first_trial + int(j), float(t), float(ratios[j]))
            for j in np.flatnonzero(broken)]


def _confirm(candidates, slack_total):
    """The candidates whose ratio lies beyond 1 +/- slack_total: below for lower ones.

    The integrator margin is known only after the scan, which keeps every
    ratio beyond 1 +/- (slack + quadrature margin); the margin can only
    widen that band, so no violation is missed.
    """
    return [v for v in candidates
            if (v[3] < 1.0 - slack_total if v[0] == "lower" else v[3] > 1.0 + slack_total)]


@dataclass(frozen=True)
class _Setup:
    """What both verifiers share: the step grid, the weighted stack and the envelopes."""

    d: np.ndarray
    tmax: float
    n: int
    h: float
    ts_fine: np.ndarray     # halved grid, 4n+1 points; the step grid is ts_fine[::4]
    mats_fine: np.ndarray   # B**(t) at evaluation_times(spec, ts_fine)
    env_up: np.ndarray
    env_lo: np.ndarray
    quad_margin: float


def _verification_setup(spec, weights, tmax, n_steps) -> _Setup:
    """Checks, grids, transformed stack, precondition, envelopes and quadrature margin.

    Each system is evaluated once, on the halved grid of 4n+1 points (at
    one time for a homogeneous chain); the RK4 grid of step h with its
    midpoints is the [::2] slice, which equals linspace(0, tmax, 2n+1) bit
    for bit. B*(t) must be essentially non-negative at every point of the
    halved grid, else NonnegativityError is raised before any trial runs.
    The envelopes integrate the column-sum extremes by Simpson's rule on
    the step grid; the quadrature margin is their largest difference from
    the integrals on the halved grid.
    """
    d = _weight_vector(weights, spec.S)
    tmax, n = check_horizon(tmax, n_steps)
    h = tmax / n
    ts_fine = np.linspace(0.0, tmax, 4 * n + 1)
    times = evaluation_times(spec, ts_fine)
    bstar = to_bstar(build_reduced(spec, times))
    require_essential_nonnegativity(bstar, times)
    weighted = apply_weights(bstar, d)

    sums = weighted.sum(axis=-2)
    h_up = np.broadcast_to(sums.max(axis=-1), ts_fine.shape)
    h_lo = np.broadcast_to(sums.min(axis=-1), ts_fine.shape)
    I_up = cumulative_simpson(h_up[::2], h)
    I_lo = cumulative_simpson(h_lo[::2], h)
    I_up_f = cumulative_simpson(h_up, 0.5 * h)
    I_lo_f = cumulative_simpson(h_lo, 0.5 * h)
    quad_margin = max(float(np.max(np.abs(I_up_f[::2] - I_up))),
                      float(np.max(np.abs(I_lo_f[::2] - I_lo))))
    return _Setup(d=d, tmax=tmax, n=n, h=h, ts_fine=ts_fine, mats_fine=weighted,
                  env_up=np.exp(I_up), env_lo=np.exp(I_lo), quad_margin=quad_margin)


def _report(kind, st, violations, **fields) -> VerificationReport:
    """The report of a finished scan, its violations ordered by (t, trial)."""
    violations.sort(key=lambda v: (v[2], v[1]))
    return VerificationReport(
        kind=kind, passed=not violations, tmax=st.tmax, n_steps=st.n,
        quadrature_margin=st.quad_margin, n_violations=len(violations),
        violations=tuple(violations[:VIOLATION_CAP]), grid=st.ts_fine[::4], **fields)


def verify_bounds(spec: ChainSpec, weights, tmax: float, n_steps: int = 10_000,
                  n_trials: int = 100, seed: int = 0,
                  slack: float = 1e-8) -> VerificationReport:
    """Check the exponential envelopes on random trajectories of the transformed system.

    Each trial draws one signed initial vector (entries uniform in [-1, 1]),
    checked against the upper envelope only, and one nonnegative initial
    vector (entries uniform in [0, 1]), checked against both envelopes; the
    nonnegative draw of trial j is reported as trial n_trials + j. Draws
    with l1 norm below 1e-6 are rejected and redrawn. The seed fixes all
    draws, making runs bit-reproducible.

    The trajectories are the step-h RK4 propagators of the transformed
    system applied to the draws; the same scan compares each propagator
    with the step-h/2 one. A ratio beyond 1 +/- slack_total at any grid
    time is recorded as a violation and fails the report; slack_total =
    slack + that step-halving integrator margin + the quadrature refinement
    margin. Raises NonnegativityError, before any trial runs, if B*(t) is
    not essentially non-negative on the halved grid.
    """
    n_trials = int(n_trials)
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    st = _verification_setup(spec, weights, tmax, n_steps)
    rng = np.random.default_rng(seed)
    X0 = np.hstack([_draw_columns(rng, spec.S, n_trials, signed=True),
                    _draw_columns(rng, spec.S, n_trials, signed=False)])
    norms0 = np.abs(X0).sum(axis=0)

    band, worst, candidates = slack + st.quad_margin, 0.0, []
    ratio_up_max, ratio_lo_min = np.empty(st.n + 1), np.empty(st.n + 1)
    for k, phi, divergence in _propagators(st.mats_fine, st.n, st.h):
        worst = max(worst, divergence / float(st.env_lo[k]))
        norms = np.abs(phi @ X0).sum(axis=0)
        up = norms / (st.env_up[k] * norms0)
        lo = norms[n_trials:] / (st.env_lo[k] * norms0[n_trials:])
        ratio_up_max[k], ratio_lo_min[k] = up.max(), lo.min()
        candidates += _beyond("upper", up, up > 1.0 + band, st.ts_fine[4 * k])
        candidates += _beyond("lower", lo, lo < 1.0 - band, st.ts_fine[4 * k], n_trials)

    integ_margin = 2.0 * worst
    slack_total = slack + integ_margin + st.quad_margin
    return _report(
        "bounds", st, _confirm(candidates, slack_total), n_trials=n_trials, seed=seed,
        slack=slack, integrator_margin=integ_margin, slack_total=slack_total,
        worst_upper=float(ratio_up_max.max()), worst_lower=float(ratio_lo_min.min()),
        ratio_upper_max=ratio_up_max, ratio_lower_min=ratio_lo_min)


def verify_convergence_coupling(spec: ChainSpec, weights, tmax: float,
                                n_steps: int = 10_000, n_pairs: int = 50,
                                seed: int = 0, slack: float = 1e-8) -> VerificationReport:
    """Tie the envelope back to the chain: differences of probability trajectories.

    Draws pairs of random probability vectors, propagates them with the
    step-h RK4 propagators of the forward system, maps the difference of
    the non-zero-state coordinates through the tail-sum transform and the
    weights, and checks the upper envelope on the resulting norm; the
    integrator margin compares the propagators with the step-h/2 ones.
    Probability conservation (column sums within 1e-10 of one) and
    nonnegativity (entries >= -1e-12) are checked on every forward
    trajectory as well. Raises NonnegativityError, before any pair runs, if
    B*(t) is not essentially non-negative on the halved grid.
    """
    n_pairs = int(n_pairs)
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    # envelopes and quadrature margin belong to the transformed system
    st = _verification_setup(spec, weights, tmax, n_steps)
    # trajectories come from the forward system
    mats_fine = _system_matrices("forward", spec, None, st.ts_fine)

    rng = np.random.default_rng(seed)
    P = rng.uniform(0.0, 1.0, size=(spec.S + 1, 2 * n_pairs))
    P /= P.sum(axis=0)

    norms0 = _coupling_norms(P[1:, :n_pairs] - P[1:, n_pairs:], st.d)
    safe_norms0 = np.where(norms0 < 1e-300, 1.0, norms0)

    band, worst, candidates = slack + st.quad_margin, 0.0, []
    ratio_max, prob_sum_err, prob_min = np.empty(st.n + 1), 0.0, math.inf
    for k, phi, divergence in _propagators(mats_fine, st.n, st.h):
        worst = max(worst, divergence / float(st.env_up[k]))
        X = phi @ P
        prob_sum_err = max(prob_sum_err, float(np.abs(X.sum(axis=0) - 1.0).max()))
        prob_min = min(prob_min, float(X.min()))
        norms = _coupling_norms(X[1:, :n_pairs] - X[1:, n_pairs:], st.d)
        up = norms / (st.env_up[k] * safe_norms0)
        ratio_max[k] = up.max()
        candidates += _beyond("coupling", up, up > 1.0 + band, st.ts_fine[4 * k])

    # forward-propagator error maps through the tail-sum transform with a
    # factor sum(d), and a pair of probability vectors has l1 norm <= 2
    integ_margin = float(2.0 * worst * st.d.sum() * 2.0 / float(np.min(safe_norms0)))
    slack_total = slack + integ_margin + st.quad_margin
    violations = _confirm(candidates, slack_total)
    if prob_sum_err > 1e-10:
        violations.append(("probability-sum", -1, 0.0, prob_sum_err))
    if prob_min < -1e-12:
        violations.append(("probability-negative", -1, 0.0, prob_min))
    return _report(
        "coupling", st, violations, n_trials=n_pairs, seed=seed, slack=slack,
        integrator_margin=integ_margin, slack_total=slack_total,
        worst_upper=float(ratio_max.max()), worst_lower=None, ratio_upper_max=ratio_max,
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
