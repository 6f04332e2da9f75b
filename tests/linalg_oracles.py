"""Reference computations that only the tests use.

Each re-derives a quantity the library computes another way: the
generator entry by entry from the model-file definition of each chain kind,
regularity entry by entry of the generator stack, essential non-negativity
of a whole B* stack at once, the triangular similarity as explicit integer
matrices, column sums of a single matrix, eigenvalues by plain power iteration, RK4 trajectories
one stage at a time, the transformed RK4 increment by the structural
tail-sum transform, and the verifiers' envelope ratios on seeded random
starts.
"""

from dataclasses import dataclass

import numpy as np

from ctmc_bounds import (NonnegReport, PowerIterationError, RegularityReport,
                         RegularityViolation, build_reduced, solve, to_bstar)


def _jump_rate(kind, lists, i, j):
    """The rate function of the jump i -> j (i != j) of a structured kind, or None.

    birth_i drives i -> i+1 (i = 0..S-1), death_i drives i -> i-1
    (i = 1..S), the group-birth rate a_k drives i -> i+k from every state
    and the group-death rate b_k drives i -> i-k (k = 1..S).
    """
    k = j - i
    if kind == "birth_death":
        return lists["birth"][i] if k == 1 else lists["death"][j] if k == -1 else None
    if kind == "batch_birth":
        return lists["batch_birth"][k - 1] if k > 0 else lists["death"][j] if k == -1 else None
    if kind == "batch_death":
        return lists["birth"][i] if k == 1 else lists["batch_death"][-k - 1] if k < 0 else None
    if kind == "batch_both":
        return lists["batch_birth"][k - 1] if k > 0 else lists["batch_death"][-k - 1]
    raise ValueError(f"unknown structured kind {kind!r}")


def dense_generator(kind, S, lists, t):
    """Q(t) assembled pair by pair (i, j) from the model-file definition of a kind.

    lists maps the kind's rate-list names to their rate functions; the
    general kind takes "transitions", a mapping {(i, j): rate function}.
    Each diagonal entry is minus the sum of its row. t is a scalar or a
    1d array of times; the result has shape t.shape + (S+1, S+1).
    """
    ts = np.asarray(t, dtype=float)
    Q = np.zeros(ts.shape + (S + 1, S + 1))
    for i in range(S + 1):
        for j in range(S + 1):
            if i == j:
                continue
            if kind == "general":
                fn = lists["transitions"].get((i, j))
            else:
                fn = _jump_rate(kind, lists, i, j)
            if fn is not None:
                Q[..., i, j] = fn(ts)
    idx = np.arange(S + 1)
    Q[..., idx, idx] = -Q.sum(axis=-1)
    return Q


def dense_regularity(Q, grid) -> RegularityReport:
    """The regularity report read off every entry of a (len(grid), S+1, S+1) generator stack.

    For every state i and grid time, the intensities into i from below,
    q_{i-k,i}, and from above, q_{i+k,i}, are compared at consecutive jump
    sizes k, k+1; each increase is a violation.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    Qs = np.asarray(Q, dtype=float)
    assert Qs.shape[:-2] == grid.shape and grid.size > 0
    violations = []
    S = Qs.shape[-1] - 1
    for i in range(S + 1):
        for direction, rows in (("up", np.arange(i - 1, -1, -1)),
                                ("down", np.arange(i + 1, S + 1))):
            band = Qs[:, rows, i]  # intensities into i at jump sizes 1, 2, ...
            if band.shape[1] < 2:
                continue
            bad_t, bad_k = np.nonzero(band[:, 1:] > band[:, :-1])
            for ti, ki in zip(bad_t, bad_k):
                violations.append(RegularityViolation(
                    t=float(grid[ti]), state=i, k=int(ki) + 1, direction=direction,
                    value=float(band[ti, ki]), next_value=float(band[ti, ki + 1])))
    violations.sort(key=lambda v: (v.t, v.state, v.direction, v.k))
    return RegularityReport(regular=not violations, violations=tuple(violations),
                            grid=tuple(float(t) for t in grid))


def dense_nonnegativity(Bstar) -> NonnegReport:
    """The essential non-negativity report read off a whole (S, S) or (T, S, S) stack at once.

    A boolean mask selects the off-diagonal entries; the tolerance is
    1e-12 times the largest absolute entry of the stack, the worst entry
    the first smallest off-diagonal entry in C order, and the violations,
    the off-diagonal entries below -tolerance, are sorted worst first.
    """
    M = np.asarray(Bstar, dtype=float)
    stack = M.reshape((-1,) + M.shape[-2:])
    off = np.broadcast_to(~np.eye(M.shape[-1], dtype=bool), stack.shape)
    tol = 1e-12 * max(float(stack.max()), -float(stack.min()))
    bad = [tuple(int(x) for x in k) + (float(stack[tuple(k)]),)
           for k in np.argwhere(off & (stack < -tol))]
    violations = tuple(v[3 - M.ndim:] for v in sorted(bad, key=lambda v: v[-1]))
    if not off.any():
        return NonnegReport(passed=True, min_offdiagonal=np.inf, tolerance=tol,
                            violations=(), worst_index=None)
    low = float(stack[off].min())
    worst = tuple(int(x) for x in np.argwhere(off & (stack == low))[0])
    return NonnegReport(passed=not violations, min_offdiagonal=low, tolerance=tol,
                        violations=violations, worst_index=worst[3 - M.ndim:])


def triangular_pair(S: int):
    """The all-ones upper-triangular matrix and its exact integer inverse.

    Returns (T, Tinv) of dimension S with T @ Tinv == I exactly: Tinv has
    ones on the diagonal and -1 on the first superdiagonal. (T x)_i is the
    tail sum sum_{j>=i} x_j.
    """
    if S < 1:
        raise ValueError(f"dimension must be >= 1, got {S}")
    T = np.triu(np.ones((S, S), dtype=int))
    Tinv = np.eye(S, dtype=int) - np.eye(S, k=1, dtype=int)
    return T, Tinv


@dataclass(frozen=True)
class ColumnSumBounds:
    """Largest and smallest column sum of a square matrix."""

    h_max: float
    h_min: float
    sums: tuple


def column_sum_bounds(M) -> ColumnSumBounds:
    """Per-column sums of a square matrix together with their max and min."""
    M = np.asarray(M, dtype=float)
    sums = M.sum(axis=0)
    return ColumnSumBounds(h_max=float(sums.max()), h_min=float(sums.min()),
                           sums=tuple(float(s) for s in sums))


def dominant_eigenvalue(M, x0=None, tol: float = 1e-12, max_iter: int = 10**6):
    """Largest-magnitude eigenvalue of a matrix with a real dominant eigenpair.

    Plain power iteration with l2 normalization and a Rayleigh-quotient
    estimate; stops when the eigen-residual drops below tol relative to the
    estimate. The default start is a fixed mildly asymmetric vector so runs
    are deterministic.
    """
    M = np.asarray(M, dtype=float)
    S = M.shape[0]
    if x0 is None:
        x = 1.0 + np.linspace(0.0, 0.5, S)
    else:
        x = np.asarray(x0, dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ValueError("start vector must be nonzero")
    x = x / norm
    lam = 0.0
    for _ in range(max_iter):
        y = M @ x
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return 0.0  # x lies in the null space and M has no larger action
        lam = float(x @ y)
        x = y / ny
        res = float(np.linalg.norm(M @ x - lam * x))
        if res <= tol * max(1.0, abs(lam)):
            return lam
    raise PowerIterationError(f"no convergence within {max_iter} iterations")


def extreme_real_eigenvalues(M, tol: float = 1e-12, max_iter: int = 10**6):
    """(smallest, largest) eigenvalue of a matrix with real spectrum.

    Two power iterations: one on M for the dominant eigenvalue, one on the
    shifted matrix dominant*I - M, whose dominant eigenvalue locates the
    opposite end of the spectrum.
    """
    M = np.asarray(M, dtype=float)
    lam_dom = dominant_eigenvalue(M, tol=tol, max_iter=max_iter)
    shifted = lam_dom * np.eye(M.shape[0]) - M
    lam_other = lam_dom - dominant_eigenvalue(shifted, tol=tol, max_iter=max_iter)
    return min(lam_dom, lam_other), max(lam_dom, lam_other)


def rk4_reference(mats, n, h, x0):
    """States x_0..x_n of n classical RK4 steps of h, one stage at a time.

    mats holds the coefficient matrix at spacing h/2 (2n+1 matrices), or
    one matrix used at every stage time. x0 may be a vector or a column
    batch; the result stacks the n+1 states along a new leading axis.
    """
    mats = np.asarray(mats, dtype=float)
    x = np.array(x0, dtype=float)
    states = [x]
    for k in range(n):
        if len(mats) == 1:
            M0 = Mm = M1 = mats[0]
        else:
            M0, Mm, M1 = mats[2 * k], mats[2 * k + 1], mats[2 * k + 2]
        k1 = M0 @ x
        k2 = Mm @ (x + 0.5 * h * k1)
        k3 = Mm @ (x + 0.5 * h * k2)
        k4 = M1 @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        states.append(x)
    return np.stack(states)


def transformed_increment(K, d):
    """D T (K[1:, 1:] - K[1:, 0] 1^T) T^{-1} D^{-1} of forward increments K, structurally.

    The reduction and the tail-sum transform of :func:`to_bstar` applied to
    K as to a forward matrix A = Q^T, then the weights d.
    """
    return to_bstar(build_reduced(np.swapaxes(K, -1, -2))) * (d[:, None] / d[None, :])


def drawn_ratios(spec, d, tmax, n_steps, env_up, env_lo, count, seed):
    """Per-time envelope ratios of seeded random starts, each batch integrated by solve.

    Draws count signed starts (entries uniform in [-1, 1]) and count
    non-negative ones (uniform in [0, 1]) of the transformed system with
    the weights d, and count pairs of random distributions of the forward
    system; a pair's difference carries no mass, so its entries past state
    0 are propagated by the reduced system y' = B(t) y, the forward system
    on mass-free vectors, which holds no mass whose round-off it would never
    damp. Returns (upper, lower, coupling, distributions):
    the upper-envelope ratios of the 2 count starts, the lower-envelope
    ratios of the non-negative ones and the coupling ratios of the pairs'
    weighted tail sums, each (n_steps+1, columns), and the 2 count
    propagated distributions, (n_steps+1, S+1, 2 count).
    """
    S = spec.S
    rng = np.random.default_rng(seed)
    X = np.hstack([rng.uniform(-1.0, 1.0, (S, count)), rng.uniform(0.0, 1.0, (S, count))])
    norms = np.abs(solve("transformed", spec, X, tmax, n_steps, weights=d).states).sum(axis=1)
    norms /= np.abs(X).sum(axis=0)
    P = rng.uniform(0.0, 1.0, (S + 1, 2 * count))
    P /= P.sum(axis=0)
    y = solve("reduced_hom", spec, P[1:, :count] - P[1:, count:], tmax, n_steps).states
    tails = np.abs(d[:, None] * np.cumsum(y[:, ::-1], axis=1)[:, ::-1]).sum(axis=1)
    return (norms / env_up[:, None], norms[:, count:] / env_lo[:, None],
            tails / (env_up[:, None] * tails[0]),
            solve("forward", spec, P, tmax, n_steps).states)
