"""Column-sum bounds, Perron weighting, and closed-form rates.

For an essentially non-negative matrix the l1 norm of any solution of
x' = M x moves at a speed controlled by the extreme column sums of M.
When the matrix is also irreducible there is a unique positive diagonal
conjugation equalizing all column sums at the maximal eigenvalue, which
turns the two-sided bounds into a single sharp decay rate. The weights are
the positive eigenvector of the transpose, found by inverse iteration
shifted to the Collatz-Wielandt upper bound (Noda's method). For any
positive weights the smallest and largest column sum of the conjugated
matrix enclose the maximal eigenvalue, so every iterate carries a
certified bracket, and the iteration stops when the bracket reaches
round-off. A tridiagonal matrix, as a birth-death chain gives, is solved
from its three diagonals (:func:`perron_band`): each step is an O(S)
elimination without pivoting, started from the diagonal scaling that
symmetrizes the matrix, a few solves from the weights. Every other matrix
takes dense solves from uniform weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, require_homogeneous
from .transform import band_column_sums, require_essential_nonnegativity, weight_band

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

PERRON_TOL = 1e-14    # relative bracket width at which the Perron solve stops
MAX_SOLVES = 10**6    # cap on its linear solves: non-convergence is an error, not a hang


class ReducibleMatrixError(ValueError):
    """Sharp weighting requested for a matrix whose directed graph is not strongly connected."""


class PowerIterationError(RuntimeError):
    """An eigenvector iteration hit its cap, left the double range or failed its postcondition."""


class SharpnessConditionError(ValueError):
    """The structural conditions guaranteeing a sharp rate do not hold."""


def check_irreducible(M) -> bool:
    """True iff the directed graph with edges i -> j for M_ij > 0 (i != j) is strongly connected.

    True at once when both first off-diagonals are positive: the path
    0 - 1 - ... - S-1 then runs through every node in both directions.
    Otherwise one forward and one backward reachability pass from node 0.
    """
    M = np.asarray(M, dtype=float)
    if _on_a_path(M):
        return True
    adj = (M > 0.0) & ~np.eye(M.shape[0], dtype=bool)
    return _reaches_all(adj) and _reaches_all(adj.T)


def _on_a_path(M) -> bool:
    """Both first off-diagonals of M are positive (vacuously for a 1 x 1 matrix)."""
    return bool(np.all(np.diagonal(M, 1) > 0.0) and np.all(np.diagonal(M, -1) > 0.0))


def _reaches_all(adj) -> bool:
    S = adj.shape[0]
    seen = np.zeros(S, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = adj[frontier].any(axis=0) & ~seen
        frontier = list(np.nonzero(nxt)[0])
        seen |= nxt
    return bool(seen.all())


@dataclass(frozen=True)
class SharpRate:
    """Equalizing weights and the common column sum they produce.

    lambda0 is the maximal eigenvalue of the transformed matrix; with the
    returned weights every column sum of the reweighted matrix equals it,
    up to the documented tolerance. bracket is the final Collatz-Wielandt
    enclosure (min_j r_j, max_j r_j) of lambda0, where r_j is column j's
    sum; iterations counts the linear solves; residual is the l1 norm of
    Bstar^T d - lambda0 d for the weights d, which sum to one.
    """

    lambda0: float
    weights: np.ndarray
    iterations: int
    residual: float
    bracket: tuple


def perron_weights(Bstar, x0=None) -> SharpRate:
    """Positive weights equalizing the column sums of D Bstar D^{-1}.

    Noda's inverse iteration with the Collatz-Wielandt bound as shift. For
    positive weights x the ratios r_j = (Bstar^T x)_j / x_j are the column
    sums of diag(x) Bstar diag(x)^{-1}, and lambda0 lies in [min r, max r].
    Each step takes sigma = max r plus a few ulps of the matrix scale,
    solves (sigma I - Bstar^T) y = x and normalizes x = y / sum(y). As
    sigma > lambda0 the matrix is a nonsingular M-matrix with a positive
    inverse, so x stays positive and the bracket shrinks, quadratically
    once sigma is close to lambda0 (Noda, Numer. Math. 17, 1971). The solve
    is carried out in the coordinates scaled by the current weights,
    diag(x)^{-1} (sigma I - Bstar^T) diag(x) z = 1 with y = x z, which
    is the same step in exact arithmetic and keeps every weight to full
    relative precision when they span many orders of magnitude.

    A matrix that passes the band test is solved as its band by
    :func:`perron_band`: both first off-diagonals positive and every entry
    beyond them within the non-negativity tolerance (1e-12 of the largest
    absolute entry), as for a birth-death chain. The entries beyond the
    band, round-off where the exact matrix is zero, are not read. Every
    other matrix starts from uniform weights and takes dense solves.

    The iteration stops once the bracket is no wider than PERRON_TOL times
    its largest absolute end, at the round-off floor of 4 ulps of the
    largest absolute entry, or as soon as a step fails to shrink the
    bracket, keeping the narrowest one; more than MAX_SOLVES solves is an
    error, not a hang.

    Parameters
    ----------
    Bstar : (S, S) array_like
        Essentially non-negative and irreducible matrix.
    x0 : (S,) array_like, optional
        Starting weights (entries taken absolute, none zero); defaults to
        the start described above. Different starts converge to the same
        weights up to normalization.

    Returns
    -------
    SharpRate
        The weights sum to one; lambda0 is their weighted mean of the r_j,
        inside the returned bracket.

    Raises
    ------
    NonnegativityError
        If the matrix is not essentially non-negative.
    NonFiniteBoundError
        If an entry of the matrix is not finite.
    ReducibleMatrixError
        If the matrix graph is not strongly connected (the positive
        eigenvector, and with it the weighting, would not be unique).
    PowerIterationError
        On hitting the solve cap, if the weights span more than the
        double-precision range, or if the converged column sums spread
        by more than :func:`equalization_tol`.
    """
    B = np.asarray(Bstar, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"square matrix expected, got shape {B.shape}")
    S = B.shape[0]
    nonneg = require_essential_nonnegativity(B)
    if not check_irreducible(B):
        raise ReducibleMatrixError("matrix is reducible; the equalizing weights "
                                   "are not unique or not positive")
    if _on_a_path(B) and max(_largest(np.triu(B, 2)), _largest(np.tril(B, -2))) \
            <= nonneg.tolerance:
        return perron_band(np.diagonal(B), np.diagonal(B, 1), np.diagonal(B, -1), x0)

    # buffers reused by every solve: fresh S x S temporaries freed at the heap top
    # are handed back to the system and their pages faulted in again each step
    W, shifted, eye, ones = np.empty_like(B), np.empty_like(B), np.eye(S), np.ones(S)

    def sums(x):  # apply_weights(B, x), written into W
        return np.multiply(B, np.divide(x[:, None], x[None, :], out=W), out=W).sum(axis=0)

    def solve(sigma):
        try:
            return np.linalg.solve(np.subtract(np.multiply(sigma, eye, out=shifted), W.T,
                                               out=shifted), ones)
        except np.linalg.LinAlgError:
            return None  # sigma within round-off of lambda0

    x = np.full(S, 1.0 / S) if x0 is None else _start(x0, S)
    return _noda(x, sums, solve, (B,), np.matmul)


def perron_band(diag, upper, lower, x0=None) -> SharpRate:
    """:func:`perron_weights` of the tridiagonal matrix with these diagonals, in O(S) per solve.

    diag holds the S diagonal entries, upper and lower the S-1 entries
    just above and just below it; the off-diagonals, the rates of a
    birth-death B* (:func:`ctmc_bounds.transform.bstar_band`), must be
    positive, else ReducibleMatrixError is raised. The iteration, its
    stopping rule, errors and postcondition are those of
    :func:`perron_weights`; each step solves the scaled system, itself
    tridiagonal, by Gaussian elimination without pivoting (the Thomas
    algorithm). The shift makes that system's rows strictly diagonally
    dominant, so every pivot is positive and the elimination is backward
    stable (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 9.5); a pivot that is not positive ends the iteration as a
    singular dense solve does.

    Without x0 the iteration starts from the diagonal scaling x that makes
    diag(x) B diag(x)^{-1} symmetric, x_{i+1} / x_i = sqrt(upper_i /
    lower_i), or from uniform weights if an entry of x would underflow.
    The Perron weights are x times the positive eigenvector of that
    symmetric matrix, which varies slowly, so the quadratic phase begins
    at once even when the weights span hundreds of orders of magnitude,
    where the uniform start gains about one order per solve.
    """
    diag, upper, lower = (np.asarray(v, dtype=float) for v in (diag, upper, lower))
    if not (np.all(upper > 0.0) and np.all(lower > 0.0)):
        raise ReducibleMatrixError("matrix is reducible; the equalizing weights "
                                   "are not unique or not positive")
    S = len(diag)
    x = _symmetrizing_weights(upper, lower) if x0 is None else _start(x0, S)
    weighted = []  # the off-diagonals of diag(x) B diag(x)^{-1} at the last weights summed

    def sums(x):
        weighted[:] = weight_band(upper, lower, x)
        return band_column_sums(diag, *weighted)

    def solve(sigma):
        return _thomas(sigma - diag, *weighted)

    # lambda0 summed by numpy, not by a BLAS dot product, whose threads
    # (above 10 000 entries in OpenBLAS) would change its last bits
    return _noda(np.full(S, 1.0 / S) if x is None else x, sums, solve, (diag, upper, lower),
                 lambda x, r: np.sum(x * r))


def _start(x0, S):
    """The starting weights x0, taken absolute and scaled to sum one; ValueError if unusable."""
    x = np.abs(np.asarray(x0, dtype=float))
    if x.shape != (S,) or not np.all(np.isfinite(x)) or not np.all(x > 0.0):
        raise ValueError("x0 must be a finite vector of length S without zero entries")
    return x / x.sum()


def _largest(M) -> float:
    """The largest absolute entry of M, 0 if it has none."""
    return float(np.max(np.abs(M), initial=0.0))


def _noda(x, sums, solve, entries, dot) -> SharpRate:
    """Noda's iteration from the weights x (summing to one); see :func:`perron_weights`.

    sums(x) returns the column sums of diag(x) B diag(x)^{-1}; solve(sigma)
    the solution z of the scaled system (sigma I - W^T) z = 1 for the
    weighted matrix W of the last weights given to sums, or None if the
    solve breaks down. entries are B, or its diagonals, as
    :func:`equalization_tol` takes them, and dot(x, r) the weighted mean
    of the final column sums r, lambda0.
    """
    floor = _round_off_floor(*entries)
    r = sums(x)
    iterations = 0
    while True:
        lo, hi = float(r.min()), float(r.max())
        if hi - lo <= max(PERRON_TOL * max(abs(lo), abs(hi)), floor):
            break
        if iterations == MAX_SOLVES:
            raise PowerIterationError(f"no convergence within {MAX_SOLVES} solves "
                                      f"(bracket width {hi - lo:.3e})")
        iterations += 1
        z = solve(hi + floor)
        if z is None or not np.all(z > 0.0) or not np.all(np.isfinite(z)):
            break  # the shift no longer exceeds lambda0 in floating point
        x_new = x * z
        x_new /= x_new.sum()
        if float(x_new.min()) < _TINY:
            raise PowerIterationError(
                f"weights span more than the double-precision range (smallest "
                f"weight {float(x_new.min()):.3e} after {iterations} solves)")
        r_new = sums(x_new)
        if not float(r_new.max() - r_new.min()) < hi - lo:
            break  # the bracket stopped shrinking: round-off dominates
        x, r = x_new, r_new

    lambda0 = float(dot(x, r))
    residual = float(np.abs(x * (r - lambda0)).sum())
    spread, spread_tol = hi - lo, equalization_tol(lambda0, *entries)
    if spread > spread_tol:
        raise PowerIterationError(f"column sums not equalized: spread {spread:.3e} "
                                  f"exceeds tolerance {spread_tol:.3e}")
    return SharpRate(lambda0=lambda0, weights=x, iterations=iterations,
                     residual=residual, bracket=(lo, hi))


def _thomas(m, p, q):
    """z with M z = 1 for the tridiagonal M of diagonal m, subdiagonal -p and superdiagonal -q.

    Gaussian elimination without pivoting, in Python floats: p and q are
    non-negative, so each step subtracts once, in the pivot, and the rest
    adds positive terms. None if a pivot is not positive.
    """
    m, p, q = m.tolist(), p.tolist(), q.tolist()
    e, f = [], []  # z_j = f_j + e_j z_{j+1} after elimination
    e_j = f_j = 0.0
    for m_j, p_j, q_j in zip(m, [0.0] + p, q + [0.0]):
        pivot = m_j - p_j * e_j
        if not pivot > 0.0:
            return None
        e_j, f_j = q_j / pivot, (1.0 + p_j * f_j) / pivot
        e.append(e_j)
        f.append(f_j)
    z, z_j = [], 0.0
    for e_j, f_j in zip(reversed(e), reversed(f)):
        z_j = f_j + e_j * z_j
        z.append(z_j)
    return np.array(z[::-1])


def _symmetrizing_weights(upper, lower):
    """Weights x with diag(x) B diag(x)^{-1} symmetric for a tridiagonal B, None on underflow.

    The ratios x_{i+1} / x_i = sqrt(upper_i / lower_i) are accumulated as
    sums of half log-ratios and the weights scaled to sum one; None if a
    weight would underflow.
    """
    half_logs = 0.5 * (np.log(upper) - np.log(lower))
    log_x = np.concatenate(([0.0], np.cumsum(half_logs)))
    x = np.exp(log_x - log_x.max())
    return None if float(x.min()) < _TINY else x / x.sum()


def _round_off_floor(*entries) -> float:
    """4 ulps of the largest absolute entry of the arrays: the narrowest bracket round-off allows."""
    return 4.0 * _EPS * max(_largest(a) for a in entries)


def equalization_tol(lambda0, *entries) -> float:
    """How far equalized column sums of the weighted Bstar may spread around lambda0.

    entries is Bstar, or the three diagonals of a tridiagonal one. 1e-9
    relative to lambda0, but never below the round-off floor at which the
    Perron iteration stops, 4 ulps of the largest absolute entry of
    Bstar; the floor decides only when |lambda0| is below about 1e-6 of
    that entry.
    """
    return max(1e-9 * abs(lambda0), _round_off_floor(*entries))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural sharp-rate conditions for a chain class."""

    passed: bool
    kind: str
    failures: tuple


def check_sharpness_conditions(spec: ChainSpec) -> ConditionReport:
    """Check the class conditions under which the equalizing weights exist.

    Every single-step rate list a chain carries (birth, death) must be
    positive, and every batch list must start strictly decreasing: a_2 < a_1
    and b_2 < b_1, vacuous for S = 1. So birth_death needs positive births
    and deaths, batch_birth positive deaths and a_2 < a_1, batch_death
    positive births and b_2 < b_1, and batch_both both inequalities. The
    general kind carries no structural certificate and always fails.

    The chain must be homogeneous (all rates constant).
    """
    require_homogeneous(spec, "sharpness-condition check")
    failures = [f"all {name} rates must be positive" for name in ("birth", "death")
                if min((fn.constant_value for fn in getattr(spec, name)), default=1.0) <= 0.0]
    for name, x in (("batch_birth", "a"), ("batch_death", "b")):
        first = [fn.constant_value for fn in getattr(spec, name)[:2]]
        if len(first) == 2 and not first[1] < first[0]:
            failures.append(f"need {x}_2 < {x}_1, got {x}_1={first[0]}, {x}_2={first[1]}")
    if spec.kind == "general":
        failures.append("general chains carry no structural sharpness certificate")
    return ConditionReport(passed=not failures, kind=spec.kind,
                           failures=tuple(failures))


def closed_form_bd(a: float, b: float, S: int):
    """Sharp decay-rate pair for the constant birth-death chain with rates a and b.

    Returns (beta_star, g_star) with

        beta_star = a + b - 2*sqrt(a*b)*cos(pi/(S+1))
        g_star    = a + b + 2*sqrt(a*b)*cos(pi/(S+1))

    These are the extreme eigenvalues of the negated transformed matrix,
    whose spectrum is that of an S x S tridiagonal Toeplitz matrix. As S
    grows beta_star tends to (sqrt(a) - sqrt(b))**2. beta_star is evaluated
    as (sqrt(a) - sqrt(b))**2 + 4*sqrt(a*b)*sin(pi/(2(S+1)))**2, which
    avoids the cancellation of the first form when it is small.
    """
    a, b, S = float(a), float(b), int(S)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"rates must be positive, got a={a}, b={b}")
    if S < 1:
        raise ValueError(f"state bound must be >= 1, got {S}")
    root = math.sqrt(a * b)
    sin_half = math.sin(math.pi / (2 * (S + 1)))
    beta = (math.sqrt(a) - math.sqrt(b)) ** 2 + 4.0 * root * sin_half ** 2
    return beta, a + b + 2.0 * root * math.cos(math.pi / (S + 1))
