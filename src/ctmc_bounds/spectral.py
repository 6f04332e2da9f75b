"""Column-sum bounds, Perron weighting, and closed-form rates.

For an essentially non-negative matrix the l1 norm of any solution of
x' = M x moves at a speed controlled by the extreme column sums of M.
When the matrix is also irreducible there is a unique positive diagonal
conjugation equalizing all column sums at the maximal eigenvalue, which
turns the two-sided bounds into a single sharp decay rate. The weights are
obtained constructively by power iteration on the shifted transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, require_homogeneous
from .transform import apply_weights, require_essential_nonnegativity


class ReducibleMatrixError(ValueError):
    """Sharp weighting requested for a matrix whose directed graph is not strongly connected."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within its iteration cap."""


class SharpnessConditionError(ValueError):
    """The structural conditions guaranteeing a sharp rate do not hold."""


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


def check_irreducible(M, tol: float = 0.0) -> bool:
    """True iff the directed graph with edges i -> j for M_ij > tol (i != j) is strongly connected.

    Uses one forward and one backward reachability pass from node 0.
    """
    M = np.asarray(M, dtype=float)
    S = M.shape[0]
    if S == 1:
        return True
    adj = (M > tol) & ~np.eye(S, dtype=bool)
    return _reaches_all(adj) and _reaches_all(adj.T)


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
    up to the documented tolerance.
    """

    lambda0: float
    weights: np.ndarray
    iterations: int
    residual: float


def perron_weights(Bstar, x0=None, tol: float = 1e-14, max_iter: int = 10**6) -> SharpRate:
    """Positive weights equalizing the column sums of D Bstar D^{-1}.

    Power-iterates the non-negative matrix C = Bstar^T + shift*I to its
    positive eigenvector x, where shift = max |diagonal entry|, plus an
    extra unit when that leaves the whole diagonal of C at zero (a uniform
    diagonal makes C periodic and the iteration would oscillate). The
    weights are the eigenvector entries themselves: column j of
    diag(x) Bstar diag(x)^{-1} sums to (Bstar^T x)_j / x_j = lambda0.

    Parameters
    ----------
    Bstar : (S, S) array_like
        Essentially non-negative and irreducible matrix.
    x0 : (S,) array_like, optional
        Starting vector for the iteration (entries taken absolute); defaults
        to the uniform vector. Different starts converge to the same
        weights up to normalization.
    tol : float
        Stop when the l1 change of the normalized iterate drops below this.
    max_iter : int
        Hard cap turning non-convergence into an error instead of a hang.

    Returns
    -------
    SharpRate

    Raises
    ------
    NonnegativityError
        If the matrix is not essentially non-negative.
    ReducibleMatrixError
        If the matrix graph is not strongly connected (the positive
        eigenvector, and with it the weighting, would not be unique).
    PowerIterationError
        On hitting the iteration cap, or if the converged weights fail the
        equal-column-sum postcondition.
    """
    B = np.asarray(Bstar, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"square matrix expected, got shape {B.shape}")
    S = B.shape[0]
    require_essential_nonnegativity(B)
    if not check_irreducible(B):
        raise ReducibleMatrixError("matrix is reducible; the equalizing weights "
                                   "are not unique or not positive")

    m = float(np.max(np.abs(np.diag(B))))
    shift = m
    C = B.T + m * np.eye(S)
    if float(np.min(np.diag(C))) <= 0.0:
        # all-zero diagonal (uniform |b_jj|) would leave C periodic
        shift = m + 1.0
        C = C + np.eye(S)

    if x0 is None:
        x = np.full(S, 1.0 / S)
    else:
        x = np.abs(np.asarray(x0, dtype=float))
        if x.shape != (S,) or not np.all(np.isfinite(x)) or x.sum() <= 0.0:
            raise ValueError("x0 must be a finite nonzero vector of length S")
        x = x / x.sum()

    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = C @ x
        x_new = y / y.sum()
        delta = float(np.abs(x_new - x).sum())
        x = x_new
        if delta <= tol:
            break
    else:
        raise PowerIterationError(f"no convergence within {max_iter} iterations "
                                  f"(last l1 change {delta:.3e})")

    y = C @ x
    lam_star = float(y.sum())  # Rayleigh-style: x is normalized to sum 1
    residual = float(np.abs(y - lam_star * x).sum())
    lambda0 = lam_star - shift

    weights = x.copy()
    sums = apply_weights(B, weights).sum(axis=0)
    spread = float(sums.max() - sums.min())
    if abs(lambda0) > 1e-12 * m:
        spread_tol = 1e-9 * abs(lambda0)
    else:
        spread_tol = 1e-12
    if spread > spread_tol:
        raise PowerIterationError(f"column sums not equalized: spread {spread:.3e} "
                                  f"exceeds tolerance {spread_tol:.3e}")
    return SharpRate(lambda0=lambda0, weights=weights,
                     iterations=iterations, residual=residual)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural sharp-rate conditions for a chain class."""

    passed: bool
    kind: str
    failures: tuple


def check_sharpness_conditions(spec: ChainSpec) -> ConditionReport:
    """Check the class conditions under which the equalizing weights exist.

    birth_death: all birth and death rates positive. batch_birth: positive
    death rates and a_2 < a_1 (strict). batch_death: positive birth rates
    and b_2 < b_1. batch_both: both strict inequalities. Conditions on the
    second batch rate are vacuous for S = 1. The general kind carries no
    structural certificate and always fails.

    The chain must be homogeneous (all rates constant).
    """
    require_homogeneous(spec, "sharpness-condition check")
    failures = []

    def _values(fns):
        return [fn.constant_value for fn in fns]

    if spec.kind == "birth_death":
        if min(_values(spec.birth), default=1.0) <= 0.0:
            failures.append("all birth rates must be positive")
        if min(_values(spec.death), default=1.0) <= 0.0:
            failures.append("all death rates must be positive")
    elif spec.kind == "batch_birth":
        if min(_values(spec.death), default=1.0) <= 0.0:
            failures.append("all death rates must be positive")
        a = _values(spec.batch_birth)
        if spec.S >= 2 and not a[1] < a[0]:
            failures.append(f"need a_2 < a_1, got a_1={a[0]}, a_2={a[1]}")
    elif spec.kind == "batch_death":
        if min(_values(spec.birth), default=1.0) <= 0.0:
            failures.append("all birth rates must be positive")
        b = _values(spec.batch_death)
        if spec.S >= 2 and not b[1] < b[0]:
            failures.append(f"need b_2 < b_1, got b_1={b[0]}, b_2={b[1]}")
    elif spec.kind == "batch_both":
        a = _values(spec.batch_birth)
        b = _values(spec.batch_death)
        if spec.S >= 2 and not a[1] < a[0]:
            failures.append(f"need a_2 < a_1, got a_1={a[0]}, a_2={a[1]}")
        if spec.S >= 2 and not b[1] < b[0]:
            failures.append(f"need b_2 < b_1, got b_1={b[0]}, b_2={b[1]}")
    else:
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
    grows beta_star tends to (sqrt(a) - sqrt(b))**2.
    """
    a, b, S = float(a), float(b), int(S)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"rates must be positive, got a={a}, b={b}")
    if S < 1:
        raise ValueError(f"state bound must be >= 1, got {S}")
    gap = 2.0 * math.sqrt(a * b) * math.cos(math.pi / (S + 1))
    return a + b - gap, a + b + gap


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
