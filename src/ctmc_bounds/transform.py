"""Reduction and triangular similarity transform of the intensity matrix.

Eliminating the state-0 probability (the probabilities sum to one) turns the
transposed intensity matrix A(t) into an S-dimensional matrix B(t) with
entries b_ij = a_ij - a_i0. Conjugating with the upper-triangular all-ones
matrix T (whose action forms tail sums) yields B*(t) = T B(t) T^{-1}, which
is essentially non-negative - all off-diagonal entries >= 0 - whenever the
chain's generator has the regular jump-size structure. A further diagonal
conjugation D B*(t) D^{-1} with positive weights preserves that property and
is the knob the rate bounds are optimized over.

Every function here works on one matrix or a stack of them, one per time.
:func:`scan_transform` takes a generator through the reduction, the
transform, the essential non-negativity check and the weights a slice of
times at a time. Every command hands it a rate table, which writes each
slice of the generator as the scan reads it, so the scan holds one slice
of Q, B and B*, never a whole-time stack of any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .chain import ChainSpec

CHUNK_BYTES = 2**20  # largest S x S stack slice of scan_transform, in bytes


def build_reduced(Q):
    """Reduced S x S matrix B with entries a_ij - a_i0, i, j = 1..S, of A = Q^T.

    Equivalently: the lower-right S x S block of A minus the column
    (a_10, ..., a_S0) broadcast across all columns. Takes a generator or a
    stack of them, as :func:`ctmc_bounds.chain.eval_generator` returns.
    """
    A = np.swapaxes(Q, -1, -2)
    return A[..., 1:, 1:] - A[..., 1:, :1]


def to_bstar(B):
    """Conjugate by the all-ones triangular matrix: B* = T B T^{-1}.

    Computed structurally rather than by matrix products, preserving the
    exact integer action of T: tail sums down each column followed by
    differences with the previous column,

        B*_ij = sum_{k>=i} (B_kj - B_{k,j-1}),    with B_{k,0} = 0.

    The composition order is pinned by the explicit entry formulas for the
    transformed matrix (see tests); the leading column keeps its plain tail
    sums. Works on a single matrix or a stack of them; the differences are
    taken in place, right to left, so only the result is allocated.
    """
    B = np.asarray(B, dtype=float)
    out = np.empty_like(B, order="C")
    np.cumsum(B[..., ::-1, :], axis=-2, out=out[..., ::-1, :])
    for j in range(B.shape[-1] - 1, 0, -1):
        out[..., j] -= out[..., j - 1]
    return out


def validate_weights(weights, S: int):
    """The weights as a float vector of shape (S,); ValueError unless finite and positive."""
    d = np.asarray(weights, dtype=float)
    if d.shape != (S,):
        raise ValueError(f"weights must have length {S}, got shape {d.shape}")
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError("weights must be positive and finite")
    return d


def apply_weights(Bstar, d):
    """Diagonal conjugation D M D^{-1}: entry (i, j) becomes d_i m_ij / d_j.

    Diagonal entries are unchanged; essential non-negativity is preserved
    for any positive weights. Works on a single matrix or a stack.
    """
    M = np.asarray(Bstar, dtype=float)
    d = validate_weights(d, M.shape[-1])
    return M * (d[:, None] / d[None, :])


def analytic_bstar(spec: ChainSpec, t: float):
    """Closed-form B*(t) for the four structured classes; the general kind is rejected.

    Serves as an independent oracle for :func:`to_bstar` composed with
    :func:`build_reduced`. Entries follow the known class-specific patterns:
    birth-death chains give a tridiagonal matrix; batch births contribute
    telescoped differences of the group rates below the diagonal, batch
    deaths above it.
    """
    S = spec.S
    M = np.zeros((S, S))
    if spec.kind == "birth_death":
        lam = [fn(t) for fn in spec.birth]
        mu = [fn(t) for fn in spec.death]
        for r in range(S):
            M[r, r] = -(lam[r] + mu[r])
            if r + 1 < S:
                M[r, r + 1] = mu[r]
                M[r + 1, r] = lam[r + 1]
    elif spec.kind == "batch_birth":
        a = [fn(t) for fn in spec.batch_birth]
        mu = [fn(t) for fn in spec.death]
        for r in range(S):
            M[r, r] = -(mu[r] + sum(a[:S - r]))
            if r + 1 < S:
                M[r, r + 1] = mu[r]
            for c in range(r):
                M[r, c] = a[r - c - 1] - a[S - c - 1]
    elif spec.kind == "batch_death":
        b = [fn(t) for fn in spec.batch_death]
        lam = [fn(t) for fn in spec.birth]
        for r in range(S):
            M[r, r] = -(lam[r] + sum(b[:r + 1]))
            if r + 1 < S:
                M[r + 1, r] = lam[r + 1]
            for c in range(r + 1, S):
                M[r, c] = b[c - r - 1] - b[c]
    elif spec.kind == "batch_both":
        a = [fn(t) for fn in spec.batch_birth]
        b = [fn(t) for fn in spec.batch_death]
        for r in range(S):
            M[r, r] = -(sum(b[:r + 1]) + sum(a[:S - r]))
            for c in range(r):
                M[r, c] = a[r - c - 1] - a[S - c - 1]
            for c in range(r + 1, S):
                M[r, c] = b[c - r - 1] - b[c]
    else:
        raise ValueError(f"no closed form for chain kind {spec.kind!r}")
    return M


class NonnegativityError(ValueError):
    """B*(t) has a negative off-diagonal entry, so the envelope bounds do not apply."""


@dataclass(frozen=True)
class NonnegReport:
    """Result of the essential non-negativity check of a matrix or a stack.

    worst_index locates the smallest off-diagonal entry as (..., i, j), the
    stack indices first. Without off-diagonal entries (S = 1) it is None
    and min_offdiagonal is +inf.
    """

    passed: bool
    min_offdiagonal: float
    tolerance: float
    violations: tuple  # ((..., i, j, value), ...) sorted by value, worst first
    worst_index: tuple | None = None


def _offdiagonal_view(M):
    """Read-only (..., S-1, S) view of the off-diagonal entries of a matrix stack.

    In a row-major matrix the diagonal entries lie S+1 apart, so the entries
    after (0, 0) form S-1 rows of S+1 that each end on the diagonal; leaving
    that last entry out leaves exactly the off-diagonal ones. Entry (r, c)
    of the view is the flat entry 1 + r*(S+1) + c of its matrix. The stack
    axes may have any strides (a broadcast stack stays a view); matrices
    whose rows are not contiguous are copied first.
    """
    S = M.shape[-1]
    item = M.itemsize
    if M.strides[-2:] != (S * item, item):
        M = np.ascontiguousarray(M)
    return as_strided(M[..., 0, 1:], shape=M.shape[:-2] + (S - 1, S),
                      strides=M.strides[:-2] + ((S + 1) * item, item),
                      writeable=False)


def _offdiagonal_scan(M, tol):
    """(minimum, its index, entries below -tol) over the off-diagonal entries of a stack.

    The index is (..., i, j), the stack indices first, of the first minimum
    in C order; the entries below -tol are (..., i, j, value) in C order.
    The entries are read through a strided view: scanning a stack
    allocates one value per matrix, not a copy.
    """
    S = M.shape[-1]
    off = _offdiagonal_view(M)
    mins = off.min(axis=(-2, -1))
    k = tuple(int(x) for x in np.unravel_index(int(np.argmin(mins)), mins.shape))
    r, c = divmod(int(np.argmin(off[k])), S)
    below = []
    eye = np.eye(S, dtype=bool)
    for bad in np.argwhere(mins < -tol):
        k_bad = tuple(int(x) for x in bad)
        sub = M[k_bad]
        for i, j in np.argwhere((sub < -tol) & ~eye):
            below.append(k_bad + (int(i), int(j), float(sub[i, j])))
    return float(mins[k]), k + divmod(1 + r * (S + 1) + c, S), below


def _nonneg_report(low, index, below, tol) -> NonnegReport:
    """The report from the minimum, its index and the entries found below -tol.

    Without off-diagonal entries (S = 1) the minimum is +inf and the index None.
    """
    violations = sorted((v for v in below if v[-1] < -tol), key=lambda v: v[-1])
    return NonnegReport(passed=not violations, min_offdiagonal=low, tolerance=tol,
                        violations=tuple(violations), worst_index=index)


def _tolerance(hi, lo):
    """The default tolerance 1e-12 max|entry| from the largest and the smallest entry."""
    return 1e-12 * max(float(hi), -float(lo))


def check_essential_nonnegativity(Bstar, tol=None) -> NonnegReport:
    """Check that all off-diagonal entries of a matrix or a stack are >= -tol.

    The default tolerance is 1e-12 times the largest absolute entry of the
    whole input, so genuine structure failures are flagged while round-off
    from rate arithmetic is not. The entries are read through a strided
    view: checking a stack allocates one value per matrix, not a copy.
    """
    M = np.asarray(Bstar, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"square matrix or stack expected, got shape {M.shape}")
    tol = _tolerance(M.max(), M.min()) if tol is None else float(tol)
    scan = _offdiagonal_scan(M, tol) if M.shape[-1] > 1 else (math.inf, None, [])
    return _nonneg_report(*scan, tol)


def scan_transform(Q, weights, consume) -> NonnegReport:
    """B*(t), or B**(t) with weights, of a generator stack, formed a slice of times at a time.

    Q is a :class:`ctmc_bounds.chain.RateTable`, whose Q[s] writes the
    generator at the slice s of its times, or a (T, S+1, S+1) stack as
    :func:`ctmc_bounds.chain.eval_generator` returns it. Each slice of times,
    sized so that its S x S stack takes at most CHUNK_BYTES, is reduced,
    transformed, checked for essential non-negativity and, with weights (an
    (S,) float vector that :func:`validate_weights` has passed), conjugated
    by them in place; then consume(s, M), unless None, receives
    the slice s and that fresh stack M. No whole-time B, B* or B** stack is
    formed.

    Returns the report of :func:`check_essential_nonnegativity` on the whole
    B* stack, field for field: the tolerance 1e-12 max|entry| spans every
    time, so each slice keeps its entries below the tolerance of the slices
    read so far, which can only grow, and the last slice settles which of
    them are violations.
    """
    T, S = len(Q), Q.shape[-1] - 1
    ratio = None if weights is None else weights[:, None] / weights[None, :]
    step = max(1, CHUNK_BYTES // (8 * S * S))
    hi, lo, lows, indices, below = -math.inf, math.inf, [], [], []
    for start in range(0, T, step):
        s = slice(start, min(start + step, T))
        M = to_bstar(build_reduced(Q[s]))
        # np.maximum and np.minimum carry a NaN entry into the tolerance, as
        # M.max() and M.min() do over the whole stack
        hi, lo = np.maximum(hi, M.max()), np.minimum(lo, M.min())
        if S > 1:
            low, (k, i, j), found = _offdiagonal_scan(M, _tolerance(hi, lo))
            lows.append(low)
            indices.append((start + k, i, j))
            below += [(start + v[0],) + v[1:] for v in found]
        if ratio is not None:
            M *= ratio
        if consume is not None:
            consume(s, M)
        del M  # the next slice's B and B* are formed without this one
    low, index = math.inf, None
    if lows:
        # the first of the smallest slice minima (a NaN first of all), as over the whole stack
        first = int(np.argmin(lows))
        low, index = lows[first], indices[first]
    return _nonneg_report(low, index, below, _tolerance(hi, lo))


def require_essential_nonnegativity(Bstar, times=None) -> NonnegReport:
    """:func:`check_essential_nonnegativity` that raises :class:`NonnegativityError` on failure.

    Bstar may also be the report of such a check, as :func:`scan_transform`
    returns it. times, when given, holds the time of each matrix of the
    stack; the error message then names the time of the worst entry.
    """
    report = Bstar if isinstance(Bstar, NonnegReport) else check_essential_nonnegativity(Bstar)
    if not report.passed:
        *k, i, j = report.worst_index
        at = f" at t={times[tuple(k)]}" if times is not None else ""
        raise NonnegativityError(
            f"transformed matrix is not essentially non-negative: entry "
            f"({i + 1},{j + 1}) = {report.min_offdiagonal}{at}; "
            f"envelope bounds do not apply")
    return report
