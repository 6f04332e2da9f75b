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

Essential non-negativity is judged in one place, :func:`_judge`, which reads
B* a slice of :func:`slices` at a time: the scan hands it the slices it
forms, :func:`check_essential_nonnegativity` copies of its input's. An entry
of B* that is not finite is refused there with :class:`NonFiniteBoundError`.

A birth-death generator, or any whose rate table's index names the zero
column beyond the first off-diagonals, has an exactly tridiagonal B*.
:func:`bstar_band` writes its three diagonals straight from the table's
columns (:func:`is_tridiagonal` tells), with no Q, B or to_bstar: its
off-diagonals are rates, so it is essentially non-negative by
construction, and :func:`weight_band` and :func:`band_column_sums` give
the weighted matrix's column sums in O(S) per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec

CHUNK_BYTES = 2**20  # largest S x S stack slice of slices(), in bytes


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


def is_tridiagonal(table) -> bool:
    """True iff every entry of the rate table's index beyond the first off-diagonals reads the zero column.

    Then Q(t), and with it B*(t), is tridiagonal at every time of the
    table, as for a birth-death chain.
    """
    index, zero = table.index, table.values.shape[-1] - 1
    band = np.count_nonzero(np.diagonal(index, 1) != zero) \
        + np.count_nonzero(np.diagonal(index, -1) != zero)
    return int(np.count_nonzero(index != zero)) == band


def bstar_band(table):
    """The three diagonals of B*(t) at the times of a rate table that :func:`is_tridiagonal`.

    For r = 0..S-1 (states r+1 of Q) they are

        diag_r  = -(q_{r,r+1} + q_{r+1,r}),
        upper_r = B*_{r,r+1} = q_{r+1,r},    lower_r = B*_{r+1,r} = q_{r+1,r+2},

    returned as (diag, upper, lower) of shapes (T, S), (T, S-1), (T, S-1)
    for a table of T times, read from the table's columns with no Q, B or
    :func:`to_bstar`. The off-diagonals are rates, never negative, so B*
    is essentially non-negative by construction. An entry of diag that is
    not finite raises NonFiniteBoundError, naming its time, as the scan of
    :func:`scan_transform` does.
    """
    times = np.atleast_1d(table.times)
    values = table.values.reshape(len(times), -1)
    birth = values[:, np.diagonal(table.index, 1)]
    death = values[:, np.diagonal(table.index, -1)]
    with np.errstate(over="ignore"):  # an overflow is the error below
        diag = -(birth + death)
    finite = np.isfinite(diag).all(axis=1)
    if not finite.all():
        raise NonFiniteBoundError(f"B* has an entry that is not finite at "
                                  f"t={times[int(np.argmin(finite))]}: the rates exceed "
                                  f"the double-precision range")
    return diag, death[:, :-1], birth[:, 1:]


def weight_band(upper, lower, d):
    """The off-diagonals of D B* D^{-1} for a tridiagonal B*: d_k upper_k / d_{k+1}, d_{k+1} lower_k / d_k.

    upper and lower are B*'s super- and subdiagonal, or stacks of them
    along leading axes; d holds the S positive weights.
    """
    return (d[:-1] / d[1:]) * upper, (d[1:] / d[:-1]) * lower


def band_column_sums(diag, upper, lower):
    """Column sums of the tridiagonal matrices with these diagonals: diag_j + upper_{j-1} + lower_j.

    Works on one matrix's diagonals or on stacks of them along leading
    axes; the terms are added in that order.
    """
    sums = np.array(diag, dtype=float)
    sums[..., 1:] += upper
    sums[..., :-1] += lower
    return sums


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


class NonFiniteBoundError(ArithmeticError):
    """An entry of B*(t), an envelope integral, or an envelope to verify is not finite.

    The rates, or the horizon, exceed the double-precision range; a rate
    that is itself not finite is a :class:`ctmc_bounds.rates.RateEvaluationError`.
    """


@dataclass(frozen=True)
class NonnegReport:
    """Result of the essential non-negativity check of a matrix or a stack.

    worst_index locates the first smallest off-diagonal entry in C order:
    (i, j) in an (S, S) matrix, (t, i, j) in a (T, S, S) stack. Without
    off-diagonal entries (S = 1) it is None and min_offdiagonal is +inf.
    """

    passed: bool
    min_offdiagonal: float
    tolerance: float
    violations: tuple  # ((..., i, j, value), ...) sorted by value, worst first
    worst_index: tuple | None = None


def slices(T: int, S: int):
    """Consecutive slices of range(T) whose (len, S, S) float stacks take at most CHUNK_BYTES."""
    step = max(1, CHUNK_BYTES // (8 * S * S))
    for start in range(0, T, step):
        yield slice(start, min(start + step, T))


def _judge(stacks, times=None, ndim=3) -> NonnegReport:
    """The non-negativity report of consecutive B* slices, field for field as the whole stack's.

    stacks yields C-contiguous (len, S, S) float stacks, the judge's to
    write until it asks for the next: each slice's diagonal is set to +inf
    for its off-diagonal minima, then restored bit for bit. The tolerance
    1e-12 max|entry| spans every slice, so each slice keeps its entries
    below the tolerance of the slices read so far, which can only grow,
    and the last slice settles which of them are violations. Indices are
    (t, i, j), or (i, j) with ndim 2. A slice with an entry that is not
    finite raises NonFiniteBoundError, naming its time if times, the time
    of each matrix, is given.
    """
    hi, lo, low, index, below, start = -math.inf, math.inf, math.inf, None, [], 0
    for M in stacks:
        S, flat = M.shape[-1], M.reshape(len(M), -1)
        top, bottom = float(M.max()), float(M.min())
        if not (math.isfinite(top) and math.isfinite(bottom)):  # a NaN entry makes both NaN
            k = start + int(np.argmin(np.isfinite(flat).all(axis=1)))
            at = "" if times is None else f" at t={times[k]}"
            raise NonFiniteBoundError(f"B* has an entry that is not finite{at}: the rates "
                                      f"exceed the double-precision range")
        hi, lo, diag = max(hi, top), min(lo, bottom), flat[:, ::S + 1].copy()
        flat[:, ::S + 1] = math.inf
        mins = flat.min(axis=1)
        k = int(np.argmin(mins))
        if mins[k] < low:
            low, index = float(mins[k]), (start + k,) + divmod(int(np.argmin(flat[k])), S)
        tol = 1e-12 * max(hi, -lo)
        for k in np.flatnonzero(mins < -tol):
            below += [(start + int(k), int(i), int(j), float(M[k, i, j]))
                      for i, j in np.argwhere(M[k] < -tol)]
        flat[:, ::S + 1] = diag
        start += len(M)
        del M, flat  # the next slice is formed without this one
    violations = sorted((v[3 - ndim:] for v in below if v[-1] < -tol), key=lambda v: v[-1])
    index = None if index is None else index[3 - ndim:]
    return NonnegReport(passed=not violations, min_offdiagonal=low, tolerance=tol,
                        violations=tuple(violations), worst_index=index)


def check_essential_nonnegativity(Bstar) -> NonnegReport:
    """Check that all off-diagonal entries of an (S, S) matrix or a (T, S, S) stack are >= -tol.

    The tolerance is 1e-12 times the largest absolute entry of the whole
    input, so genuine structure failures are flagged while round-off from
    rate arithmetic is not. The input is read a copied slice at a time, so
    checking a stack allocates at most CHUNK_BYTES and never writes to it.
    An entry that is not finite raises NonFiniteBoundError.
    """
    M = np.asarray(Bstar, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.size == 0:
        raise ValueError(f"square matrix or stack expected, got shape {M.shape}")
    stack = M.reshape((-1,) + M.shape[-2:])
    return _judge((stack[s].copy() for s in slices(len(stack), M.shape[-1])), ndim=M.ndim)


def scan_transform(Q, weights, consume) -> NonnegReport:
    """B*(t), or B**(t) with weights, of a generator stack, formed a slice of times at a time.

    Q is a :class:`ctmc_bounds.chain.RateTable`, whose Q[s] writes the
    generator at the slice s of its times, or a (T, S+1, S+1) stack as
    :func:`ctmc_bounds.chain.eval_generator` returns it. Each slice of
    :func:`slices` is reduced, transformed, judged for essential
    non-negativity and, with weights (an (S,) float vector that
    :func:`validate_weights` has passed), conjugated by them in place; then
    consume(s, M), unless None, receives the slice s and that fresh stack
    M. No whole-time B, B* or B** stack is formed.

    Returns the report of :func:`check_essential_nonnegativity` on the whole
    B* stack, field for field; an entry of B* that is not finite raises
    NonFiniteBoundError, naming its time if Q is a rate table.
    """
    ratio = None if weights is None else weights[:, None] / weights[None, :]

    def bstar_slices():
        for s in slices(len(Q), Q.shape[-1] - 1):
            M = to_bstar(build_reduced(Q[s]))
            yield M  # the judge reads B* before it is weighted
            if ratio is not None:
                M *= ratio
            if consume is not None:
                consume(s, M)
            del M  # the next slice's B and B* are formed without this one

    return _judge(bstar_slices(), getattr(Q, "times", None))


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
