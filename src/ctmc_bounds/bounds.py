"""Two-sided convergence envelopes and the sharp-rate report.

The weighted transformed matrix B**(t) drives w' = B**(t) w. Its largest
and smallest column sums h_up(t) and h_lo(t) bound the growth of the l1
norm from above for any initial vector and from below for nonnegative ones:

    ||w(t)|| <= exp(int_0^t h_up) ||w(0)||,
    ||w(t)|| >= exp(int_0^t h_lo) ||w(0)||   (w(0) >= 0).

For a homogeneous chain with the Perron weights both column-sum extremes
collapse to the constant lambda0 and the envelopes coincide: the rate is
sharp.

A chain whose B* is tridiagonal, as a birth-death chain's is, takes its
column sums and its Perron solve from the three diagonals of
:func:`ctmc_bounds.transform.bstar_band`, in O(S) per time and per solve,
with no S x S matrix; every other chain reads B**(t) from the slice-wise
scan of :func:`ctmc_bounds.transform.scan_transform` and takes dense
Perron solves.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .chain import (ChainSpec, check_regularity, evaluation_times, rate_table,
                    require_homogeneous, require_memory)
from .spectral import (SharpnessConditionError, SharpRate, check_sharpness_conditions,
                       equalization_tol, perron_band, perron_weights)
from .transform import (CHUNK_BYTES, NonFiniteBoundError, band_column_sums, bstar_band,
                        build_reduced, is_tridiagonal, require_essential_nonnegativity,
                        scan_transform, to_bstar, validate_weights, weight_band)

CSV_COLUMNS = ("t", "h_upper", "h_lower", "I_upper", "I_lower", "env_upper", "env_lower")


@dataclass(frozen=True)
class BoundReport:
    """Envelope bounds on [0, Tmax] for one chain and one weight vector.

    grid holds the report times; h_upper/h_lower the extreme column sums
    at those times; I_upper/I_lower their running integrals (zero at t=0);
    env_upper/env_lower the exponential envelopes exp(I) that multiply the
    initial norm. sharp is set (with lambda0) when the envelopes provably
    coincide, and perron then holds the Perron solve behind lambda0 and
    the weights (its solve count and final bracket). warnings records soft
    findings such as a failed regularity check that was overridden by a
    verified essentially non-negative transform.
    """

    grid: np.ndarray
    h_upper: np.ndarray
    h_lower: np.ndarray
    I_upper: np.ndarray
    I_lower: np.ndarray
    env_upper: np.ndarray
    env_lower: np.ndarray
    weights: np.ndarray
    sharp: bool = False
    lambda0: float | None = None
    perron: SharpRate | None = None
    warnings: tuple = ()


def check_horizon(tmax, n_intervals):
    """(tmax, n_intervals) as (float, int); ValueError unless tmax > 0 and n_intervals >= 1."""
    tmax = float(tmax)
    if not tmax > 0.0:
        raise ValueError(f"horizon must be positive, got {tmax}")
    n = int(n_intervals)
    if n < 1:
        raise ValueError(f"need at least one step or grid interval, got {n}")
    return tmax, n


def cumulative_simpson(values_half, step: float):
    """Cumulative integral of samples on a half-step grid.

    values_half holds 2n+1 samples at spacing step/2 along the leading
    axis (trailing axes integrate componentwise); the return value has n+1
    entries: the running integral at the n+1 full-step points, each
    interval integrated by Simpson's rule through its midpoint sample. All
    quadrature weights are positive, so pointwise-ordered integrands yield
    ordered integrals.
    """
    f = np.asarray(values_half, dtype=float)
    if f.shape[0] % 2 != 1 or f.shape[0] < 3:
        raise ValueError("need an odd number (>= 3) of half-step samples")
    inc = (step / 6.0) * (f[0:-2:2] + 4.0 * f[1::2] + f[2::2])
    out = np.empty((inc.shape[0] + 1,) + inc.shape[1:])
    out[0] = 0.0
    np.cumsum(inc, axis=0, out=out[1:])
    return out


def envelope(values_half, step: float):
    """(I, exp(I)): the running Simpson integral of the samples and its envelope.

    The samples lie on a half-step grid as for :func:`cumulative_simpson`.
    Raises NonFiniteBoundError, naming the first such time, if an integral
    is not finite, as with rates or horizons near the double-precision
    range. A finite integral beyond about 709 gives an infinite envelope,
    returned without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        I = cumulative_simpson(values_half, step)
        env = np.exp(I)
    bad = ~np.isfinite(I)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteBoundError(
            f"envelope integral {float(I[i])} at t={i * step} is not finite: "
            f"the rates or the horizon exceed the double-precision range")
    return I, env


def compute_bounds(spec: ChainSpec, weights, tmax: float, n_grid: int) -> BoundReport:
    """Evaluate the two-sided envelopes for a chain on [0, tmax].

    Parameters
    ----------
    spec : ChainSpec
    weights : (S,) array_like
        Positive weights defining the diagonal conjugation.
    tmax : float
        Analysis horizon, > 0.
    n_grid : int
        Number of report times (>= 2); the integrand is sampled twice as
        densely so every reported integral is a Simpson value.

    The weights are validated first (ValueError). Regularity is checked on
    the report grid (a failure only adds a warning) and essential
    non-negativity of the transformed matrix on the Simpson grid (a
    failure raises NonnegativityError, since the envelope argument needs
    it). Raises NonFiniteBoundError if an envelope integral is not finite;
    an envelope beyond the double-precision range is reported as inf.

    The rates are evaluated once, on the Simpson grid, into a
    :func:`ctmc_bounds.chain.rate_table`, which feeds the regularity check
    and :func:`ctmc_bounds.transform.scan_transform`. The scan writes the
    generator from the table a slice of times at a time and hands over the
    weighted transform of each slice: the peak is the table, the column
    sums and one slice; no whole-time generator stack is formed. A
    tridiagonal B*, as a birth-death chain's, is read from its diagonals
    instead (:func:`column_sum_extremes`). A homogeneous chain's
    transformed matrix is built and checked once; its column-sum extremes
    are constant along the grid.
    """
    tmax, n = check_horizon(tmax, int(n_grid) - 1)
    d = validate_weights(weights, spec.S)
    half = np.linspace(0.0, tmax, 2 * n + 1)
    return _envelopes(rate_table(spec, evaluation_times(spec, half)), d, tmax, n)


def column_sum_extremes(table, d, size):
    """(h_up, h_lo): the extreme column sums of B**(t) at the rate table's times.

    A tridiagonal B*(t) is read from its diagonals
    (:func:`ctmc_bounds.transform.bstar_band`), whose off-diagonals are
    rates, a slice of times at a time, at most CHUNK_BYTES of column sums
    per slice: column j sums to diag_j + (d_{j-1} / d_j) B*_{j-1,j} +
    (d_{j+1} / d_j) B*_{j+1,j}, O(S) per time. Otherwise
    :func:`ctmc_bounds.transform.scan_transform` writes B**(t) from the
    table a slice of times at a time, and B*(t) must be essentially
    non-negative at every time of the table, else NonnegativityError is
    raised. h_up and h_lo extend to a grid of size times: a homogeneous
    chain's table holds one time, and its extremes are broadcast along the
    grid. The column sums, S doubles per time, are the only whole-time
    array formed; MemoryError is raised before they are allocated if they
    exceed the machine's physical memory.
    """
    shape = (len(table), table.S)
    require_memory(f"column sums of shape {shape}", 8 * math.prod(shape))
    sums = np.empty(shape)
    if is_tridiagonal(table):
        step = max(1, CHUNK_BYTES // (8 * table.S))
        for start in range(0, len(table), step):
            s = np.s_[start:start + step]
            diag, upper, lower = bstar_band(table.at(s))
            sums[s] = band_column_sums(diag, *weight_band(upper, lower, d))
    else:
        def consume(s, M):
            sums[s] = M.sum(axis=-2)

        require_essential_nonnegativity(scan_transform(table, d, consume), table.times)
    return (np.broadcast_to(sums.max(axis=-1), (size,)),
            np.broadcast_to(sums.min(axis=-1), (size,)))


def _envelopes(table, d, tmax, n) -> BoundReport:
    """The report of :func:`compute_bounds` from the rate table on its Simpson grid."""
    half = np.linspace(0.0, tmax, 2 * n + 1)
    reg = check_regularity(table.at(np.s_[::2]))
    h_up, h_lo = column_sum_extremes(table, d, len(half))
    warnings = []
    if not reg.regular:
        v = reg.violations[0]
        warnings.append(
            f"generator is not regular on the grid (first break: t={v.t}, "
            f"state {v.state}, jump {v.k}->{v.k + 1} {v.direction}); proceeding "
            f"because the transformed matrix is essentially non-negative")

    I_up, env_up = envelope(h_up, tmax / n)
    I_lo, env_lo = envelope(h_lo, tmax / n)

    return BoundReport(grid=half[::2], h_upper=h_up[::2], h_lower=h_lo[::2],
                       I_upper=I_up, I_lower=I_lo, env_upper=env_up, env_lower=env_lo,
                       weights=d, warnings=tuple(warnings))


def perron_at_start(table):
    """The Perron solve of B* at the rate table's first time, and the entries of B* it read.

    A tridiagonal B* is solved from its three diagonals by
    :func:`ctmc_bounds.spectral.perron_band`, with no S x S matrix, and
    the entries are those diagonals; any other B* is formed by
    :func:`ctmc_bounds.transform.to_bstar` and solved by
    :func:`ctmc_bounds.spectral.perron_weights`, and the entries are
    (B*,). Either way they are what :func:`equalization_tol` reads.
    """
    first = table.at(np.s_[:1])
    if not is_tridiagonal(first):
        bstar = to_bstar(build_reduced(first[0]))
        return perron_weights(bstar), (bstar,)
    band = tuple(v[0] for v in bstar_band(first))
    return perron_band(*band), band


def sharp_report(spec: ChainSpec, tmax: float = 1.0, n_grid: int = 201) -> BoundReport:
    """Envelope report with the equalizing Perron weights of a homogeneous chain.

    Requires a homogeneous chain passing the class sharpness conditions and
    an irreducible transformed matrix. Both column-sum extremes are checked
    to agree with lambda0 within :func:`equalization_tol` before the report
    is marked sharp. The Perron input and the envelopes come from one
    evaluation of the rates at t=0 (:func:`perron_at_start`); a
    tridiagonal B* is never formed as an S x S matrix.
    """
    require_homogeneous(spec, "sharp-rate report")
    cond = check_sharpness_conditions(spec)
    if not cond.passed:
        raise SharpnessConditionError("; ".join(cond.failures))
    tmax, n = check_horizon(tmax, int(n_grid) - 1)
    half = np.linspace(0.0, tmax, 2 * n + 1)
    table = rate_table(spec, evaluation_times(spec, half))
    rate, entries = perron_at_start(table)
    report = _envelopes(table, rate.weights, tmax, n)
    lam0 = rate.lambda0
    tol = equalization_tol(lam0, *entries)
    worst = max(float(np.max(np.abs(report.h_upper - lam0))),
                float(np.max(np.abs(report.h_lower - lam0))))
    if worst > tol:
        raise SharpnessConditionError(
            f"column-sum extremes deviate from lambda0 by {worst:.3e} (> {tol:.3e})")
    return dataclasses.replace(report, sharp=True, lambda0=lam0, perron=rate)


def write_csv(path, header, columns) -> None:
    """Write equal-length columns of numbers as CSV under a header row.

    Comma separator, '.' decimal point, LF line endings, a trailing newline
    and 17 significant digits (round-trip exact for doubles). Each row is
    formatted by one template.
    """
    columns = [np.asarray(col, dtype=float).tolist() for col in columns]
    template = ",".join(["%.17g"] * len(columns))
    lines = [",".join(header)]
    lines.extend(template % row for row in zip(*columns, strict=True))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def bound_report_to_csv(report: BoundReport, path) -> None:
    """Write a report as CSV: t, h_upper, h_lower, I_upper, I_lower, env_upper, env_lower."""
    write_csv(path, CSV_COLUMNS, (report.grid, report.h_upper, report.h_lower,
                                  report.I_upper, report.I_lower,
                                  report.env_upper, report.env_lower))
