"""Scalar rate functions of time: constant, sinusoidal, or table-interpolated."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class RateEvaluationError(ValueError):
    """A rate function produced a negative or non-finite value, or was queried at a bad time."""


@dataclass(frozen=True)
class RateFunction:
    """A nonnegative scalar function of time (units 1/time).

    Three declarative variants are supported:

    ``constant``
        r(t) = value
    ``sinusoid``
        r(t) = offset + amplitude * sin(2*pi*frequency*t + phase)
    ``table``
        linear interpolation through ascending (time, value) breakpoints,
        clamped to the end values outside the table range

    Negative values are rejected statically for constants and tables (their
    sign is decidable from the parameters) and at evaluation time for
    sinusoids, where frequency and phase make static sign analysis hard;
    a sinusoid value that overflows is rejected there as well.

    Instances are immutable and safe to evaluate concurrently.
    """

    kind: str
    params: tuple

    @staticmethod
    def constant(value) -> "RateFunction":
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"constant rate must be finite, got {value!r}")
        if value < 0.0:
            raise ValueError(f"constant rate must be nonnegative, got {value!r}")
        return RateFunction("constant", (value,))

    @staticmethod
    def sinusoid(offset, amplitude, frequency, phase=0.0) -> "RateFunction":
        params = tuple(float(v) for v in (offset, amplitude, frequency, phase))
        if not all(math.isfinite(v) for v in params):
            raise ValueError(f"sinusoid parameters must be finite, got {params!r}")
        return RateFunction("sinusoid", params)

    @staticmethod
    def table(times, values) -> "RateFunction":
        times = tuple(float(v) for v in times)
        values = tuple(float(v) for v in values)
        if len(times) < 2:
            raise ValueError("rate table needs at least 2 breakpoints")
        if len(times) != len(values):
            raise ValueError("rate table times and values must have equal length")
        if not all(map(math.isfinite, times + values)):
            raise ValueError("rate table entries must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("rate table breakpoints must be strictly increasing")
        if min(values) < 0.0:
            raise ValueError(f"rate table values must be nonnegative, got {min(values)!r}")
        return RateFunction("table", (times, values))

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    @property
    def constant_value(self) -> float:
        """The value of a constant rate; error for time-varying variants."""
        if self.kind != "constant":
            raise ValueError(f"{self.kind} rate has no single constant value")
        return self.params[0]

    def __call__(self, t):
        """Evaluate at a scalar time or an ndarray of times.

        Returns a float for scalar input, an ndarray of matching shape
        otherwise. Raises :class:`RateEvaluationError` if any requested time
        is non-finite or any produced value is negative or not finite, as a
        sinusoid's can overflow; a constant's value was checked when it was
        made.
        """
        ts = np.asarray(t, dtype=float)
        if not np.isfinite(ts).all():
            raise RateEvaluationError(f"rate queried at non-finite time {t!r}")
        if self.kind == "constant":
            return self.params[0] if ts.ndim == 0 else np.full(ts.shape, self.params[0])
        if self.kind == "sinusoid":
            offset, amplitude, frequency, phase = self.params
            out = offset + amplitude * np.sin(2.0 * np.pi * frequency * ts + phase)
        else:
            times, values = self.params
            out = np.interp(ts, times, values)
        ok = (out >= 0.0) & (out < math.inf)  # neither negative nor infinite nor NaN
        if not ok.all():
            i = int(np.argmin(ok))  # the first bad value in C order
            t_bad, v_bad = np.ravel(ts)[i], np.ravel(out)[i]
            what = "negative" if v_bad < 0.0 else "not finite"
            raise RateEvaluationError(f"{self.kind} rate is {what} at t={t_bad}: {v_bad}")
        return float(out) if out.ndim == 0 else out


def as_rate(value) -> RateFunction:
    """Coerce a number to a constant :class:`RateFunction`; pass instances through."""
    if isinstance(value, RateFunction):
        return value
    return RateFunction.constant(value)
