"""Shared chain generators and fixtures for the test suite."""

import importlib
import pkgutil

import numpy as np
import pytest

import ctmc_bounds as cb

CLASS_KINDS = ("birth_death", "batch_birth", "batch_death", "batch_both")


def descending(rng, n, hi=10.0, lo=0.0):
    """Non-increasing positive rates, suitable for batch lists."""
    return tuple(np.sort(rng.uniform(lo, hi, n))[::-1])


def random_class_chain(rng, kind, S, hi=10.0):
    """Random homogeneous chain of one of the four structured kinds.

    Batch lists are sorted non-increasing so the chain is regular; single
    rates are drawn positive.
    """
    pos = lambda n: tuple(rng.uniform(0.0, hi, n))
    if kind == "birth_death":
        return cb.birth_death_chain(S, pos(S), pos(S))
    if kind == "batch_birth":
        return cb.batch_birth_chain(S, descending(rng, S, hi), pos(S))
    if kind == "batch_death":
        return cb.batch_death_chain(S, descending(rng, S, hi), pos(S))
    if kind == "batch_both":
        return cb.batch_both_chain(S, descending(rng, S, hi), descending(rng, S, hi))
    raise ValueError(kind)


def random_sharp_chain(rng, kind, S, batch_hi=3.0, single_hi=5.0):
    """Random homogeneous chain satisfying the sharp-rate conditions.

    Rates are kept moderate so fixed-step trajectories over a horizon of a
    few time units resolve the decay to high relative accuracy. The leading
    batch rate is nudged up to make the required strict inequality robust.
    """
    def strict_desc(n, hi):
        vals = np.sort(rng.uniform(0.05, hi, n))[::-1]
        if n >= 2 and vals[0] - vals[1] < 1e-3:
            vals[0] += 0.1
        return tuple(vals)

    pos = lambda n: tuple(rng.uniform(0.05, single_hi, n))
    if kind == "birth_death":
        return cb.birth_death_chain(S, pos(S), pos(S))
    if kind == "batch_birth":
        return cb.batch_birth_chain(S, strict_desc(S, batch_hi), pos(S))
    if kind == "batch_death":
        return cb.batch_death_chain(S, strict_desc(S, batch_hi), pos(S))
    if kind == "batch_both":
        return cb.batch_both_chain(S, strict_desc(S, batch_hi),
                                   strict_desc(S, batch_hi))
    raise ValueError(kind)


def random_regular_general(rng, S, hi=5.0, time_varying=False):
    """Random general chain with the regular structure.

    For every destination state the intensities of jumps into it, from
    below and from above, are drawn non-increasing in the jump size. With
    time_varying=True every rate is scaled by a common positive sinusoidal
    factor, which preserves the monotonicity at every time.
    """
    def rate(c):
        if time_varying:
            return cb.RateFunction.sinusoid(c, 0.4 * c, 0.7, 0.3)
        return c

    transitions = {}
    for j in range(S + 1):
        ups = np.sort(rng.uniform(0.0, hi, j))[::-1]        # q_{j-k,j}
        downs = np.sort(rng.uniform(0.0, hi, S - j))[::-1]  # q_{j+k,j}
        for k in range(1, j + 1):
            transitions[(j - k, j)] = rate(ups[k - 1])
        for k in range(1, S - j + 1):
            transitions[(j + k, j)] = rate(downs[k - 1])
    return cb.general_chain(S, transitions)


# a frozen general chain that is NOT regular (the size-2 jump into state 1
# beats the size-1 jump) while its transform stays essentially non-negative
NONREGULAR_OVERRIDE_RATES = {
    (0, 1): 2.2, (0, 2): 0.5, (0, 3): 0.1,
    (1, 0): 2.6, (1, 2): 1.3, (1, 3): 0.1,
    (2, 0): 1.6, (2, 1): 2.0, (2, 3): 1.9,
    (3, 0): 0.9, (3, 1): 2.4, (3, 2): 1.8,
}


@pytest.fixture
def nonregular_override_chain():
    return cb.general_chain(3, NONREGULAR_OVERRIDE_RATES)


@pytest.fixture
def generator_points(monkeypatch):
    """The number of time points of every rate table, in call order.

    rate_table, which evaluates the rates of every generator, is wrapped at
    every binding: in ctmc_bounds.chain, in the package namespace and in
    each module that imported it by name.
    """
    original, points = cb.chain.rate_table, []

    def counting(spec, t):
        points.append(int(np.size(t)))
        return original(spec, t)

    modules = [cb] + [importlib.import_module(f"{cb.__name__}.{m.name}")
                      for m in pkgutil.iter_modules(cb.__path__)]
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    return points


@pytest.fixture
def rate_calls(monkeypatch):
    """The rate function of every RateFunction call, in call order."""
    original, calls = cb.RateFunction.__call__, []

    def counting(self, t):
        calls.append(self)
        return original(self, t)

    monkeypatch.setattr(cb.RateFunction, "__call__", counting)
    return calls
