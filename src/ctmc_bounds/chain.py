"""Chain specifications and generator assembly.

A chain lives on the states {0, ..., S}. Its transition-intensity matrix
Q(t) has nonnegative off-diagonal entries q_ij(t) (the rate of jumping from
i to j) and rows that sum to zero. Besides fully general rate tables, four
structured transition classes are supported:

``birth_death``
    single steps, q_{i,i+1} = birth_i(t), q_{i,i-1} = death_i(t)
``batch_birth``
    upward jumps of any size k at a group rate a_k(t) independent of the
    current state, single deaths
``batch_death``
    downward jumps of size k at a group rate b_k(t), single births
``batch_both``
    both batch patterns combined

A generator is *regular* when, for every state and every time, the
intensities of jumps INTO that state are non-increasing in the jump size,
separately for jumps arriving from below (q_{i-k,i}) and from above
(q_{i+k,i}). Walking away from the diagonal in any column of Q, the
entries never increase. All four structured classes are regular by
construction whenever their batch-rate sequences are non-increasing, and
regularity is exactly what makes the upper-triangular similarity transform
of the reduced system essentially non-negative.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .rates import RateEvaluationError, as_rate

# the rate lists each structured kind carries, in the order its constructor takes them
RATE_LISTS = {
    "birth_death": ("birth", "death"),
    "batch_birth": ("batch_birth", "death"),
    "batch_death": ("batch_death", "birth"),
    "batch_both": ("batch_birth", "batch_death"),
}
KINDS = ("general", *RATE_LISTS)


class InhomogeneousChainError(ValueError):
    """An operation that needs constant rates was given a time-varying chain."""


@dataclass(frozen=True)
class ChainSpec:
    """Immutable description of a finite chain on states {0, ..., S}.

    Use the module-level constructors (:func:`birth_death_chain`,
    :func:`batch_birth_chain`, :func:`batch_death_chain`,
    :func:`batch_both_chain`, :func:`class_chain`, :func:`general_chain`)
    rather than instantiating directly; they validate list lengths and
    coerce plain numbers to constant rate functions.
    """

    S: int
    kind: str
    birth: tuple = ()        # birth_i(t), i = 0..S-1   (birth_death, batch_death)
    death: tuple = ()        # death_i(t), i = 1..S     (birth_death, batch_birth)
    batch_birth: tuple = ()  # a_k(t),    k = 1..S      (batch_birth, batch_both)
    batch_death: tuple = ()  # b_k(t),    k = 1..S      (batch_death, batch_both)
    transitions: tuple = ()  # ((i, j, rate), ...)      (general)

    @property
    def is_homogeneous(self) -> bool:
        """True when every rate function is a constant."""
        rate_lists = (self.birth, self.death, self.batch_birth, self.batch_death)
        fns = [fn for lst in rate_lists for fn in lst]
        fns += [fn for _, _, fn in self.transitions]
        return all(fn.is_constant for fn in fns)


def _rate_tuple(values, length, name) -> tuple:
    rates = tuple(as_rate(v) for v in values)
    if len(rates) != length:
        raise ValueError(f"{name} needs {length} rates, got {len(rates)}")
    return rates


def class_chain(kind, S, *lists) -> ChainSpec:
    """Structured chain of a kind from its rate lists, in the order of RATE_LISTS[kind].

    Each list holds S rates; plain numbers become constant rate functions.
    """
    S = _check_states(S)
    names = RATE_LISTS[kind]
    return ChainSpec(S, kind, **{name: _rate_tuple(values, S, name)
                                 for name, values in zip(names, lists, strict=True)})


def birth_death_chain(S, birth, death) -> ChainSpec:
    """Single-step chain with birth rates birth_0..birth_{S-1} and death rates death_1..death_S."""
    return class_chain("birth_death", S, birth, death)


def batch_birth_chain(S, batch_birth, death) -> ChainSpec:
    """Group births of size k at rate a_k (independent of the state), single deaths."""
    return class_chain("batch_birth", S, batch_birth, death)


def batch_death_chain(S, batch_death, birth) -> ChainSpec:
    """Group deaths of size k at rate b_k (independent of the state), single births."""
    return class_chain("batch_death", S, batch_death, birth)


def batch_both_chain(S, batch_birth, batch_death) -> ChainSpec:
    """Group births at rates a_k and group deaths at rates b_k, all state-independent."""
    return class_chain("batch_both", S, batch_birth, batch_death)


def general_chain(S, transitions) -> ChainSpec:
    """Arbitrary chain from a mapping {(i, j): rate} of off-diagonal intensities."""
    S = _check_states(S)
    table = []
    for (i, j), rate in sorted(transitions.items()):
        i, j = int(i), int(j)
        if not (0 <= i <= S and 0 <= j <= S):
            raise ValueError(f"transition ({i}, {j}) outside states 0..{S}")
        if i == j:
            raise ValueError(f"diagonal transition ({i}, {i}) is not allowed")
        table.append((i, j, as_rate(rate)))
    return ChainSpec(S, "general", transitions=tuple(table))


def _check_states(S) -> int:
    S = int(S)
    if S < 1:
        raise ValueError(f"state bound S must be >= 1, got {S}")
    return S


def physical_memory() -> int:
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(what: str, nbytes: int) -> None:
    """MemoryError, before anything is allocated, if nbytes exceed the physical memory.

    what names the arrays for the message. Asking first makes an oversized
    stack fail the same way on every host, whatever its overcommit setting.
    """
    memory = physical_memory()
    if nbytes > memory:
        raise MemoryError(f"{what} needs {nbytes / 2**30:.4g} GiB, "
                          f"more than the {memory / 2**30:.4g} GiB of physical memory")


# the structured rate lists in the order of their jumps out of one state, and
# the first entry i->j that each list's k-th rate (k = 1..S) drives
_FIRST_JUMPS = {"batch_birth": lambda k: (0, k), "batch_death": lambda k: (k, 0),
                "birth": lambda k: (k - 1, k), "death": lambda k: (k, k - 1)}


def _bits(fn) -> tuple:
    """A key rates share only if they give the same doubles (== joins 0.0 and -0.0)."""
    return fn.kind, np.asarray(fn.params).tobytes()


def eval_generator(spec: ChainSpec, t):
    """Transition-intensity matrix Q(t), the only place a chain's rates are evaluated.

    Each rate list drives its own jumps, and an empty list drives none: out
    of state i, a_k jumps to i+k and b_k to i-k for every size k that stays
    in 0..S, birth_i jumps to i+1 and death_i to i-1; the general kind's
    table lists its entries. Each distinct rate is evaluated once at all of
    t and written in one assignment: a_k along the k-th superdiagonal, b_k
    along the k-th subdiagonal, the birth and death lists stacked along the
    first ones. A negative rate is reported at the first entry it drives,
    the general table in its order, then row by row a_k, b_k, birth, death.

    Parameters
    ----------
    spec : ChainSpec
    t : float or 1d array of floats

    Returns
    -------
    ndarray
        Shape (S+1, S+1) for scalar t, (len(t), S+1, S+1) for array t.
        Off-diagonal entries are the transition intensities; each diagonal
        entry is minus the sum of its row, so rows sum to zero up to
        round-off. A result larger than the machine's physical memory
        raises MemoryError before anything is allocated (:func:`require_memory`).
    """
    ts = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise RateEvaluationError(f"generator requested at non-finite time {t!r}")
    n = spec.S + 1
    shape = ts.shape + (n, n)
    require_memory(f"a generator stack of shape {shape}", 8 * ts.size * n * n)
    Q = np.zeros(shape)
    values = {}  # bit key of a distinct rate -> its values at ts

    def evaluate(key, fn, i, j):
        if key not in values:
            try:
                values[key] = np.asarray(fn(ts))
            except RateEvaluationError as exc:
                raise RateEvaluationError(f"transition {i}->{j}: {exc}") from None
        return values[key]

    for i, j, fn in spec.transitions:
        key = _bits(fn)
        Q[..., i, j] = evaluate(key, fn, i, j)
        values[key] = Q[..., i, j]  # a view: a general chain holds no copy of its rates
    keys = {name: [_bits(fn) for fn in getattr(spec, name)] for name in _FIRST_JUMPS}
    firsts = [(i, rank, k, j, name)
              for rank, (name, first) in enumerate(_FIRST_JUMPS.items())
              for k in range(1, len(keys[name]) + 1) for i, j in [first(k)]]
    for i, _, k, j, name in sorted(firsts):
        evaluate(keys[name][k - 1], getattr(spec, name)[k - 1], i, j)
    idx = np.arange(n)
    for k, key in enumerate(keys["batch_birth"], 1):
        Q[..., idx[:n - k], idx[k:]] = values[key][..., None]  # the k-th superdiagonal
    for k, key in enumerate(keys["batch_death"], 1):
        Q[..., idx[k:], idx[:n - k]] = values[key][..., None]  # the k-th subdiagonal
    for name, rows, cols in (("birth", idx[:-1], idx[1:]), ("death", idx[1:], idx[:-1])):
        if keys[name]:
            Q[..., rows, cols] = np.stack([values[key] for key in keys[name]], axis=-1)
    Q[..., idx, idx] = -Q.sum(axis=-1)
    return Q


@dataclass(frozen=True)
class RegularityViolation:
    """One break of jump-size monotonicity: the size-(k+1) intensity exceeds the size-k one.

    state is the destination of the jumps; direction 'up' refers to jumps
    arriving from below (q_{state-k,state}), 'down' to jumps arriving from
    above (q_{state+k,state}).
    """

    t: float
    state: int
    k: int
    direction: str
    value: float
    next_value: float


@dataclass(frozen=True)
class RegularityReport:
    """Result of the jump-size monotonicity check over a finite time grid."""

    regular: bool
    violations: tuple
    grid: tuple
    caveat: str = ("regularity certified only at the listed grid times; "
                   "behaviour between grid points is not checked")


def check_regularity(Q, grid) -> RegularityReport:
    """Check that arrival intensities are non-increasing in the jump size on a time grid.

    Q holds the generators at the grid times, a (len(grid), S+1, S+1)
    stack as :func:`eval_generator` returns it. For every grid time and
    every state i, both families of intensities into i - q_{i-k,i}(t) from
    below and q_{i+k,i}(t) from above - must be non-increasing in k
    (non-strictly). Violations are collected and reported, never raised.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("regularity check needs a non-empty time grid")
    Qs = np.asarray(Q, dtype=float)
    if Qs.shape[:-2] != grid.shape:
        raise ValueError(f"need one generator per grid time, got {Qs.shape} for {grid.size}")
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


def evaluation_times(spec: ChainSpec, ts):
    """The times of the grid ts at which a chain's matrices must be evaluated.

    A homogeneous chain's generator, and every matrix derived from it, is
    the same at all times, so it is evaluated at ts[:1] only; anything
    computed there extends to the grid as np.broadcast_to(x, ts.shape +
    x.shape[1:]), a view without copies. A time-varying chain needs all of
    ts.
    """
    ts = np.asarray(ts, dtype=float)
    return ts[:1] if spec.is_homogeneous else ts


def require_homogeneous(spec: ChainSpec, what: str) -> None:
    """Raise :class:`InhomogeneousChainError` unless all rates are constant."""
    if not spec.is_homogeneous:
        raise InhomogeneousChainError(f"{what} requires constant rates, "
                                      f"but the chain is time-varying")
