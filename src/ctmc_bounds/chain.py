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

The generator is assembled in two steps: :func:`rate_table` evaluates each
distinct rate once over all the times a command needs, and an (S+1, S+1)
index names the table column each entry of Q reads, so the table writes Q
for any slice of those times by one gather. :func:`check_regularity`
compares the rates the index names, not the entries of Q.
"""

from __future__ import annotations

import dataclasses
import math
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
# the run of entries i->j, i+1->j+1, ... (count of them) that each list's
# k-th rate (k = 1..S) drives in a chain of n = S+1 states
_RUNS = {"batch_birth": lambda k, n: (0, k, n - k), "batch_death": lambda k, n: (k, 0, n - k),
         "birth": lambda k, n: (k - 1, k, 1), "death": lambda k, n: (k, k - 1, 1)}


def _bits(fn) -> tuple:
    """A key rates share only if they give the same doubles (== joins 0.0 and -0.0)."""
    return fn.kind, np.asarray(fn.params).tobytes()


@dataclass(frozen=True, eq=False)
class RateTable:
    """A chain's distinct rates over a grid of times, and the entries of Q that read them.

    values[..., r] holds the r-th distinct rate at every time of times: a
    (T, R+1) table, R at most 2S for the structured kinds, whose last
    column holds zeros. index is the (S+1, S+1) array of the table column
    each entry of Q reads: a rate, or the zero column for the diagonal and
    every absent entry.

    The table stands for the generator stack it writes, (T, S+1, S+1) as
    shape and len give it: table[s] writes Q at times[s], so
    :func:`ctmc_bounds.transform.scan_transform` reads the table a slice of
    times at a time, as the RK4 scans of :func:`ctmc_bounds.odesolve.solve`
    read it a chunk of steps at a time, and table[...] writes the whole
    stack, as :func:`eval_generator` does. The verifiers' scans read the
    transpose, written by :meth:`forward`.
    """

    S: int
    times: np.ndarray
    values: np.ndarray
    index: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.times.shape + self.index.shape

    def __len__(self) -> int:
        return len(self.times)

    def at(self, s) -> "RateTable":
        """The table at times[s], a view of these values."""
        return dataclasses.replace(self, times=self.times[s], values=self.values[s])

    def __getitem__(self, s):
        """Q at times[s], written from the table, bit for bit as a whole stack's slice.

        A result larger than the machine's physical memory raises
        MemoryError before anything is allocated (:func:`require_memory`).
        """
        Q = self._gather(s, self.index)
        idx = np.arange(self.S + 1)
        Q[..., idx, idx] = -Q.sum(axis=-1)
        return Q

    def forward(self, s, out=None):
        """A = Q^T at times[s] in C order, the forward system's matrices, into out if given.

        The one gather writes the transposed entries, so no strided view of
        Q reaches the products; out is a C-ordered stack of that shape. The
        diagonal, minus the column sums, is one product with a row of ones:
        numpy's sum over the second-last axis takes several times as long.
        """
        A = self._gather(s, self.index.T, out)
        idx = np.arange(self.S + 1)
        A[..., idx, idx] = -np.matmul(np.ones(self.S + 1), A)
        return A

    def _gather(self, s, index, out=None):
        values = self.values[s]
        if out is None:
            shape = values.shape[:-1] + self.index.shape
            require_memory(f"a generator stack of shape {shape}", 8 * math.prod(shape))
        # every index names a column of values; "clip" spares take a buffered copy into out
        return np.take(values, index, axis=-1, out=out, mode="clip")


def rate_table(spec: ChainSpec, t) -> RateTable:
    """The chain's :class:`RateTable` at t, the only place a chain's rates are evaluated.

    Each rate list drives its own jumps, and an empty list drives none: out
    of state i, a_k jumps to i+k and b_k to i-k for every size k that stays
    in 0..S, birth_i jumps to i+1 and death_i to i-1; the general kind's
    table lists its entries. Each distinct rate is evaluated once at all of
    t into one column, and a last column of zeros follows them. A negative
    rate is reported at the first entry it drives, the general table in its
    order, then row by row a_k, b_k, birth, death. t is a float or a 1d
    array of floats; a table, or an index of Q, larger than the machine's
    physical memory raises MemoryError before it is allocated, the index
    after the rates are evaluated.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise RateEvaluationError(f"generator requested at non-finite time {t!r}")
    n = spec.S + 1
    # (i, j, count, rate): the run of entries that a rate drives, first entries in report order
    runs = [(i, j, 1, fn) for i, j, fn in spec.transitions]
    runs += sorted(((*run(k, n), fn) for name, run in _RUNS.items()
                    for k, fn in enumerate(getattr(spec, name), 1)), key=lambda run: run[0])
    first = {}  # bit key of a rate -> (its column, the rate, the first entry i->j it drives)
    columns = []  # the column of each run's rate
    for i, j, _, fn in runs:
        columns.append(first.setdefault(_bits(fn), (len(first), fn, i, j))[0])
    shape = ts.shape + (len(first) + 1,)
    require_memory(f"a rate table of shape {shape}", 8 * math.prod(shape))
    values = np.zeros(shape)
    for r, fn, i, j in first.values():
        try:
            values[..., r] = fn(ts)
        except RateEvaluationError as exc:
            raise RateEvaluationError(f"transition {i}->{j}: {exc}") from None

    require_memory(f"an index of shape {(n, n)}", np.dtype(np.intp).itemsize * n * n)
    index = np.full((n, n), len(first), dtype=np.intp)
    flat = index.reshape(-1)
    singles = [(i * n + j, c) for (i, j, count, _), c in zip(runs, columns) if count == 1]
    at, c = np.array(singles, dtype=np.intp).reshape(-1, 2).T
    flat[at] = c  # one write for the entries that a rate drives alone
    for (i, j, count, _), c in zip(runs, columns):
        if count > 1:
            flat[i * n + j::n + 1][:count] = c
    return RateTable(spec.S, ts, values, index)


def eval_generator(spec: ChainSpec, t):
    """Transition-intensity matrix Q(t), written whole from the chain's :func:`rate_table`.

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
    return rate_table(spec, t)[...]


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


def check_regularity(table: RateTable) -> RegularityReport:
    """Check that arrival intensities are non-increasing in the jump size on a time grid.

    table holds the chain's rates at the grid times, as :func:`rate_table`
    returns it. For every grid time and every state i, both families of
    intensities into i - q_{i-k,i}(t) from below and q_{i+k,i}(t) from
    above - must be non-increasing in k (non-strictly). Violations are
    collected and reported, never raised.

    Each entry of Q at jump size k+1 >= 2 is compared with the entry at
    size k in its column, both read off the table's index: each distinct
    pair of table columns once over all times, about 2S pairs for the batch
    kinds, and a broken pair is expanded into the entries where it occurs.
    An absent entry reads the zero column, and one at size k+1 is skipped:
    it never breaks the order, since rates are non-negative.
    """
    grid = np.atleast_1d(table.times)
    if grid.size == 0:
        raise ValueError("regularity check needs a non-empty time grid")
    V = table.values.reshape(grid.size, -1)
    zero = V.shape[1] - 1  # the column of zeros
    i, j = np.nonzero(table.index != zero)
    far = abs(j - i) >= 2
    i, j = i[far], j[far]
    near = table.index[i + np.sign(j - i), j]  # one jump size nearer the diagonal
    pairs, pair_of = np.unique(near * (zero + 1) + table.index[i, j], return_inverse=True)
    a, b = np.divmod(pairs, zero + 1)
    broken = V[:, b] > V[:, a]
    violations = []
    for p in np.flatnonzero(broken.any(axis=0)):
        for e in np.flatnonzero(pair_of == p):
            for ti in np.flatnonzero(broken[:, p]):
                v = RegularityViolation(
                    t=float(grid[ti]), state=int(j[e]), k=int(abs(j[e] - i[e])) - 1,
                    direction="up" if j[e] > i[e] else "down",
                    value=float(V[ti, a[p]]), next_value=float(V[ti, b[p]]))
                violations.append(((v.t, v.state, v.direction, v.k, ti), v))
    violations.sort(key=lambda v: v[0])
    return RegularityReport(regular=not violations, violations=tuple(v for _, v in violations),
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
