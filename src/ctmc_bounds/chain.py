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
distinct rate once over all the times a command needs, and the table writes
Q for any slice of those times. :func:`check_regularity` compares the rates
in the table, not the entries of Q.
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
# the first entry i->j that each list's k-th rate (k = 1..S) drives
_FIRST_JUMPS = {"batch_birth": lambda k: (0, k), "batch_death": lambda k: (k, 0),
                "birth": lambda k: (k - 1, k), "death": lambda k: (k, k - 1)}


def _bits(fn) -> tuple:
    """A key rates share only if they give the same doubles (== joins 0.0 and -0.0)."""
    return fn.kind, np.asarray(fn.params).tobytes()


@dataclass(frozen=True, eq=False)
class RateTable:
    """A chain's distinct rates over a grid of times, and the entries of Q that read them.

    values[..., r] holds the r-th distinct rate at every time of times: a
    (T, R) table, R at most 2S for the structured kinds. Each off-diagonal
    entry of Q is a column of it or zero. diagonals lists, one diagonal of Q
    at a time, (offset j - i, rows i, columns j ascending, table columns):
    one table column for a whole batch diagonal, one per entry otherwise.

    The table stands for the generator stack it writes, (T, S+1, S+1) as
    shape and len give it: table[s] writes Q at times[s], so
    :func:`ctmc_bounds.transform.scan_transform` reads the table a slice of
    times at a time, and table[...] writes the whole stack where a system
    runs on it, as the forward system of the coupling trials does.
    """

    S: int
    times: np.ndarray
    values: np.ndarray
    diagonals: tuple

    @property
    def shape(self) -> tuple:
        return self.times.shape + (self.S + 1, self.S + 1)

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
        values = self.values[s]
        shape = values.shape[:-1] + (self.S + 1, self.S + 1)
        require_memory(f"a generator stack of shape {shape}", 8 * math.prod(shape))
        Q = np.zeros(shape)
        for _, rows, cols, columns in self.diagonals:
            Q[..., rows, cols] = values[..., columns]
        idx = np.arange(self.S + 1)
        Q[..., idx, idx] = -Q.sum(axis=-1)
        return Q


def rate_table(spec: ChainSpec, t) -> RateTable:
    """The chain's :class:`RateTable` at t, the only place a chain's rates are evaluated.

    Each rate list drives its own jumps, and an empty list drives none: out
    of state i, a_k jumps to i+k and b_k to i-k for every size k that stays
    in 0..S, birth_i jumps to i+1 and death_i to i-1; the general kind's
    table lists its entries. Each distinct rate is evaluated once at all of
    t into one column: a_k drives the k-th superdiagonal, b_k the k-th
    subdiagonal, the birth and death lists the first ones. A negative rate
    is reported at the first entry it drives, the general table in its
    order, then row by row a_k, b_k, birth, death. t is a float or a 1d
    array of floats; a table larger than the machine's physical memory
    raises MemoryError before it is allocated.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise RateEvaluationError(f"generator requested at non-finite time {t!r}")
    first = {}  # bit key of a distinct rate -> (rate, the first entry i->j it drives)
    general = [(i, j, _bits(fn), fn) for i, j, fn in spec.transitions]
    for i, j, key, fn in general:
        first.setdefault(key, (fn, i, j))
    keys = {name: [_bits(fn) for fn in getattr(spec, name)] for name in _FIRST_JUMPS}
    firsts = [(i, rank, k, j, name)
              for rank, (name, jump) in enumerate(_FIRST_JUMPS.items())
              for k in range(1, len(keys[name]) + 1) for i, j in [jump(k)]]
    for i, _, k, j, name in sorted(firsts):
        first.setdefault(keys[name][k - 1], (getattr(spec, name)[k - 1], i, j))
    shape = ts.shape + (len(first),)
    require_memory(f"a rate table of shape {shape}", 8 * math.prod(shape))
    values = np.empty(shape)
    column = {key: r for r, key in enumerate(first)}
    for r, (fn, i, j) in enumerate(first.values()):
        try:
            values[..., r] = fn(ts)
        except RateEvaluationError as exc:
            raise RateEvaluationError(f"transition {i}->{j}: {exc}") from None

    diagonals = []
    if general:
        i, j, c = np.array([(i, j, column[key]) for i, j, key, _ in general], dtype=np.intp).T
        order = np.lexsort((j, j - i))  # by offset, then by column
        cuts = np.flatnonzero(np.diff((j - i)[order])) + 1
        diagonals += [(int(cols[0] - rows[0]), rows, cols, cs) for rows, cols, cs in
                      zip(*(np.split(x[order], cuts) for x in (i, j, c)))]
    if any(keys.values()):
        n = spec.S + 1
        idx = np.arange(n)
        one = lambda key: np.array([column[key]])
        diagonals += [(k, idx[:n - k], idx[k:], one(key))
                      for k, key in enumerate(keys["batch_birth"], 1)]
        diagonals += [(-k, idx[k:], idx[:n - k], one(key))
                      for k, key in enumerate(keys["batch_death"], 1)]
        for name, k, rows, cols in (("birth", 1, idx[:-1], idx[1:]),
                                    ("death", -1, idx[1:], idx[:-1])):
            if keys[name]:
                diagonals.append((k, rows, cols, np.array([column[key] for key in keys[name]])))
    return RateTable(spec.S, ts, values, tuple(diagonals))


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
    size k in its column, a table column or zero: each distinct pair of
    table columns once over all times, about 2S pairs for the batch kinds,
    and a broken pair is expanded into the entries where it occurs. An
    entry that is zero at size k+1 never breaks the order, since rates are
    non-negative.
    """
    grid = np.atleast_1d(table.times)
    if grid.size == 0:
        raise ValueError("regularity check needs a non-empty time grid")
    V = table.values.reshape(grid.size, -1)
    zero = V.shape[1]  # the column index that stands for an absent entry
    by_offset = {d: (cols, cs) for d, _, cols, cs in table.diagonals}
    whole = []  # (pair, diagonal): one pair of columns along a whole diagonal
    keys, owners, positions = [], [], []  # pairs entry by entry, on the other diagonals
    for n, (d, _, cols, cs) in enumerate(table.diagonals):
        if abs(d) < 2:
            continue
        # in each column j of Q, the entry one jump size nearer the diagonal, or zero
        near = d - 1 if d > 0 else d + 1
        near_cols, near_cs = by_offset.get(near, (None, [zero]))
        if len(near_cs) == 1 and (near_cols is None or len(near_cols) == table.S + 1 - abs(near)):
            a = near_cs  # one column, or zero, all along the nearer diagonal
        else:
            at = np.minimum(np.searchsorted(near_cols, cols), len(near_cols) - 1)
            a = np.where(near_cols[at] == cols, np.broadcast_to(near_cs, near_cols.shape)[at], zero)
        if len(a) == len(cs) == 1:
            whole.append((int(a[0]) * (zero + 1) + int(cs[0]), n))
        else:
            keys.append(a * (zero + 1) + cs)
            owners.append(np.full(len(cols), n))
            positions.append(np.arange(len(cols)))
    violations = []
    if whole or keys:
        pairs, pair_of = np.unique(np.concatenate([[key for key, _ in whole], *keys]).astype(int),
                                   return_inverse=True)
        owners = np.concatenate([[n for _, n in whole], *owners]).astype(int)
        positions = np.concatenate([[-1] * len(whole), *positions]).astype(int)
        a, b = np.divmod(pairs, zero + 1)
        value = V[:, np.minimum(a, zero - 1)]
        value[:, a == zero] = 0.0
        next_value = V[:, b]
        broken = next_value > value
        for p in np.flatnonzero(broken.any(axis=0)):
            for e in np.flatnonzero(pair_of == p):
                d, _, cols, _ = table.diagonals[owners[e]]
                for ti in np.flatnonzero(broken[:, p]):
                    for j in (cols if positions[e] < 0 else cols[positions[e]:positions[e] + 1]):
                        v = RegularityViolation(
                            t=float(grid[ti]), state=int(j), k=abs(d) - 1,
                            direction="up" if d > 0 else "down",
                            value=float(value[ti, p]), next_value=float(next_value[ti, p]))
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
