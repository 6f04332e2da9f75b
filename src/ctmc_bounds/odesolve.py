"""Fixed-step integration of the chain dynamics and envelope verification.

Three linear systems are integrated with classical fixed-step RK4:

``forward``      p' = A(t) p       on the S+1 state probabilities
``reduced_hom``  y' = B(t) y       the reduced homogeneous-in-y system
``transformed``  w' = B**(t) w     the weighted transformed system

One engine, :func:`_rk4_scan`, integrates all of them in chunks of c steps
and checks each chunk for blow-up at once. A constant system has a single
one-step RK4 operator R (x_{k+1} = R x_k), whose powers R^1..R^c are
formed once, so each chunk is one batched product. On a time-varying
system, a square state such as the identity crosses a chunk on its c
one-step operators R_k, which the system forms at once by batched matrix
products (:meth:`_System.operators`), with one product per step; narrower
states, vectors or a few columns, take the RK4 stages directly. Each
increment R_k - I is formed from the stages K2 = Mm (I + h/2 M0),
K3 = Mm (I + h/2 K2) and K4 = M1 (I + h K3), the identity added to the
diagonal of each right factor, and summed in place. The operators and the
states are written into one buffer each, kept from chunk to chunk, so no
chunk allocates either anew.

Every system is written from one :func:`ctmc_bounds.chain.rate_table` by
one chunked writer, :class:`_System`, which writes A(t) = Q(t)^T, B(t) or
B**(t) for a chunk of steps as the engine reads it. :func:`solve` runs the
engine on it from the caller's initial vector, so it holds no whole-time
Q, B or B**: its only whole-time arrays are the table and the states.

Both verifiers start from one set-up on the halved grid: the rate table,
evaluated once, and the envelopes, whose column sums
:func:`ctmc_bounds.transform.scan_transform` takes from B**(t) a slice of
times at a time, or :func:`ctmc_bounds.bounds.column_sum_extremes` from
the three diagonals of a tridiagonal B*(t), as a birth-death chain's is;
the scan stays dense. One identity scan of steps h then carries the
verifiers a chunk at a time, on the forward writer :class:`_Forward`: each
chunk writes its 4m+1 generators A = Q^T of the halved grid once, in C
order, and forms from them the increments of each step taken as two fused
RK4 steps of h/2 and as one of h. The scan runs in the coordinates
(1^T p, L p), P = [1^T; L] with the weighted tail sums L: the writer maps
each forward increment K = R - I to P K P^-1 (RK4 commutes with the
constant change of variables), whose lower-right block L K Rt is the
increment of B**. So the scan state is a stack of two members, each
started from the identity, over steps of h/2 and of h, whose lower-right
blocks are the transformed propagators H_k and G_k that both verifiers
read; P^-1 X_k P, X_k the step-h member, is the forward propagator
Phi_k, whose entries the coupling verifier checks. Every trajectory is a
propagator applied to its start, so the worst ratio to the envelopes over
every start at a grid time is a norm or a column sum of that time's
propagator: each verdict is exact per time, with no random starts. The
distance to the step-h/2 propagator gives each time its own integrator
margin. No whole-time Q, B or B** stack is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (NonFiniteBoundError, check_horizon, column_sum_extremes, envelope,
                     write_csv)
from .chain import ChainSpec, RateTable, evaluation_times, rate_table, require_memory
from .transform import build_reduced, to_bstar, validate_weights

SYSTEMS = ("forward", "reduced_hom", "transformed")

MAX_STATE = 1e12          # blow-up guard threshold
VIOLATION_CAP = 100       # violations stored per report (the count is exact)
CHUNK_STEPS = 32          # RK4 steps per chunk of the scan
SCAN_MATRICES = 12        # (S+1) x (S+1) matrices a step that the verification scan holds at most
FIXED_MATRICES = 5        # and once a run: the table's index, P, P^-1, I, a chunk's last generator


class OdeBlowUpError(RuntimeError):
    """A trajectory left the finite range; the model is likely mis-specified."""


@dataclass(frozen=True)
class Trajectory:
    """States on a uniform time grid, tagged with their coordinate system.

    coords is 'p' (probabilities, dimension S+1), 'y' (reduced coordinates,
    dimension S) or 'w' (weighted transformed coordinates, dimension S).
    """

    grid: np.ndarray
    states: np.ndarray
    coords: str


_COORDS = {"forward": "p", "reduced_hom": "y", "transformed": "w"}


def _weight_vector(weights, S):
    return np.ones(S) if weights is None else validate_weights(weights, S)


class _System:
    """The coefficient matrices of one system, written from a rate table a chunk at a time.

    Indexed by a slice of times, writes A = Q^T, B or B** = D B* D^{-1}
    (d the weights) at those times from the table alone, so a scan over it
    holds no whole-time stack. :meth:`operators` gives the scan the one-step
    RK4 operators of a chunk.
    """

    def __init__(self, table: RateTable, d, system="forward"):
        self.table, self.system, self.ops = table, system, None
        if system == "transformed":
            self.ratio = d[:, None] / d[None, :]

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, s):
        if self.system == "forward":
            return np.swapaxes(self.table[s], -1, -2)
        M = build_reduced(self.table[s])
        if self.system == "transformed":
            M = to_bstar(M)
            M *= self.ratio
        return M

    def operators(self, k, m, h):
        """I + the RK4 increments of steps k..k+m-1 of h, a stack of m matrices.

        The matrices are at spacing h/2, so the chunk reads 2m+1 of them, or
        a constant system's one.
        """
        A = self[2 * k: 2 * (k + m) + 1]
        R = self._buffer((m,) + A.shape[1:])
        return _add_identity(_increments(*_stages(A, 1, 2), h, out=R))

    def _buffer(self, shape):
        """An empty (..., m, rows, columns) view of one buffer kept from chunk to chunk."""
        if self.ops is None or self.ops.shape[-3] < shape[-3]:
            self.ops = np.empty(shape)
        return self.ops[..., :shape[-3], :, :]


def _stages(A, s, stride):
    """(M0, Mm, M1) of the steps that span 2s spacings of A and start every stride spacings.

    They are the matrices at the start, the midpoint and the end of each
    step; a constant system's one matrix serves all three.
    """
    return (A, A, A) if len(A) == 1 else (A[0:-1:stride], A[s::stride], A[2 * s::stride])


def _increments(M0, Mm, M1, h, out=None):
    """R - I of the one-step RK4 operators R = I + h/6 (M0 + 2 (K2 + K3) + K4) of matrix stacks.

    M0, Mm and M1 hold the coefficient matrix at the start, the midpoint and
    the end of each step. K2 = Mm (I + h/2 M0), K3 = Mm (I + h/2 K2) and
    K4 = M1 (I + h K3) map x to the RK4 stages, so R x is one RK4 step of x,
    with the stages' own roundings: I plus the result is one stage-by-stage
    step of the identity. Each right factor is a scaled stack with one
    added to its diagonal, in one buffer, and the sum is taken in place, in
    out if given, with one more buffer for K3 and then K4.
    """
    P = np.multiply(M0, 0.5 * h)
    R = np.matmul(Mm, _add_identity(P), out=out)
    K = np.matmul(Mm, _add_identity(np.multiply(R, 0.5 * h, out=P)))
    R += K
    np.matmul(M1, _add_identity(np.multiply(K, h, out=P)), out=K)
    R *= 2.0
    R += M0
    R += K
    R *= h / 6.0
    return R


def _fused(K1, K2, out=None):
    """K1 + K2 + K2 K1, the increment of (I + K2)(I + K1), for stacks of increments.

    Two steps taken as one operator this way need one product, not the two
    of forming both operators and their product. K1 is overwritten; the
    result goes to out if given.
    """
    K = np.matmul(K2, K1, out=out)
    K1 += K2
    K += K1
    return K


def _add_identity(R):
    """R + I for each square matrix of a stack, in place; returns R."""
    diagonal = np.einsum("...ii->...i", R)  # a writeable view
    diagonal += 1.0
    return R


def _rk4_step(M0, Mm, M1, h, x):
    """One classical RK4 step of h from x, one stage at a time."""
    k1 = M0 @ x
    k2 = Mm @ (x + (0.5 * h) * k1)
    k3 = Mm @ (x + (0.5 * h) * k2)
    k4 = M1 @ (x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _rk4_scan(system, n, h, x0):
    """Yield (k, states): the RK4 states x_k, x_{k+1}, ... of n steps of h from x0.

    The first chunk is (0, x0[None]); the others hold up to CHUNK_STEPS
    consecutive states each. system is a :class:`_System`, whose
    :meth:`_System.operators` give I plus the increment K = R - I of each
    step of a chunk; the narrow path below reads its slices, the
    coefficient matrix at spacing h/2 (2n+1 matrices), so every stage time
    is on the grid, or one matrix for a constant system. States may be
    vectors, column batches or a stack of square matrices, each member
    taking the products it would take alone; started from the identity,
    the scan yields the propagators. The operators of :class:`_Forward`
    carry a stack of two members, each its own system.

    The chunks are written into one buffer kept from chunk to chunk, so a
    yielded chunk holds until the next one is asked for: callers copy what
    they keep. The next chunk's first product reads the last state in place.

    A constant system has one operator R; each chunk is one product with
    its powers R^1..R^c, or one product with R a step if a power
    overflows. On a time-varying system, a state with at least as many
    columns as rows (the identity, or a stack of square matrices) crosses
    a chunk on its one-step operators R_k, formed at once. A narrower
    state takes the RK4 stages directly, O(S^2) a step instead of the
    O(S^3) of forming R_k.

    Raises OdeBlowUpError at the first state beyond MAX_STATE in magnitude
    or not finite, over every member; the check runs once per chunk.
    """
    x = np.asarray(x0, dtype=float)
    yield 0, x[None]
    c = CHUNK_STEPS
    wide = x.ndim >= 2 and x.shape[-1] >= x.shape[-2]
    powers = None
    # overflow is left to the guard, which names the first state it reaches
    with np.errstate(over="ignore", invalid="ignore"):
        if len(system) == 1:
            R = system.operators(0, 1, h)[..., 0, :, :]
            powers = np.empty((min(c, n),) + R.shape)
            powers[0] = R
            for i in range(1, len(powers)):
                np.matmul(R, powers[i - 1], out=powers[i])
            if not np.isfinite(powers).all():
                # an overflowing power times a zero entry of the state would
                # be NaN; stepping meets only the states themselves
                powers = None
    buffer = np.empty((min(c, n),) + x.shape)
    for k in range(0, n, c):
        m = min(c, n - k)
        states = buffer[:m]
        with np.errstate(over="ignore", invalid="ignore"):
            if powers is not None:
                np.matmul(powers[:m], x, out=states)
            elif len(system) == 1:
                for i in range(m):
                    x = np.matmul(R, x, out=states[i])
            elif wide:
                R = system.operators(k, m, h)
                for i in range(m):
                    x = np.matmul(R[..., i, :, :], x, out=states[i])
            else:
                A = system[2 * k: 2 * (k + m) + 1]
                for i in range(m):
                    x = states[i] = _rk4_step(A[2 * i], A[2 * i + 1], A[2 * i + 2], h, x)
            _guard(states, k + 1, h)
        x = states[-1]
        yield k + 1, states


def _guard(states, k, h):
    """OdeBlowUpError at the first of the states x_k, x_{k+1}, ... not within MAX_STATE."""
    if not states.size or (states.max() <= MAX_STATE and states.min() >= -MAX_STATE):
        return
    peaks = np.abs(states.reshape(len(states), -1)).max(axis=1)
    i = int(np.argmax(~(peaks <= MAX_STATE)))
    t, peak = (k + i) * h, float(peaks[i])
    if not math.isfinite(peak):
        raise OdeBlowUpError(f"state at t={t} is not finite")
    raise OdeBlowUpError(f"state magnitude {peak} at t={t} exceeds {MAX_STATE}")


def solve(system: str, spec: ChainSpec, x0, tmax: float, n_steps: int,
          weights=None) -> Trajectory:
    """Integrate one of the chain systems from x0 over [0, tmax].

    Parameters
    ----------
    system : {'forward', 'reduced_hom', 'transformed'}
    spec : ChainSpec
    x0 : array_like
        Initial vector of the system dimension (S+1 for forward, S
        otherwise); a (dim, m) column batch integrates m trajectories at
        once.
    tmax : float
    n_steps : int
        Number of fixed RK4 steps (>= 1); the grid has n_steps+1 points.
    weights : (S,) array_like, optional
        Positive weights for the transformed system; defaults to ones.

    Raises
    ------
    OdeBlowUpError
        If a state exceeds 1e12 in magnitude or becomes non-finite, as it
        does where the rates exceed the double-precision range.
    MemoryError
        Before anything is allocated, if the states, (n_steps+1,) +
        x0.shape doubles, or the rate table exceed the machine's physical
        memory. The matrices of the system are written from the table a
        chunk of steps at a time, so no whole-time Q, B or B** is formed.
    """
    tmax, n = check_horizon(tmax, n_steps)
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")
    dim = spec.S + 1 if system == "forward" else spec.S
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[0] != dim:
        raise ValueError(f"initial state for {system!r} must have leading "
                         f"dimension {dim}, got shape {x0.shape}")
    d = _weight_vector(weights, spec.S)
    shape = (n + 1,) + x0.shape
    require_memory(f"states of shape {shape}", 8 * math.prod(shape))
    ts = np.linspace(0.0, tmax, 2 * n + 1)
    mats = _System(rate_table(spec, evaluation_times(spec, ts)), d, system)
    states = np.empty(shape)
    for k, chunk in _rk4_scan(mats, n, tmax / n, x0):
        states[k:k + len(chunk)] = chunk
    return Trajectory(grid=ts[::2], states=states, coords=_COORDS[system])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an envelope verification run, judged at every grid time over every start.

    ratio_upper_max holds, at each time t_k of the step grid, the largest
    ratio ||w(t_k)|| / (env_up(t_k) ||w(0)||) over every initial vector:
    the induced l1 norm of the transformed RK4 propagator G_k over
    env_up(t_k), for the coupling kind too, since the forward propagator
    maps every difference of distributions to the transformed coordinates
    by G_k (:func:`verify_convergence_coupling`). ratio_lower_min (bounds
    kind only) holds the smallest lower-envelope ratio over every
    non-negative initial vector: the smallest column sum of G_k over
    env_lo(t_k). worst_upper and worst_lower are their extremes.

    Each ratio is judged with its own time's integrator margin, twice the
    step-halving divergence of G_k: a violation is recorded only where the
    ratio lies beyond 1 +/- (slack + quadrature margin) by more than that
    margin over the envelope. integrator_margin is the largest such margin
    relative to its ratio, and slack_total = slack + integrator_margin +
    quadrature_margin the widest per-time band. violations holds (phase,
    t, value) triples, the envelope violations ordered by t and then that
    of the probability check, at most VIOLATION_CAP in all; n_violations
    counts them all. The coupling kind also checks every forward
    propagator: its smallest entry (prob_min), the worst case over every
    initial distribution, is recorded once, at its worst time, if below
    -1e-12.
    """

    kind: str
    passed: bool
    tmax: float
    n_steps: int
    slack: float
    integrator_margin: float
    quadrature_margin: float
    slack_total: float
    worst_upper: float
    worst_lower: float | None
    n_violations: int
    violations: tuple
    grid: np.ndarray
    ratio_upper_max: np.ndarray
    ratio_lower_min: np.ndarray | None = None
    prob_min: float | None = None


class _Forward(_System):
    """The forward :class:`_System` of the verification scan, whose operators carry two members.

    Its slices write the forward matrices A = Q^T in C order into one
    buffer kept from slice to slice, at spacing h/4 for steps of h. Its
    :meth:`operators` form, from the 4m+1 matrices of a chunk written
    once, the forward increments of two fused RK4 steps of h/2 and of one
    step of h, and map each to the coordinates (1^T p, L p)
    (:meth:`increments`), with P and P^-1 of :func:`_tail_sum_maps`.
    """

    def __init__(self, table: RateTable, d):
        super().__init__(table, d)
        self.maps = _tail_sum_maps(d)
        self.buffer = np.empty((0,) + table.index.shape)
        self.last, self.stop = self.buffer, 0

    def __getitem__(self, s):
        start, stop, _ = s.indices(len(self))
        if len(self.buffer) < stop - start:
            self.buffer = np.empty((stop - start,) + self.buffer.shape[1:])
        A = self.buffer[:stop - start]
        # a chunk starts where the last one ended: that matrix is moved, not written again
        kept = int(start == self.stop - 1)
        if kept:
            A[0] = self.last[-1]
        self.table.forward(np.s_[start + kept:stop], out=A[kept:])
        self.last, self.stop = A, stop
        return A

    def operators(self, k, m, h):
        """I + the increments of steps k..k+m-1 of h for the two members, a (2, m) stack.

        The members are the system in the coordinates (1^T p, L p) over two
        fused RK4 steps of h/2 (:func:`_fused`) and over one step of h; both
        read the chunk's 4m+1 matrices, or a constant system's one. The
        forward increments are written into the operators' buffer and
        mapped there.
        """
        A = self[4 * k: 4 * (k + m) + 1]
        R = self._buffer((2, m) + A.shape[1:])
        # the first and the second half steps, one set at a time, which halves their temporaries
        first = _increments(*_stages(A, 1, 4), 0.5 * h, out=R[1])
        _fused(first, _increments(*_stages(A[2:], 1, 4), 0.5 * h) if len(A) > 1 else first, R[0])
        _increments(*_stages(A, 2, 4), h, out=R[1])
        return _add_identity(self.increments(R, R))

    def increments(self, K, out):
        """P K P^-1 of forward increments K, written into out, which may be K itself.

        With P = [1^T; L] and P^-1 = [e0 | Rt] of :func:`_tail_sum_maps`,
        the first row, 1^T K, is zero, so every state keeps the first row of
        the identity; the first column is L K e0, and the lower-right
        S x S block L K Rt = D T (K[1:, 1:] - K[1:, 0] 1^T) T^{-1} D^{-1} is
        the increment of B**. On the mass-free subspace the forward system
        is the reduced one, and RK4 commutes with the constant changes of
        variables to B**. Mapping the increment K, rather than R or the
        propagators, keeps the forward system's round-off in the
        probability mass, which it never damps, out of the transformed
        block; K of two fused steps maps to the fused increment, since
        1^T K = 0.
        """
        P, P_inv = self.maps
        left = P[1:]
        right = _right_product(K, P_inv[:, 1:])
        out[..., 1:, :1] = np.matmul(left, K[..., :1])
        out[..., 0, :] = 0.0
        np.matmul(left, right, out=out[..., 1:, 1:])
        return out


def _right_product(K, right):
    """K @ right for a stack of matrices K, as one product."""
    return np.matmul(K.reshape(-1, K.shape[-1]), right).reshape(K.shape[:-1] + (-1,))


def _propagators(scan, n, h):
    """Yield (k, X): RK4 propagators from 0 to t_k, t_{k+1}, ... in chunks, two members a time.

    One scan of n steps of h over the forward writer scan, a
    :class:`_Forward`, from two identities, carries two (S+1, S+1) members
    in the coordinates (1^T p, L p): X[i, 0] and X[i, 1] propagate to
    t_{k+i} = (k+i) h with steps h/2 and h. Each is P M P^-1 of a
    forward propagator M, so its first row is e0^T, its first column below
    the corner c = L M e0, and its lower-right block the propagator of the
    transformed system w' = B**(t) w with the scan's weights; the forward
    propagator is P^-1 X[i, j] P. The writer turns its rates at spacing
    h/4 (or at one time) into A a chunk of steps at a time, so no
    whole-time stack is formed. The chunks are the scan's own, valid
    until the next one is asked for.
    """
    S1 = scan.table.S + 1
    return _rk4_scan(scan, n, h, np.broadcast_to(np.eye(S1), (2, S1, S1)))


def _tail_sum_maps(d):
    """(P, P^-1) of the coordinates (1^T p, L p): P = [1^T; L] and P^-1 = [e0 | Rt].

    L = D T [0 | I] maps p to the weighted tail sums of p[1:], and
    Rt = [-1^T; I] T^{-1} D^{-1} maps them back to the mass-free p, so
    L Rt = I, L e0 = 0 and 1^T Rt = 0. T is the tail-sum matrix of
    :func:`ctmc_bounds.transform.to_bstar` and D the weights.
    """
    scale = np.concatenate([[1.0], d])
    # column j+1 of K P^-1 is (K[:, j+1] - K[:, j]) / d_j
    return (np.triu(np.ones((len(scale), len(scale)))) * scale[:, None],
            (np.eye(len(scale)) - np.eye(len(scale), k=1)) / scale)


def _l1_norms(M):
    """Induced l1 norm, the largest absolute column sum, of each matrix of a stack."""
    return _column_sums(np.abs(M)).max(axis=-1)


def _column_sums(M):
    """The column sums of each matrix of a stack, as one product with a row of ones.

    numpy's sum over the second-last axis takes several times as long.
    """
    return np.matmul(np.ones(M.shape[-2]), M)


@dataclass(frozen=True)
class _Setup:
    """What both verifiers share: the step grid, the rate table and the envelopes."""

    d: np.ndarray
    tmax: float
    n: int
    h: float
    ts_fine: np.ndarray     # halved grid, 4n+1 points; the step grid is ts_fine[::4]
    table: RateTable        # the rates at evaluation_times(spec, ts_fine)
    env_up: np.ndarray
    env_lo: np.ndarray
    quad_margin: float


def _verification_setup(spec, weights, tmax, n_steps) -> _Setup:
    """Checks, grids, rate table, precondition, envelopes and quadrature margin.

    The rates are evaluated once into a rate table on the halved grid of
    4n+1 points (at one time for a homogeneous chain); the RK4 grid of step
    h with its midpoints is the [::2] slice, which equals
    linspace(0, tmax, 2n+1) bit for bit. The table is the set-up's only
    whole-time array besides the column sums of B**(t), which the scan of
    the envelopes writes a slice of times at a time; each is refused with
    MemoryError before it is allocated if it exceeds the machine's physical
    memory. B*(t) must be essentially non-negative at every point of the
    halved grid, else NonnegativityError is raised before any scan runs.

    The envelopes integrate the column-sum extremes of B** by Simpson's
    rule on the step grid; the quadrature margin is their largest
    difference from the integrals on the halved grid. NonFiniteBoundError
    is raised if an envelope integral is not finite, the upper envelope
    overflows or the lower one underflows to zero, since a ratio to such an
    envelope checks nothing.
    """
    d = _weight_vector(weights, spec.S)
    tmax, n = check_horizon(tmax, n_steps)
    h = tmax / n
    ts_fine = np.linspace(0.0, tmax, 4 * n + 1)
    table = rate_table(spec, evaluation_times(spec, ts_fine))
    h_up, h_lo = column_sum_extremes(table, d, len(ts_fine))
    I_up, env_up = envelope(h_up[::2], h)
    I_lo, env_lo = envelope(h_lo[::2], h)
    bad = ~(np.isfinite(env_up) & (env_lo > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteBoundError(
            f"envelopes exp({float(I_up[i])}) and exp({float(I_lo[i])}) at t={i * h} "
            f"leave the double-precision range: the horizon is too long to verify")
    I_up_f, _ = envelope(h_up, 0.5 * h)
    I_lo_f, _ = envelope(h_lo, 0.5 * h)
    quad_margin = max(float(np.max(np.abs(I_up_f[::2] - I_up))),
                      float(np.max(np.abs(I_lo_f[::2] - I_lo))))
    return _Setup(d=d, tmax=tmax, n=n, h=h, ts_fine=ts_fine, table=table,
                  env_up=env_up, env_lo=env_lo, quad_margin=quad_margin)


def _relative(margin, values):
    """margin / values where values > 0, else inf: a margin no ratio of that sign can carry."""
    return np.divide(margin, values, out=np.full_like(margin, np.inf), where=values > 0.0)


def _report(kind, st, slack, margin, judged, violations=(), **fields) -> VerificationReport:
    """The report of a finished scan.

    margin holds each time's integrator margin relative to its ratio;
    judged holds (phase, ratios, broken) triples, and a violation is
    recorded at each time where broken holds, ordered by time (in the
    order of judged at one time), followed by the given ones.
    """
    found = sorted(((phase, float(st.ts_fine[4 * i]), float(ratios[i]))
                    for phase, ratios, broken in judged
                    for i in np.flatnonzero(broken)[:VIOLATION_CAP]), key=lambda v: v[1])
    found += violations
    count = sum(int(np.count_nonzero(broken)) for _, _, broken in judged) + len(violations)
    integ_margin = float(margin.max())
    return VerificationReport(
        kind=kind, passed=count == 0, tmax=st.tmax, n_steps=st.n, slack=slack,
        integrator_margin=integ_margin, quadrature_margin=st.quad_margin,
        slack_total=slack + integ_margin + st.quad_margin, n_violations=count,
        violations=tuple(found[:VIOLATION_CAP]), grid=st.ts_fine[::4], **fields)


def verify_bounds(spec: ChainSpec, weights, tmax: float, n_steps: int = 10_000, *,
                  slack: float = 1e-8) -> VerificationReport:
    """Check the exponential envelopes at every grid time, over every initial vector.

    One identity scan of the forward system carries the step-h and
    step-h/2 RK4 propagators G_k and H_k of the transformed system as the
    lower-right blocks of its two members (:func:`_propagators`), so no
    whole-time B** is formed. At each grid
    time t_k the worst upper ratio over every initial vector is
    ||G_k||_1 / env_up(t_k), and the worst lower ratio over every
    non-negative one is c_k / env_lo(t_k), c_k the smallest column sum of
    G_k. With the integrator margin e_k = 2 ||G_k - H_k||_1 and the band
    slack + the quadrature refinement margin, an upper violation is
    recorded where (||G_k||_1 - e_k) / env_up(t_k) > 1 + band, and a lower
    one where (c_k + e_k) / env_lo(t_k) < 1 - band; a violation fails the
    report. The reported integrator margin is the largest e_k / c_k (at
    least e_k / ||G_k||_1). Raises NonnegativityError, before the scan, if
    B*(t) is not essentially non-negative on the halved grid.

    The scan is the one that ``verify`` runs, which checks the forward
    propagators of :func:`verify_convergence_coupling` too, so this call
    costs what ``verify`` costs; it returns the first of its two reports.
    """
    return _verify_both(spec, weights, tmax, n_steps, slack=slack)[0]


def verify_convergence_coupling(spec: ChainSpec, weights, tmax: float,
                                n_steps: int = 10_000, *,
                                slack: float = 1e-8) -> VerificationReport:
    """Tie the envelope back to the chain: differences of distributions, over every pair.

    The difference x of two distributions carries no mass, and its
    weighted tail sums L x are the transformed coordinates w(0); every w
    in R^S is L x for such an x, up to scale, and x = Rt w
    (:func:`_tail_sum_maps`). The scan's step-h member is P Phi_k P^-1,
    Phi_k the step-h RK4 propagator of the forward system, so it carries
    (0, L x) to (0, G_k L x): the worst coupling ratio over every pair at
    grid time t_k is ||G_k||_1 / env_up(t_k), the bounds upper ratio, and
    it is judged with the same margin e_k and band as that ratio
    (:func:`verify_bounds`). Nonnegativity of the forward propagator
    Phi_k = P^-1 X P, X the scan's step-h member, is checked at every
    grid time as well: its smallest entry (prob_min), the worst case over
    every initial distribution, is recorded once, at its worst time, if
    below -1e-12. Its column sums need no check: X keeps the first row of
    the identity and 1^T Rt = 0, so they are one by construction. Raises
    NonnegativityError, before the scan, if B*(t) is not essentially
    non-negative on the halved grid.

    The scan is the one that ``verify`` runs, so this call costs what
    ``verify`` costs; it returns the second of its two reports.
    """
    return _verify_both(spec, weights, tmax, n_steps, slack=slack)[1]


def _reports(st, slack, norms, lows, divergence, mins):
    """The bounds and the coupling reports from their per-time measures."""
    e = 2.0 * divergence
    band = slack + st.quad_margin
    upper, lower = norms / st.env_up, lows / st.env_lo
    above, worst = (norms - e) / st.env_up > 1.0 + band, float(upper.max())
    # c_k <= ||G_k||_1, so e_k / c_k is the larger of the two relative margins
    bounds = _report(
        "bounds", st, slack, _relative(e, lows),
        [("upper", upper, above), ("lower", lower, (lows + e) / st.env_lo < 1.0 - band)],
        worst_upper=worst, worst_lower=float(lower.min()),
        ratio_upper_max=upper, ratio_lower_min=lower)
    prob_min = float(mins.min())
    negative = [("probability-negative", float(st.ts_fine[4 * np.argmin(mins)]), prob_min)]
    coupling = _report(
        "coupling", st, slack, _relative(e, norms), [("coupling", upper, above)],
        negative if prob_min < -1e-12 else [], worst_upper=worst, worst_lower=None,
        ratio_upper_max=upper, prob_min=prob_min)
    return bounds, coupling


def _verify_both(spec, weights, tmax, n_steps, *, slack):
    """(verify_bounds(...), verify_convergence_coupling(...)) from one set-up and one scan.

    The rates are evaluated once, and one identity scan of the forward
    system (:func:`_propagators`) carries the two members both verifiers
    read. Each chunk gives four measures per time: of the step-h member's
    lower-right block G_k, ||G_k||_1 and its smallest column sum c_k; the
    divergence ||G_k - H_k||_1 of the two members' lower-right blocks; and
    the smallest entry of the forward propagator P^-1 X_k P, X_k the
    step-h member, two products a time. Before the first chunk,
    MemoryError is raised if the working set of a chunk of
    min(CHUNK_STEPS, n_steps) steps, SCAN_MATRICES (S+1) x (S+1) matrices
    a step and FIXED_MATRICES more, exceeds the machine's physical memory:
    a chunk holds 11 a step, four generators, two operators, two states
    and the three temporaries of a set of half-step increments, and a last,
    shorter chunk copies its increments for the map, up to 12.
    OdeBlowUpError names the first state beyond 1e12 in magnitude, or not
    finite, over both members: where the step-h RK4 is unstable and the
    step-h/2 one stable, the step-h member.
    """
    st = _verification_setup(spec, weights, tmax, n_steps)
    c = min(CHUNK_STEPS, st.n)
    require_memory(f"a scan chunk of {c} steps",
                   8 * (c * SCAN_MATRICES + FIXED_MATRICES) * (len(st.d) + 1) ** 2)
    scan = _Forward(st.table, st.d)
    P, P_inv = scan.maps
    measures = np.empty((4, st.n + 1))
    for k, X in _propagators(scan, st.n, st.h):
        M = measures[:, k:k + len(X)]
        G = X[:, 1, 1:, 1:]
        M[0] = _l1_norms(G)
        M[1] = _column_sums(G).min(axis=-1)
        # the first rows agree exactly, and the first columns lie outside the blocks
        M[2] = _column_sums(np.abs(X[:, 1] - X[:, 0]))[:, 1:].max(axis=-1)
        M[3] = np.matmul(P_inv, np.matmul(X[:, 1], P)).min(axis=(-2, -1))
    return _reports(st, slack, *measures)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write a single-vector trajectory as CSV: t, then one column per component."""
    states = traj.states
    if states.ndim != 2:
        raise ValueError("CSV export expects a single-vector trajectory")
    header = ["t"] + [f"{traj.coords}{i}" for i in range(states.shape[1])]
    write_csv(path, header, (traj.grid, *states.T))


def verification_to_csv(report: VerificationReport, path) -> None:
    """Write per-grid worst ratios as CSV (t, ratio_upper_max[, ratio_lower_min])."""
    header = ["t", "ratio_upper_max"]
    columns = [report.grid, report.ratio_upper_max]
    if report.ratio_lower_min is not None:
        header.append("ratio_lower_min")
        columns.append(report.ratio_lower_min)
    write_csv(path, header, columns)
