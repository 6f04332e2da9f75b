import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import ctmc_bounds as cb
from ctmc_bounds import odesolve
from conftest import random_class_chain, random_sharp_chain
from linalg_oracles import drawn_ratios, rk4_reference, transformed_increment


def _two_state_exact(t):
    # p' = A p with birth 1, death 2 from p = (1, 0): p1(t) = (1 - e^{-3t})/3
    return (1.0 - math.exp(-3.0 * t)) / 3.0


def test_forward_two_state_closed_form():
    spec = cb.birth_death_chain(1, [1.0], [2.0])
    traj = cb.solve("forward", spec, [1.0, 0.0], tmax=1.0, n_steps=1000)
    assert traj.coords == "p"
    assert traj.grid[0] == 0.0 and traj.grid[-1] == 1.0
    assert traj.states[-1, 1] == pytest.approx(_two_state_exact(1.0), abs=1e-10)
    assert abs(_two_state_exact(1.0) - 0.3167376) < 5e-8


def test_rk4_is_fourth_order():
    spec = cb.birth_death_chain(1, [1.0], [2.0])
    errors = []
    for n in (25, 50, 100):
        traj = cb.solve("forward", spec, [1.0, 0.0], tmax=1.0, n_steps=n)
        errors.append(abs(traj.states[-1, 1] - _two_state_exact(1.0)))
    for e_coarse, e_fine in zip(errors, errors[1:]):
        assert 8.0 <= e_coarse / e_fine <= 32.0


def test_zero_initial_vector_stays_zero():
    spec = cb.birth_death_chain(2, [1.0, 1.0], [1.0, 1.0])
    traj = cb.solve("forward", spec, np.zeros(3), tmax=1.0, n_steps=100)
    assert np.all(traj.states == 0.0)


def test_probability_conservation_and_nonnegativity():
    rng = np.random.default_rng(9)
    for kind in ("birth_death", "batch_both"):
        spec = random_class_chain(rng, kind, 4, hi=3.0)
        p0 = rng.uniform(0.0, 1.0, 5)
        p0 /= p0.sum()
        traj = cb.solve("forward", spec, p0, tmax=2.0, n_steps=2000)
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-10
        assert traj.states.min() >= -1e-12


def test_time_varying_probability_conservation():
    lam = cb.RateFunction.sinusoid(1.0, 1.0, 1.0)
    spec = cb.birth_death_chain(3, [lam] * 3, [1.0] * 3)
    traj = cb.solve("forward", spec, [1.0, 0.0, 0.0, 0.0], tmax=3.0, n_steps=3000)
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-10
    assert traj.states.min() >= -1e-12


def test_equal_column_sums_give_exact_exponential_norm():
    spec = cb.birth_death_chain(3, [1.0] * 3, [1.0] * 3)
    rate = cb.perron_weights(cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0))))
    rng = np.random.default_rng(4)
    w0 = rng.uniform(0.0, 1.0, 3)
    traj = cb.solve("transformed", spec, w0, tmax=1.0, n_steps=2000,
                    weights=rate.weights)
    norms = np.abs(traj.states).sum(axis=1)
    expected = norms[0] * np.exp(rate.lambda0 * traj.grid)
    assert np.abs(norms / expected - 1.0).max() <= 1e-8


def test_single_state_transformed_is_scalar_decay():
    spec = cb.birth_death_chain(1, [1.0], [2.0])
    traj = cb.solve("transformed", spec, [0.7], tmax=1.5, n_steps=1500)
    expected = 0.7 * np.exp(-3.0 * traj.grid)
    assert np.abs(traj.states[:, 0] - expected).max() <= 1e-12


def test_coordinate_systems_are_consistent():
    # mapping the reduced trajectory through weights o tail sums must agree
    # with integrating the transformed system directly
    lam = cb.RateFunction.sinusoid(1.5, 0.5, 0.8)
    spec = cb.birth_death_chain(4, [lam, 1.0, lam, 2.0], [1.0, 2.0, 1.0, 1.0])
    rng = np.random.default_rng(12)
    d = rng.uniform(0.5, 2.0, 4)
    y0 = rng.uniform(-1.0, 1.0, 4)
    y_traj = cb.solve("reduced_hom", spec, y0, tmax=2.0, n_steps=2000)
    u = np.cumsum(y_traj.states[:, ::-1], axis=1)[:, ::-1]
    mapped = u * d
    w0 = (np.cumsum(y0[::-1])[::-1]) * d
    w_traj = cb.solve("transformed", spec, w0, tmax=2.0, n_steps=2000, weights=d)
    assert np.abs(mapped - w_traj.states).max() <= 1e-9


def test_nonnegativity_propagates_through_transform():
    rng = np.random.default_rng(30)
    spec = random_class_chain(rng, "batch_death", 5, hi=3.0)
    w0 = rng.uniform(0.0, 1.0, 5)
    traj = cb.solve("transformed", spec, w0, tmax=3.0, n_steps=3000)
    assert traj.states.min() >= -1e-10


def test_batched_initial_states_match_individual_runs():
    spec = cb.birth_death_chain(2, [1.0, 2.0], [2.0, 1.0])
    X0 = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.4], [0.0, 0.0, 0.3]])
    batch = cb.solve("forward", spec, X0, tmax=1.0, n_steps=200)
    for j in range(3):
        single = cb.solve("forward", spec, X0[:, j], tmax=1.0, n_steps=200)
        assert np.allclose(batch.states[:, :, j], single.states, atol=1e-14)


def test_solve_validation():
    spec = cb.birth_death_chain(2, [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        cb.solve("nope", spec, [1.0, 0.0, 0.0], 1.0, 10)
    with pytest.raises(ValueError):
        cb.solve("forward", spec, [1.0, 0.0], 1.0, 10)  # wrong dimension
    with pytest.raises(ValueError):
        cb.solve("forward", spec, [1.0, 0.0, 0.0], 1.0, 0)
    with pytest.raises(ValueError):
        cb.solve("transformed", spec, [1.0, 0.0], 1.0, 10, weights=[1.0, -2.0])


def test_solve_refuses_its_states_before_allocating_them(monkeypatch):
    # 10001 states of a (4, 50) batch take 16 MB; a homogeneous chain's
    # table holds one time, so a machine of 8 MB refuses the states alone
    spec = cb.birth_death_chain(3, [1.0, 2.0, 1.0], [2.0, 1.0, 2.0])
    monkeypatch.setattr(cb.chain, "physical_memory", lambda: 8 * 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=re.escape("states of shape (10001, 4, 50) ")):
            cb.solve("forward", spec, np.ones((4, 50)), 1.0, 10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert cb.solve("forward", spec, np.ones((4, 50)), 1.0, 1000).states.shape == (1001, 4, 50)


def test_blow_up_guard_reports_time():
    # a transformed system with a strongly positive column sum grows without
    # bound; the guard must abort rather than emit non-finite states
    spec = cb.birth_death_chain(2, [0.01, 200.0], [0.01, 0.01])
    with pytest.raises(cb.OdeBlowUpError, match="t="):
        cb.solve("transformed", spec, [1.0, 1.0], tmax=2000.0, n_steps=4000)


LAM = cb.RateFunction.sinusoid(1.5, 0.5, 0.8)
ENGINE_CHAINS = {
    "time-varying": cb.birth_death_chain(4, [LAM, 1.0, LAM, 2.0], [1.0, 2.0, 1.0, 1.0]),
    "one-matrix": cb.birth_death_chain(4, [1.5, 1.0, 0.5, 2.0], [1.0, 2.0, 1.0, 1.0]),
}


def _transformed(spec, ts):
    """The chunked writer of B** (ones weights) at evaluation_times(spec, ts)."""
    table = cb.chain.rate_table(spec, cb.chain.evaluation_times(spec, ts))
    return odesolve._System(table, np.ones(spec.S), "transformed")


def _scan_states(system, n, h, x0):
    # the scan reuses its chunk buffer, so each chunk is copied as it comes
    return np.concatenate([chunk.copy() for _, chunk in odesolve._rk4_scan(system, n, h, x0)])


def _assert_close_per_step(got, ref):
    scale = np.abs(ref).reshape(len(ref), -1).max(axis=1)
    err = np.abs(got - ref).reshape(len(ref), -1).max(axis=1)
    assert got.shape == ref.shape
    assert np.all(err <= 1e-13 * scale)


STEPS = ["1", "c-1", "c", "2c", "2c+5"]


def _steps(steps):
    c = odesolve.CHUNK_STEPS
    return {"1": 1, "c-1": c - 1, "c": c, "2c": 2 * c, "2c+5": 2 * c + 5}[steps]


@pytest.mark.parametrize("chain", sorted(ENGINE_CHAINS))
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("columns", [None, 3, 5], ids=["vector", "narrow", "wide"])
def test_rk4_scan_matches_per_step_reference(chain, steps, columns):
    # S = 4: a vector or 3 columns take the RK4 stages, 5 columns the step operators
    spec = ENGINE_CHAINS[chain]
    n = _steps(steps)
    h = 2.0 / n
    system = _transformed(spec, np.linspace(0.0, 2.0, 2 * n + 1))
    mats = system[:]  # the whole stack, for the reference
    assert len(mats) == (1 if chain == "one-matrix" else 2 * n + 1)
    shape = (spec.S,) if columns is None else (spec.S, columns)
    X0 = np.random.default_rng(3).uniform(-1.0, 1.0, shape)
    _assert_close_per_step(_scan_states(system, n, h, X0), rk4_reference(mats, n, h, X0))


@pytest.mark.parametrize("chain", sorted(ENGINE_CHAINS))
@pytest.mark.parametrize("steps", STEPS)
def test_verification_scan_members_match_per_step_reference(chain, steps):
    # verify's one scan from four identities: the forward system over two
    # RK4 steps of h/2 and over one of h, and the B** system over each,
    # carried by the mapped increments in the lower-right block of a state
    # whose first row and column stay those of the identity
    spec = ENGINE_CHAINS[chain]
    n = _steps(steps)
    h = 2.0 / n
    d = np.array([1.0, 0.7, 1.3, 0.9])
    table = cb.chain.rate_table(spec, cb.chain.evaluation_times(
        spec, np.linspace(0.0, 2.0, 4 * n + 1)))
    forward = odesolve._System(table, d)[:]
    transformed = odesolve._System(table, d, "transformed")[:]
    assert len(forward) == (1 if chain == "one-matrix" else 4 * n + 1)
    eye = np.eye(spec.S + 1)
    X = _scan_states(odesolve._Forward(table, d), n, h, np.stack([eye] * 4))
    assert X.shape == (n + 1, 4, spec.S + 1, spec.S + 1)
    halves = lambda mats, x0: rk4_reference(mats, 2 * n, 0.5 * h, x0)[::2]
    _assert_close_per_step(X[:, 0], halves(forward, eye))
    _assert_close_per_step(X[:, 1], rk4_reference(forward[::2], n, h, eye))
    _assert_close_per_step(X[:, 2, 1:, 1:], halves(transformed, eye[1:, 1:]))
    _assert_close_per_step(X[:, 3, 1:, 1:], rk4_reference(transformed[::2], n, h, eye[1:, 1:]))
    assert np.all(X[:, 2:, 0, :] == eye[0]) and np.all(X[:, 2:, 1:, 0] == 0.0)


@pytest.mark.parametrize("x0", [[1.0, 0.0], [[1.0, 2.0], [0.0, 0.0]]],
                         ids=["vector", "wide"])
def test_zero_supported_start_on_a_stiff_constant_system_does_not_raise(x0):
    # R = diag(0.375, ~4e10): its powers overflow within one chunk, but a
    # start with no weight on the second coordinate never grows, and an
    # overflowing power times a zero entry must not surface as a NaN state
    mats = np.diag([-1.0, 1000.0])[None]

    class Stack(odesolve._System):
        """A system whose matrices are a given stack."""

        def __init__(self, stack):
            self.stack, self.ops = stack, None

        def __len__(self):
            return len(self.stack)

        def __getitem__(self, s):
            return self.stack[s]

    n = 2 * odesolve.CHUNK_STEPS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = _scan_states(Stack(mats), n, 1.0, x0)
    ref = rk4_reference(mats, n, 1.0, x0)
    assert np.all(ref[:, 1] == 0.0) and np.isfinite(ref).all()
    _assert_close_per_step(states, ref)


@pytest.mark.parametrize("system, x0", [("forward", np.full(4, 0.25)),
                                        ("reduced_hom", np.ones(3)), ("transformed", np.ones(3))])
def test_a_state_that_is_not_finite_is_named_so(system, x0):
    # the diagonal of Q, -2e308, overflows: every system's first step is NaN,
    # and the transformed one reaches the guard, not a check of B*
    spec = cb.birth_death_chain(3, [1e308] * 3, [1e308] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cb.OdeBlowUpError, match=r"^state at t=0\.025 is not finite$"):
            cb.solve(system, spec, x0, 1.0, 40)


@pytest.mark.parametrize("birth", [200.0, cb.RateFunction.sinusoid(200.0, 20.0, 0.1)],
                         ids=["one-matrix", "time-varying"])
@pytest.mark.parametrize("x0, first", [([1.0, 1.0], 5), (np.eye(2), 2)],
                         ids=["vector", "identity"])
def test_blow_up_inside_a_chunk_reports_the_first_offending_time(monkeypatch, birth,
                                                                 x0, first):
    # the state passes 1e12 at step 5 (2 from the identity) and overflows at
    # step 49 (47): with chunks of 64 steps both happen inside the first one,
    # and the guard must name the first offending step without the overflow
    # surfacing as a warning
    monkeypatch.setattr(odesolve, "CHUNK_STEPS", 64)
    spec = cb.birth_death_chain(2, [0.01, birth], [0.01, 0.01])
    n, tmax = 4000, 2000.0
    h = tmax / n
    mats = _transformed(spec, np.linspace(0.0, tmax, 2 * n + 1))[:2 * 64 + 1]
    with np.errstate(all="ignore"):
        ref = rk4_reference(mats, 64, h, x0)
    peaks = np.abs(ref).reshape(len(ref), -1).max(axis=1)
    assert int(np.argmax(peaks > odesolve.MAX_STATE)) == first
    assert not np.isfinite(ref).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cb.OdeBlowUpError, match=re.escape(f"t={first * h} ")):
            cb.solve("transformed", spec, x0, tmax=tmax, n_steps=n)


def test_verify_bounds_sharp_chain_ratios_are_one():
    spec = cb.birth_death_chain(3, [1.0] * 3, [1.0] * 3)
    rate = cb.perron_weights(cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0))))
    rep = cb.verify_bounds(spec, rate.weights, tmax=5.0, n_steps=2000)
    assert rep.passed and rep.n_violations == 0
    assert abs(rep.worst_upper - 1.0) <= 1e-6
    assert abs(rep.worst_lower - 1.0) <= 1e-6
    assert rep.integrator_margin < 1e-8 and rep.quadrature_margin < 1e-8


SHARP_BATCH = cb.batch_birth_chain(6, [1.2, 1.0, 0.8, 0.5, 0.3, 0.1], [1.0] * 6)


@pytest.mark.parametrize("spec, weights", [
    (SHARP_BATCH, cb.perron_weights(cb.to_bstar(cb.build_reduced(
        cb.eval_generator(SHARP_BATCH, 0.0)))).weights),
    (cb.batch_both_chain(5, [LAM, 0.8, 0.5, 0.3, 0.1], [LAM, 0.6, 0.4, 0.2, 0.1]),
     np.array([1.0, 0.7, 1.3, 0.9, 1.6]))], ids=["sharp", "time-varying"])
def test_no_drawn_start_beats_the_exact_ratios(spec, weights):
    # the exact ratios are the worst over every start; starts drawn at random
    # and integrated by solve, batch by batch, may reach them but never beat
    # them beyond the round-off of their different products
    tmax, n = 3.0, 600
    st = odesolve._verification_setup(spec, weights, tmax, n)
    rep_b, rep_c = odesolve._verify_both(spec, weights, tmax, n, slack=1e-8)
    assert rep_b.passed and rep_c.passed
    upper, lower, coupling, probs = drawn_ratios(spec, st.d, tmax, n, st.env_up, st.env_lo,
                                                 count=50, seed=5)
    tol = 1e-12
    assert np.all(upper <= rep_b.ratio_upper_max[:, None] * (1.0 + tol))
    assert np.all(lower >= rep_b.ratio_lower_min[:, None] * (1.0 - tol))
    assert np.all(coupling <= rep_c.ratio_upper_max[:, None] * (1.0 + tol))
    assert probs.min() >= rep_c.prob_min - tol
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= rep_c.prob_sum_error + tol
    if spec is SHARP_BATCH:
        # equal column sums: every non-negative start attains the exact ratios
        assert np.all(np.abs(upper[:, 50:] - rep_b.ratio_upper_max[:, None])
                      <= tol * rep_b.ratio_upper_max[:, None])
        assert abs(rep_b.worst_upper - 1.0) <= rep_b.slack_total
        assert abs(rep_b.worst_lower - 1.0) <= rep_b.slack_total


def test_verify_refuses_a_lower_envelope_that_underflows():
    # h_lower = -2: exp(I_lower) is 0 from t = 380 on (exp(-760)), and every
    # ratio to it and the integrator margin would be infinite, a vacuous pass
    spec = cb.birth_death_chain(3, [1.0, 2.0, 1.0], [2.0, 1.0, 2.0])
    report = cb.compute_bounds(spec, np.ones(3), 1000.0, 11)
    assert report.I_lower[-1] == -2000.0 and report.env_lower[-1] == 0.0
    with pytest.raises(cb.NonFiniteBoundError, match=re.escape("exp(-760.0) at t=380.0 ")):
        cb.verify_bounds(spec, np.ones(3), 1000.0, n_steps=100)


def test_verify_bounds_time_varying_chain():
    lam = cb.RateFunction.sinusoid(1.0, 1.0, 1.0)
    spec = cb.birth_death_chain(5, [lam] * 5, [1.0] * 5)
    rep = cb.verify_bounds(spec, np.ones(5), tmax=3.0, n_steps=1500)
    assert rep.passed
    assert rep.worst_upper <= 1.0 + rep.slack_total
    assert rep.worst_lower >= 1.0 - rep.slack_total
    assert rep.grid.shape == rep.ratio_upper_max.shape


def test_verify_bounds_is_deterministic():
    spec = cb.birth_death_chain(3, [1.0, 2.0, 1.0], [2.0, 1.0, 2.0])
    a = cb.verify_bounds(spec, np.ones(3), 1.0, n_steps=500)
    b = cb.verify_bounds(spec, np.ones(3), 1.0, n_steps=500)
    assert np.array_equal(a.ratio_upper_max, b.ratio_upper_max)
    assert np.array_equal(a.ratio_lower_min, b.ratio_lower_min)
    assert a.worst_upper == b.worst_upper and a.worst_lower == b.worst_lower


@pytest.mark.parametrize("spec", [cb.birth_death_chain(2, [1.0, 2.0], [2.0, 1.0]),
                                  cb.birth_death_chain(2, [cb.RateFunction.sinusoid(
                                      1.0, 0.5, 1.0), 2.0], [2.0, 1.0])],
                         ids=["homogeneous", "time-varying"])
@pytest.mark.parametrize("verify", [cb.verify_bounds, cb.verify_convergence_coupling])
def test_each_verifier_scans_once_per_step_size(monkeypatch, verify, spec):
    # one scan of n steps of h carries both step sizes: its members take
    # one RK4 step of h or two of h/2 from the generators at spacing h/4
    steps = []
    scan = odesolve._rk4_scan

    def counted(system, n, h, x0):
        steps.append((n, h, len(system), np.shape(x0)))
        return scan(system, n, h, x0)

    monkeypatch.setattr(odesolve, "_rk4_scan", counted)
    assert verify(spec, None, 1.0, 8).passed
    stack = 1 if spec.is_homogeneous else 33
    assert steps == [(8, 0.125, stack, (4, 3, 3))]


@pytest.mark.parametrize("chain, written", [("time-varying", lambda n: 4 * n + 1),
                                            ("one-matrix", lambda n: 1)])
def test_verify_writes_each_generator_once(monkeypatch, chain, written):
    # the step-h members read every other matrix of the chunk that the
    # step-h/2 members read, and a chunk takes its first matrix over from
    # the last, so a run writes the 4n+1 generators of the halved grid once
    # each, or a constant chain's one: a gather per scan and chunk wrote
    # 6n+2, two more a chunk boundary, and 6 of a constant chain's one; the
    # set-up of a birth-death chain writes none
    rows = []
    for name in ("__getitem__", "forward"):
        def counted(table, s, *args, _write=getattr(cb.chain.RateTable, name), **kwargs):
            stack = _write(table, s, *args, **kwargs)
            rows.append(len(stack))
            return stack
        monkeypatch.setattr(cb.chain.RateTable, name, counted)
    n = 2 * odesolve.CHUNK_STEPS + 5
    assert cb.verify_bounds(ENGINE_CHAINS[chain], None, 1.0, n).passed
    assert sum(rows) == written(n)


@pytest.mark.parametrize("S", [40, 80, 120])
def test_verify_peak_stays_below_the_preflight_figure(S):
    # the scan writes its chunks into buffers kept from chunk to chunk, so
    # four chunks peak as one: below the working set refused before the
    # scan starts, SCAN_MATRICES (S+1)^2 doubles for each step of a chunk,
    # and above half of it, so that the refusal does not come far too early
    spec = cb.birth_death_chain(S, [LAM] * S, [1.0] * S)
    n = 3 * odesolve.CHUNK_STEPS + 4
    run = lambda: odesolve._verify_both(spec, None, 1.0, n, slack=1e-8)
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    figure = 8 * odesolve.CHUNK_STEPS * odesolve.SCAN_MATRICES * (S + 1) ** 2
    assert figure / 2 < peak < figure


# B*(3,2) = a_1 - a_2 = -1.9: the batch rates increase with the batch size
BROKEN_BATCH = cb.batch_birth_chain(3, [0.1, 2.0, 0.1], [1.0, 1.0, 1.0])
# a_1 dips below a_2 only around t = 1/16, a quarter step of a 4-step run on
# [0, 1]: the break lies on the halved grid but on no RK4 stage time
MIDPOINT_BREAK = cb.batch_birth_chain(
    2, [cb.RateFunction.table([0.0, 0.05, 0.0625, 0.075, 1.0], [2.0, 2.0, 0.5, 2.0, 2.0]),
        1.0], [1.0, 1.0])


@pytest.mark.parametrize("verify", [cb.verify_bounds, cb.verify_convergence_coupling])
@pytest.mark.parametrize("spec, where", [(BROKEN_BATCH, "(3,2) = -1.9 at t=0.0;"),
                                         (MIDPOINT_BREAK, "(2,1) = -0.5 at t=0.0625;")],
                         ids=["broken-batch", "midpoint-break"])
def test_verifiers_refuse_a_transform_that_is_not_essentially_nonnegative(
        verify, spec, where):
    with pytest.raises(cb.NonnegativityError, match=re.escape(where)):
        verify(spec, None, 1.0, 4)


@pytest.mark.parametrize("verify", [cb.verify_bounds, cb.verify_convergence_coupling])
def test_each_verifier_refuses_the_working_set_of_a_chunk_before_the_scans(monkeypatch,
                                                                           verify):
    # S = 40: a chunk of the scan asks for 32 x SCAN_MATRICES x 41^2 doubles,
    # 7.3 MB, while the rate table and the column sums of 64 steps take far
    # less; a machine of 6 MB refuses the chunk before the scan starts
    spec = cb.birth_death_chain(40, [LAM] * 40, [1.0] * 40)

    def refused(*args, **kwargs):
        raise AssertionError("a scan started")

    monkeypatch.setattr(odesolve, "_rk4_scan", refused)
    monkeypatch.setattr(cb.chain, "physical_memory", lambda: 6 * 2**20)
    with pytest.raises(MemoryError, match=re.escape("a scan chunk of 32 steps needs ")):
        verify(spec, None, 1.0, 64)


def test_a_short_verify_asks_for_the_working_set_of_its_own_steps(monkeypatch):
    # S = 200, 4 steps: the run peaks near 23 MB, and its one chunk of 4
    # steps asks for 4 x SCAN_MATRICES x 201^2 doubles, 22 MB, where a
    # chunk of 32 steps would ask for 0.17 GiB; a machine of 42 MB runs it,
    # one of 20 MB refuses it before the scan starts
    spec = cb.birth_death_chain(200, [LAM] * 200, [1.0] * 200)
    monkeypatch.setattr(cb.chain, "physical_memory", lambda: 42 * 10**6)
    rep_b, rep_c = odesolve._verify_both(spec, None, 1.0, 4, slack=1e-8)
    assert len(rep_b.ratio_upper_max) == len(rep_c.ratio_upper_max) == 5
    monkeypatch.setattr(cb.chain, "physical_memory", lambda: 20 * 10**6)
    with pytest.raises(MemoryError, match=re.escape("a scan chunk of 4 steps needs 0.02047 GiB")):
        odesolve._verify_both(spec, None, 1.0, 4, slack=1e-8)


@pytest.mark.parametrize("birth, peak", [
    (100.0, "1077295238846.493"),
    (cb.RateFunction.sinusoid(100.0, 0.0, 1.0), "1077295238846.4934")],
    ids=["homogeneous", "time-varying"])
@pytest.mark.parametrize("verify", [cb.verify_bounds, cb.verify_convergence_coupling])
def test_verify_names_the_first_state_that_blows_up(verify, birth, peak):
    # h = 0.01 and eigenvalue -300: h |lambda| = 3 lies beyond RK4's
    # stability interval (2.785) while the half steps' 1.5 lies inside, so
    # the step-h members grow and the step-h/2 ones decay; the one guard
    # over the four members names the first state beyond 1e12
    spec = cb.birth_death_chain(1, [birth], [200.0])
    with pytest.raises(cb.OdeBlowUpError, match=re.escape(
            f"state magnitude {peak} at t=0.87 exceeds 1000000000000.0")):
        verify(spec, None, 1.0, 100)


def test_verifiers_validate_horizon_and_steps():
    spec = cb.birth_death_chain(2, [1.0, 1.0], [1.0, 1.0])
    for verify in (cb.verify_bounds, cb.verify_convergence_coupling):
        with pytest.raises(ValueError, match="horizon"):
            verify(spec, None, -1.0, 10)
        with pytest.raises(ValueError, match="step"):
            verify(spec, None, 1.0, 0)


def test_verify_coupling_passes_and_checks_probabilities():
    rng = np.random.default_rng(77)
    spec = random_sharp_chain(rng, "batch_both", 4)
    rate = cb.perron_weights(cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0))))
    rep = cb.verify_convergence_coupling(spec, rate.weights, tmax=2.0, n_steps=1500)
    assert rep.passed and rep.n_violations == 0 and rep.kind == "coupling"
    assert rep.prob_sum_error <= 1e-10
    assert rep.prob_min >= -1e-12
    assert rep.worst_upper <= 1.0 + rep.slack_total


DEMO04_CHAIN = cb.batch_both_chain(4, [1.2, 0.6, 0.3, 0.15], [1.0, 0.5, 0.25, 0.1])


@pytest.mark.parametrize("n", [2000, 8000])
def test_coupling_ratios_over_every_pair_are_one_on_a_sharp_chain(n):
    # on a sharp chain every difference of distributions decays at the
    # envelope's rate: L Phi_k Rt has equal column sums, and the worst
    # ratio over every pair stays within RK4 and round-off of one, also
    # where the propagators have decayed to exp(4 lambda0) = 7.7e-4 of L Rt
    rate = cb.perron_weights(cb.to_bstar(cb.build_reduced(cb.eval_generator(DEMO04_CHAIN, 0.0))))
    rep = cb.verify_convergence_coupling(DEMO04_CHAIN, rate.weights, tmax=4.0, n_steps=n)
    assert np.abs(rep.ratio_upper_max - 1.0).max() <= 1e-9
    assert rep.passed and rep.slack_total <= 1e-7


def test_verification_csv_export(tmp_path):
    spec = cb.birth_death_chain(2, [1.0, 1.0], [1.0, 1.0])
    rep = cb.verify_bounds(spec, np.ones(2), 1.0, n_steps=100)
    path = tmp_path / "verify.csv"
    cb.verification_to_csv(rep, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,ratio_upper_max,ratio_lower_min"
    assert len(lines) == 102


def test_trajectory_csv_export(tmp_path):
    spec = cb.birth_death_chain(1, [1.0], [2.0])
    traj = cb.solve("forward", spec, [1.0, 0.0], 1.0, 50)
    path = tmp_path / "traj.csv"
    cb.trajectory_to_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,p0,p1"
    assert len(lines) == 52


def _mapped(phi, d, T):
    """D T (Phi[1:, 1:] - Phi[1:, 0] 1^T) T^{-1} D^{-1} of forward propagators Phi."""
    Y = phi[..., 1:, 1:] - phi[..., 1:, :1]
    return (d[:, None] * (T @ Y @ np.linalg.inv(T))) / d[None, :]


@pytest.mark.parametrize("spec, weights", [
    (cb.batch_both_chain(5, [LAM, 0.8, 0.5, 0.3, 0.1], [LAM, 0.6, 0.4, 0.2, 0.1]),
     [1.0, 0.7, 1.3, 0.9, 1.6]),
    (cb.birth_death_chain(5, [1.5, 1.0, 0.5, 2.0, 1.0], [1.0, 2.0, 1.0, 1.0, 0.5]),
     [0.6, 1.0, 1.4, 1.1, 0.8])], ids=["time-varying", "homogeneous"])
def test_forward_propagators_map_to_the_transformed_ones(spec, weights):
    # on probability differences the forward system is the reduced one, and
    # the tail sums T and the weights D carry it to B**: RK4 commutes with
    # both, so the mapped forward propagators are the transformed ones; the
    # lower all-ones matrix in T's place breaks the map
    d, tmax, n = np.array(weights), 2.0, 2 * odesolve.CHUNK_STEPS + 7
    table = cb.chain.rate_table(spec, cb.chain.evaluation_times(
        spec, np.linspace(0.0, tmax, 4 * n + 1)))
    # the chunks are the scans' buffers, valid until the next one: copy them
    chunks = [(F.copy(), G.copy()) for _, F, G, _, _ in
              odesolve._propagators(table, d, n, tmax / n)]
    phi, G = (np.concatenate([chunk[i] for chunk in chunks]) for i in (0, 1))
    want = cb.solve("transformed", spec, np.eye(spec.S), tmax, n, weights=d).states
    tol = 1e-12 * np.abs(want).max()
    T = np.triu(np.ones((spec.S, spec.S)))
    assert np.abs(G - want).max() <= tol
    assert np.abs(_mapped(phi, d, T) - want).max() <= tol
    assert np.abs(_mapped(phi, d, T.T) - want).max() > 1e3 * tol


def _increments_of(S, h):
    """The forward writer of a time-varying batch_both chain, its non-uniform weights
    and its RK4 increments for 8 steps of h."""
    rng = np.random.default_rng(S)
    lists = [sorted(rng.uniform(0.1, 2.0, S - 1), reverse=True) for _ in range(2)]
    spec = cb.batch_both_chain(S, [LAM] + lists[0], [LAM] + lists[1])
    table = cb.chain.rate_table(spec, cb.chain.evaluation_times(
        spec, np.linspace(0.0, 16 * h, 17)))
    d = rng.uniform(0.3, 3.0, S)
    writer = odesolve._Forward(table, d)
    A = writer[:]
    return writer, d, odesolve._increments(A[0:-1:2], A[1::2], A[2::2], h)


@pytest.mark.parametrize("h", [1e-3, 0.1])
@pytest.mark.parametrize("S", [1, 2, 5, 30])
def test_transformed_increments_by_two_products_match_the_tail_sum_transform(S, h):
    # both round within a few ulps of the sum of the absolute terms they
    # add: L K Rt those of its products, the structural oracle also the
    # state-0 column it subtracts from every other
    writer, d, K = _increments_of(S, h)
    out = np.full_like(K, np.nan)
    G = writer.increments(K, out)
    assert G is out
    assert np.all(G[:, 0, :] == 0.0) and np.all(G[:, :, 0] == 0.0)
    terms = np.abs(writer.left) @ (np.abs(K) @ np.abs(writer.right)
                                   + 2.0 * np.abs(K[..., :1]) / d)
    assert np.all(np.abs(G[:, 1:, 1:] - transformed_increment(K, d)) <= 1e-15 * terms)


@pytest.mark.parametrize("h", [1e-3, 0.1, 1.0])
@pytest.mark.parametrize("S", [1, 2, 5, 30])
def test_increments_are_one_stage_by_stage_step_of_the_identity(S, h):
    # K2 = Mm (I + h/2 M0), K3 = Mm (I + h/2 K2) and K4 = M1 (I + h K3), the
    # identity added to each right factor's diagonal and the sum taken in
    # place, are the stages of one RK4 step of the identity: within 1e-15
    # of the scale of the step, written into out or not
    rng = np.random.default_rng(S)
    M0, Mm, M1 = rng.uniform(-1.0, 1.0, (3, 8, S + 1, S + 1))
    eye = np.eye(S + 1)
    want = odesolve._rk4_step(M0, Mm, M1, h, eye)
    scale = np.abs(want).max()
    got = odesolve._increments(M0, Mm, M1, h)
    assert np.abs(eye + got - want).max() <= 1e-15 * scale
    out = np.full_like(M0, np.nan)
    assert odesolve._increments(M0, Mm, M1, h, out=out) is out
    assert np.array_equal(out, got)


@pytest.mark.parametrize("h", [1e-3, 0.1])
@pytest.mark.parametrize("S", [1, 2, 5, 30])
def test_fused_half_steps_are_the_increment_of_their_product(S, h):
    # (I + K2)(I + K1) - I in extended precision, within 1e-15 of the
    # scale of its terms |K1| + |K2| + |K2| |K1|
    _, _, K = _increments_of(S, h)
    K1, K2 = K[0::2], K[1::2]
    scale = (np.abs(K1) + np.abs(K2) + np.abs(K2) @ np.abs(K1)).max()
    eye = np.eye(S + 1, dtype=np.longdouble)
    want = (eye + K2.astype(np.longdouble)) @ (eye + K1.astype(np.longdouble)) - eye
    got = odesolve._fused(K1.copy(), K2.copy())
    assert np.abs(got - want).max() <= 1e-15 * scale
    # a constant system fuses its one increment with itself
    K0 = K[:1].copy()
    want = (eye + K0.astype(np.longdouble)) @ (eye + K0.astype(np.longdouble)) - eye
    assert np.abs(odesolve._fused(K0, K0) - want).max() <= 1e-15 * scale
