import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ctmc_bounds as cb
from ctmc_bounds import bounds, cli, transform
from conftest import CLASS_KINDS, random_class_chain, random_regular_general
from linalg_oracles import dense_nonnegativity, triangular_pair


def test_triangular_pair_exact_inverse():
    for S in range(1, 13):
        T, Tinv = triangular_pair(S)
        eye = np.eye(S, dtype=int)
        assert np.array_equal(T @ Tinv, eye)
        assert np.array_equal(Tinv @ T, eye)


def test_triangular_action_is_tail_sums():
    rng = np.random.default_rng(0)
    T, _ = triangular_pair(6)
    x = rng.normal(size=6)
    tails = np.array([x[i:].sum() for i in range(6)])
    assert np.allclose(T @ x, tails, atol=1e-15)


def test_build_reduced_single_state():
    spec = cb.birth_death_chain(1, [1.0], [2.0])
    assert np.array_equal(cb.build_reduced(cb.eval_generator(spec, 0.0)), [[-3.0]])


def test_build_reduced_two_state_hand_derived():
    # A(0) = [[-1, 1, 0], [1, -2, 1], [0, 1, -1]]; subtracting the first
    # column of the lower-right block's rows: rows (a_i1 - a_i0, a_i2 - a_i0)
    # give ((-2-1, 1-1), (1-0, -1-0))
    spec = cb.birth_death_chain(2, [1.0, 1.0], [1.0, 1.0])
    assert np.array_equal(cb.build_reduced(cb.eval_generator(spec, 0.0)),
                          [[-3.0, 0.0], [1.0, -1.0]])


def test_build_reduced_is_block_minus_first_column():
    rng = np.random.default_rng(13)
    spec = random_regular_general(rng, 5)
    A = cb.eval_generator(spec, 0.0).T
    expected = A[1:, 1:] - A[1:, :1]
    assert np.array_equal(cb.build_reduced(cb.eval_generator(spec, 0.0)), expected)


def test_to_bstar_zero_matrix():
    assert np.array_equal(cb.to_bstar(np.zeros((4, 4))), np.zeros((4, 4)))


def test_to_bstar_frozen_two_by_two():
    # tail sums then previous-column differences on [[-2,1],[1,-2]]
    out = cb.to_bstar(np.array([[-2.0, 1.0], [1.0, -2.0]]))
    assert np.array_equal(out, [[-1.0, 0.0], [1.0, -3.0]])


def test_to_bstar_matches_matrix_products():
    rng = np.random.default_rng(2)
    for S in (1, 2, 5, 9):
        B = rng.normal(size=(S, S))
        T, Tinv = triangular_pair(S)
        direct = T @ B @ Tinv
        assert np.allclose(cb.to_bstar(B), direct, atol=1e-12 * max(1, np.abs(B).max()))


def test_to_bstar_similarity_invariants():
    rng = np.random.default_rng(8)
    for S in (2, 4, 7):
        B = rng.normal(size=(S, S))
        Bs = cb.to_bstar(B)
        assert np.trace(Bs) == pytest.approx(np.trace(B), rel=1e-12, abs=1e-12)
        assert np.linalg.det(Bs) == pytest.approx(np.linalg.det(B), rel=1e-12, abs=1e-12)


def test_to_bstar_stacked_matches_per_matrix():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(6, 3, 3))
    out = cb.to_bstar(stack)
    for k in range(6):
        assert np.array_equal(out[k], cb.to_bstar(stack[k]))


@pytest.mark.parametrize("kind", CLASS_KINDS)
def test_analytic_bstar_matches_numeric_all_classes(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    for S in range(1, 9):
        for _ in range(5):
            spec = random_class_chain(rng, kind, S)
            numeric = cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0)))
            analytic = cb.analytic_bstar(spec, 0.0)
            scale = max(1.0, np.abs(numeric).max())
            assert np.abs(numeric - analytic).max() <= 1e-12 * scale, (kind, S)


def test_analytic_bstar_time_varying_class():
    lam = cb.RateFunction.sinusoid(2.0, 1.0, 0.5, 0.1)
    spec = cb.batch_death_chain(4, [1.0, 0.6, 0.3, 0.2],
                                [lam, 1.0, lam, 2.0])
    for t in (0.0, 0.37, 1.91):
        numeric = cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, t)))
        assert np.allclose(cb.analytic_bstar(spec, t), numeric, atol=1e-13)


def test_analytic_bstar_frozen_class_examples():
    bd = cb.birth_death_chain(2, [1.0, 1.0], [1.0, 1.0])
    assert np.array_equal(cb.analytic_bstar(bd, 0.0), [[-2.0, 1.0], [1.0, -2.0]])
    c3 = cb.batch_death_chain(2, [2.0, 1.0], [1.0, 1.0])
    assert np.array_equal(cb.analytic_bstar(c3, 0.0), [[-3.0, 1.0], [1.0, -4.0]])


def test_analytic_bstar_rejects_general():
    rng = np.random.default_rng(6)
    spec = random_regular_general(rng, 3)
    with pytest.raises(ValueError):
        cb.analytic_bstar(spec, 0.0)


def _bstar_from_entry_formulas(A):
    """Independent oracle: the transformed matrix entry by entry for S=5.

    Hand-transcribed sums of adjacent differences of the transposed
    intensities a_ij = A[i, j]; covers every row of the 5x5 result.
    """
    a = A
    M = np.empty((5, 5))
    M[0, 0] = -a[0, 1] - (a[1, 0] + a[2, 0] + a[3, 0] + a[4, 0] + a[5, 0])
    M[0, 1] = a[0, 1] - a[0, 2]
    M[0, 2] = a[0, 2] - a[0, 3]
    M[0, 3] = a[0, 3] - a[0, 4]
    M[0, 4] = a[0, 4] - a[0, 5]

    M[1, 0] = (a[2, 1] - a[2, 0]) + (a[3, 1] - a[3, 0]) + (a[4, 1] - a[4, 0]) \
        + (a[5, 1] - a[5, 0])
    M[1, 1] = -a[0, 2] - a[1, 2] - (a[2, 1] + a[3, 1] + a[4, 1] + a[5, 1])
    M[1, 2] = -a[1, 3] + a[1, 2] - a[0, 3] + a[0, 2]
    M[1, 3] = -a[1, 4] + a[1, 3] - a[0, 4] + a[0, 3]
    M[1, 4] = -a[1, 5] + a[1, 4] - a[0, 5] + a[0, 4]

    M[2, 0] = (a[3, 1] - a[3, 0]) + (a[4, 1] - a[4, 0]) + (a[5, 1] - a[5, 0])
    M[2, 1] = (a[3, 2] - a[3, 1]) + (a[4, 2] - a[4, 1]) + (a[5, 2] - a[5, 1])
    M[2, 2] = -a[0, 3] - a[1, 3] - a[2, 3] - (a[3, 2] + a[4, 2] + a[5, 2])
    M[2, 3] = (a[0, 3] - a[0, 4]) + (a[1, 3] - a[1, 4]) + (a[2, 3] - a[2, 4])
    M[2, 4] = (a[0, 4] - a[0, 5]) + (a[1, 4] - a[1, 5]) + (a[2, 4] - a[2, 5])

    M[3, 0] = (a[4, 1] - a[4, 0]) + (a[5, 1] - a[5, 0])
    M[3, 1] = (a[4, 2] - a[4, 1]) + (a[5, 2] - a[5, 1])
    M[3, 2] = (a[4, 3] - a[4, 2]) + (a[5, 3] - a[5, 2])
    M[3, 3] = -a[0, 4] - a[1, 4] - a[2, 4] - a[3, 4] - (a[4, 3] + a[5, 3])
    M[3, 4] = (a[0, 4] - a[0, 5]) + (a[1, 4] - a[1, 5]) + (a[2, 4] - a[2, 5]) \
        + (a[3, 4] - a[3, 5])

    M[4, 0] = a[5, 1] - a[5, 0]
    M[4, 1] = a[5, 2] - a[5, 1]
    M[4, 2] = a[5, 3] - a[5, 2]
    M[4, 3] = a[5, 4] - a[5, 3]
    M[4, 4] = -a[5, 4] - (a[0, 5] + a[1, 5] + a[2, 5] + a[3, 5] + a[4, 5])
    return M


def test_entry_formula_oracle_constant_chain():
    rng = np.random.default_rng(31)
    spec = random_regular_general(rng, 5)
    A = cb.eval_generator(spec, 0.0).T
    numeric = cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0)))
    oracle = _bstar_from_entry_formulas(A)
    assert np.abs(numeric - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())


def test_entry_formula_oracle_time_varying_chain():
    rng = np.random.default_rng(32)
    spec = random_regular_general(rng, 5, time_varying=True)
    for t in (0.0, 0.37, 2.4):
        A = cb.eval_generator(spec, t).T
        numeric = cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, t)))
        oracle = _bstar_from_entry_formulas(A)
        assert np.abs(numeric - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())


def test_essential_nonnegativity_reports():
    ok = cb.check_essential_nonnegativity(np.array([[-1.0, 0.0], [1.0, -3.0]]))
    assert ok.passed and ok.min_offdiagonal == 0.0 and ok.violations == ()

    bad = cb.check_essential_nonnegativity(np.array([[-1.0, -0.5], [1.0, -3.0]]))
    assert not bad.passed
    assert bad.violations == ((0, 1, -0.5),)
    assert bad.min_offdiagonal == -0.5


def test_essential_nonnegativity_relative_tolerance():
    # a tiny negative entry relative to the matrix scale is round-off, not failure
    M = np.array([[-1e6, -1e-8], [1.0, -2e6]])
    assert cb.check_essential_nonnegativity(M).passed


def test_essential_nonnegativity_on_a_stack_locates_the_worst_entry():
    stack = np.tile(np.array([[-2.0, 1.0, 0.0], [0.5, -1.0, 2.0], [0.0, 3.0, -4.0]]),
                    (5, 1, 1))
    stack[1, 2, 0] = -0.25
    stack[3, 0, 2] = -0.75
    stack[3, 1, 1] = -9.0  # diagonal entries never count
    rep = cb.check_essential_nonnegativity(stack)
    assert not rep.passed
    assert rep.worst_index == (3, 0, 2) and rep.min_offdiagonal == -0.75
    assert rep.violations == ((3, 0, 2, -0.75), (1, 2, 0, -0.25))
    with pytest.raises(cb.NonnegativityError, match=r"entry \(1,3\) = -0.75 at t=0.3"):
        cb.require_essential_nonnegativity(stack, np.linspace(0.0, 0.4, 5))

    ok = cb.check_essential_nonnegativity(np.abs(stack))
    assert ok.passed and ok.worst_index[0] in range(5) and ok.min_offdiagonal == 0.0
    one = cb.check_essential_nonnegativity(np.full((4, 1, 1), -1.0))
    assert one.passed and one.min_offdiagonal == np.inf and one.worst_index is None


def test_essential_nonnegativity_reads_a_stack_without_copying():
    stack = np.random.default_rng(3).uniform(0.0, 1.0, (4001, 30, 30))
    tracemalloc.start()
    try:
        rep = cb.check_essential_nonnegativity(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < stack.nbytes / 10


# entries of several scales, so that ties, round-off below the tolerance and
# violations found only against the tolerance of later slices all occur
ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-3, -1e-13, -1e-15, 40.0])


@st.composite
def stacks(draw, extra=0):
    """A (T, S+extra, S+extra) float stack and a CHUNK_BYTES of one to all of its T times."""
    T, S = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    stack = draw(hnp.arrays(float, (T, S + extra, S + extra), elements=ENTRIES))
    per_time = 8 * S * S
    return stack, draw(st.integers(1, (T + 1) * per_time))


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(stacks())
def test_essential_nonnegativity_reports_what_the_whole_stack_does(case):
    stack, chunk = case
    stack.flags.writeable = False
    before = stack.tobytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "CHUNK_BYTES", chunk)
        assert cb.check_essential_nonnegativity(stack) == dense_nonnegativity(stack)
        assert cb.check_essential_nonnegativity(stack[0]) == dense_nonnegativity(stack[0])
    assert stack.tobytes() == before  # read-only input comes back bit for bit


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(stacks(extra=1))
def test_scan_transform_reports_what_the_whole_stack_does(case):
    Q, chunk = case  # any entries: B* of the stack, not of a generator
    whole = dense_nonnegativity(cb.to_bstar(cb.build_reduced(Q)))
    written = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "CHUNK_BYTES", chunk)
        report = transform.scan_transform(Q, None, lambda s, M: written.append(M.tobytes()))
    assert report == whole
    assert b"".join(written) == cb.to_bstar(cb.build_reduced(Q)).tobytes()  # diagonal restored


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
@pytest.mark.parametrize("where", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
def test_essential_nonnegativity_refuses_an_entry_that_is_not_finite(bad, where):
    stack = np.tile(np.array([[-1.0, 0.5], [1.0, -2.0]]), (7, 1, 1))
    stack[4][where] = bad
    with pytest.raises(cb.NonFiniteBoundError, match=r"^B\* has an entry that is not finite: "):
        cb.check_essential_nonnegativity(stack)
    with pytest.raises(cb.NonFiniteBoundError):
        cb.check_essential_nonnegativity(stack[4])


def test_to_bstar_allocates_only_its_result():
    stack = np.random.default_rng(4).normal(size=(4001, 30, 30))
    tracemalloc.start()
    try:
        out = cb.to_bstar(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes
    assert out.flags.c_contiguous
    assert np.array_equal(out[17], cb.to_bstar(stack[17]))


def test_regular_chains_have_essentially_nonnegative_transform():
    rng = np.random.default_rng(99)
    for kind in CLASS_KINDS:
        for S in (2, 5, 8):
            spec = random_class_chain(rng, kind, S)
            Bs = cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0)))
            assert cb.check_essential_nonnegativity(Bs).passed, (kind, S)
    for S in (2, 4, 6):
        spec = random_regular_general(rng, S, time_varying=True)
        for t in (0.0, 0.8):
            Bs = cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, t)))
            assert cb.check_essential_nonnegativity(Bs).passed, ("general", S, t)


def test_apply_weights():
    M = np.array([[-1.0, 0.0], [1.0, -3.0]])
    assert np.array_equal(cb.apply_weights(M, [1.0, 1.0]), M)
    out = cb.apply_weights(M, [2.0, 1.0])
    assert np.array_equal(out, [[-1.0, 0.0], [0.5, -3.0]])


def test_apply_weights_keeps_diagonal_and_nonnegativity():
    rng = np.random.default_rng(12)
    spec = random_class_chain(rng, "batch_both", 5)
    Bs = cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0)))
    d = rng.uniform(0.5, 3.0, 5)
    out = cb.apply_weights(Bs, d)
    assert np.allclose(np.diag(out), np.diag(Bs), atol=1e-15)
    assert cb.check_essential_nonnegativity(out).passed


def test_apply_weights_validation():
    M = np.eye(3)
    with pytest.raises(ValueError):
        cb.apply_weights(M, [1.0, 2.0])
    with pytest.raises(ValueError):
        cb.apply_weights(M, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        cb.apply_weights(M, [1.0, -1.0, 1.0])


def test_nonregular_chain_can_still_pass_nonnegativity(nonregular_override_chain):
    spec = nonregular_override_chain
    assert not cb.check_regularity(cb.rate_table(spec, [0.0])).regular
    Bs = cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0)))
    assert cb.check_essential_nonnegativity(Bs).passed


def _plateaus(low, high, spans):
    """A table rate at low, raised to high on each closed span, with short ramps between."""
    times, values = [0.0], [low]
    for a, b in spans:
        times += [a - 0.05, a, b, b + 0.05]
        values += [low, high, high, low]
    return cb.RateFunction.table(times + [1.0], values + [low])


# batch_birth S=3: B*(3,2) = a_1 - a_2 dips wherever a_2 rises above a_1 = 2
CHUNKED_CASES = {
    # -0.1 on [0.2, 0.3], the worst -0.5 only on [0.7, 0.8]
    "worst-in-a-later-chunk": cb.batch_birth_chain(3, [
        2.0, cb.RateFunction.table([0.0, 0.15, 0.2, 0.3, 0.35, 0.65, 0.7, 0.8, 0.85, 1.0],
                                   [1.0, 1.0, 2.1, 2.1, 1.0, 1.0, 2.5, 2.5, 1.0, 1.0]),
        0.5], [1.0] * 3),
    # the same -0.5, bit for bit, on [0.2, 0.3] and on [0.7, 0.8]: the first wins
    "tied-worst": cb.batch_birth_chain(
        3, [2.0, _plateaus(1.0, 2.5, [(0.2, 0.3), (0.7, 0.8)]), 0.5], [1.0] * 3),
    # rates near 1e-6 up to t=0.3 and near 1 from t=0.6: there B*(3,2) is about
    # -1e-15, below the 4e-18 tolerance of those times alone but above the
    # 1e-12 tolerance of the whole stack, so the chain passes
    "between-tolerances": cb.batch_birth_chain(3, [
        cb.RateFunction.table([0.0, 0.3, 0.6, 1.0], [1e-6, 1e-6, 1.0, 1.0]),
        cb.RateFunction.table([0.0, 0.3, 0.6, 1.0], [1e-6 + 1e-15, 1e-6 + 1e-15, 0.5, 0.5]),
        cb.RateFunction.table([0.0, 0.3, 0.6, 1.0], [1e-7, 1e-7, 0.25, 0.25])], [1e-6] * 3),
}
# the check grid has 11 times; bounds (2*11-1) and verify (4*5+1) share 21
CHUNKED_ANALYSIS = {"horizon": 1.0, "grid": 11, "steps": 5}


def _whole_stack(spec, times):
    return dense_nonnegativity(cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, times))))


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_chunked_transform_reports_what_the_whole_stack_does(monkeypatch, case):
    spec = CHUNKED_CASES[case]
    times = np.linspace(0.0, 1.0, 21)
    whole = _whole_stack(spec, times)
    assert whole.passed == (case == "between-tolerances")
    assert not cb.check_essential_nonnegativity(
        cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, times[:7])))).passed
    for step in (1, 2, 3, 21):  # times per slice
        monkeypatch.setattr(transform, "CHUNK_BYTES", step * 8 * spec.S ** 2)
        assert transform.scan_transform(cb.eval_generator(spec, times), None, None) == whole


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_commands_judge_chunks_as_the_whole_stack(tmp_path, capsys, monkeypatch, case):
    spec = CHUNKED_CASES[case]
    path = tmp_path / "model.json"
    path.write_text(cb.serialize_model(cb.ModelFile(
        spec, cb.AnalysisSettings(**CHUNKED_ANALYSIS))))
    monkeypatch.setattr(transform, "CHUNK_BYTES", 2 * 8 * spec.S ** 2)  # two times a slice
    reports, scan = [], transform.scan_transform

    def recorded(Q, weights, consume):
        reports.append(scan(Q, weights, consume))
        return reports[-1]

    for module in (cli, bounds):  # check's scan, and bounds' and verify's
        monkeypatch.setattr(module, "scan_transform", recorded)

    grid = np.linspace(0.0, 1.0, 11)
    whole = _whole_stack(spec, grid)
    i, j = whole.worst_index[1:]
    at = f" at t={format(grid[whole.worst_index[0]], '.12g')}" if not whole.passed else ""
    expected = (f"B* essentially non-negative: {'yes' if whole.passed else 'no'} "
                f"({'off-diagonal minimum' if whole.passed else f'entry ({i + 1},{j + 1}) ='} "
                f"{format(whole.min_offdiagonal, '.12g')}{at})")
    assert cli.main(["check", str(path)]) == (cli.EXIT_OK if whole.passed else cli.EXIT_VIOLATION)
    assert expected in capsys.readouterr().out.splitlines()
    assert reports == [whole]

    times = np.linspace(0.0, 1.0, 21)
    whole = _whole_stack(spec, times)
    for command in ("bounds", "verify"):
        reports.clear()
        code = cli.main([command, str(path)])
        err = capsys.readouterr().err
        assert reports == [whole]
        if whole.passed:
            assert code == cli.EXIT_OK and err == ""
        else:
            with pytest.raises(cb.NonnegativityError) as expected:
                cb.require_essential_nonnegativity(whole, times)
            assert code == cli.EXIT_VIOLATION and err == f"error: {expected.value}\n"


EPS = np.finfo(float).eps
BAND_TIMES = np.array([0.0, 0.35, 1.2, 2.0])


def _band_chain(S, time_varying, seed=0):
    """A birth-death chain with rates in [0.5, 2], sinusoidal if time_varying."""
    rng = np.random.default_rng(seed)

    def rates():
        levels = rng.uniform(0.5, 2.0, S)
        if not time_varying:
            return levels
        return [cb.RateFunction.sinusoid(v, 0.4 * v, f, p)
                for v, f, p in zip(levels, rng.uniform(0.5, 1.5, S), rng.uniform(0.0, 6.0, S))]

    return cb.birth_death_chain(S, rates(), rates())


def _dense_band(diag, upper, lower):
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


@pytest.mark.parametrize("time_varying", [False, True], ids=["constant", "time-varying"])
@pytest.mark.parametrize("S", [1, 2, 3, 50])
def test_bstar_band_is_the_tridiagonal_transform(S, time_varying):
    spec = _band_chain(S, time_varying)
    table = cb.rate_table(spec, BAND_TIMES)
    assert transform.is_tridiagonal(table)
    diag, upper, lower = transform.bstar_band(table)
    assert diag.shape == (len(BAND_TIMES), S)
    assert upper.shape == lower.shape == (len(BAND_TIMES), S - 1)
    dense = cb.to_bstar(cb.build_reduced(table[...]))
    for k, t in enumerate(BAND_TIMES):
        band = _dense_band(diag[k], upper[k], lower[k])
        assert np.array_equal(band, cb.analytic_bstar(spec, t))
        # to_bstar's tail sums and differences round dense entries by about an ulp
        assert np.abs(band - dense[k]).max() <= 2.0 * EPS * np.abs(dense[k]).max()


def test_tridiagonal_is_read_off_the_index():
    rng = np.random.default_rng(3)
    nearest = cb.general_chain(3, {(0, 1): 1.0, (1, 0): 2.0, (1, 2): 0.5, (3, 2): 1.5})
    reach2 = cb.general_chain(3, {(0, 1): 1.0, (1, 0): 2.0, (2, 0): 0.5})
    cases = {nearest: True, reach2: False, _band_chain(4, True): True,
             cb.batch_birth_chain(1, [1.0], [2.0]): True,
             **{random_class_chain(rng, kind, 3): False for kind in CLASS_KINDS[1:]}}
    for spec, expected in cases.items():
        table = cb.rate_table(spec, BAND_TIMES[:1])
        assert transform.is_tridiagonal(table) == expected, spec
        if expected:
            band = _dense_band(*(v[0] for v in transform.bstar_band(table)))
            dense = cb.to_bstar(cb.build_reduced(table[0]))
            assert np.abs(band - dense).max() <= 2.0 * EPS * np.abs(dense).max()


@pytest.mark.parametrize("time_varying", [False, True], ids=["constant", "time-varying"])
@pytest.mark.parametrize("S", [2, 3, 50])
def test_band_column_sums_match_the_dense_scan(S, time_varying):
    spec = _band_chain(S, time_varying, seed=S)
    d = np.random.default_rng(S).uniform(0.5, 2.0, S)
    table = cb.rate_table(spec, BAND_TIMES)
    diag, upper, lower = transform.bstar_band(table)
    band = transform.band_column_sums(diag, *transform.weight_band(upper, lower, d))
    dense = np.empty_like(band)

    def consume(s, M):
        dense[s] = M.sum(axis=-2)

    transform.scan_transform(table, d, consume)
    weighted = [cb.apply_weights(cb.analytic_bstar(spec, t), d) for t in BAND_TIMES]
    terms = np.abs(weighted).sum(axis=-2)  # the sum of absolute terms of each column
    exact = np.sum(weighted, axis=-2)
    # the dense scan sums S terms of tail sums of up to S entries each
    assert np.all(np.abs(band - dense) <= 2 * S * EPS * terms)
    assert np.all(np.abs(band - exact) <= 2 * EPS * terms)
    h_up, h_lo = bounds.column_sum_extremes(table, d, len(BAND_TIMES))
    assert np.array_equal(h_up, band.max(axis=-1)) and np.array_equal(h_lo, band.min(axis=-1))


def test_band_column_sums_read_the_table_a_slice_of_times_at_a_time(monkeypatch):
    spec = _band_chain(6, True)
    table = cb.rate_table(spec, np.linspace(0.0, 2.0, 41))
    d = np.linspace(1.0, 2.0, 6)
    whole = bounds.column_sum_extremes(table, d, 41)
    seen = []

    def recorded(table):
        seen.append(len(table))
        return band(table)

    band = transform.bstar_band
    monkeypatch.setattr(bounds, "CHUNK_BYTES", 8 * 6 * 8)  # 8 times of 6 column sums
    monkeypatch.setattr(bounds, "bstar_band", recorded)
    sliced = bounds.column_sum_extremes(table, d, 41)
    assert seen == [8, 8, 8, 8, 8, 1]
    assert all(np.array_equal(a, b) for a, b in zip(whole, sliced))


def test_bstar_band_names_the_time_of_an_entry_that_is_not_finite():
    # 9e307 + 1e308 t overflows at t=1 only
    deaths = [cb.RateFunction.table([0.0, 1.0], [0.0, 1e308])] + [1.0, 1.0]
    spec = cb.birth_death_chain(3, [9e307, 1.0, 1.0], deaths)
    table = cb.rate_table(spec, [0.0, 0.5, 1.0])
    message = re.escape("B* has an entry that is not finite at t=1.0: the rates exceed")
    with pytest.raises(cb.NonFiniteBoundError, match=message):
        transform.bstar_band(table)
    with pytest.raises(cb.NonFiniteBoundError, match=message):
        bounds.column_sum_extremes(table, np.ones(3), 3)
