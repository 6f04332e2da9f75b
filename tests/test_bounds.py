import math
import tracemalloc

import numpy as np
import pytest

import ctmc_bounds as cb
from ctmc_bounds import cli
from conftest import random_sharp_chain


def _halfgrid_samples(fn, tmax, n_grid):
    ts = np.linspace(0.0, tmax, 2 * n_grid - 1)
    return fn(ts), tmax / (n_grid - 1)


def test_cumulative_simpson_starts_at_zero_and_is_exact_for_cubics():
    f = lambda t: 2.0 - 3.0 * t + t ** 2 + 0.5 * t ** 3
    F = lambda t: 2.0 * t - 1.5 * t ** 2 + t ** 3 / 3.0 + 0.125 * t ** 4
    vals, step = _halfgrid_samples(f, 2.0, 11)
    out = cb.cumulative_simpson(vals, step)
    grid = np.linspace(0.0, 2.0, 11)
    assert out[0] == 0.0
    assert np.allclose(out, F(grid), atol=1e-13)


def test_cumulative_simpson_sinusoid_over_period():
    # mean * period survives; the oscillation integrates away
    mean, amp = 1.0, 1.0
    f = lambda t: mean + amp * np.sin(2.0 * np.pi * t)
    vals, step = _halfgrid_samples(f, 1.0, 1001)
    out = cb.cumulative_simpson(vals, step)
    assert abs(out[-1] - mean * 1.0) <= 1e-10


def test_cumulative_simpson_preserves_pointwise_order():
    rng = np.random.default_rng(2)
    g = rng.normal(size=41)
    f = g + rng.uniform(0.0, 1.0, 41)
    If = cb.cumulative_simpson(f, 0.1)
    Ig = cb.cumulative_simpson(g, 0.1)
    assert np.all(If >= Ig)


def test_cumulative_simpson_validation():
    with pytest.raises(ValueError):
        cb.cumulative_simpson(np.ones(4), 0.1)   # even sample count
    with pytest.raises(ValueError):
        cb.cumulative_simpson(np.ones(1), 0.1)


def test_cumulative_simpson_componentwise_on_trailing_axes():
    rng = np.random.default_rng(7)
    f = rng.normal(size=(21, 3))
    out = cb.cumulative_simpson(f, 0.25)
    assert out.shape == (11, 3)
    for j in range(3):
        assert np.array_equal(out[:, j], cb.cumulative_simpson(f[:, j], 0.25))


def test_compute_bounds_constant_chain_integrates_linearly():
    spec = cb.birth_death_chain(3, [1.0] * 3, [1.0] * 3)
    rate = cb.perron_weights(cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0))))
    rep = cb.compute_bounds(spec, rate.weights, tmax=2.0, n_grid=101)
    lam0 = rate.lambda0
    assert np.allclose(rep.h_upper, lam0, atol=1e-12)
    assert np.allclose(rep.h_lower, lam0, atol=1e-12)
    assert np.allclose(rep.I_upper, lam0 * rep.grid, atol=1e-12)
    assert np.allclose(rep.env_upper, np.exp(lam0 * rep.grid), rtol=1e-12)


def test_compute_bounds_envelope_ordering():
    lam = cb.RateFunction.sinusoid(1.0, 1.0, 1.0)
    spec = cb.birth_death_chain(5, [lam] * 5, [1.0] * 5)
    rep = cb.compute_bounds(spec, np.ones(5), tmax=3.0, n_grid=301)
    assert np.all(rep.I_lower <= rep.I_upper + 1e-15)
    assert np.all(rep.env_lower <= rep.env_upper * (1.0 + 1e-15))
    assert rep.I_upper[0] == rep.I_lower[0] == 0.0
    assert not rep.sharp and rep.lambda0 is None


def test_compute_bounds_grid_refinement_is_fourth_order():
    lam = cb.RateFunction.sinusoid(1.0, 1.0, 1.0)
    spec = cb.birth_death_chain(4, [lam] * 4, [1.0] * 4)
    coarse = cb.compute_bounds(spec, np.ones(4), 3.0, 501)
    fine = cb.compute_bounds(spec, np.ones(4), 3.0, 1001)
    for attr in ("I_upper", "I_lower"):
        c, f = getattr(coarse, attr)[-1], getattr(fine, attr)[-1]
        assert abs(f - c) <= 1e-8 * max(1.0, abs(f)), attr


def test_compute_bounds_warns_on_override_path(nonregular_override_chain):
    rep = cb.compute_bounds(nonregular_override_chain, np.ones(3), 1.0, 51)
    assert len(rep.warnings) == 1
    assert "not regular" in rep.warnings[0]


def test_compute_bounds_rejects_broken_transform():
    # an increasing batch list sinks an off-diagonal entry of the transform
    spec = cb.batch_birth_chain(2, [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="not essentially non-negative"):
        cb.compute_bounds(spec, np.ones(2), 1.0, 51)


def test_compute_bounds_validation():
    spec = cb.birth_death_chain(2, [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        cb.compute_bounds(spec, np.ones(2), 0.0, 51)
    with pytest.raises(ValueError):
        cb.compute_bounds(spec, np.ones(2), 1.0, 1)
    with pytest.raises(ValueError):
        cb.compute_bounds(spec, [1.0, -1.0], 1.0, 51)


def test_sharp_report_symmetric_chain():
    spec = cb.birth_death_chain(3, [1.0] * 3, [1.0] * 3)
    rep = cb.sharp_report(spec, tmax=2.0, n_grid=101)
    assert rep.sharp
    assert rep.lambda0 == pytest.approx(-(2.0 - math.sqrt(2.0)), abs=1e-9)
    assert np.allclose(rep.I_upper, rep.I_lower, atol=1e-12)


def test_sharp_report_batch_death_matches_trajectory_decay():
    spec = cb.batch_death_chain(4, [2.0, 1.0, 0.5, 0.25], [1.0] * 4)
    rep = cb.sharp_report(spec, tmax=2.0, n_grid=101)
    assert rep.sharp
    rng = np.random.default_rng(3)
    w0 = rng.uniform(0.1, 1.0, 4)
    traj = cb.solve("transformed", spec, w0, tmax=2.0, n_steps=4000,
                    weights=rep.weights)
    norms = np.abs(traj.states).sum(axis=1)
    fitted = math.log(norms[-1] / norms[0]) / 2.0
    assert abs(fitted - rep.lambda0) <= 1e-6 * abs(rep.lambda0)


def test_sharp_report_single_state_is_diagonal_entry():
    spec = cb.batch_both_chain(1, [0.7], [1.3])
    rep = cb.sharp_report(spec)
    assert rep.sharp and rep.lambda0 == pytest.approx(-2.0, abs=1e-12)


def test_sharp_report_requires_homogeneous_and_conditions():
    lam = cb.RateFunction.sinusoid(1.0, 0.5, 1.0)
    with pytest.raises(cb.InhomogeneousChainError):
        cb.sharp_report(cb.birth_death_chain(2, [lam, 1.0], [1.0, 1.0]))
    with pytest.raises(cb.SharpnessConditionError):
        cb.sharp_report(cb.batch_birth_chain(3, [1.0, 1.0, 0.5], [1.0] * 3))


def test_sharp_report_equals_compute_bounds_with_perron_weights():
    rng = np.random.default_rng(10)
    spec = random_sharp_chain(rng, "batch_death", 5)
    rep = cb.sharp_report(spec, tmax=1.0, n_grid=51)
    manual = cb.compute_bounds(spec, rep.weights, 1.0, 51)
    assert np.array_equal(rep.I_upper, manual.I_upper)
    assert np.array_equal(rep.h_lower, manual.h_lower)


HOMOGENEOUS_RUNS = {
    "compute_bounds": lambda spec: cb.compute_bounds(spec, np.ones(spec.S), 1.0, 201),
    "sharp_report": lambda spec: cb.sharp_report(spec, 1.0, 201),
}


@pytest.mark.parametrize("run", sorted(HOMOGENEOUS_RUNS))
def test_homogeneous_generator_is_evaluated_at_one_time(generator_points, run):
    HOMOGENEOUS_RUNS[run](cb.birth_death_chain(200, [1.0] * 200, [2.0] * 200))
    assert generator_points and all(n == 1 for n in generator_points)


@pytest.mark.parametrize("run", sorted(HOMOGENEOUS_RUNS))
def test_homogeneous_bounds_allocate_a_few_matrices(run):
    spec = cb.birth_death_chain(200, [1.0] * 200, [2.0] * 200)
    HOMOGENEOUS_RUNS[run](spec)  # one-time set-up (imports, BLAS) is not measured
    tracemalloc.start()
    try:
        HOMOGENEOUS_RUNS[run](spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_sharp_report_of_a_birth_death_chain_holds_no_square_matrix():
    # a dense B* and its solves took 1.13 s and a 214 MB peak; the band
    # leaves the (S+1)^2 index of the rate table, 32 MB, as the one O(S^2) array
    S = 2000
    spec = cb.birth_death_chain(S, [1.0] * S, [2.0] * S)
    tracemalloc.start()
    try:
        rep = cb.sharp_report(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    beta, _ = cb.closed_form_bd(1.0, 2.0, S)
    assert rep.sharp and rep.perron.iterations <= 8 and peak < 64e6
    assert abs(rep.lambda0 + beta) <= 1e-14 * beta


# batch_both with S=30: 60 distinct time-varying rates, regular at every time
TV_BATCH_S30 = cb.batch_both_chain(
    30, [cb.RateFunction.sinusoid(2.0 / k, 1.0 / k, 1.0) for k in range(1, 31)],
    [cb.RateFunction.sinusoid(3.0 / k, 1.5 / k, 0.5) for k in range(1, 31)])
# birth-death with S=30: one sinusoidal birth rate and one constant death rate
TV_BD_S30 = cb.birth_death_chain(30, [cb.RateFunction.sinusoid(1.0, 0.5, 1.0)] * 30, [1.0] * 30)
ONE_STACK_CASES = {"bounds": ("bounds", TV_BATCH_S30, 2001),
                   "check": ("check", TV_BATCH_S30, 2001),
                   "bounds-bd-401": ("bounds", TV_BD_S30, 401),
                   "bounds-bd-2001": ("bounds", TV_BD_S30, 2001)}


def _traced_peak(run):
    """(result, tracemalloc peak in bytes) of run(), after one untraced warm-up call."""
    run()  # one-time set-up (imports, BLAS) is not measured
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("case", sorted(ONE_STACK_CASES))
def test_time_varying_commands_peak_below_one_generator_stack(tmp_path, capsys, case):
    # compute_bounds reads 2*grid-1 times and check grid times: each holds the
    # rate table (60 or 2 doubles a time), its sums or regularity pairs, and
    # one slice, never the whole-time generator stack of 31**2 doubles a time
    command, spec, grid = ONE_STACK_CASES[case]
    path = tmp_path / "model.json"
    path.write_text(cb.serialize_model(cb.ModelFile(
        spec, cb.AnalysisSettings(horizon=1.0, grid=grid))))
    runs = {"bounds": lambda: cb.compute_bounds(spec, np.ones(30), 1.0, grid).warnings,
            "check": lambda: cli.main(["check", str(path)])}
    times = {"bounds": 2 * grid - 1, "check": grid}[command]
    result, peak = _traced_peak(runs[command])
    assert not result  # regular: no warning from bounds, exit code 0 from check
    assert peak < times * 31 ** 2 * 8


def test_verify_peaks_below_one_generator_stack(tmp_path, capsys):
    # 1000 steps read 4*1000+1 times: the scans write Q (31**2 doubles a
    # time) from the rate table a chunk of 32 steps at a time and map it to
    # B** there, so verify holds neither whole; a whole Q would take 30.8 MB
    path = tmp_path / "model.json"
    path.write_text(cb.serialize_model(cb.ModelFile(
        TV_BATCH_S30, cb.AnalysisSettings(horizon=1.0, steps=1000))))
    code, peak = _traced_peak(lambda: cli.main(["verify", str(path)]))
    assert code == cli.EXIT_OK
    assert peak < (4 * 1000 + 1) * 31 ** 2 * 8


def test_transformed_solve_holds_no_whole_time_stack():
    # 1000 steps read 2*1000+1 times: B** (30**2 doubles a time) is written
    # from the rate table a chunk of 32 steps at a time, as are Q, B and B*
    # within it; a whole B** would take 14.4 MB
    w0 = np.linspace(1.0, 2.0, 30)
    traj, peak = _traced_peak(lambda: cb.solve("transformed", TV_BATCH_S30, w0, 1.0, 1000))
    assert np.isfinite(traj.states).all()
    assert peak < (2 * 1000 + 1) * 30 ** 2 * 8 / 4


def test_reduced_solve_holds_no_whole_time_stack():
    # B (30**2 doubles a time) is written from the rate table a chunk of 32
    # steps at a time, with no whole-time Q or B
    y0 = np.linspace(1.0, 2.0, 30)
    traj, peak = _traced_peak(lambda: cb.solve("reduced_hom", TV_BATCH_S30, y0, 1.0, 1000))
    assert np.isfinite(traj.states).all()
    assert peak < (2 * 1000 + 1) * 30 ** 2 * 8 / 4


def test_homogeneous_report_equals_time_varying_report_bit_for_bit():
    # flat two-breakpoint tables take the time-varying path, and np.interp
    # returns their value exactly
    def flat(values):
        return [cb.RateFunction.table([0.0, 1.0], [v, v]) for v in values]

    batch, death = [2.0, 1.0, 0.5, 0.25], [1.0, 3.0, 0.5, 2.0]
    constant = cb.batch_birth_chain(4, batch, death)
    tables = cb.batch_birth_chain(4, flat(batch), flat(death))
    assert constant.is_homogeneous and not tables.is_homogeneous
    weights = [1.0, 0.8, 1.3, 0.6]
    a = cb.compute_bounds(constant, weights, 1.5, 41)
    b = cb.compute_bounds(tables, weights, 1.5, 41)
    for field in ("grid", "h_upper", "h_lower", "I_upper", "I_lower",
                  "env_upper", "env_lower", "weights"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert a.warnings == b.warnings


def test_bound_report_csv_round_trip(tmp_path):
    spec = cb.birth_death_chain(2, [1.0, 2.0], [2.0, 1.0])
    rep = cb.compute_bounds(spec, np.ones(2), 1.0, 21)
    path = tmp_path / "report.csv"
    cb.bound_report_to_csv(rep, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,h_upper,h_lower,I_upper,I_lower,env_upper,env_lower"
    assert len(lines) == 22
    assert text.endswith("\n") and "\r" not in text
    row = lines[5].split(",")
    k = 4
    assert float(row[0]) == rep.grid[k]
    assert float(row[1]) == rep.h_upper[k]   # 17 digits round-trip exactly
    assert float(row[5]) == rep.env_upper[k]


def _csv_one_call_per_value(path, header, columns):
    """The CSV writer as it was: one format(v, '.17g') call per value."""
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns), strict=True)
    lines = [",".join(header)]
    lines.extend(",".join(format(v, ".17g") for v in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def test_csv_rows_by_one_template_keep_the_bytes_of_one_call_per_value(tmp_path):
    # the edges of the double range, signed zeros, non-finite values, round
    # numbers and 17-digit ones; 2001 rows of 7 columns, and one column alone
    special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308, -1e308, 5e-324,
               -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 0.1, 1e16, 1e17,
               123456789.0, 1 / 3, 2.0 ** 53 + 2, 1e-5, 9.999999999999999e22]
    rng = np.random.default_rng(5)
    values = np.concatenate([special, rng.standard_normal(2001 * 7 - len(special))
                             * 10.0 ** rng.integers(-300, 300, 2001 * 7 - len(special))])
    columns = rng.permutation(values).reshape(7, 2001)
    header = list(cb.bounds.CSV_COLUMNS)
    for head, cols in ((header, columns), (header[:1], columns[:1])):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        cb.bounds.write_csv(new, head, cols)
        _csv_one_call_per_value(old, head, cols)
        assert new.read_bytes() == old.read_bytes()
    with pytest.raises(ValueError):
        cb.bounds.write_csv(tmp_path / "ragged.csv", header[:2], [[1.0, 2.0], [3.0]])
