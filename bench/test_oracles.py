"""Tests of the benchmark's oracles, model generator and tracer.

    python3 -m pytest -q bench

The oracle tests use chains whose answers are known in closed form, and
check both that correct output passes and that perturbed output fails.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402


def _model(kind, S, lists, **analysis):
    chain = {"kind": kind, "states": S}
    chain.update(lists)
    return {"schema": 1, "chain": chain, "analysis": analysis}


def _csv(header, columns):
    rows = [",".join(header)]
    rows += [",".join(format(float(v), ".17g") for v in row) for row in zip(*columns)]
    return "\n".join(rows) + "\n"


# -- dense assembly ------------------------------------------------------------

def test_birth_death_bstar_matches_hand_computation():
    l0, l1, m1, m2 = 1.5, 0.7, 2.0, 0.4
    dense = oracles.DenseChain(_model("birth_death", 2, {"birth": [l0, l1], "death": [m1, m2]}))
    Q = dense.generator([0.0])[0]
    np.testing.assert_allclose(Q, [[-l0, l0, 0], [m1, -(m1 + l1), l1], [0, m2, -m2]])
    np.testing.assert_allclose(dense.bstar([0.0])[0], [[-(l0 + m1), m1], [l1, -(l1 + m2)]])
    assert dense.homogeneous


def test_batch_birth_bstar_below_diagonal_is_telescoped_differences():
    a, mu, S = [3.0, 2.0, 0.5], [1.0, 1.2, 1.4], 3
    M = oracles.DenseChain(_model("batch_birth", S, {"batch_birth": a, "death": mu})).bstar([0.0])[0]
    for r in range(S):
        for c in range(r):
            assert M[r, c] == pytest.approx(a[r - c - 1] - a[S - c - 1])
        assert M[r, r] == pytest.approx(-(mu[r] + sum(a[:S - r])))


def test_rate_bank_evaluates_sinusoids_and_clamped_tables():
    sin = {"sinusoid": {"offset": 2.0, "amplitude": 0.5, "frequency": 1.5, "phase": 0.3}}
    tab = {"table": {"times": [0.0, 1.0, 2.0], "values": [1.0, 3.0, 2.0]}}
    ts = np.array([-0.5, 0.0, 0.25, 1.0, 1.7, 2.5])
    out = oracles._RateBank([sin, tab, 4.0])(ts)
    np.testing.assert_allclose(out[0], 2.0 + 0.5 * np.sin(2 * math.pi * 1.5 * ts + 0.3))
    np.testing.assert_allclose(out[1], np.interp(ts, [0, 1, 2], [1, 3, 2]))
    np.testing.assert_allclose(out[2], 4.0)


# -- rate ----------------------------------------------------------------------

def _rate_output(lam0, weights, horizon=1.0, grid=11):
    t = np.linspace(0.0, horizon, grid)
    I = lam0 * t
    stdout = (f"lambda0: {lam0!r}\nweights: " + " ".join(repr(float(w)) for w in weights)
              + "\nsharp: yes (h_max = h_min = lambda0 on the grid)\n")
    csv = _csv(oracles.BOUNDS_COLUMNS, (t, np.full(grid, lam0), np.full(grid, lam0),
                                        I, I, np.exp(I), np.exp(I)))
    return stdout, csv


def test_rate_check_accepts_the_closed_form_and_rejects_perturbations():
    a, b, S = 1.0, 2.0, 4
    model = _model("birth_death", S, {"birth": [a] * S, "death": [b] * S}, horizon=1.0, grid=11)
    lam0 = -(a + b - 2.0 * math.sqrt(a * b) * math.cos(math.pi / (S + 1)))
    _, d = oracles.perron_vector(oracles.DenseChain(model).bstar([0.0])[0])
    assert oracles.check_rate(model, *_rate_output(lam0, d)) == []
    assert oracles.check_rate(model, *_rate_output(lam0 * (1 + 1e-6), d))
    bad = d.copy()
    bad[1] *= 1.0 + 1e-6
    assert oracles.check_rate(model, *_rate_output(lam0, bad))
    assert oracles.check_rate(model, *_rate_output(lam0, -d))


def test_rate_check_uses_the_eigenvalue_for_batch_kinds():
    S = 4
    model = _model("batch_both", S, {"batch_birth": [1.0, 0.6, 0.3, 0.1],
                                     "batch_death": [2.0, 1.0, 0.5, 0.2]}, horizon=1.0, grid=11)
    lam0, d = oracles.perron_vector(oracles.DenseChain(model).bstar([0.0])[0])
    assert oracles.check_rate(model, *_rate_output(lam0, d)) == []
    assert oracles.check_rate(model, *_rate_output(lam0 + 1e-6, d))


# -- bounds --------------------------------------------------------------------

SIN = {"sinusoid": {"offset": 1.0, "amplitude": 0.5, "frequency": 1.0, "phase": 0.0}}


def _one_state_bounds(grid=201, horizon=1.0, shift=0.0, env_factor=1.0):
    """S=1 birth-death chain: B* = -(birth + death) and both envelopes are exact."""
    model = _model("birth_death", 1, {"birth": [SIN], "death": [0.5]},
                   horizon=horizon, grid=grid)
    t = np.linspace(0.0, horizon, grid)
    h = -(1.0 + 0.5 * np.sin(2 * math.pi * t) + 0.5)
    I = -(1.5 * t + 0.5 * (1.0 - np.cos(2 * math.pi * t)) / (2 * math.pi)) + shift
    env = np.exp(I) * env_factor
    return model, _csv(oracles.BOUNDS_COLUMNS, (t, h, h, I, I, env, env))


def test_bounds_check_accepts_exact_envelopes():
    assert oracles.check_bounds(*_one_state_bounds()) == []


def test_bounds_check_rejects_a_shifted_integral():
    errors = oracles.check_bounds(*_one_state_bounds(shift=1e-3))
    assert "I_upper does not start at 0" in errors
    assert any("leaves the lower envelope" in e for e in errors)


def test_bounds_check_rejects_env_that_is_not_exp_of_I():
    errors = oracles.check_bounds(*_one_state_bounds(env_factor=1.0 + 1e-9))
    assert any("exp(I_upper)" in e for e in errors)


def test_bounds_check_rejects_a_wrong_grid():
    model, csv = _one_state_bounds(grid=201)
    model["analysis"]["grid"] = 101
    assert oracles.check_bounds(model, csv)


def _simpson_increments(h_half, step):
    return step / 6.0 * (h_half[0:-2:2] + 4.0 * h_half[1::2] + h_half[2::2])


def test_quadrature_tolerance_covers_kinks_of_the_maximum():
    # table rates and a switching maximum give slope jumps; Simpson at the
    # report spacing must still pass on every interval
    tab = {"table": {"times": [0.0, 0.33, 0.71, 1.0], "values": [1.0, 3.0, 0.5, 2.0]}}
    model = _model("birth_death", 2, {"birth": [tab, SIN], "death": [0.5, tab]},
                   horizon=1.0, grid=41)
    dense = oracles.DenseChain(model)
    h_up = dense.column_sum_extremes(np.linspace(0.0, 1.0, 81), np.ones(2))[0]
    ref = oracles.envelope_integrals(dense, np.ones(2), 1.0, 41)
    err = np.abs(_simpson_increments(h_up, 1 / 40) - np.diff(ref["I_up"]))
    assert err.max() > 0 and np.all(err <= ref["tol_up"])


def test_bounds_check_rejects_second_order_quadrature():
    # the trapezoid rule on the half-step samples is off by ~step^2 h'' per
    # unit time, far outside Simpson's fourth-order bound on a smooth integrand
    model, _ = _one_state_bounds()
    t = np.linspace(0.0, 1.0, 401)
    h = -(1.5 + 0.5 * np.sin(2 * math.pi * t))
    I = np.concatenate([[0.0], np.cumsum((1 / 200) / 4 * (h[0:-2:2] + 2 * h[1::2] + h[2::2]))])
    csv = _csv(oracles.BOUNDS_COLUMNS, (t[::2], h[::2], h[::2], I, I, np.exp(I), np.exp(I)))
    errors = oracles.check_bounds(model, csv)
    assert any("I_upper increment" in e for e in errors)


# -- verify --------------------------------------------------------------------

def _verify_case(ratio_scale=1.0, verdicts=("bounds: pass", "coupling: pass")):
    model = _model("birth_death", 2, {"birth": [1.0, 0.7], "death": [2.0, 0.4]},
                   horizon=1.0, steps=50, weights="ones")
    dense = oracles.DenseChain(model)
    M = dense.bstar([0.0])[0]
    t = np.linspace(0.0, 1.0, 51)
    h_up, h_lo = M.sum(axis=0).max(), M.sum(axis=0).min()
    Phi = np.stack([oracles.linalg.expm(tk * M) for tk in t])
    x0 = np.array([0.3, 0.7])
    ratio = np.abs(Phi @ x0).sum(axis=1) / np.abs(x0).sum()
    up = ratio / np.exp(h_up * t) * ratio_scale
    lo = ratio / np.exp(h_lo * t)
    csv = _csv(("t", "bounds_ratio_upper_max", "bounds_ratio_lower_min", "coupling_ratio_max"),
               (t, up, lo, up))
    return model, "\n".join(verdicts) + "\n", csv


def test_verify_check_accepts_trajectory_ratios_inside_the_propagator_norm():
    assert oracles.check_verify(*_verify_case()) == []


def test_verify_check_rejects_ratios_above_the_propagator_norm():
    errors = oracles.check_verify(*_verify_case(ratio_scale=1.01))
    assert any("bounds_ratio_upper_max" in e for e in errors)


def test_verify_check_requires_both_verdicts():
    errors = oracles.check_verify(*_verify_case(verdicts=("bounds: pass", "coupling: FAIL")))
    assert errors == ["coupling verdict is not pass"]


# -- workloads -----------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_are_seeded_and_regular(workload):
    cases = workloads.make_cases(workload, 7)
    assert cases == workloads.make_cases(workload, 7)
    assert cases != workloads.make_cases(workload, 8)
    for case in cases:
        dense = oracles.DenseChain(case.model)
        horizon = case.model["analysis"]["horizon"]
        worst = dense.column_sum_extremes(np.linspace(0, horizon, 97), np.ones(case.S))[-1]
        assert worst >= -1e-12, case.name     # round-off only


def test_expected_failure_does_not_depend_on_the_seed():
    pick = lambda seed: [c for c in workloads.make_cases("sharp_hom", seed) if c.expect_error]
    assert len(pick(1)) == 1 and pick(1) == pick(2)


# -- tracer --------------------------------------------------------------------

def test_tracer_counts_and_restores(tmp_path):
    sys.path.insert(0, str(BENCH.parent / "src"))
    ctmc_bounds = pytest.importorskip("ctmc_bounds")
    import ctmc_bounds.cli
    import tracer

    S, n = 3, 40
    model = workloads._model("birth_death", S,
                             {"birth": [SIN] * S, "death": [1.0] * S},
                             {"horizon": 1.0, "steps": n, "trials": 4, "pairs": 2})
    path = tmp_path / "m.json"
    workloads.write_models([workloads.Case("m", "verify", S, model)], tmp_path)
    original = ctmc_bounds.odesolve.build_reduced
    t = tracer.Tracer(ctmc_bounds)
    t.install()
    try:
        assert ctmc_bounds.odesolve.build_reduced is not original
        assert ctmc_bounds.cli.main(["verify", str(path), "--csv", str(tmp_path / "o.csv")]) == 0
    finally:
        t.uninstall()
    assert ctmc_bounds.odesolve.build_reduced is original
    counts = t.counts()
    # three systems, each on the step grid (2n+1) and the halved grid (4n+1)
    assert counts["chain.generator_points"] == 3 * ((2 * n + 1) + (4 * n + 1))
    assert counts["distinct_times"] == 4 * n + 1
    assert counts["odesolve.trajectory_steps"] == n * (2 * 4 + 3 * S) + n * (2 * 2 + 3 * (S + 1))
    # per evaluation: 2 distinct rate functions (the sinusoid and the constant), 2S calls
    assert counts["rates.useful_call_frac"] == pytest.approx(2 / (2 * S))
    times = t.layer_times()
    assert all(v >= 0.0 for v in times.values())
    assert times["cli.verify"] >= times["odesolve.verify_bounds"] + times["rates.call"]
