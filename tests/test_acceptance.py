"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines alongside the test outcomes.
"""

import json
import math
from functools import lru_cache

import numpy as np

import ctmc_bounds as cb
from ctmc_bounds import cli
from conftest import (CLASS_KINDS, random_class_chain, random_regular_general,
                      random_sharp_chain)
from linalg_oracles import extreme_real_eigenvalues
from test_transform import _bstar_from_entry_formulas


def _bstar(spec, t=0.0):
    return cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, t)))


def _ok(n, text):
    print(f"criterion {n:2d}: PASS  {text}")


def test_criterion_01_closed_form_sharp_rate():
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            for S in range(1, 9):
                spec = cb.birth_death_chain(S, [a] * S, [b] * S)
                lam0 = cb.perron_weights(_bstar(spec)).lambda0
                beta, _ = cb.closed_form_bd(a, b, S)
                worst = max(worst, abs(lam0 + beta))
    assert worst <= 1e-9
    anchor = cb.perron_weights(
        _bstar(cb.birth_death_chain(3, [1.0] * 3, [1.0] * 3))).lambda0
    assert abs(-anchor - (2.0 - math.sqrt(2.0))) <= 1e-9
    _ok(1, f"72 constant chains, worst |lambda0 + closed form| = {worst:.2e}")


def test_criterion_02_asymptotic_closed_form():
    beta, _ = cb.closed_form_bd(2.0, 0.5, 10_000)
    limit = (math.sqrt(2.0) - math.sqrt(0.5)) ** 2
    err = abs(beta - limit)
    assert err <= 1e-6
    _ok(2, f"|beta_star(2, 0.5, 1e4) - 0.5| = {err:.2e}")


@lru_cache(maxsize=1)
def _random_regular_chains():
    """100 random homogeneous chains per class, S in 2..8, rates in (0, 10]."""
    rng = np.random.default_rng(2024)
    chains = []
    for kind in CLASS_KINDS:
        for _ in range(100):
            S = int(rng.integers(2, 9))
            chains.append(random_class_chain(rng, kind, S))
    return chains


def test_criterion_03_transform_nonnegativity_property():
    failures = 0
    for spec in _random_regular_chains():
        B = _bstar(spec)
        scale = float(np.abs(B).max())
        off = B[~np.eye(spec.S, dtype=bool)]
        if off.size and float(off.min()) < -1e-12 * scale:
            failures += 1
    assert failures == 0
    _ok(3, "400 random regular chains, zero essential-nonnegativity failures")


def test_criterion_04_analytic_vs_numeric_transform():
    worst = 0.0
    for spec in _random_regular_chains():
        numeric = _bstar(spec)
        analytic = cb.analytic_bstar(spec, 0.0)
        scale = max(1.0, float(np.abs(numeric).max()))
        diff = float(np.abs(numeric - analytic).max()) / scale
        assert diff <= 1e-12, spec.kind
        worst = max(worst, diff)

    rng = np.random.default_rng(404)
    general = random_regular_general(rng, 5)
    A = cb.eval_generator(general, 0.0).T
    oracle = _bstar_from_entry_formulas(A)
    numeric = _bstar(general)
    row_diff = float(np.abs(numeric - oracle).max())
    assert row_diff <= 1e-12 * max(1.0, float(np.abs(oracle).max()))
    _ok(4, f"analytic forms worst rel diff = {worst:.2e}; "
           f"entry-formula oracle diff = {row_diff:.2e}")


def test_criterion_05_sharp_equality_on_trajectories():
    rng = np.random.default_rng(505)
    worst = 0.0
    worst_halving = 0.0
    for kind in CLASS_KINDS:
        for _ in range(20):
            S = int(rng.integers(2, 7))
            spec = random_sharp_chain(rng, kind, S)
            rate = cb.perron_weights(_bstar(spec))
            W0 = rng.uniform(0.0, 1.0, (S, 5))
            traj = cb.solve("transformed", spec, W0, tmax=5.0, n_steps=10_000,
                            weights=rate.weights)
            norms = np.abs(traj.states).sum(axis=1)
            ratios = norms * np.exp(-rate.lambda0 * traj.grid)[:, None] / norms[0]
            worst = max(worst, float(np.abs(ratios - 1.0).max()))

            fine = cb.solve("transformed", spec, W0, tmax=5.0, n_steps=20_000,
                            weights=rate.weights)
            norms_fine = np.abs(fine.states[::2]).sum(axis=1)
            halving = np.abs(norms - norms_fine) / np.maximum(norms_fine, 1e-300)
            worst_halving = max(worst_halving, float(halving.max()))
    assert worst_halving <= 1e-8, "integrator error not certified below tolerance"
    assert worst <= 1e-6
    _ok(5, f"80 sharp chains x 5 starts, max |norm ratio - 1| = {worst:.2e} "
           f"(step-halving {worst_halving:.2e})")


def test_criterion_06_two_sided_bounds_inhomogeneous():
    wave = cb.RateFunction.sinusoid(1.0, 1.0, 1.0)
    lead = cb.RateFunction.sinusoid(1.0, 0.5, 1.0)    # in [0.5, 1.5]
    lead_b = cb.RateFunction.sinusoid(0.8, 0.3, 1.0)  # in [0.5, 1.1]
    chains = {
        "birth_death": cb.birth_death_chain(5, [wave] * 5, [1.0] * 5),
        "batch_birth": cb.batch_birth_chain(4, [lead, 0.4, 0.3, 0.2], [1.0] * 4),
        "batch_death": cb.batch_death_chain(4, [lead, 0.4, 0.3, 0.2], [1.0] * 4),
        "batch_both": cb.batch_both_chain(4, [lead, 0.45, 0.25, 0.1],
                                          [lead_b, 0.4, 0.2, 0.1]),
    }
    summary = []
    for kind, spec in chains.items():
        rep = cb.verify_bounds(spec, np.ones(spec.S), tmax=3.0, n_steps=10_000)
        assert rep.passed and rep.n_violations == 0, (kind, rep.violations[:3])
        summary.append(f"{kind} up {rep.worst_upper:.9f} lo {rep.worst_lower:.9f}")
    _ok(6, "every start at every grid time, zero violations beyond slack "
           "(slack 1e-8 + margins); " + "; ".join(summary))


def test_criterion_07_coupling_of_extreme_initial_laws():
    spec = cb.birth_death_chain(3, [1.0] * 3, [1.0] * 3)
    rate = cb.perron_weights(_bstar(spec))
    assert abs(-rate.lambda0 - (2.0 - math.sqrt(2.0))) <= 1e-9

    P0 = np.zeros((4, 2))
    P0[0, 0] = 1.0  # all mass at the bottom state
    P0[3, 1] = 1.0  # all mass at the top state
    traj = cb.solve("forward", spec, P0, tmax=5.0, n_steps=10_000)
    y = traj.states[:, 1:, 0] - traj.states[:, 1:, 1]
    u = np.cumsum(y[:, ::-1], axis=1)[:, ::-1]
    norms = np.abs(u * rate.weights).sum(axis=1)
    bound = norms[0] * np.exp(rate.lambda0 * traj.grid) * (1.0 + 1e-6)
    assert np.all(norms <= bound)
    worst = float((norms / (norms[0] * np.exp(rate.lambda0 * traj.grid))).max())
    _ok(7, f"delta-vs-delta coupling ratio max = {worst:.12f} <= 1 + 1e-6")


def test_criterion_08_spectral_cross_check():
    spec = cb.birth_death_chain(3, [1.0] * 3, [1.0] * 3)
    lo, hi = extreme_real_eigenvalues(-_bstar(spec), tol=1e-13)
    beta, g = cb.closed_form_bd(1.0, 1.0, 3)
    assert abs(lo - (2.0 - math.sqrt(2.0))) <= 1e-8
    assert abs(hi - (2.0 + math.sqrt(2.0))) <= 1e-8
    assert abs(lo - beta) <= 1e-8 and abs(hi - g) <= 1e-8
    _ok(8, f"power-iteration extremes ({lo:.10f}, {hi:.10f}) match closed forms")


def test_criterion_09_perron_postconditions():
    rng = np.random.default_rng(909)
    worst_spread = 0.0
    worst_start_dev = 0.0
    for kind in CLASS_KINDS:
        for _ in range(5):
            S = int(rng.integers(2, 9))
            spec = random_sharp_chain(rng, kind, S)
            B = _bstar(spec)
            rate = cb.perron_weights(B)
            sums = cb.apply_weights(B, rate.weights).sum(axis=0)
            spread = float(sums.max() - sums.min())
            assert spread <= 1e-9 * abs(rate.lambda0)
            worst_spread = max(worst_spread, spread / abs(rate.lambda0))

            d1 = cb.perron_weights(B, x0=rng.uniform(0.1, 1.0, S)).weights
            d2 = cb.perron_weights(B, x0=rng.uniform(0.1, 1.0, S)).weights
            dev = float(np.abs(d1 / d1[0] - d2 / d2[0]).max())
            assert dev <= 1e-8
            worst_start_dev = max(worst_start_dev, dev)
    _ok(9, f"20 sharp runs: worst relative column-sum spread = "
           f"{worst_spread:.2e}, worst two-start deviation = {worst_start_dev:.2e}")


def test_criterion_10_verify_is_bit_reproducible(tmp_path):
    doc = {
        "schema": 1,
        "chain": {"kind": "birth_death", "states": 3,
                  "birth": [1.0, 1.0, 1.0], "death": [1.0, 1.0, 1.0]},
        "analysis": {"horizon": 2.0, "grid": 101, "steps": 2000,
                     "weights": "perron", "trials": 50, "pairs": 20,
                     "seed": 42, "tolerance": 1e-8},
    }
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out1 = tmp_path / "v1.csv"
    out2 = tmp_path / "v2.csv"
    assert cli.main(["verify", str(model), "--csv", str(out1)]) == 0
    assert cli.main(["verify", str(model), "--csv", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _ok(10, f"two runs, identical {out1.stat().st_size}-byte CSV")
