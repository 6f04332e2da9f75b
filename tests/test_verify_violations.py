"""The violation path of both verifiers, checked against direct integration.

A verifier that never fails proves little, so these tests narrow the
envelopes (the upper one by 0.9, the lower one by 1.1) until trials break
them, and rebuild the expected violations by brute force: the same draws
integrated one batch at a time with :func:`solve`, each ratio judged
against the report's slack_total.
"""

import dataclasses
import json

import numpy as np
import pytest

import ctmc_bounds as cb
from ctmc_bounds import cli, odesolve

LAM = cb.RateFunction.sinusoid(1.0, 0.6, 0.8, 0.3)
CHAINS = {
    "time-varying": cb.birth_death_chain(3, [LAM, LAM, 0.5], [1.0, 1.5, 2.0]),
    "homogeneous": cb.birth_death_chain(3, [1.0, 2.0, 1.5], [2.0, 1.0, 1.0]),
}
WEIGHTS = np.array([1.0, 0.8, 1.2])
TMAX, N_STEPS, N_TRIALS, N_PAIRS, SEED = 1.5, 60, 40, 120, 7


@pytest.fixture
def narrow_envelopes(monkeypatch):
    setup = odesolve._verification_setup

    def narrowed(*args, **kwargs):
        st = setup(*args, **kwargs)
        return dataclasses.replace(st, env_up=0.9 * st.env_up, env_lo=1.1 * st.env_lo)

    monkeypatch.setattr(odesolve, "_verification_setup", narrowed)


def _envelopes(spec):
    st = odesolve._verification_setup(spec, WEIGHTS, TMAX, N_STEPS)
    return st.env_up, st.env_lo


def _bounds_ratios(spec):
    """Per-trial (upper, lower) ratios on the step grid, from solve runs."""
    rng = np.random.default_rng(SEED)
    X_signed = odesolve._draw_columns(rng, spec.S, N_TRIALS, signed=True)
    X_nonneg = odesolve._draw_columns(rng, spec.S, N_TRIALS, signed=False)
    env_up, env_lo = _envelopes(spec)
    X0 = np.hstack([X_signed, X_nonneg])
    traj = cb.solve("transformed", spec, X0, TMAX, N_STEPS, weights=WEIGHTS)
    ratio = np.abs(traj.states).sum(axis=1) / np.abs(X0).sum(axis=0)
    return traj.grid, ratio / env_up[:, None], ratio[:, N_TRIALS:] / env_lo[:, None]


def _coupling_ratios(spec, n_pairs):
    rng = np.random.default_rng(SEED)
    P = rng.uniform(0.0, 1.0, size=(spec.S + 1, 2 * n_pairs))
    P /= P.sum(axis=0)
    env_up, _ = _envelopes(spec)
    traj = cb.solve("forward", spec, P, TMAX, N_STEPS)
    diff = traj.states[:, 1:, :n_pairs] - traj.states[:, 1:, n_pairs:]
    tails = np.cumsum(diff[:, ::-1], axis=1)[:, ::-1]
    norms = np.abs(WEIGHTS[:, None] * tails).sum(axis=1)
    return traj.grid, norms / (env_up[:, None] * norms[0])


def _expected(grid, judged):
    """Violations from (phase, ratios, broken) triples, in the reports' order."""
    found = []
    for phase, ratios, broken in judged:
        for k, j in zip(*np.nonzero(broken)):
            found.append((phase, int(j), float(grid[k]), float(ratios[k, j])))
    found.sort(key=lambda v: (v[2], v[1]))
    return found


def _assert_same_violations(rep, expected):
    kept = expected[:odesolve.VIOLATION_CAP]
    assert rep.n_violations == len(expected)
    assert len(rep.violations) == len(kept)
    assert [v[:3] for v in rep.violations] == [v[:3] for v in kept]
    got = np.array([v[3] for v in rep.violations])
    want = np.array([v[3] for v in kept])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    keys = [(v[2], v[1]) for v in rep.violations]
    assert keys == sorted(keys)


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_verify_bounds_violations_match_direct_integration(narrow_envelopes, chain):
    spec = CHAINS[chain]
    rep = cb.verify_bounds(spec, WEIGHTS, TMAX, n_steps=N_STEPS, n_trials=N_TRIALS,
                           seed=SEED)
    grid, up, lo = _bounds_ratios(spec)
    lower = np.hstack([np.full_like(lo, np.inf), lo])
    expected = _expected(grid, [("upper", up, up > 1.0 + rep.slack_total),
                                ("lower", lower, lower < 1.0 - rep.slack_total)])
    assert not rep.passed
    assert expected[0][2] == 0.0 and len(expected) > odesolve.VIOLATION_CAP
    assert {v[0] for v in expected} == {"upper", "lower"}
    _assert_same_violations(rep, expected)


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_verify_coupling_violations_match_direct_integration(narrow_envelopes, chain):
    spec = CHAINS[chain]
    rep = cb.verify_convergence_coupling(spec, WEIGHTS, TMAX, n_steps=N_STEPS,
                                         n_pairs=N_PAIRS, seed=SEED)
    grid, up = _coupling_ratios(spec, N_PAIRS)
    expected = _expected(grid, [("coupling", up, up > 1.0 + rep.slack_total)])
    assert not rep.passed and len(expected) > odesolve.VIOLATION_CAP
    _assert_same_violations(rep, expected)


def test_unpatched_ratios_match_direct_integration():
    spec = CHAINS["time-varying"]
    rep_b = cb.verify_bounds(spec, WEIGHTS, TMAX, n_steps=N_STEPS, n_trials=N_TRIALS,
                             seed=SEED)
    rep_c = cb.verify_convergence_coupling(spec, WEIGHTS, TMAX, n_steps=N_STEPS,
                                           n_pairs=N_PAIRS, seed=SEED)
    assert rep_b.passed and rep_c.passed
    _, up, lo = _bounds_ratios(spec)
    _, coupling = _coupling_ratios(spec, N_PAIRS)
    for got, want in ((rep_b.ratio_upper_max, up.max(axis=1)),
                      (rep_b.ratio_lower_min, lo.min(axis=1)),
                      (rep_c.ratio_upper_max, coupling.max(axis=1))):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_cli_verify_reports_a_broken_envelope(narrow_envelopes, tmp_path, capsys):
    model = {"schema": 1,
             "chain": {"kind": "birth_death", "states": 3, "birth": [1.0, 2.0, 1.5],
                       "death": [2.0, 1.0, 1.0]},
             "analysis": {"horizon": 1.5, "steps": 60, "trials": 6, "pairs": 4,
                          "seed": 11, "weights": "ones"}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == cli.EXIT_VIOLATION == 1
    out = capsys.readouterr().out
    assert "bounds: FAIL" in out and "coupling: FAIL" in out
    assert out.count("first violation: ") == 2
    assert "first violation: upper, trial 0, t=0, ratio 1.1111111111111112" in out
