"""The violation path of both verifiers, checked against direct integration.

A verifier that never fails proves little, so these tests narrow the
envelopes (the upper one by 0.9, the lower one by 1.1) until the
propagators break them, and rebuild the expected ratios and violations by
brute force: :func:`solve` integrates the identity with steps h and h/2,
and each time's ratio is judged with that time's own step-halving margin.
Envelopes 1000 times too tight must fail at every horizon, envelopes 1.5
times too tight at every time of a long run, and a long horizon must pass
with a band that still checks something.
"""

import dataclasses
import json

import numpy as np
import pytest

import ctmc_bounds as cb
from ctmc_bounds import cli, odesolve
from linalg_oracles import transformed_increment

LAM = cb.RateFunction.sinusoid(1.0, 0.6, 0.8, 0.3)
CHAINS = {
    "time-varying": cb.birth_death_chain(3, [LAM, LAM, 0.5], [1.0, 1.5, 2.0]),
    "homogeneous": cb.birth_death_chain(3, [1.0, 2.0, 1.5], [2.0, 1.0, 1.0]),
}
WEIGHTS = np.array([1.0, 0.8, 1.2])
TMAX, N_STEPS, SLACK = 1.5, 60, 1e-8


def _narrowed(monkeypatch, upper, lower):
    setup = odesolve._verification_setup

    def narrowed(*args, **kwargs):
        st = setup(*args, **kwargs)
        return dataclasses.replace(st, env_up=upper * st.env_up, env_lo=lower * st.env_lo)

    monkeypatch.setattr(odesolve, "_verification_setup", narrowed)


@pytest.fixture
def narrow_envelopes(monkeypatch):
    _narrowed(monkeypatch, 0.9, 1.1)


@pytest.fixture
def far_too_tight_envelopes(monkeypatch):
    _narrowed(monkeypatch, 1e-3, 1e3)


def _identity_runs(system, spec, weights=None):
    """The propagators of solve from the identity with steps h and h/2, on the step grid."""
    eye = np.eye(spec.S + (system == "forward"))
    fine = cb.solve(system, spec, eye, TMAX, 2 * N_STEPS, weights=weights).states[::2]
    return cb.solve(system, spec, eye, TMAX, N_STEPS, weights=weights).states, fine


def _l1(M):
    return np.abs(M).sum(axis=-2).max(axis=-1)


def _bounds_expected(spec):
    """Per-time ratios and the (phase, broken) verdicts of verify_bounds, from solve runs."""
    st = odesolve._verification_setup(spec, WEIGHTS, TMAX, N_STEPS)
    G, H = _identity_runs("transformed", spec, WEIGHTS)
    norms, lows, e = _l1(G), G.sum(axis=1).min(axis=1), 2.0 * _l1(G - H)
    band = SLACK + st.quad_margin
    upper, lower = norms / st.env_up, lows / st.env_lo
    return upper, lower, [("upper", upper, (norms - e) / st.env_up > 1.0 + band),
                          ("lower", lower, (lows + e) / st.env_lo < 1.0 - band)]


def _coupling_expected(spec):
    """Per-time ratios and the verdict of verify_convergence_coupling, from solve runs.

    The ratios are the norms of the forward propagators mapped to the
    transformed coordinates, judged with the transformed propagators'
    step-halving margin, as the bounds upper ratios are.
    """
    st = odesolve._verification_setup(spec, WEIGHTS, TMAX, N_STEPS)
    Phi, _ = _identity_runs("forward", spec)
    G, H = _identity_runs("transformed", spec, WEIGHTS)
    norms = _l1(transformed_increment(Phi, WEIGHTS))
    e = 2.0 * _l1(G - H)
    ratios = norms / st.env_up
    return ratios, [("coupling", ratios, (norms - e) / st.env_up > 1.0 + SLACK + st.quad_margin)]


def _violations(judged):
    """The violations (phase, t, ratio) of (phase, ratios, broken) triples, in the reports' order."""
    grid = np.linspace(0.0, TMAX, N_STEPS + 1)
    found = [(phase, float(grid[k]), float(ratios[k]))
             for phase, ratios, broken in judged for k in np.flatnonzero(broken)]
    return sorted(found, key=lambda v: v[1])


def _assert_close(got, want):
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * np.abs(want))


def _assert_same_violations(rep, expected):
    kept = expected[:odesolve.VIOLATION_CAP]
    assert rep.n_violations == len(expected)
    assert [v[:2] for v in rep.violations] == [v[:2] for v in kept]
    _assert_close([v[2] for v in rep.violations], np.array([v[2] for v in kept]))


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_verify_bounds_violations_match_direct_integration(narrow_envelopes, monkeypatch,
                                                          chain):
    # a cap that splits the upper and lower violations of one time
    monkeypatch.setattr(odesolve, "VIOLATION_CAP", 7)
    spec = CHAINS[chain]
    rep = cb.verify_bounds(spec, WEIGHTS, TMAX, n_steps=N_STEPS, slack=SLACK)
    upper, lower, judged = _bounds_expected(spec)
    expected = _violations(judged)
    assert not rep.passed
    assert expected[0][:2] == ("upper", 0.0) and expected[1][:2] == ("lower", 0.0)
    assert len(expected) > 7 and len(rep.violations) == 7
    _assert_close(rep.ratio_upper_max, upper)
    _assert_close(rep.ratio_lower_min, lower)
    _assert_same_violations(rep, expected)


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_verify_coupling_violations_match_direct_integration(narrow_envelopes, chain):
    spec = CHAINS[chain]
    rep = cb.verify_convergence_coupling(spec, WEIGHTS, TMAX, n_steps=N_STEPS, slack=SLACK)
    ratios, judged = _coupling_expected(spec)
    expected = _violations(judged)
    assert not rep.passed and expected[0][:2] == ("coupling", 0.0)
    _assert_close(rep.ratio_upper_max, ratios)
    _assert_same_violations(rep, expected)


def test_unpatched_ratios_match_direct_integration():
    spec = CHAINS["time-varying"]
    rep_b = cb.verify_bounds(spec, WEIGHTS, TMAX, n_steps=N_STEPS, slack=SLACK)
    rep_c = cb.verify_convergence_coupling(spec, WEIGHTS, TMAX, n_steps=N_STEPS, slack=SLACK)
    assert rep_b.passed and rep_c.passed
    upper, lower, judged = _bounds_expected(spec)
    ratios, coupling = _coupling_expected(spec)
    assert _violations(judged + coupling) == []
    for got, want in ((rep_b.ratio_upper_max, upper), (rep_b.ratio_lower_min, lower),
                      (rep_c.ratio_upper_max, ratios)):
        _assert_close(got, want)


def test_cli_verify_reports_a_broken_envelope(narrow_envelopes, tmp_path, capsys):
    model = {"schema": 1,
             "chain": {"kind": "birth_death", "states": 3, "birth": [1.0, 2.0, 1.5],
                       "death": [2.0, 1.0, 1.0]},
             "analysis": {"horizon": 1.5, "steps": 60, "weights": "ones"}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == cli.EXIT_VIOLATION == 1
    out = capsys.readouterr().out
    assert "bounds: FAIL" in out and "coupling: FAIL" in out
    assert out.count("first violation: ") == 2
    assert "first violation: upper, t=0, ratio 1.1111111111111112" in out


def test_cli_verify_labels_a_probability_violation_as_a_value(tmp_path, capsys):
    # one RK4 step of 1 leaves a negative entry in the forward propagator:
    # the check records that smallest entry, -0.75, which is no ratio
    lam = {"sinusoid": {"offset": 1.0, "amplitude": 0.5, "frequency": 1.0}}
    model = {"schema": 1,
             "chain": {"kind": "birth_death", "states": 3, "define": {"lam": lam},
                       "birth": ["lam"] * 3, "death": [1.0] * 3},
             "analysis": {"horizon": 1.0, "steps": 1}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == cli.EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "bounds: pass" in out and "coupling: FAIL" in out
    assert "first violation: probability-negative, t=1, value -0.75 (1 total)" in out


# births and deaths of one size with sinusoidal rates, as the bench's bd-sin-S5: with
# ones weights the lower envelope falls like exp(-2.3 t), so a margin taken over it
# for the whole run once grew to 3.3e7 at t=20, a band no ratio could leave
BD_SIN_S5 = cb.birth_death_chain(
    5, [cb.RateFunction.sinusoid(1.5, 0.5, 0.9 + 0.05 * i, 1.1 * i) for i in range(5)],
    [cb.RateFunction.sinusoid(2.0, 0.6, 1.1 - 0.05 * i, 0.7 * i) for i in range(5)])


def test_a_long_horizon_passes_with_a_band_that_checks_something():
    rep_b, rep_c = odesolve._verify_both(BD_SIN_S5, None, 20.0, 4000, slack=SLACK)
    assert rep_b.passed and rep_c.passed
    assert rep_b.slack_total < 1e-4
    # each time's margin is relative to its own ratio: the lower one by the
    # smallest column sum, not by the lower envelope
    assert rep_b.integrator_margin < 1e-7


@pytest.mark.parametrize("horizon", [2.0, 10.0, 20.0])
def test_envelopes_far_too_tight_fail_at_every_horizon(far_too_tight_envelopes, horizon):
    rep_b, rep_c = odesolve._verify_both(BD_SIN_S5, None, horizon, 200 * int(horizon),
                                         slack=SLACK)
    assert not rep_b.passed and not rep_c.passed
    assert {v[0] for v in rep_b.violations} == {"upper", "lower"}
    assert rep_b.violations[0][1] == rep_c.violations[0][1] == 0.0


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_the_coupling_ratios_are_the_bounds_upper_ratios(chain):
    # every difference of distributions reaches the transformed coordinates
    # through the step-h member, whose lower-right block G_k both read
    rep_b, rep_c = odesolve._verify_both(CHAINS[chain], WEIGHTS, TMAX, N_STEPS, slack=SLACK)
    assert np.array_equal(rep_c.ratio_upper_max, rep_b.ratio_upper_max)
    assert rep_c.worst_upper == rep_b.worst_upper


@pytest.fixture(scope="module")
def bd_sin_s5_to_100():
    """The reports of BD_SIN_S5 verified to t=100 in 20 000 steps."""
    return odesolve._verify_both(BD_SIN_S5, None, 100.0, 20_000, slack=SLACK)


def test_the_coupling_band_stays_flat_to_a_long_horizon(bd_sin_s5_to_100):
    # the coupling margin is the bounds one, relative to the coupling
    # ratio: a margin mapped by ||L||_1 ||Rt||_1 that did not decay with
    # the propagators once grew to a band of 6.5e6 at t=100
    rep_b, rep_c = bd_sin_s5_to_100
    assert rep_b.passed and rep_c.passed
    assert rep_c.slack_total <= rep_b.slack_total <= 2e-4


def test_envelopes_too_tight_by_half_fail_at_every_time_of_a_long_run(bd_sin_s5_to_100,
                                                                      monkeypatch):
    # each envelope 1.5 times too tight at every grid time, against the
    # run's own ratios: every time breaks both verdicts, where the margin
    # that did not decay let the coupling break at 7 748 of the 20 001
    rep_b, _ = bd_sin_s5_to_100
    _narrowed(monkeypatch, rep_b.ratio_upper_max / 1.5, 1.5 * rep_b.ratio_lower_min)
    narrow_b, narrow_c = odesolve._verify_both(BD_SIN_S5, None, 100.0, 20_000, slack=SLACK)
    assert narrow_b.n_violations == 2 * 20_001
    assert narrow_c.n_violations == 20_001 and narrow_c.prob_min >= -1e-12
    assert np.allclose(narrow_c.ratio_upper_max, 1.5, rtol=1e-12)


def test_the_coupling_band_ignores_the_span_of_the_weights():
    # births 1, deaths 2, S = 60: the Perron weights span 1.1e9, which a
    # margin mapped by sum(d) 2 / min(d) turned into a band of 85.8 at t=1;
    # the forward propagators mapped back from the scan stay non-negative
    spec = cb.birth_death_chain(60, [1.0] * 60, [2.0] * 60)
    bstar = cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0)))
    weights = cb.perron_weights(bstar).weights
    assert weights.max() / weights.min() > 1e9
    rep = cb.verify_convergence_coupling(spec, weights, 1.0, n_steps=200, slack=SLACK)
    assert rep.passed and rep.slack_total <= 1e-6
    assert rep.prob_min >= -1e-12
