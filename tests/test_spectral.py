import math
import random
import re

import numpy as np
import pytest

import ctmc_bounds as cb
from ctmc_bounds import bounds, spectral, transform
from conftest import CLASS_KINDS, random_sharp_chain
from linalg_oracles import (column_sum_bounds, dominant_eigenvalue,
                            extreme_real_eigenvalues)

EPS = np.finfo(float).eps


def _bstar(spec, t=0.0):
    return cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, t)))


def _uniform_bd(a, b, S):
    return cb.birth_death_chain(S, [a] * S, [b] * S)


def _tridiagonal_perron(B):
    """Positive eigenvector of B^T for a tridiagonal B with positive off-diagonals.

    A dense eigensolver applied to B^T itself is no oracle here: for a=1,
    b=2, S=300 its eigenvector is off by 66 % in the max norm, because B^T
    is far from normal. The diagonal similarity with ratios sqrt(u_k/l_k)
    (u, l the super- and subdiagonal of B) makes it symmetric with
    off-diagonals sqrt(u_k l_k); the symmetric problem's eigenvector is
    accurate, and scaling it back in logarithms keeps every entry, however
    small, to full relative precision.
    """
    lower, upper = np.diag(B, -1), np.diag(B, 1)
    log_scale = np.concatenate(([0.0], np.cumsum(0.5 * np.log(upper / lower))))
    off = np.sqrt(upper * lower)
    J = np.diag(np.diag(B)) + np.diag(off, 1) + np.diag(off, -1)
    _, vecs = np.linalg.eigh(J)
    log_x = log_scale + np.log(np.abs(vecs[:, -1]))
    x = np.exp(log_x - log_x.max())
    return x / x.sum()


def test_column_sum_bounds_arithmetic():
    res = column_sum_bounds(np.array([[-1.0, 0.0], [1.0, -3.0]]))
    assert res.sums == (0.0, -3.0)
    assert res.h_max == 0.0 and res.h_min == -3.0


def test_column_sum_bounds_symmetric_chain():
    spec = cb.birth_death_chain(2, [1.0, 1.0], [1.0, 1.0])
    res = column_sum_bounds(_bstar(spec))
    assert res.sums == (-1.0, -1.0)
    assert res.h_max == res.h_min == -1.0


def test_irreducibility():
    assert cb.check_irreducible(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert not cb.check_irreducible(np.array([[-1.0, 0.0], [1.0, -1.0]]))
    assert cb.check_irreducible(np.array([[5.0]]))
    spec = cb.birth_death_chain(4, [1.0, 2.0, 0.5, 1.5], [1.0, 1.0, 2.0, 0.3])
    assert cb.check_irreducible(_bstar(spec))


def _strongly_connected(M):
    """Reachability by repeated squaring of I + adjacency: no search involved."""
    S = len(M)
    reach = ((M > 0.0) | np.eye(S, dtype=bool)).astype(float)
    for _ in range(math.ceil(math.log2(S)) if S > 1 else 0):
        reach = np.minimum(reach @ reach, 1.0)
    return bool(np.all(reach > 0.0))


def test_irreducibility_agrees_with_reachability_on_sparse_matrices():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(600):
        S = int(rng.integers(1, 9))
        M = np.where(rng.random((S, S)) < rng.uniform(0.05, 0.5),
                     rng.uniform(-0.3, 1.0, (S, S)), 0.0)
        if rng.random() < 0.6:  # a path both ways, in half of them with one link cut
            k = np.arange(S - 1)
            M[k, k + 1], M[k + 1, k] = rng.uniform(0.1, 1.0, (2, S - 1))
            if S > 1 and rng.random() < 0.5:
                i = int(rng.integers(S - 1))
                M[(i, i + 1) if rng.random() < 0.5 else (i + 1, i)] = 0.0
        path = bool(np.all(np.diag(M, 1) > 0.0) and np.all(np.diag(M, -1) > 0.0))
        expected = _strongly_connected(M)
        assert cb.check_irreducible(M) == expected, M
        seen.add((S > 1 and path, expected))
    # paths, and matrices off a path both strongly connected and not
    assert seen == {(True, True), (False, True), (False, False)}


def test_perron_matches_closed_form_birth_death():
    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            for S in (1, 2, 4, 6):
                spec = cb.birth_death_chain(S, [a] * S, [b] * S)
                rate = cb.perron_weights(_bstar(spec))
                beta, _ = cb.closed_form_bd(a, b, S)
                assert abs(rate.lambda0 + beta) <= 1e-9, (a, b, S)
                assert rate.lambda0 < 0.0


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("S", [5, 40, 200])
def test_perron_bracket_encloses_closed_form(a, b, S):
    rate = cb.perron_weights(_bstar(_uniform_bd(a, b, S)))
    beta, _ = cb.closed_form_bd(a, b, S)
    lo, hi = rate.bracket
    slack = 4.0 * EPS * (a + b)  # a few ulps of the largest matrix entry
    assert lo - slack <= -beta <= hi + slack
    assert lo <= rate.lambda0 <= hi


def test_perron_birth_death_200_needs_few_solves():
    rate = cb.perron_weights(_bstar(_uniform_bd(1.0, 2.0, 200)))
    assert rate.iterations <= 100


@pytest.mark.parametrize("S", [50, 200, 1000])
@pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.5, 2.0), (1.0, 1.1), (1.0, 1.0)])
def test_perron_birth_death_takes_few_solves(a, b, S):
    # deaths at least births: from uniform weights these took up to 113 solves
    rate = cb.perron_weights(_bstar(_uniform_bd(a, b, S)))
    assert rate.iterations <= 8


@pytest.mark.parametrize("S", [50, 200, 1000])
@pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.5, 2.0)])
def test_perron_birth_death_with_drift_matches_closed_form(a, b, S):
    rate = cb.perron_weights(_bstar(_uniform_bd(a, b, S)))
    beta, _ = cb.closed_form_bd(a, b, S)
    assert abs(rate.lambda0 + beta) <= 1e-14 * beta


def _spread_bd(rng, S, level):
    """Births about 1 and deaths about level, each rate spread by up to 5 %."""
    return cb.birth_death_chain(S, rng.uniform(0.95, 1.05, S),
                                level * rng.uniform(0.95, 1.05, S))


@pytest.mark.parametrize("S", [50, 200])
def test_perron_birth_death_start_keeps_the_uniform_start_results(S):
    rng = np.random.default_rng(S)
    specs = [_uniform_bd(1.0, 2.0, S), _uniform_bd(1.0, 1.0, S),
             *(_spread_bd(rng, S, level) for level in (1.0, 1.1, 2.0))]
    for spec in specs:
        B = _bstar(spec)
        rate, uniform = cb.perron_weights(B), cb.perron_weights(B, x0=np.ones(S))
        assert rate.iterations <= uniform.iterations
        assert np.max(np.abs(rate.weights - uniform.weights) / uniform.weights) <= 1e-12
        # both brackets hold the exact lambda0
        widths = np.ptp(rate.bracket) + np.ptp(uniform.bracket)
        assert abs(rate.lambda0 - uniform.lambda0) <= widths


def _births_above_deaths(seed, S):
    """Births about twice the deaths, each rate spread by up to 5 %."""
    rng = random.Random(seed)
    births = [2.0 * rng.uniform(0.95, 1.05) for _ in range(S)]
    deaths = [rng.uniform(0.95, 1.05) for _ in range(S)]
    return cb.birth_death_chain(S, births, deaths)


UNIFORM_START_CHAINS = {
    f"{kind}-S{S}": (lambda kind=kind, S=S: random_sharp_chain(np.random.default_rng(S),
                                                                kind, S))
    for kind in ("batch_birth", "batch_death", "batch_both") for S in (6, 30)}


@pytest.mark.parametrize("chain", sorted(UNIFORM_START_CHAINS))
def test_perron_start_is_uniform_off_the_band(chain):
    B = _bstar(UNIFORM_START_CHAINS[chain]())
    rate, uniform = cb.perron_weights(B), cb.perron_weights(B, x0=np.ones(len(B)))
    assert np.array_equal(rate.weights, uniform.weights)
    assert (rate.lambda0, rate.iterations, rate.residual, rate.bracket) == \
        (uniform.lambda0, uniform.iterations, uniform.residual, uniform.bracket)


# to_bstar leaves round-off of up to 4.4e-16 above the band of a birth-death
# B*, which weights falling along the states magnify by up to 1e30 in
# D B* D^-1: solved as a dense matrix, the first chain failed to equalize
# its column sums and the second converged 7e-4 relative off the band's
# lambda0. A matrix that passes the band test is solved as its band.
def test_perron_birth_death_with_births_above_deaths_converges():
    B = _bstar(_births_above_deaths(7, 200))
    assert _relative_weight_error(cb.perron_weights(B), B) <= 1e-9


def test_perron_birth_death_with_births_above_deaths_finds_the_chains_rate():
    B = _bstar(_births_above_deaths(7, 100))
    exact = cb.perron_weights(np.triu(np.tril(B, 1), -1))  # the band alone
    rate = cb.perron_weights(B)  # converges, 7e-4 relative off
    assert abs(rate.lambda0 - exact.lambda0) <= 1e-12 * abs(exact.lambda0)


def _relative_weight_error(rate, B):
    exact = _tridiagonal_perron(B)
    return float(np.max(np.abs(rate.weights - exact) / exact))


# the chains below made the l1-change power iteration stop with unconverged
# small weights and fail the equalisation postcondition
@pytest.mark.parametrize("S", [300, 350, 500])
def test_perron_uniform_birth_death_with_tiny_weights(S):
    B = _bstar(_uniform_bd(1.0, 2.0, S))
    rate = cb.perron_weights(B)
    beta, _ = cb.closed_form_bd(1.0, 2.0, S)
    assert abs(rate.lambda0 + beta) <= 1e-12 * abs(rate.lambda0)
    assert _relative_weight_error(rate, B) <= 1e-9


def test_perron_bottleneck_chain():
    birth = [1.0] * 10
    birth[5] = 1e-6
    B = _bstar(cb.birth_death_chain(10, birth, [1.0] * 10))
    assert _relative_weight_error(cb.perron_weights(B), B) <= 1e-9


def test_perron_random_birth_death_60():
    for seed in range(59):
        rng = np.random.default_rng(seed)
        spec = cb.birth_death_chain(60, rng.uniform(0.8, 1.2, 60), rng.uniform(1.6, 2.4, 60))
        B = _bstar(spec)
        assert _relative_weight_error(cb.perron_weights(B), B) <= 1e-9


def test_perron_large_symmetric_birth_death():
    # lambda0 ~ -9.9e-6 against entries of size 2: its computed value is
    # certified to the bracket, whose round-off floor is 4 ulps of 2
    B = _bstar(_uniform_bd(1.0, 1.0, 1000))
    rate = cb.perron_weights(B)
    beta, _ = cb.closed_form_bd(1.0, 1.0, 1000)
    lo, hi = rate.bracket
    assert hi - lo <= 8.0 * EPS * 2.0
    assert lo - 8.0 * EPS <= -beta <= hi + 8.0 * EPS
    assert lo <= rate.lambda0 <= hi
    assert _relative_weight_error(rate, B) <= 1e-9


def test_perron_weights_beyond_double_range_fail_fast():
    # the weights of this chain would span about 1e400
    B = _bstar(_uniform_bd(1.0, 1e4, 200))
    with pytest.raises(cb.PowerIterationError, match="double-precision range") as exc:
        cb.perron_weights(B)
    assert int(re.search(r"after (\d+) solves", str(exc.value)).group(1)) <= 200


def _band(spec):
    return tuple(v[0] for v in transform.bstar_band(cb.rate_table(spec, np.zeros(1))))


@pytest.mark.parametrize("S", [200, 1000, 2000])
@pytest.mark.parametrize("a, b", [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)])
def test_band_perron_matches_closed_form(a, b, S):
    rate = spectral.perron_band(*_band(_uniform_bd(a, b, S)))
    beta, _ = cb.closed_form_bd(a, b, S)
    lo, hi = rate.bracket
    slack = 4.0 * EPS * (a + b)  # the round-off floor: 4 ulps of the largest entry
    assert lo - slack <= -beta <= hi + slack and lo <= rate.lambda0 <= hi
    assert hi - lo <= 2.0 * slack
    assert rate.iterations <= 8
    if a != b:  # beta is not below round-off of the entries
        assert abs(rate.lambda0 + beta) <= 1e-14 * beta


def test_perron_weights_solves_a_matrix_that_passes_the_band_test_as_its_band():
    B = _bstar(_births_above_deaths(7, 100))
    assert np.abs(np.triu(B, 2)).max() > 0.0  # round-off above the band
    rate = cb.perron_weights(B)
    band = spectral.perron_band(np.diag(B), np.diag(B, 1), np.diag(B, -1))
    assert (rate.lambda0, rate.iterations, rate.residual, rate.bracket) == \
        (band.lambda0, band.iterations, band.residual, band.bracket)
    assert np.array_equal(rate.weights, band.weights)


def test_thomas_solve_matches_a_dense_solve():
    rng = np.random.default_rng(8)
    S = 40
    p, q = rng.uniform(0.1, 2.0, S - 1), rng.uniform(0.1, 2.0, S - 1)
    m = np.concatenate(([0.0], p)) + np.concatenate((q, [0.0])) + rng.uniform(1e-3, 1.0, S)
    M = np.diag(m) - np.diag(p, -1) - np.diag(q, 1)
    z = spectral._thomas(m, p, q)
    exact = np.linalg.solve(M, np.ones(S))
    assert np.all(z > 0.0) and np.max(np.abs(z - exact) / exact) <= 1e-13
    m[S // 2] = -1.0  # a pivot that is not positive: the solve breaks down
    assert spectral._thomas(m, p, q) is None


def test_band_perron_errors_are_the_dense_paths():
    dead = cb.birth_death_chain(5, [1.0] * 5, [1.0, 1.0, 0.0, 1.0, 1.0])
    for solve in (lambda: spectral.perron_band(*_band(dead)),
                  lambda: cb.perron_weights(_bstar(dead)),
                  lambda: bounds.perron_at_start(cb.rate_table(dead, np.zeros(1)))):
        with pytest.raises(cb.ReducibleMatrixError):
            solve()
    # the weights of this chain would span about 1e400
    with pytest.raises(cb.PowerIterationError, match="double-precision range") as exc:
        spectral.perron_band(*_band(_uniform_bd(1.0, 1e4, 200)))
    assert int(re.search(r"after (\d+) solves", str(exc.value)).group(1)) <= 200
    overflow = cb.rate_table(_uniform_bd(1e308, 1e308, 4), np.zeros(1))
    with pytest.raises(cb.NonFiniteBoundError, match=re.escape("not finite at t=0.0")):
        bounds.perron_at_start(overflow)


def test_perron_single_state():
    spec = cb.birth_death_chain(1, [1.5], [2.5])
    rate = cb.perron_weights(_bstar(spec))
    assert rate.lambda0 == pytest.approx(-4.0, abs=1e-12)
    assert np.allclose(rate.weights, [1.0])


def test_perron_equalizes_column_sums():
    rng = np.random.default_rng(17)
    for kind in CLASS_KINDS:
        spec = random_sharp_chain(rng, kind, 6)
        B = _bstar(spec)
        rate = cb.perron_weights(B)
        sums = cb.apply_weights(B, rate.weights).sum(axis=0)
        assert sums.max() - sums.min() <= 1e-9 * abs(rate.lambda0)
        assert np.allclose(sums, rate.lambda0, atol=1e-8 * abs(rate.lambda0))
        assert rate.residual < 1e-10
        assert rate.lambda0 < 0.0


def test_perron_weights_unique_across_starts():
    rng = np.random.default_rng(23)
    spec = random_sharp_chain(rng, "batch_both", 7)
    B = _bstar(spec)
    d1 = cb.perron_weights(B, x0=rng.uniform(0.1, 1.0, 7)).weights
    d2 = cb.perron_weights(B, x0=rng.uniform(0.1, 1.0, 7)).weights
    assert np.abs(d1 / d1[0] - d2 / d2[0]).max() <= 1e-8


def test_perron_rejects_reducible_and_not_nonnegative():
    with pytest.raises(cb.ReducibleMatrixError):
        cb.perron_weights(np.array([[-1.0, 0.0], [1.0, -1.0]]))
    with pytest.raises(ValueError):
        cb.perron_weights(np.array([[-1.0, -0.5], [1.0, -1.0]]))


def test_perron_x0_validation():
    B = _bstar(cb.birth_death_chain(2, [1.0, 1.0], [1.0, 1.0]))
    with pytest.raises(ValueError):
        cb.perron_weights(B, x0=np.zeros(2))
    with pytest.raises(ValueError):
        cb.perron_weights(B, x0=np.ones(3))


def test_perron_decay_matches_trajectory_fit():
    # the sharp rate must equal the observed exponential decay of the norm
    rng = np.random.default_rng(41)
    spec = random_sharp_chain(rng, "batch_birth", 6)
    rate = cb.perron_weights(_bstar(spec))
    w0 = rng.uniform(0.1, 1.0, 6)
    traj = cb.solve("transformed", spec, w0, tmax=2.0, n_steps=4000,
                    weights=rate.weights)
    norms = np.abs(traj.states).sum(axis=1)
    fitted = math.log(norms[-1] / norms[0]) / 2.0
    assert abs(fitted - rate.lambda0) <= 1e-6 * abs(rate.lambda0)


def test_sharpness_conditions_per_class():
    ok4 = cb.batch_both_chain(3, [2.0, 1.0, 0.5], [3.0, 1.0, 0.5])
    assert cb.check_sharpness_conditions(ok4).passed

    tie = cb.batch_birth_chain(3, [1.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    rep = cb.check_sharpness_conditions(tie)
    assert not rep.passed and "a_2 < a_1" in rep.failures[0]

    dead = cb.birth_death_chain(2, [1.0, 1.0], [1.0, 0.0])
    assert not cb.check_sharpness_conditions(dead).passed

    single = cb.batch_both_chain(1, [1.0], [1.0])
    assert cb.check_sharpness_conditions(single).passed

    general = cb.general_chain(1, {(0, 1): 1.0, (1, 0): 1.0})
    assert not cb.check_sharpness_conditions(general).passed


# one failing chain of every kind and the exact failures it reports, in order
FAILING_CONDITIONS = [
    (cb.birth_death_chain(2, [1.0, 0.0], [0.0, 1.0]),
     ("all birth rates must be positive", "all death rates must be positive")),
    (cb.batch_birth_chain(2, [1.0, 1.5], [1.0, 0.0]),
     ("all death rates must be positive", "need a_2 < a_1, got a_1=1.0, a_2=1.5")),
    (cb.batch_death_chain(3, [0.5, 0.5, 0.25], [0.0, 2.0, 1.0]),
     ("all birth rates must be positive", "need b_2 < b_1, got b_1=0.5, b_2=0.5")),
    (cb.batch_both_chain(3, [1.0, 2.0, 0.5], [0.25, 0.25, 0.1]),
     ("need a_2 < a_1, got a_1=1.0, a_2=2.0", "need b_2 < b_1, got b_1=0.25, b_2=0.25")),
    (cb.general_chain(1, {(0, 1): 1.0, (1, 0): 1.0}),
     ("general chains carry no structural sharpness certificate",)),
]


@pytest.mark.parametrize("spec, failures", FAILING_CONDITIONS,
                         ids=[spec.kind for spec, _ in FAILING_CONDITIONS])
def test_sharpness_condition_failures_are_exact(spec, failures):
    rep = cb.check_sharpness_conditions(spec)
    assert rep == cb.ConditionReport(passed=False, kind=spec.kind, failures=failures)


def test_sharpness_conditions_need_homogeneous():
    lam = cb.RateFunction.sinusoid(1.0, 0.5, 1.0)
    spec = cb.birth_death_chain(2, [lam, 1.0], [1.0, 1.0])
    with pytest.raises(cb.InhomogeneousChainError):
        cb.check_sharpness_conditions(spec)


def test_closed_form_values():
    beta, g = cb.closed_form_bd(1.0, 1.0, 3)
    assert beta == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-15)
    assert g == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-15)


def test_closed_form_large_population_limit():
    beta, _ = cb.closed_form_bd(2.0, 0.5, 10_000)
    assert abs(beta - (math.sqrt(2.0) - math.sqrt(0.5)) ** 2) <= 1e-6


def test_closed_form_validation():
    with pytest.raises(ValueError):
        cb.closed_form_bd(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        cb.closed_form_bd(1.0, 1.0, 0)


def test_extreme_eigenvalues_toeplitz():
    # eigenvalues of the negated transform of the constant chain are
    # a + b - 2 sqrt(ab) cos(k pi / (S+1)), k = 1..S
    for a, b, S in ((1.0, 1.0, 3), (2.0, 0.5, 5), (0.5, 2.0, 4)):
        spec = cb.birth_death_chain(S, [a] * S, [b] * S)
        lo, hi = extreme_real_eigenvalues(-_bstar(spec), tol=1e-13)
        beta, g = cb.closed_form_bd(a, b, S)
        assert abs(lo - beta) <= 1e-8
        assert abs(hi - g) <= 1e-8


def test_dominant_eigenvalue_simple():
    M = np.diag([1.0, -3.0, 2.0])
    assert dominant_eigenvalue(M) == pytest.approx(-3.0, abs=1e-10)
