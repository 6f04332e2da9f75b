import json

import numpy as np
import pytest

import ctmc_bounds as cb
from conftest import CLASS_KINDS, random_class_chain, random_regular_general
from linalg_oracles import dense_generator, dense_regularity

CONSTRUCTORS = {"birth_death": cb.birth_death_chain, "batch_birth": cb.batch_birth_chain,
                "batch_death": cb.batch_death_chain, "batch_both": cb.batch_both_chain}
# the two rate lists of each structured kind, in the constructor's order
KIND_LISTS = {"birth_death": ("birth", "death"), "batch_birth": ("batch_birth", "death"),
              "batch_death": ("batch_death", "birth"),
              "batch_both": ("batch_birth", "batch_death")}


def _mixed_rates(rng, n):
    """n rate functions cycling through the constant, sinusoid and table variants."""
    rates = []
    for m in range(n):
        c = float(rng.uniform(0.5, 3.0))
        rates.append((c, cb.RateFunction.sinusoid(c, 0.4 * c, 0.7, float(m)),
                      cb.RateFunction.table([0.0, 0.8, 2.0], [c, 0.3 * c, 2.0 * c]))[m % 3])
    return tuple(cb.as_rate(r) for r in rates)


def _shared_rates(rng, n, sharing, flip):
    """n rate functions, every other one of which gives the same values as others.

    "one-object": one RateFunction object, which every list of the case
    holds; "equal-values": equal but distinct objects; "signed-zeros":
    constant(-0.0) and constant(0.0) in turn, starting with 0.0 when flip is
    odd. These two compare and hash equal, while their entries of Q differ
    in sign.
    """
    rates = list(_mixed_rates(rng, n))
    for m in range(0, n, 2):
        rates[m] = {"one-object": SHARED,
                    "equal-values": cb.RateFunction.sinusoid(1.5, 0.5, 0.7, 0.2),
                    "signed-zeros": cb.RateFunction.constant((-0.0, 0.0)[(m // 2 + flip) % 2]),
                    }[sharing]
    return tuple(rates)


SHARED = cb.RateFunction.table([0.0, 0.8, 2.0], [1.0, 0.4, 2.5])
SHARING = ("distinct", "one-object", "equal-values", "signed-zeros", "define")


def _sharing_case(rng, kind, S, sharing):
    """(spec, lists) of one bit-identity case; lists as linalg_oracles.dense_generator takes them."""
    names = ("transitions",) if kind == "general" else KIND_LISTS[kind]
    if kind == "general":
        pairs = [(i, j) for i in range(S + 1) for j in range(S + 1) if i != j]
        # leave out S - 1 of the pairs, so some entries of Q are absent
        pairs = [pairs[m] for m in sorted(rng.permutation(len(pairs))[:len(pairs) - S + 1])]
    sizes = {name: len(pairs) if kind == "general" else S for name in names}
    if sharing == "define":
        # every list names the model file's defined rates, each name at several positions
        chain = {"kind": kind, "states": S,
                 "define": {"lam": {"sinusoid": {"offset": 1.2, "amplitude": 0.4,
                                                 "frequency": 0.7}},
                            "mu": {"table": {"times": [0.0, 2.0], "values": [0.5, 1.5]}}}}
        for name in names:
            refs = [("lam", "mu", 0.25)[m % 3] for m in range(sizes[name])]
            chain[name] = ([{"from": i, "to": j, "rate": r} for (i, j), r in zip(pairs, refs)]
                           if kind == "general" else refs)
        spec = cb.parse_model(json.dumps({"schema": 1, "chain": chain})).chain
        if kind == "general":
            return spec, {"transitions": {(i, j): fn for i, j, fn in spec.transitions}}
        return spec, {name: getattr(spec, name) for name in names}
    lists = {name: _mixed_rates(rng, sizes[name]) if sharing == "distinct"
             else _shared_rates(rng, sizes[name], sharing, flip)
             for flip, name in enumerate(names)}
    if kind == "general":
        lists = {"transitions": dict(zip(pairs, lists["transitions"]))}
        return cb.general_chain(S, lists["transitions"]), lists
    return CONSTRUCTORS[kind](S, *(lists[name] for name in names)), lists


@pytest.mark.parametrize("S", [1, 2, 5])
@pytest.mark.parametrize("kind", ["general", *CLASS_KINDS])
def test_generator_matches_dense_oracle_bit_for_bit(kind, S):
    for sharing in SHARING:
        rng = np.random.default_rng(100 * S + len(kind))
        spec, lists = _sharing_case(rng, kind, S, sharing)
        for t in (0.37, np.linspace(0.0, 2.0, 5)):
            expected = dense_generator(kind, S, lists, t)
            got = cb.eval_generator(spec, t)
            assert got.shape == expected.shape
            # bytes, not values: -0.0 == 0.0 would pass a value comparison
            assert got.tobytes() == expected.tobytes(), (kind, S, sharing, t)


@pytest.mark.parametrize("S", [1, 2, 5, 8])
@pytest.mark.parametrize("kind", ["general", *CLASS_KINDS])
def test_regularity_on_rate_pairs_matches_the_dense_oracle(kind, S):
    # unordered batch lists, rates shared within and between lists, signed
    # zeros side by side, absent entries of general chains; one time and many
    broken = 0
    for sharing in SHARING:
        rng = np.random.default_rng(200 * S + len(kind))
        spec, _ = _sharing_case(rng, kind, S, sharing)
        for times in ([0.37], np.linspace(0.0, 2.0, 9)):
            expected = dense_regularity(cb.eval_generator(spec, times), times)
            assert cb.check_regularity(cb.rate_table(spec, times)) == expected, (sharing, times)
            broken += len(expected.violations)
        assert cb.check_regularity(cb.rate_table(spec, 0.37)) == dense_regularity(
            cb.eval_generator(spec, 0.37)[None], [0.37])
    assert (broken > 0) == (S > 1 and kind != "birth_death")


def test_regularity_on_random_general_chains_matches_the_dense_oracle():
    rng = np.random.default_rng(12)
    broken = 0
    for _ in range(40):
        S = int(rng.integers(2, 9))
        entries = [(i, j) for i in range(S + 1) for j in range(S + 1)
                   if i != j and rng.uniform() < 0.7]
        spec = cb.general_chain(S, dict(zip(entries, _mixed_rates(rng, len(entries)))))
        times = np.linspace(0.0, 2.0, int(rng.integers(1, 12)))
        expected = dense_regularity(cb.eval_generator(spec, times), times)
        assert cb.check_regularity(cb.rate_table(spec, times)) == expected
        broken += len(expected.violations)
    assert broken > 1000


@pytest.mark.parametrize("kind", ["general", *CLASS_KINDS])
def test_rate_table_writes_slices_of_the_whole_generator_stack(kind):
    rng = np.random.default_rng(31)
    spec, _ = _sharing_case(rng, kind, 4, "signed-zeros")
    times = np.linspace(0.0, 2.0, 11)
    table = cb.rate_table(spec, times)
    whole = cb.eval_generator(spec, times)
    assert table.shape == whole.shape and len(table) == len(whole)
    for s in (slice(0, 3), slice(3, 10), slice(10, 11), np.s_[::2]):
        assert table[s].tobytes() == whole[s].tobytes()
    assert table.at(np.s_[::2])[...].tobytes() == whole[::2].tobytes()


def test_birth_death_two_state_generator():
    spec = cb.birth_death_chain(1, [1.0], [2.0])
    assert np.array_equal(cb.eval_generator(spec, 0.0), [[-1.0, 1.0], [2.0, -2.0]])


def test_batch_birth_generator_hand_assembled():
    # from state 0: group births of size 1 (rate 3) and 2 (rate 1); from 1:
    # death at 2, birth of one at 3; from 2: death at 2
    spec = cb.batch_birth_chain(2, [3.0, 1.0], [2.0, 2.0])
    expected = [[-4.0, 3.0, 1.0], [2.0, -5.0, 3.0], [0.0, 2.0, -2.0]]
    assert np.array_equal(cb.eval_generator(spec, 0.0), expected)


def test_batch_death_transposed_hand_assembled():
    spec = cb.batch_death_chain(2, [2.0, 1.0], [1.0, 1.0])
    expected = [[-1.0, 2.0, 1.0], [1.0, -3.0, 2.0], [0.0, 1.0, -3.0]]
    assert np.array_equal(cb.eval_generator(spec, 0.0).T, expected)


def test_transpose_relation_and_zero_sums():
    rng = np.random.default_rng(11)
    for kind in CLASS_KINDS:
        for S in (1, 3, 6):
            spec = random_class_chain(rng, kind, S)
            Q = cb.eval_generator(spec, 0.7)
            A = cb.eval_generator(spec, 0.7).T
            assert np.array_equal(A, Q.T)
            scale = np.abs(Q).max()
            assert np.abs(Q.sum(axis=1)).max() <= 1e-13 * scale
            assert np.abs(A.sum(axis=0)).max() <= 1e-13 * scale


def test_general_chain_row_sums_and_vectorized_times():
    rng = np.random.default_rng(5)
    spec = random_regular_general(rng, 4, time_varying=True)
    ts = np.linspace(0.0, 2.0, 7)
    Qs = cb.eval_generator(spec, ts)
    assert Qs.shape == (7, 5, 5)
    for k, t in enumerate(ts):
        assert np.array_equal(Qs[k], cb.eval_generator(spec, float(t)))
    assert np.abs(Qs.sum(axis=-1)).max() <= 1e-13 * np.abs(Qs).max()


def test_offdiagonals_nonnegative_diagonal_nonpositive():
    rng = np.random.default_rng(21)
    spec = random_class_chain(rng, "batch_both", 5)
    Q = cb.eval_generator(spec, 0.0)
    off = Q[~np.eye(6, dtype=bool)]
    assert off.min() >= 0.0
    assert np.diag(Q).max() <= 0.0


def test_negative_rate_at_evaluation_is_an_error():
    lam = cb.RateFunction.sinusoid(0.2, 1.0, 1.0)  # negative for a while
    spec = cb.birth_death_chain(1, [lam], [1.0])
    cb.eval_generator(spec, 0.0)  # fine here
    with pytest.raises(cb.RateEvaluationError):
        cb.eval_generator(spec, 0.75)


# two rates that turn negative near t = 0.75, with different values there
DIPS = (cb.RateFunction.sinusoid(0.2, 1.0, 1.0), cb.RateFunction.sinusoid(0.1, 1.0, 1.0))


def _dip_error(fn, t):
    with pytest.raises(cb.RateEvaluationError) as info:
        fn(t)
    return str(info.value)


def _with(values, dips):
    """values with DIPS[d] put at index k for every (k, d) in dips."""
    values = list(values)
    for k, d in dips.items():
        values[k] = DIPS[d]
    return values


# (spec, the jump the error names, the failing rate there): the first failing
# entry of Q, row by row and, out of one state, in the order a_k, b_k, birth,
# death (a_k first jumps 0->k, b_k first jumps k->0)
ONES = [1.0] * 4
FAILING = {
    "batch_birth": (cb.batch_birth_chain(4, _with(ONES, {2: 0, 3: 1}), ONES), "0->3", 0),
    "batch_death": (cb.batch_death_chain(4, _with(ONES, {1: 0, 2: 1}), ONES), "2->0", 0),
    "birth": (cb.birth_death_chain(4, _with(ONES, {1: 0, 3: 1}), ONES), "1->2", 0),
    "death": (cb.birth_death_chain(4, ONES, _with(ONES, {1: 0, 2: 1})), "2->1", 0),
    "general": (cb.general_chain(3, {(0, 1): 1.0, (1, 0): DIPS[0], (1, 2): 1.0,
                                     (2, 1): DIPS[1], (3, 2): DIPS[0]}), "1->0", 0),
    # two failing lists in one chain
    "batch_both": (cb.batch_both_chain(4, _with(ONES, {3: 1}), _with(ONES, {0: 0})),
                   "0->4", 1),
    "birth_before_death": (cb.birth_death_chain(4, _with(ONES, {1: 1}), _with(ONES, {0: 0})),
                           "1->2", 1),
    "batch_death_before_birth": (cb.batch_death_chain(4, _with(ONES, {1: 1}),
                                                      _with(ONES, {2: 0})), "2->0", 1),
    "birth_before_batch_death": (cb.batch_death_chain(4, _with(ONES, {2: 1}),
                                                      _with(ONES, {1: 0})), "1->2", 0),
    "batch_birth_before_death": (cb.batch_birth_chain(4, _with(ONES, {3: 1}),
                                                      _with(ONES, {0: 0})), "0->4", 1),
}


@pytest.mark.parametrize("t", [0.75, np.linspace(0.0, 1.0, 9)], ids=["scalar", "array"])
@pytest.mark.parametrize("case", FAILING)
def test_a_negative_rate_names_its_first_failing_transition(case, t):
    spec, jump, dip = FAILING[case]
    with pytest.raises(cb.RateEvaluationError) as info:
        cb.eval_generator(spec, t)
    assert str(info.value) == f"transition {jump}: {_dip_error(DIPS[dip], t)}"


def test_batch_rates_are_called_once_per_distinct_rate(rate_calls):
    S = 50
    batch = [cb.RateFunction.sinusoid(2.0, 0.5, 1.0, 0.01 * k) for k in range(2 * S)]
    spec = cb.batch_both_chain(S, batch[:S], batch[S:])
    cb.eval_generator(spec, np.linspace(0.0, 1.0, 11))
    assert len(rate_calls) == 2 * S  # one call per entry of Q would make S * (S + 1) = 2550
    assert set(rate_calls) == set(batch)


def test_a_uniform_chain_from_defined_names_calls_each_name_once(rate_calls):
    doc = {"schema": 1, "chain": {
        "kind": "birth_death", "states": 20,
        "define": {"lam": {"sinusoid": {"offset": 1.0, "amplitude": 0.5, "frequency": 1.0}},
                   "mu": {"table": {"times": [0.0, 1.0], "values": [2.0, 1.0]}}},
        "birth": ["lam"] * 20, "death": ["mu"] * 20}}
    cb.eval_generator(cb.parse_model(json.dumps(doc)).chain, np.linspace(0.0, 1.0, 11))
    assert len(rate_calls) == 2


def test_regularity_birth_death_always_regular():
    rng = np.random.default_rng(3)
    spec = random_class_chain(rng, "birth_death", 5)
    grid = np.linspace(0, 1, 11)
    report = cb.check_regularity(cb.rate_table(spec, grid))
    assert report.regular
    assert report.violations == ()


def test_regularity_flags_increasing_batch_rates():
    spec = cb.batch_birth_chain(2, [1.0, 2.0], [1.0, 1.0])
    report = cb.check_regularity(cb.rate_table(spec, [0.0]))
    assert not report.regular
    # arrivals into state 2: the size-1 group birth (rate 1) is beaten by
    # the size-2 one (rate 2)
    v = report.violations[0]
    assert (v.state, v.k, v.direction) == (2, 1, "up")
    assert v.value == 1.0 and v.next_value == 2.0


def test_regularity_geometric_batches_regular():
    spec = cb.batch_both_chain(4, [2.0 ** -k for k in range(1, 5)],
                               [3.0 ** -k for k in range(1, 5)])
    grid = [0.0, 0.5, 1.0]
    assert cb.check_regularity(cb.rate_table(spec, grid)).regular


def test_class_constructors_regular_under_monotone_batches():
    rng = np.random.default_rng(7)
    for kind in CLASS_KINDS:
        for S in (2, 4, 8):
            spec = random_class_chain(rng, kind, S)
            grid = np.linspace(0, 1, 5)
            assert cb.check_regularity(cb.rate_table(spec, grid)).regular, (kind, S)


def test_regularity_nonempty_grid_required():
    spec = cb.birth_death_chain(1, [1.0], [1.0])
    with pytest.raises(ValueError):
        cb.check_regularity(cb.rate_table(spec, []))


def test_constructor_validation():
    with pytest.raises(ValueError):
        cb.birth_death_chain(0, [], [])
    with pytest.raises(ValueError):
        cb.birth_death_chain(2, [1.0], [1.0, 1.0])  # wrongly sized birth list
    with pytest.raises(ValueError):
        cb.batch_birth_chain(2, [1.0, -1.0], [1.0, 1.0])  # negative constant
    with pytest.raises(ValueError):
        cb.general_chain(2, {(0, 3): 1.0})
    with pytest.raises(ValueError):
        cb.general_chain(2, {(1, 1): 1.0})


def test_structural_construction_defers_monotonicity():
    # constructing with an increasing batch list is allowed; the regularity
    # check is what flags it later
    spec = cb.batch_birth_chain(3, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert spec.kind == "batch_birth"
    assert not cb.check_regularity(cb.rate_table(spec, [0.0])).regular


def test_is_homogeneous():
    assert cb.birth_death_chain(2, [1.0, 1.0], [1.0, 1.0]).is_homogeneous
    lam = cb.RateFunction.sinusoid(1.0, 0.5, 1.0)
    assert not cb.birth_death_chain(2, [lam, 1.0], [1.0, 1.0]).is_homogeneous


def test_specs_are_immutable_and_comparable():
    a = cb.birth_death_chain(2, [1.0, 2.0], [3.0, 4.0])
    b = cb.birth_death_chain(2, [1.0, 2.0], [3.0, 4.0])
    assert a == b
    with pytest.raises(AttributeError):
        a.S = 5
