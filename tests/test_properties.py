"""Property tests of the model-file format and the command-line exit codes."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import ctmc_bounds as cb
from ctmc_bounds import cli

# deterministic examples and no example database, so runs repeat exactly
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

finite = st.floats(-1e6, 1e6, allow_nan=False)
nonnegative = st.floats(0.0, 1e6, allow_nan=False)


@st.composite
def tables(draw, values=nonnegative):
    times = sorted(draw(st.sets(st.floats(-10.0, 10.0, allow_nan=False), min_size=2,
                                max_size=4)))
    return cb.RateFunction.table(times, draw(st.lists(values, min_size=len(times),
                                                      max_size=len(times))))


def rates(constant=nonnegative, sinusoid=finite, table_values=nonnegative):
    """Rate functions of all three variants."""
    return st.one_of(
        constant.map(cb.RateFunction.constant),
        st.builds(cb.RateFunction.sinusoid, sinusoid, sinusoid, sinusoid, sinusoid),
        tables(table_values))


@st.composite
def chains(draw, max_states=4, rate=rates()):
    kind = draw(st.sampled_from(cb.chain.KINDS))
    S = draw(st.integers(1, max_states))
    if kind == "general":
        pairs = [(i, j) for i in range(S + 1) for j in range(S + 1) if i != j]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
        return cb.general_chain(S, {pair: draw(rate) for pair in chosen})
    return cb.chain.class_chain(kind, S, *(draw(st.lists(rate, min_size=S, max_size=S))
                                           for _ in cb.chain.RATE_LISTS[kind]))


@st.composite
def analyses(draw, S, small=False):
    weights = draw(st.one_of(st.sampled_from(("ones", "perron", "frozen-perron")),
                             st.lists(st.floats(0.1, 10.0), min_size=S,
                                      max_size=S).map(tuple)))
    if small:
        return cb.AnalysisSettings(
            horizon=draw(st.floats(0.1, 2.0)), grid=draw(st.integers(2, 9)),
            steps=draw(st.integers(1, 12)), weights=weights,
            tolerance=draw(st.floats(0.0, 1e-3)))
    return cb.AnalysisSettings(
        horizon=draw(st.floats(1e-3, 1e6)), grid=draw(st.integers(2, 10**6)),
        steps=draw(st.integers(1, 10**6)), weights=weights,
        tolerance=draw(st.floats(0.0, 1.0)))


@st.composite
def models(draw, small=False, rate=rates()):
    chain = draw(chains(max_states=3 if small else 4, rate=rate))
    return cb.ModelFile(chain=chain, analysis=draw(analyses(chain.S, small)))


@PROPERTY
@given(models())
def test_serialized_models_parse_back_to_the_same_model(model):
    assert cb.parse_model(cb.serialize_model(model)) == model


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10)

# positions in a valid model file at which an arbitrary JSON value is put
VALID_DOC = {"schema": 1,
             "chain": {"kind": "birth_death", "states": 2, "define": {"lam": 1.0},
                       "birth": ["lam", {"sinusoid": {"offset": 1.0, "amplitude": 0.5,
                                                      "frequency": 1.0}}],
                       "death": [1.0, {"table": {"times": [0.0, 1.0],
                                                 "values": [1.0, 2.0]}}],
                       "transitions": [{"from": 0, "to": 1, "rate": "lam"}]},
             "analysis": {"horizon": 1.0, "grid": 11, "weights": "ones"}}
FIELDS = [(), ("schema",), ("chain",), ("chain", "kind"), ("chain", "states"),
          ("chain", "define"), ("chain", "define", "lam"), ("chain", "birth"),
          ("chain", "birth", 0), ("chain", "birth", 1, "sinusoid"),
          ("chain", "birth", 1, "sinusoid", "offset"), ("chain", "death", 1, "table"),
          ("chain", "death", 1, "table", "times"), ("chain", "transitions"),
          ("chain", "transitions", 0), ("chain", "transitions", 0, "rate"),
          ("analysis",), ("analysis", "horizon"), ("analysis", "grid"),
          ("analysis", "weights"), ("analysis", "seed"), ("analysis", "tolerance")]


def _run(argv_head, text):
    """(exit code, stdout, stderr) of the command on a model file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([argv_head, str(path)])
    return code, out.getvalue(), err.getvalue()


@PROPERTY
@given(st.sampled_from(FIELDS), json_values,
       st.sampled_from(("general", "birth_death", "batch_both")))
def test_malformed_model_files_exit_with_the_parse_code(field, value, kind):
    doc = json.loads(json.dumps(VALID_DOC))
    doc["chain"]["kind"] = kind
    if field:
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
    else:
        doc = value
    text = json.dumps(doc)
    try:
        cb.parse_model(text)
    except cb.ModelFileError:
        pass
    else:
        assume(False)  # still a valid model
    code, out, err = _run("check", text)
    assert code == cli.EXIT_PARSE
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# rates that may go negative (sinusoids), vanish (reducible chains), break
# monotonicity or overflow the envelopes: every outcome must map to an exit code
wild_rates = rates(constant=st.sampled_from((0.0, 0.5, 1.0, 3.0, 1e3)),
                   sinusoid=st.floats(-3.0, 3.0),
                   table_values=st.floats(0.0, 5.0))


@settings(PROPERTY, max_examples=25)
@given(models(small=True, rate=wild_rates))
def test_every_command_exits_with_a_documented_code(model):
    text = cb.serialize_model(model)
    for command in ("check", "rate", "bounds", "verify"):
        code, _, err = _run(command, text)
        assert code in range(7), (command, code)
        assert "Traceback" not in err
