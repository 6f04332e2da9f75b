import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ctmc_bounds as cb
from ctmc_bounds import bounds as bounds_module
from ctmc_bounds import cli
from conftest import NONREGULAR_OVERRIDE_RATES, random_class_chain

BD3 = {
    "schema": 1,
    "chain": {
        "kind": "birth_death",
        "states": 3,
        "birth": [1.0, 1.0, 1.0],
        "death": [1.0, 1.0, 1.0],
    },
    "analysis": {"horizon": 2.0, "grid": 101, "steps": 500, "weights": "perron",
                 "trials": 10, "pairs": 5, "seed": 7, "tolerance": 1e-8},
}


def _write(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_and_defaults():
    model = cb.parse_model(json.dumps(
        {"schema": 1, "chain": {"kind": "birth_death", "states": 1,
                                "birth": [1.0], "death": [2.0]}}))
    assert model.chain.S == 1
    assert model.analysis.horizon == 1.0
    assert model.analysis.grid == 1001
    assert model.analysis.weights == "ones"


def test_round_trip_preserves_chain_and_settings():
    doc = {
        "schema": 1,
        "chain": {
            "kind": "batch_birth",
            "states": 3,
            "define": {"mu": {"sinusoid": {"offset": 2.0, "amplitude": 0.5,
                                           "frequency": 1.0, "phase": 0.1}}},
            "batch_birth": [1.0, {"constant": 0.5},
                            {"table": {"times": [0.0, 1.0], "values": [0.25, 0.1]}}],
            "death": ["mu", "mu", 1.5],
        },
        "analysis": {"horizon": 3.0, "weights": [1.0, 2.0, 3.0], "seed": 5},
    }
    first = cb.parse_model(json.dumps(doc))
    second = cb.parse_model(cb.serialize_model(first))
    assert first.chain == second.chain
    assert first.analysis == second.analysis
    assert second.analysis.weights == (1.0, 2.0, 3.0)


def test_round_trip_general_chain():
    model = cb.ModelFile(chain=cb.general_chain(2, {(0, 1): 1.0, (1, 0): 2.0,
                                                    (2, 0): 0.5}))
    again = cb.parse_model(cb.serialize_model(model))
    assert again.chain == model.chain


def test_parse_errors():
    with pytest.raises(cb.ModelFileError, match="JSON"):
        cb.parse_model("{nope")
    with pytest.raises(cb.ModelFileError, match="schema"):
        cb.parse_model(json.dumps({"schema": 99, "chain": {}}))
    with pytest.raises(cb.ModelFileError, match="kind"):
        cb.parse_model(json.dumps({"schema": 1, "chain": {"kind": "x", "states": 1}}))
    with pytest.raises(cb.ModelFileError, match="needs the list"):
        cb.parse_model(json.dumps({"schema": 1, "chain": {
            "kind": "birth_death", "states": 2, "birth": [1.0, 1.0]}}))
    with pytest.raises(cb.ModelFileError, match="needs 2 rates"):
        cb.parse_model(json.dumps({"schema": 1, "chain": {
            "kind": "birth_death", "states": 2, "birth": [1.0],
            "death": [1.0, 1.0]}}))
    with pytest.raises(cb.ModelFileError, match="not defined"):
        cb.parse_model(json.dumps({"schema": 1, "chain": {
            "kind": "birth_death", "states": 1, "birth": ["missing"],
            "death": [1.0]}}))
    with pytest.raises(cb.ModelFileError, match="weights"):
        cb.parse_model(json.dumps({"schema": 1,
                                   "chain": BD3["chain"],
                                   "analysis": {"weights": "magic"}}))
    with pytest.raises(cb.ModelFileError, match="duplicate"):
        cb.parse_model(json.dumps({"schema": 1, "chain": {
            "kind": "general", "states": 1,
            "transitions": [{"from": 0, "to": 1, "rate": 1.0},
                            {"from": 0, "to": 1, "rate": 2.0}]}}))


def test_settings_refuse_an_unknown_weights_mode_when_constructed():
    with pytest.raises(cb.ModelFileError, match="unknown weights mode 'bogus'"):
        cb.AnalysisSettings(weights="bogus")


def test_cmd_check_passes_class_chain(tmp_path, capsys):
    code = cli.main(["check", _write(tmp_path, BD3)])
    out = capsys.readouterr().out
    assert code == 0
    assert "regular: yes" in out
    assert "essentially non-negative: yes" in out


def test_cmd_check_override_path_warns_but_passes(tmp_path, capsys):
    doc = {"schema": 1, "chain": {
        "kind": "general", "states": 3,
        "transitions": [{"from": i, "to": j, "rate": r}
                        for (i, j), r in sorted(NONREGULAR_OVERRIDE_RATES.items())]}}
    code = cli.main(["check", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "regular: no" in out
    assert "essentially non-negative: yes" in out
    assert "warning" in out


def test_cmd_check_fails_on_negative_transform(tmp_path, capsys):
    doc = {"schema": 1, "chain": {"kind": "batch_birth", "states": 2,
                                  "batch_birth": [1.0, 2.0], "death": [1.0, 1.0]}}
    code = cli.main(["check", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 1
    assert "essentially non-negative: no" in out
    assert "t=" in out


def test_cmd_rate_reports_closed_form(tmp_path, capsys):
    code = cli.main(["rate", _write(tmp_path, BD3), "--closed-form"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda0: -0.58578643762" in out
    assert "beta_star=0.58578643762" in out
    assert "sharpness conditions (birth_death): pass" in out


def test_cmd_rate_reports_the_perron_solve(tmp_path, capsys):
    assert cli.main(["rate", _write(tmp_path, BD3)]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    spec = cb.parse_model(json.dumps(BD3)).chain
    rate = cb.perron_weights(cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0))))
    lo, hi = rate.bracket
    assert lines["perron"] == (f"{rate.iterations} solves, "
                               f"bracket [{format(lo, '.17g')}, {format(hi, '.17g')}]")
    assert lo <= float(lines["lambda0"]) <= hi


def test_successive_main_calls_leak_no_options(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, BD3)
    assert cli.build_parser() is cli.build_parser()  # built once per process
    assert cli.main(["rate", path, "--closed-form"]) == 0
    assert "closed form:" in capsys.readouterr().out
    assert cli.main(["rate", path]) == 0
    assert "closed form:" not in capsys.readouterr().out
    assert cli.main(["bounds", path, "--grid", "11"]) == 0
    assert "11 grid points" in capsys.readouterr().out
    assert cli.main(["bounds", path]) == 0
    assert f"{BD3['analysis']['grid']} grid points" in capsys.readouterr().out
    # the built parser holds no command function: one replaced later is called
    calls = []
    monkeypatch.setattr(cli, "cmd_rate", lambda args: calls.append(args.model) or 0)
    assert cli.main(["rate", path]) == 0 and calls == [path]


@pytest.mark.parametrize("mode", ["perron", "frozen-perron"])
def test_perron_weight_modes_solve_what_rate_solves(mode):
    rng = np.random.default_rng(12)
    spec = cb.birth_death_chain(60, rng.uniform(1.4, 1.6, 60), rng.uniform(1.4, 1.6, 60))
    weights, warnings = cli.resolve_weights(spec, cb.AnalysisSettings(weights=mode))
    assert warnings == []
    assert np.array_equal(weights, cb.sharp_report(spec).weights)


def test_rate_on_a_birth_death_chain_does_not_depend_on_the_blas_thread_count(tmp_path):
    S = 200
    path = _write(tmp_path, {"schema": 1, "chain": {"kind": "birth_death", "states": S,
                                                   "birth": [1.0] * S, "death": [2.0] * S}})
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", "ctmc_bounds.cli", "rate", path,
                               "--csv", str(tmp_path / "rate.csv")],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
        outputs.append((proc.stdout, (tmp_path / "rate.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def _rate_is_sharp(tmp_path, capsys, chain, name="model.json"):
    doc = {"schema": 1, "chain": chain, "analysis": {"grid": 11}}
    code = cli.main(["rate", _write(tmp_path, doc, name)])
    out, err = capsys.readouterr()
    return code == cli.EXIT_OK and "sharp: yes" in out and err == ""


def test_cmd_rate_is_sharp_when_lambda0_is_below_round_off_of_the_rates(tmp_path, capsys):
    # lambda0 ~ -1.9e-7 against rates of 10: the equalized column sums can
    # spread by round-off of the rates (8.9e-15), far more than 1e-9 |lambda0|
    birth, death = [10.0] * 20, [10.0] * 20
    birth[10] = death[10] = 1e-6
    chain = {"kind": "birth_death", "states": 20, "birth": birth, "death": death}
    assert _rate_is_sharp(tmp_path, capsys, chain)


def test_cmd_rate_is_sharp_on_random_birth_death_chains(tmp_path, capsys):
    rng = np.random.default_rng(5)
    for n in range(200):
        spec = random_class_chain(rng, "birth_death", int(rng.integers(2, 80)))
        chain = {"kind": "birth_death", "states": spec.S,
                 "birth": [fn.constant_value for fn in spec.birth],
                 "death": [fn.constant_value for fn in spec.death]}
        assert _rate_is_sharp(tmp_path, capsys, chain, f"chain{n}.json"), n


def test_cmd_rate_rejects_time_varying_chain(tmp_path, capsys):
    doc = {"schema": 1, "chain": {
        "kind": "birth_death", "states": 2,
        "define": {"lam": {"sinusoid": {"offset": 1.0, "amplitude": 0.5,
                                        "frequency": 1.0}}},
        "birth": ["lam", "lam"], "death": [1.0, 1.0]}}
    assert cli.main(["rate", _write(tmp_path, doc)]) == cli.EXIT_INHOMOGENEOUS


def test_cmd_rate_conditions_failure_exit(tmp_path):
    doc = {"schema": 1, "chain": {"kind": "batch_birth", "states": 2,
                                  "batch_birth": [1.0, 1.0], "death": [1.0, 1.0]}}
    assert cli.main(["rate", _write(tmp_path, doc)]) == cli.EXIT_CONDITIONS


def test_cmd_bounds_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "b.csv"
    code = cli.main(["bounds", _write(tmp_path, BD3), "--csv", str(csv_path),
                     "--weights", "ones"])
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("t,h_upper")
    assert len(lines) == 102


def test_cmd_verify_passes_and_is_reproducible(tmp_path, capsys):
    model = _write(tmp_path, BD3)
    c1 = cli.main(["verify", model, "--csv", str(tmp_path / "v1.csv")])
    c2 = cli.main(["verify", model, "--csv", str(tmp_path / "v2.csv")])
    assert c1 == c2 == 0
    b1 = (tmp_path / "v1.csv").read_bytes()
    b2 = (tmp_path / "v2.csv").read_bytes()
    assert b1 == b2
    assert b1.startswith(b"t,bounds_ratio_upper_max,bounds_ratio_lower_min,"
                         b"coupling_ratio_max")


def test_cmd_exit_codes_for_bad_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["check", str(bad)]) == cli.EXIT_PARSE
    assert cli.main(["check", str(tmp_path / "missing.json")]) == cli.EXIT_PARSE

    # a sinusoid dipping negative on the analysis horizon is an evaluation error
    doc = {"schema": 1, "chain": {
        "kind": "birth_death", "states": 1,
        "define": {"lam": {"sinusoid": {"offset": 0.2, "amplitude": 1.0,
                                        "frequency": 1.0}}},
        "birth": ["lam"], "death": [1.0]}}
    assert cli.main(["check", _write(tmp_path, doc)]) == cli.EXIT_EVAL


def test_bounds_names_the_first_negative_transition_and_exits_with_eval_code(tmp_path,
                                                                            capsys):
    # both batch lists turn negative: a_3 from 0->3 comes before b_1 from 1->0
    dips = {"dip": {"sinusoid": {"offset": 0.2, "amplitude": 1.0, "frequency": 1.0}},
            "low": {"sinusoid": {"offset": 0.1, "amplitude": 1.0, "frequency": 1.0}}}
    doc = {"schema": 1,
           "chain": {"kind": "batch_both", "states": 4, "define": dips,
                     "batch_birth": [1.0, 1.0, "dip", 0.5],
                     "batch_death": ["low", 1.0, 0.5, 0.5]},
           "analysis": {"horizon": 1.0, "grid": 5}}
    assert cli.main(["bounds", _write(tmp_path, doc)]) == cli.EXIT_EVAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: transition 0->3: sinusoid rate is negative at t=0.625: "
                   "-0.5071067811865475\n")


BROKEN_BATCH = {"schema": 1, "chain": {"kind": "batch_birth", "states": 3,
                                       "batch_birth": [0.1, 2.0, 0.1],
                                       "death": [1.0, 1.0, 1.0]},
                "analysis": {"horizon": 1.0, "grid": 21, "steps": 40, "trials": 3,
                             "pairs": 2}}


# every rate 1e308: the generator's diagonal, and so B*, overflows; a sinusoid
# 1e308 + 1e308 sin(2 pi t) overflows itself where sin(2 pi t) > 0.8 (t in 0.15..0.35)
OVERFLOW_MODELS = {
    "all-rates-1e308": {"schema": 1, "chain": {"kind": "birth_death", "states": 3,
                                              "birth": [1e308] * 3, "death": [1e308] * 3}},
    "sinusoid-1e308": {"schema": 1, "chain": {
        "kind": "birth_death", "states": 3,
        "define": {"big": {"sinusoid": {"offset": 1e308, "amplitude": 1e308,
                                        "frequency": 1.0}}},
        "birth": ["big", 1.0, 1.0], "death": [1.0, 1.0, 1.0]}},
}
OVERFLOW_ERRORS = {
    ("all-rates-1e308", None): "B* has an entry that is not finite at t=0.0: the rates "
                               "exceed the double-precision range",
    ("sinusoid-1e308", "rate"): "sharpness-condition check requires constant rates, "
                                "but the chain is time-varying",
    ("sinusoid-1e308", "verify"): "transition 0->1: sinusoid rate is not finite at "
                                  "t=0.1875: inf",
    ("sinusoid-1e308", None): "transition 0->1: sinusoid rate is not finite at t=0.25: inf",
}


@pytest.mark.parametrize("command", ["check", "rate", "bounds", "verify"])
@pytest.mark.parametrize("model", sorted(OVERFLOW_MODELS))
def test_rates_beyond_the_double_precision_range_end_in_one_error_line(tmp_path, capsys,
                                                                       model, command):
    doc = dict(OVERFLOW_MODELS[model], analysis={"horizon": 1.0, "grid": 5, "steps": 4,
                                                 "trials": 2, "pairs": 2})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # each would be a line on stderr
        code = cli.main([command, _write(tmp_path, doc)])
    err = capsys.readouterr().err
    message = OVERFLOW_ERRORS.get((model, command), OVERFLOW_ERRORS[(model, None)])
    assert [str(w.message) for w in caught] == []
    assert err == f"error: {message}\n"
    assert code == (cli.EXIT_INHOMOGENEOUS if message.startswith("sharpness") else cli.EXIT_EVAL)


@pytest.mark.parametrize("argv", [["bounds"], ["verify"],
                                  ["bounds", "--weights", "frozen-perron"],
                                  ["verify", "--weights", "perron"]])
def test_commands_refuse_a_transform_that_is_not_essentially_nonnegative(
        tmp_path, capsys, argv):
    code = cli.main([argv[0], _write(tmp_path, BROKEN_BATCH)] + argv[1:])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_VIOLATION
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not essentially non-negative" in err
    assert "pass" not in out


@pytest.mark.parametrize("argv", [["rate"], ["bounds", "--weights", "perron"],
                                  ["verify", "--weights", "perron"]])
def test_perron_solve_failure_exits_with_evaluation_code(tmp_path, capsys, monkeypatch,
                                                          argv):
    def failing(*args, **kwargs):
        raise cb.PowerIterationError("no convergence within 3 solves")

    monkeypatch.setattr(bounds_module, "perron_band", failing)
    monkeypatch.setattr(bounds_module, "perron_weights", failing)
    code = cli.main([argv[0], _write(tmp_path, BD3)] + argv[1:])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_EVAL
    assert err == "error: no convergence within 3 solves\n"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv", [["verify", "--steps", "0"],
                                  ["verify", "--horizon", "-1"],
                                  ["check", "--grid", "1"],
                                  ["bounds", "--grid", "1"],
                                  ["bounds", "--horizon", "0"],
                                  ["verify", "--tol", "nan"]])
def test_out_of_range_analysis_values_exit_with_parse_code(tmp_path, capsys, argv):
    code = cli.main([argv[0], _write(tmp_path, BD3)] + argv[1:])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: analysis ") and out == ""


def test_weights_file_and_length_validation(tmp_path):
    wfile = tmp_path / "weights.txt"
    wfile.write_text("1.0, 2.0, 3.0\n")
    code = cli.main(["bounds", _write(tmp_path, BD3), "--weights", str(wfile)])
    assert code == 0

    short = tmp_path / "short.txt"
    short.write_text("1.0 2.0")
    assert cli.main(["bounds", _write(tmp_path, BD3),
                     "--weights", str(short)]) == cli.EXIT_PARSE


@pytest.mark.parametrize("text, shown", [("[true, 1, 1]", "true"), ('["1", "2", "3"]', '"1"')],
                         ids=["boolean", "strings"])
def test_a_json_weights_file_takes_numbers_as_the_model_file_does(tmp_path, capsys,
                                                                  text, shown):
    wfile = tmp_path / "weights.json"
    wfile.write_text("[1, 2.5, 3]")
    assert cli.main(["bounds", _write(tmp_path, BD3), "--weights", str(wfile)]) == cli.EXIT_OK
    capsys.readouterr()
    wfile.write_text(text)
    code = cli.main(["bounds", _write(tmp_path, BD3), "--weights", str(wfile)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_PARSE and out == ""
    assert err == f"error: '{wfile}[0]' must be a number, got {shown}\n"


@pytest.mark.parametrize("weights", [False, True], ids=["check-model", "bounds-weights"])
def test_a_file_that_is_not_utf8_exits_with_the_parse_code(tmp_path, capsys, weights):
    # JSON is UTF-8: bytes that do not decode are a parse error on one line,
    # not a traceback beside the property-violation code
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe\x00")
    if weights:
        code = cli.main(["bounds", _write(tmp_path, BD3), "--weights", str(raw)])
    else:
        code = cli.main(["check", str(raw)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_PARSE and out == ""
    what = "weights file " if weights else ""
    assert err.startswith(f"error: cannot read {what}{raw}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, least", [("trials", 1), ("pairs", 1), ("seed", 0)])
def test_retired_analysis_keys_are_checked_then_ignored(tmp_path, capsys, key, least):
    # model files written for the random verification still load: their
    # trials, pairs and seed are checked as they were, and change nothing
    doc = json.loads(json.dumps(BD3))
    doc["analysis"][key] = least - 1
    code = cli.main(["verify", _write(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_PARSE and out == ""
    assert err == f"error: analysis {key} must be at least {least}, got {least - 1}\n"
    outputs = []
    for value in (least, None):
        doc["analysis"].pop(key)
        if value is not None:
            doc["analysis"][key] = value
        assert cli.main(["verify", _write(tmp_path, doc)]) == cli.EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert cb.parse_model(json.dumps(doc)).analysis == cb.parse_model(json.dumps(BD3)).analysis


def test_frozen_perron_warns_on_time_varying(tmp_path, capsys):
    doc = {"schema": 1, "chain": {
        "kind": "birth_death", "states": 2,
        "define": {"lam": {"sinusoid": {"offset": 1.0, "amplitude": 0.5,
                                        "frequency": 1.0}}},
        "birth": ["lam", "lam"], "death": [1.0, 1.0]},
        "analysis": {"weights": "frozen-perron", "horizon": 1.0, "grid": 51}}
    code = cli.main(["bounds", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "heuristic" in out


def test_perron_weights_mode_requires_homogeneous(tmp_path):
    doc = {"schema": 1, "chain": {
        "kind": "birth_death", "states": 2,
        "define": {"lam": {"sinusoid": {"offset": 1.0, "amplitude": 0.5,
                                        "frequency": 1.0}}},
        "birth": ["lam", "lam"], "death": [1.0, 1.0]},
        "analysis": {"weights": "perron"}}
    assert cli.main(["bounds", _write(tmp_path, doc)]) == cli.EXIT_INHOMOGENEOUS


def test_cli_overrides_model_settings(tmp_path, capsys):
    code = cli.main(["bounds", _write(tmp_path, BD3), "--grid", "21",
                     "--horizon", "1.0", "--weights", "ones"])
    out = capsys.readouterr().out
    assert code == 0
    assert "21 grid points" in out


@pytest.mark.parametrize("block, key, value", [("chain", "states", "3"),
                                               ("chain", "states", 2.5),
                                               ("analysis", "grid", 10.5),
                                               ("analysis", "horizon", "1"),
                                               ("analysis", "seed", True),
                                               (None, "schema", True)],
                         ids=["states-string", "states-fraction", "grid-fraction",
                              "horizon-string", "seed-boolean", "schema-boolean"])
def test_model_numbers_of_the_wrong_type_exit_with_parse_code(tmp_path, capsys,
                                                              block, key, value):
    doc = json.loads(json.dumps(BD3))
    (doc[block] if block else doc)[key] = value
    code = cli.main(["bounds", _write(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_PARSE and out == ""
    field = f"{block}.{key}" if block else key
    assert err.startswith(f"error: '{field}' must be ")


def test_model_integer_fields_accept_integral_floats():
    doc = json.loads(json.dumps(BD3))
    doc["schema"], doc["chain"]["states"], doc["analysis"]["grid"] = 1.0, 3.0, 101.0
    model = cb.parse_model(json.dumps(doc))
    assert model.chain.S == 3 and model.analysis.grid == 101
    assert type(model.chain.S) is int and type(model.analysis.grid) is int


@pytest.mark.parametrize("argv", [["rate", "--weights", "ones"], ["check", "--seed", "1"],
                                  ["bounds", "--tol", "0"], ["verify", "--grid", "5"],
                                  ["verify", "--seed", "1"], ["verify", "--trials", "5"],
                                  ["verify", "--pairs", "5"]],
                         ids=["rate-weights", "check-seed", "bounds-tol", "verify-grid",
                              "verify-seed", "verify-trials", "verify-pairs"])
def test_commands_refuse_options_they_do_not_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], _write(tmp_path, BD3)] + argv[1:])
    assert exc.value.code == cli.EXIT_PARSE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_the_readme_flag_table_lists_the_flags_each_command_accepts(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {command: set(re.findall(r"`--([\w-]+)`", flags))
             for command, flags in re.findall(r"^\| `(\w+)` \| (`--.*) \|$", readme, re.M)}
    assert set(table) == {"check", "rate", "bounds", "verify"}
    assert set().union(*table.values()) <= set(cli._OPTIONS)
    parser = cli.build_parser()
    for option, spec in cli._OPTIONS.items():
        value = [] if spec.get("action") == "store_true" else ["1"]
        for command, flags in table.items():
            argv = [command, "model.json", f"--{option}", *value]
            if option in flags:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)


@pytest.mark.parametrize("command", ["rate", "bounds", "verify"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_a_csv_path_that_cannot_be_written_exits_with_the_parse_code(tmp_path, capsys,
                                                                     command, target):
    csv = tmp_path / "missing" / "out.csv" if target == "missing-directory" else tmp_path
    code = cli.main([command, _write(tmp_path, BD3), "--csv", str(csv)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert out and "csv written" not in out  # the results printed before the write stay
    assert err.startswith("error: ") and err.count("\n") == 1


SINUSOID_BD3 = {"schema": 1,
                "chain": {"kind": "birth_death", "states": 3,
                          "define": {"lam": {"sinusoid": {"offset": 1.0, "amplitude": 0.5,
                                                          "frequency": 1.0}}},
                          "birth": ["lam", "lam", "lam"], "death": [1.0, 1.0, 1.0]},
                "analysis": {"horizon": 2.0, "grid": 21}}


SINUSOID_BD3_VERIFY = {**SINUSOID_BD3, "analysis": {"horizon": 2.0, "steps": 40,
                                                     "trials": 3, "pairs": 3}}


@pytest.mark.parametrize("command, doc, points", [("bounds", SINUSOID_BD3, [2 * 21 - 1]),
                                                  ("check", SINUSOID_BD3, [21]),
                                                  ("rate", BD3, [1]),
                                                  ("verify", SINUSOID_BD3_VERIFY, [4 * 40 + 1])],
                         ids=["bounds", "check", "rate", "verify"])
def test_each_command_evaluates_the_generator_once_per_time(tmp_path, capsys,
                                                             generator_points,
                                                             command, doc, points):
    # bounds and check feed the regularity check and the reduction from one
    # rate table; rate takes the Perron input from the same table at t=0;
    # verify's halved grid carries the forward system and, through B**, the
    # transformed one
    assert cli.main([command, _write(tmp_path, doc)]) == cli.EXIT_OK
    assert generator_points == points


def test_a_generator_stack_beyond_physical_memory_is_refused_before_allocation(
        tmp_path, capsys):
    # at S = 10**6 the (S+1, S+1) index of Q, like one time's doubles, takes
    # 7.3 TiB; the index is asked for first
    doc = {"schema": 1, "chain": {"kind": "general", "states": 10**6},
           "analysis": {"grid": 3}}
    path = _write(tmp_path, doc)
    tracemalloc.start()
    try:
        code = cli.main(["check", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == cli.EXIT_EVAL and out == ""
    assert err.startswith("error: an index of shape (1000001, 1000001) needs ")
    assert err.count("\n") == 1
    assert peak < 1e6


def test_a_rate_table_beyond_physical_memory_is_refused_before_allocation(
        tmp_path, capsys, monkeypatch):
    # 10**6 grid times of the two distinct rates and the zero column take
    # 24 MB; a machine of 12 MB holds the 8 MB grid but not the table
    monkeypatch.setattr(cb.chain, "physical_memory", lambda: 12 * 10**6)
    path = _write(tmp_path, SINUSOID_BD3)
    tracemalloc.start()
    try:
        code = cli.main(["check", path, "--grid", str(10**6)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == cli.EXIT_EVAL and out == ""
    assert err.startswith("error: a rate table of shape (1000000, 3) needs 0.02235 GiB, "
                          "more than the ")
    assert err.count("\n") == 1
    assert peak < 12e6  # the grid, no table


def test_the_index_of_a_structured_chain_beyond_physical_memory_is_refused_before_allocation(
        tmp_path, capsys, monkeypatch):
    # batch_birth at S = 2000 with one shared rate: a table of two columns,
    # but an index of Q of (S+1)**2 integers, 32 MB, on a machine of 16 MB
    S = 2000
    doc = {"schema": 1, "chain": {"kind": "batch_birth", "states": S,
                                  "batch_birth": [1.0] * S, "death": [1.0] * S}}
    path = _write(tmp_path, doc)
    monkeypatch.setattr(cb.chain, "physical_memory", lambda: 16 * 10**6)
    tracemalloc.start()
    try:
        code = cli.main(["check", path, "--grid", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == cli.EXIT_EVAL and out == ""
    assert err.startswith("error: an index of shape (2001, 2001) needs 0.02983 GiB, "
                          "more than the ")
    assert err.count("\n") == 1
    assert peak < 4e6  # the chain's rates, no index


# six states driven by two distinct rates: the column sums of B** (six
# doubles a time) outgrow the rate table (three doubles a time, the zeros included)
SINUSOID_BD6_VERIFY = {"schema": 1,
                       "chain": {**SINUSOID_BD3["chain"], "states": 6,
                                 "birth": ["lam"] * 6, "death": [1.0] * 6},
                       "analysis": SINUSOID_BD3_VERIFY["analysis"]}


def test_verify_runs_below_its_generator_stack_and_refuses_its_column_sums(
        tmp_path, capsys, monkeypatch):
    # S = 6 at 4n+1 = 80001 times: a whole Q would take 31.4 MB and a whole
    # B** 23.0 MB, but verify holds neither, so a machine of 8 MB runs it;
    # the table takes 1.92 MB and the column sums 3.84 MB, so a machine of
    # 3 MB refuses the column sums before they are allocated
    path = _write(tmp_path, SINUSOID_BD6_VERIFY)
    monkeypatch.setattr(cb.chain, "physical_memory", lambda: 8 * 10**6)
    assert cli.main(["verify", path, "--steps", "20000"]) == cli.EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(cb.chain, "physical_memory", lambda: 3 * 10**6)
    tracemalloc.start()
    try:
        code = cli.main(["verify", path, "--steps", "20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == cli.EXIT_EVAL and out == ""
    assert err.startswith("error: column sums of shape (80001, 6) needs 0.003576 GiB, "
                          "more than the ")
    assert err.count("\n") == 1
    assert peak < 1.92e6 + 3.84e6  # the table is allocated, the column sums are not


def test_verify_holds_no_whole_time_stack(tmp_path, capsys):
    # S = 24 at 4n+1 = 8001 times: one whole (S+1)^2 stack of doubles, as a
    # whole Q or (a little smaller) a whole B** would be, takes 40.0 MB
    doc = {"schema": 1, "chain": {**SINUSOID_BD3["chain"], "states": 24,
                                  "birth": ["lam"] * 24, "death": [1.0] * 24},
           "analysis": {"horizon": 2.0, "steps": 2000}}
    path = _write(tmp_path, doc)
    tracemalloc.start()
    try:
        code = cli.main(["verify", path, "--csv", str(tmp_path / "ratios.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak < 8 * (4 * 2000 + 1) * 25**2 / 4


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_non_finite_envelope_exits_with_eval_code(tmp_path, capsys, command):
    # the envelope integral of a 1e300 birth rate over a 1e300 horizon
    # overflows; it must stop the command, not print -inf beside exit 0
    doc = {"schema": 1,
           "chain": {"kind": "birth_death", "states": 2, "birth": [1e300, 1e300],
                     "death": [1.0, 1.0]},
           "analysis": {"horizon": 1e300, "grid": 11, "steps": 10}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, _write(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_EVAL and out == ""
    assert err.startswith("error: envelope integral ") and "is not finite" in err


def test_finite_integral_with_an_overflowing_envelope(tmp_path, capsys):
    # a column sum near 200 over a horizon of 10 integrates to about 2000:
    # finite, but exp(2000) overflows; bounds reports the integral and an
    # infinite envelope, verify has no finite envelope to compare against
    doc = {"schema": 1,
           "chain": {"kind": "birth_death", "states": 2, "birth": [0.01, 200.0],
                     "death": [0.01, 0.01]},
           "analysis": {"horizon": 10.0, "grid": 11, "steps": 10, "weights": [1.0, 1.0]}}
    path = _write(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cb.compute_bounds(cb.load_model(path).chain, [1.0, 1.0], 10.0, 11)
        assert np.isfinite(report.I_upper).all() and np.isfinite(report.I_lower).all()
        assert report.I_upper[-1] > 1000.0 and report.env_upper[-1] == np.inf
        assert report.env_lower[-1] == 0.0
        code = cli.main(["bounds", path, "--csv", str(tmp_path / "b.csv")])
        assert code == cli.EXIT_OK
        assert "inf" in (tmp_path / "b.csv").read_text().splitlines()[-1].split(",")
        capsys.readouterr()
        code = cli.main(["verify", path])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_EVAL and out == ""
    assert err.startswith("error: envelopes exp(") and "double-precision range" in err


def test_verify_refuses_the_working_set_of_a_chunk_before_the_first(tmp_path, capsys,
                                                                     monkeypatch):
    # S = 40, 64 steps: the table and the column sums are small, while a
    # chunk of the scan holds about 526 (S+1)^2 doubles, 7.1 MB, or 16.4
    # a step: the verdicts read the propagators and keep no buffers of
    # their own. The figure asked for, SCAN_MATRICES = 17 a step, lies
    # between that peak and twice it, and a refusal comes before the scan
    # allocates anything
    doc = {"schema": 1, "chain": {**SINUSOID_BD3["chain"], "states": 40,
                                  "birth": ["lam"] * 40, "death": [1.0] * 40},
           "analysis": {"horizon": 1.0, "steps": 64}}
    path = _write(tmp_path, doc)
    model = cb.load_model(path)
    run = lambda: cb.odesolve._verify_both(model.chain, None, 1.0, 64, slack=1e-8)
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
        monkeypatch.setattr(cb.chain, "physical_memory", lambda: peak)
        tracemalloc.reset_peak()
        code = cli.main(["verify", path])
        refused_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == cli.EXIT_EVAL and out == ""
    assert err.startswith("error: a scan chunk of 32 steps needs ")
    assert err.count("\n") == 1
    assert refused_peak < peak / 4
    monkeypatch.setattr(cb.chain, "physical_memory", lambda: 2 * peak)
    assert cli.main(["verify", path]) == cli.EXIT_OK
