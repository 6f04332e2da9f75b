"""Golden bytes of every CSV writer and of the CLI report commands.

Each digest is the sha256 of a CSV file, or of a command's standard output
with the CSV path masked, produced from small fixed models: one homogeneous
chain, one with sinusoidal rates, one with table rates and one with an
explicit weight list. A change to the bound pipeline that alters a single
value, digit or line ending changes a digest.
"""

import hashlib
import json

import numpy as np
import pytest

import ctmc_bounds as cb
from ctmc_bounds import cli

ANALYSIS = {"horizon": 1.5, "grid": 41, "steps": 120, "trials": 6, "pairs": 4,
            "seed": 11, "tolerance": 1e-8}
TIMES = [0.0, 0.7, 1.5]

MODELS = {
    "homogeneous": ({"kind": "birth_death", "states": 3,
                     "birth": [1.0, 2.0, 1.5], "death": [2.0, 1.0, 1.0]}, "perron"),
    "sinusoid": ({"kind": "birth_death", "states": 3,
                  "define": {"lam": {"sinusoid": {"offset": 1.0, "amplitude": 0.6,
                                                  "frequency": 0.8, "phase": 0.3}}},
                  "birth": ["lam", "lam", 0.5], "death": [1.0, 1.5, 2.0]}, "ones"),
    "table": ({"kind": "batch_birth", "states": 3,
               "batch_birth": [{"table": {"times": TIMES, "values": [3.0, 2.0, 3.0]}},
                               {"table": {"times": TIMES, "values": [1.0, 1.5, 0.5]}},
                               0.2],
               "death": [1.0, 2.0, 1.5]}, "frozen-perron"),
    "weights": ({"kind": "batch_both", "states": 3, "batch_birth": [2.0, 1.0, 0.5],
                 "batch_death": [1.5, 1.0, 0.25]}, [1.0, 0.7, 1.3]),
}

# (model, command) -> (exit code, sha256 of the CSV, sha256 of stdout). The
# homogeneous runs and the table runs (frozen-perron weights) depend on the
# Perron weights; their digests were recorded with the Collatz-Wielandt
# shifted inverse iteration. The verify runs were recorded with the chunked
# RK4 engine (step operators formed in batches, pair differences propagated,
# exact worst ratios printed), the per-pair coupling margin on pair
# differences that carry no mass, the transformed operators mapped from
# the forward ones (bounds columns moved by at most 2e-15 relative; the
# coupling column did not move), and last with that map taken by two
# constant products, the half steps fused and the coupling norms taken by
# one product (every ratio column moved by at most 9e-16 relative; the
# homogeneous stdout in the last digits of three printed ratios). All four
# verify runs were recorded again when the verdicts came to be judged per
# time over every start, with no random draws: each ratio column became the
# exact worst ratio at its time, never below the random trials' upper
# ratios nor above their lower ones (within 2.9e-15 relative on the sharp
# homogeneous chain, up to 9.0e-2 on the others), and stdout lost the
# trial counts, the seeds and the exact-ratio line. The other runs were
# recorded with the first version of the code. The homogeneous rate stdout was
# recorded again when `rate` came to print its Perron solve count and
# bracket; its other lines, and the CSV, did not move. Three were recorded
# again when birth-death chains came to take B* from its three diagonals:
# the homogeneous rate stdout (printed weights moved by at most 1.3e-16
# relative; lambda0, the solve count, the bracket and the CSV did not), the
# homogeneous verify run (its Perron weights; every ratio column by at most
# 8.9e-16 relative, two printed ratios by at most 6.7e-16) and the sinusoid
# bounds CSV (h_lower, I_lower and env_lower by at most 2.9e-16 relative;
# stdout did not move). The four verify CSVs were recorded again when the
# scans came to write each chunk's generators once, in C order, and to
# form the RK4 increments from K2 = Mm (I + h/2 M0) and its kin: the
# bounds columns moved by at most 6.7e-16 relative, the coupling column by
# 1.3e-15 (sinusoid), 3.2e-14 (table) and 4.2e-14 (weights), within the
# digits that mapping the decaying forward propagators loses (the weights
# run's coupling and bounds upper columns, equal in exact arithmetic,
# differ by 1.1e-13 relative before and 1.4e-13 after); stdout did not move.
# All four verify runs were recorded again when the scan came to carry two
# members in the coordinates (1^T p, L p) and the coupling verdict to read
# the transformed propagator: each coupling column became the bounds upper
# column bit for bit, and the coupling line of stdout took the bounds
# upper margin, its slack_total falling (2.040e-06 to 1.503e-07 on the
# homogeneous run), and the homogeneous coupling worst ratio the bounds
# one; the bounds columns and the bounds lines did not move.
CLI_GOLDEN = {
    ("homogeneous", "rate"): (
        0, "33fe81e764bcb4e3ac2e96ff022f45535acf22475c929ba6aca44b200219ed22",
        "6313dacd4c002a14253e5a5a9e40a637db018ebf181854c105e3f7eb1b396e4b"),
    ("homogeneous", "bounds"): (
        0, "33fe81e764bcb4e3ac2e96ff022f45535acf22475c929ba6aca44b200219ed22",
        "e93d15131a3edd1698c994e1de983bf9bc9abeedf8e010a10013dedefaaf734e"),
    ("homogeneous", "verify"): (
        0, "57eadd872fd742358a6eaae7c1bf796a81f9592cf87a1f6d5d7a955f943a71c1",
        "a7abd9e3517db137b9f49ce117193bd188df10b3b6fb1007dc7dbe95005f86df"),
    ("sinusoid", "bounds"): (
        0, "9d5aea092d78797dc1460a59853f7f78eec1e6b0db74f2b220996afbb3fb1886",
        "a8a7ed04f082aa0e7d31a36dda841bf5797d281f424e1e270b50ee6ad958cb8b"),
    ("sinusoid", "verify"): (
        0, "ee10667170fda5dac945a18c8a4515d001ff231fbc2b22b5675912613095a37f",
        "e4a02516fb1faa595c8fe11da6f4a5f6cc463ed00afdb1eb4ee5634076beafdc"),
    ("table", "bounds"): (
        0, "a1038b9d4b230da771b3c469c27d55530028b7798bd22d018593dbcd4c41613e",
        "cefc5e3b813254b0cbaa043e68d397543a826f18fb96407a8a62f83a8c218d4c"),
    ("table", "verify"): (
        0, "2ce23ab945456d7b7f39342312b1ccf236dd2f3681d0ee4524bacc3ccc811ecc",
        "04b181d8cfc718f27d47c067f5e834fca5dae7c61a3cba8bef1bb766e7ffda67"),
    ("weights", "bounds"): (
        0, "6140a21f2f29e2d225f4874976c8f49d8efa58c3213f1f85216399ff855a3917",
        "7d8d6240952b249e2ac7eae48aa3b4ce7f0c1977780e2e7a5f67e8d5c04e9736"),
    ("weights", "verify"): (
        0, "08df0b3a605aff52935c0d4d1a740cc806b76a24be19deaf478be81dc04b19c5",
        "777c7715120befb31bf2d9c507c574dfae82c0b4a03a9b6b9af7c32c8c2a335a"),
}

# `check` models: a regular chain, one that is not regular while its
# transform stays essentially non-negative (a warning), and one whose
# transform breaks midway through the horizon (exit 1, the worst entry and
# its time)
CHECK_MODELS = {
    "regular": MODELS["sinusoid"][0],
    "irregular-nonnegative": {"kind": "general", "states": 3, "transitions": [
        {"from": i, "to": j, "rate": rate} for (i, j), rate in sorted({
            (0, 1): 2.2, (0, 2): 0.5, (0, 3): 0.1, (1, 0): 2.6, (1, 2): 1.3, (1, 3): 0.1,
            (2, 0): 1.6, (2, 1): 2.0, (2, 3): 1.9, (3, 0): 0.9, (3, 1): 2.4,
            (3, 2): 1.8}.items())]},
    "broken": {"kind": "batch_birth", "states": 3,
               "batch_birth": [2.0, {"table": {"times": TIMES, "values": [1.0, 2.5, 1.0]}},
                               0.5],
               "death": [1.0, 2.0, 1.5]},
}

# check model -> (exit code, sha256 of stdout), recorded with the
# regularity check that read every entry of a whole-time generator stack
CHECK_GOLDEN = {
    "broken": (1, "1a81a9773d9095a2be6761319a67fa1b649e13c1e0ad5746760b4909fb76bc1f"),
    "irregular-nonnegative": (
        0, "f435507b68e7abf4c763cd663b0b48574b06660fa9ae87162d249e6d9ea4695f"),
    "regular": (0, "5db7a2fd8cfcef09fa30ff2a68b10ba70775f880a6179775a4365bb509f5a911"),
}

# library writer case -> sha256 of the CSV; the verification cases were
# recorded with the chunked RK4 engine, the coupling case also with the
# per-pair margin on mass-free pair differences, the bounds case also with
# the transformed operators mapped from the forward ones, and both again
# as the verify runs above (at most 5e-16 relative), and last when they
# came to hold the exact per-time ratios over every start (the bounds
# columns up to 15 % above and below the random trials' extremes, the
# coupling column up to 7 % above), and again with the verify runs above
# when the increments took their new form (at most 6.2e-16 relative in the
# bounds case, 1.4e-15 in the coupling one), and the coupling case again
# when its column came to be the transformed propagator's norm, the
# bounds upper ratio, at most 6.7e-16 relative from the forward
# propagators mapped before. The two "-chunks"
# solves cross three chunks of the scan (70 steps), a vector on the RK4
# stages and an identity on the step operators; they were recorded while
# solve still ran on whole-time stacks of B and B**, and the identity one
# again for those increments (at most 5.2e-16 relative)
LIBRARY_GOLDEN = {
    "trajectory-forward": "3c28f86bf85a436ed5681fe8829ef82453e5df021abe7fc6d6c8d2c7c9f7870a",
    "trajectory-transformed": "5ed5da4b0ad9087505bce0d11ad196fcf513022c2574b54e04780e90cce9518f",
    "trajectory-reduced-chunks":
        "802d411978f14b1ecf0022a61e10501d2926cf9f51b9f5153b80d195aa2490bf",
    "trajectory-identity-chunks":
        "04c5065ea456cfd619ce8621282046522ce548da6874e37c6e621ed710b947bc",
    "verification-bounds": "6bfa4e14c5782f2c8d5852fe78132cdc3e33f45b1359de945e51e689ac0ba247",
    "verification-coupling": "55e4991c264ac7cb3eb6cd64336906600f345dab96af34ef992f5f9e625361e2",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(tmp_path, capsys, model, command):
    chain, weights = MODELS[model]
    path = tmp_path / f"{model}.json"
    path.write_text(json.dumps({"schema": 1, "chain": chain,
                                "analysis": dict(ANALYSIS, weights=weights)}))
    csv_path = tmp_path / f"{model}-{command}.csv"
    capsys.readouterr()
    code = cli.main([command, str(path), "--csv", str(csv_path)])
    out = capsys.readouterr().out.replace(str(csv_path), "OUT")
    return code, _sha(csv_path.read_bytes()), _sha(out.encode())


def _flattened(traj):
    """A trajectory of square states as one of vectors, each state's entries in C order."""
    return cb.Trajectory(traj.grid, traj.states.reshape(len(traj.states), -1), traj.coords)


def _library_csvs(tmp_path):
    """Write each library CSV once and return {case: file bytes}."""
    sin = cb.parse_model(json.dumps({"schema": 1, "chain": MODELS["sinusoid"][0]})).chain
    table = cb.parse_model(json.dumps({"schema": 1, "chain": MODELS["table"][0]})).chain
    writers = {
        "trajectory-forward": lambda p: cb.trajectory_to_csv(
            cb.solve("forward", sin, [0.2, 0.3, 0.1, 0.4], 1.0, 30), p),
        "trajectory-transformed": lambda p: cb.trajectory_to_csv(
            cb.solve("transformed", table, [0.5, -0.25, 1.0], 1.5, 25,
                     weights=[1.0, 0.8, 1.2]), p),
        "trajectory-reduced-chunks": lambda p: cb.trajectory_to_csv(
            cb.solve("reduced_hom", sin, [0.3, -0.2, 0.5], 1.0, 70), p),
        "trajectory-identity-chunks": lambda p: cb.trajectory_to_csv(_flattened(
            cb.solve("transformed", table, np.eye(3), 1.5, 70, weights=[1.0, 0.8, 1.2])), p),
        "verification-bounds": lambda p: cb.verification_to_csv(
            cb.verify_bounds(table, np.ones(3), 1.5, n_steps=60), p),
        "verification-coupling": lambda p: cb.verification_to_csv(
            cb.verify_convergence_coupling(sin, np.ones(3), 1.0, n_steps=50), p),
    }
    out = {}
    for case, write in writers.items():
        path = tmp_path / f"{case}.csv"
        write(path)
        out[case] = path.read_bytes()
    return out


@pytest.mark.parametrize("model, command", sorted(CLI_GOLDEN))
def test_cli_outputs_match_golden_bytes(tmp_path, capsys, model, command):
    assert _run_cli(tmp_path, capsys, model, command) == CLI_GOLDEN[model, command]


def _run_check(tmp_path, capsys, model):
    path = tmp_path / f"{model}.json"
    path.write_text(json.dumps({"schema": 1, "chain": CHECK_MODELS[model],
                                "analysis": ANALYSIS}))
    capsys.readouterr()
    code = cli.main(["check", str(path)])
    return code, _sha(capsys.readouterr().out.encode())


@pytest.mark.parametrize("model", sorted(CHECK_MODELS))
def test_check_output_matches_golden_bytes(tmp_path, capsys, model):
    assert _run_check(tmp_path, capsys, model) == CHECK_GOLDEN[model]


def test_library_csv_writers_match_golden_bytes(tmp_path):
    digests = {case: _sha(data) for case, data in _library_csvs(tmp_path).items()}
    assert digests == LIBRARY_GOLDEN


# lambda0 and weights of the homogeneous model as printed by `rate` with the
# first (power iteration) version of perron_weights
PRINTED_LAMBDA0 = -0.57322211827048175
PRINTED_WEIGHTS = (0.35172389277370608, 0.4267778817295188, 0.22149822549677503)


def test_homogeneous_rate_agrees_with_first_printed_values(tmp_path, capsys):
    chain, weights = MODELS["homogeneous"]
    path = tmp_path / "homogeneous.json"
    path.write_text(json.dumps({"schema": 1, "chain": chain,
                                "analysis": dict(ANALYSIS, weights=weights)}))
    capsys.readouterr()
    assert cli.main(["rate", str(path)]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    lambda0 = float(lines["lambda0"])
    printed = np.array([float(w) for w in lines["weights"].split()])
    assert abs(lambda0 - PRINTED_LAMBDA0) <= 1e-12 * abs(PRINTED_LAMBDA0)
    assert np.all(np.abs(printed - PRINTED_WEIGHTS) <= 1e-12 * np.abs(PRINTED_WEIGHTS))


# worst ratios printed by `verify` when each trial was integrated on its own;
# the exact ratios over every start printed since agree within 1e-12
PRINTED_WORST = {
    "sinusoid": ("1", "1", "1"),
    "homogeneous": ("1.000000000019003", "1", "1.0000000000190032"),
}


@pytest.mark.parametrize("model", sorted(PRINTED_WORST))
def test_verify_worst_ratios_agree_with_first_printed_values(tmp_path, capsys, model):
    chain, weights = MODELS[model]
    path = tmp_path / f"{model}.json"
    path.write_text(json.dumps({"schema": 1, "chain": chain,
                                "analysis": dict(ANALYSIS, weights=weights)}))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0
    printed = [float(line.split(": ")[1]) for line in capsys.readouterr().out.splitlines()
               if line.strip().startswith("worst")]
    expected = [float(v) for v in PRINTED_WORST[model]]
    assert len(printed) == len(expected)
    assert all(abs(p - e) <= 1e-12 * abs(e) for p, e in zip(printed, expected))
