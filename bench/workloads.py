"""Seeded case lists for the three benchmark workloads.

Each workload is a fixed list of cases: the kinds, sizes, grids and step
counts never change, and the seed only draws the rate parameters, within
narrow ranges so that the work per case (RK4 steps, power-iteration count)
barely moves from seed to seed. Every chain is regular (batch rates are
one time profile scaled by decreasing factors), so the transformed matrix
is essentially non-negative at every time and every bound applies.

Only the standard library is used, so the models can be generated before
the package under test is imported.  To write a workload's model files::

    python3 bench/workloads.py --workload envelope_tv --seed 3 --out bench/out/models
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify_tv", "sharp_hom", "envelope_tv")


@dataclass(frozen=True)
class Case:
    """One CLI invocation: ``ctmc-bounds <command> <model> <flags...>``.

    expect_error names the exception the case is known to raise on every
    seed (a fault of the program under test); such a case counts as a
    failed operation, and any other failure makes the run incorrect.
    """

    name: str
    command: str
    S: int
    model: dict
    flags: tuple = ()
    expect_error: str | None = None


def _sinusoid(rng, level, rel_amp=(0.2, 0.45)):
    offset = level * rng.uniform(0.9, 1.1)
    return {"sinusoid": {"offset": offset,
                         "amplitude": offset * rng.uniform(*rel_amp),
                         "frequency": rng.uniform(0.8, 1.2),
                         "phase": rng.uniform(0.0, 2.0 * math.pi)}}


def _table(rng, level, horizon, points=7):
    times = [horizon * k / (points - 1) for k in range(points)]
    values = [level * rng.uniform(0.6, 1.4) for _ in times]
    return {"table": {"times": times, "values": values}}


def _profile(rng, level, horizon, variant):
    return _sinusoid(rng, level) if variant == "sinusoid" else _table(rng, level, horizon)


def _scaled(profile, factor):
    """The same time profile times a positive constant (keeps batch lists ordered at all t)."""
    (variant, p), = profile.items()
    if variant == "sinusoid":
        return {"sinusoid": {"offset": p["offset"] * factor,
                             "amplitude": p["amplitude"] * factor,
                             "frequency": p["frequency"], "phase": p["phase"]}}
    return {"table": {"times": p["times"], "values": [v * factor for v in p["values"]]}}


def _batch_factors(S):
    """Strictly decreasing factors from 1 down to 1/S: a modest dynamic range."""
    return [(S + 1 - k) / S for k in range(1, S + 1)]


def _model(kind, S, lists, analysis):
    chain = {"kind": kind, "states": S}
    chain.update(lists)
    return {"schema": 1, "chain": chain, "analysis": analysis}


def _tv_chain(rng, kind, S, horizon, variant):
    """Regular time-varying chain of the given kind as a model-file chain block."""
    single = lambda level: [_profile(rng, level, horizon, variant) for _ in range(S)]
    def batch(level):
        base = _profile(rng, level, horizon, variant)
        return [_scaled(base, f) for f in _batch_factors(S)]
    if kind == "birth_death":
        return {"birth": single(1.5), "death": single(2.0)}
    if kind == "batch_birth":
        return {"batch_birth": batch(4.0 / S), "death": single(2.0)}
    if kind == "batch_death":
        return {"batch_death": batch(4.0 / S), "birth": single(1.5)}
    if kind == "batch_both":
        return {"batch_birth": batch(4.0 / S), "batch_death": batch(6.0 / S)}
    if kind == "general":
        return {"transitions": _general_transitions(rng, S, horizon, variant)}
    raise ValueError(kind)


def _general_transitions(rng, S, horizon, variant, reach=3):
    """Jumps of size 1..reach; into each state the rates fall with the jump size."""
    out = []
    for j in range(S + 1):
        for direction, level in ((-1, 1.5), (1, 2.0)):   # arrivals from below / above
            base = _profile(rng, level, horizon, variant)
            for k in range(1, reach + 1):
                i = j + direction * k
                if 0 <= i <= S:
                    out.append({"from": i, "to": j,
                                "rate": _scaled(base, 0.5 ** (k - 1))})
    return out


def _hom_chain(rng, kind, S):
    """Regular homogeneous chain that meets the sharp-rate conditions."""
    single = lambda level, spread=0.2: [level * rng.uniform(1 - spread, 1 + spread)
                                        for _ in range(S)]
    batch = lambda level: [level * f for f in _batch_factors(S)]
    if kind == "birth_death":
        # births and deaths of one size: with deaths twice the births the
        # Perron weights span ~1e-9 at S=60, where the power iteration's
        # stopping rule fails on some seeds. A narrow spread keeps the
        # iteration count (the case's cost) nearly the same on every seed.
        return {"birth": single(1.5, 0.05), "death": single(1.5, 0.05)}
    if kind == "batch_birth":
        return {"batch_birth": batch(rng.uniform(0.9, 1.1) * 4.0 / S), "death": single(2.0)}
    if kind == "batch_death":
        return {"batch_death": batch(rng.uniform(0.9, 1.1) * 4.0 / S), "birth": single(1.5)}
    if kind == "batch_both":
        return {"batch_birth": batch(rng.uniform(0.9, 1.1) * 3.0 / S),
                "batch_death": batch(rng.uniform(0.9, 1.1) * 5.0 / S)}
    raise ValueError(kind)


def _verify_tv(rng):
    # (name, kind, S, rate variant, steps, trials, pairs)
    plan = [("bd-sin-S5", "birth_death", 5, "sinusoid", 2000, 200, 100),
            ("bb-table-S10", "batch_birth", 10, "table", 1500, 100, 50),
            ("gen-sin-S15", "general", 15, "sinusoid", 1200, 80, 40),
            ("bd-table-S20", "birth_death", 20, "table", 1200, 60, 30),
            ("bb-sin-S30", "batch_birth", 30, "sinusoid", 1000, 50, 25)]
    horizon = 2.0
    cases = []
    for name, kind, S, variant, steps, trials, pairs in plan:
        analysis = {"horizon": horizon, "grid": 201, "steps": steps, "weights": "ones",
                    "trials": trials, "pairs": pairs, "seed": rng.randrange(2**31),
                    "tolerance": 1e-8}
        model = _model(kind, S, _tv_chain(rng, kind, S, horizon, variant), analysis)
        cases.append(Case(name, "verify", S, model))
    return cases


def _sharp_hom(rng):
    cases = []
    for name, S in (("bd-uniform-S200", 200), ("bd-uniform-S40", 40)):
        a, b = rng.uniform(0.95, 1.05), rng.uniform(1.9, 2.1)
        model = _model("birth_death", S, {"birth": [a] * S, "death": [b] * S},
                       {"horizon": 1.0, "grid": 201})
        cases.append(Case(name, "rate", S, model, ("--closed-form",)))
    for name, kind, S in (("bd-S60", "birth_death", 60), ("bb-S60", "batch_birth", 60),
                          ("bdth-S60", "batch_death", 60), ("bboth-S50", "batch_both", 50)):
        model = _model(kind, S, _hom_chain(rng, kind, S), {"horizon": 1.0, "grid": 201})
        cases.append(Case(name, "rate", S, model, ("--closed-form",)))
    S = 10
    analysis = {"horizon": 2.0, "grid": 201, "steps": 2000, "weights": "perron",
                "trials": 100, "pairs": 50, "seed": rng.randrange(2**31), "tolerance": 1e-8}
    cases.append(Case("verify-perron-bb-S10", "verify", S,
                      _model("batch_birth", S, _hom_chain(rng, "batch_birth", S), analysis)))
    # Seed-independent: a birth-death chain with one near-zero birth rate. The
    # power iteration stops on its l1-change rule before the small weights
    # have converged, and the equalisation postcondition then raises.
    births = [1.0] * 10
    births[5] = 1e-6
    bottleneck = _model("birth_death", 10, {"birth": births, "death": [1.0] * 10},
                        {"horizon": 1.0, "grid": 201})
    cases.append(Case("bd-bottleneck-S10", "rate", 10, bottleneck, ("--closed-form",),
                      expect_error="PowerIterationError"))
    return cases


def _envelope_tv(rng):
    # (name, kind, S, rate variant, report grid, explicit weights)
    plan = [("bb-sin-S30", "batch_birth", 30, "sinusoid", 2001, False),
            ("bdth-table-S50", "batch_death", 50, "table", 2001, True),
            ("bboth-sin-S50", "batch_both", 50, "sinusoid", 2001, False),
            ("gen-table-S40", "general", 40, "table", 1001, True),
            ("bb-table-S100", "batch_birth", 100, "table", 401, False)]
    horizon = 1.0
    cases = []
    for name, kind, S, variant, grid, explicit in plan:
        weights = [rng.uniform(0.5, 2.0) for _ in range(S)] if explicit else "ones"
        model = _model(kind, S, _tv_chain(rng, kind, S, horizon, variant),
                       {"horizon": horizon, "grid": grid, "weights": weights})
        cases.append(Case(name, "bounds", S, model))
    return cases


_CASE_LISTS = {"verify_tv": _verify_tv, "sharp_hom": _sharp_hom, "envelope_tv": _envelope_tv}


def make_cases(workload: str, seed: int) -> list:
    """The workload's case list; the same seed always gives the same models."""
    if workload not in _CASE_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _CASE_LISTS[workload](random.Random(f"{workload}:{seed}"))


def largest_case(cases) -> Case:
    """The case at the top of the size range (the first one if several share it)."""
    return max(cases, key=lambda c: c.S)


def write_models(cases, out_dir: Path) -> dict:
    """Write one JSON model file per case; returns {case name: path}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for case in cases:
        path = out_dir / f"{case.name}.json"
        path.write_text(json.dumps(case.model, indent=1) + "\n")
        paths[case.name] = path
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for name, path in write_models(make_cases(args.workload, args.seed), args.out).items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
