"""Benchmark of the ctmc-bounds command line on three seeded workloads.

    python3 bench/run.py --workload {verify_tv,sharp_hom,envelope_tv} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the package under test is imported from
the checkout's own ``src/`` (it is not installed), and the run stops with
an error if it is not there. The workload's models are generated from the
seed and written under ``bench/out/``. One process then runs the case list
through ``ctmc_bounds.cli.main``, one case after another (a closed loop
with one client), in whole rounds until S seconds have passed, and checks
every case's output against the independent oracles in ``oracles.py``.

With ``--trace 0`` the last line reports the end-to-end metrics:

``setup_s``         median over this process and one fresh interpreter per
                    round of the time to import the library, write the
                    models and load them
``sweep_s``         median over rounds of the time to run the whole case list
``largest_case_s``  median over rounds of the time of the case with the largest S
``peak_rss_mb``     peak resident memory of this process before the checks

With ``--trace 1`` the time is split between untraced rounds and rounds
with spans around every layer's public functions (see ``tracer.py``),
followed by one tracemalloc round for the ``*_peak_mb`` metrics; the last
line reports the per-layer metrics, and the lines before it the tracing
overhead and a per-case table of the work counts. Spans are written to
``bench/out/<workload>-seed<N>/spans.csv``.

OpenBLAS, OpenMP and MKL are limited to one thread (BLAS_THREADS), set
before numpy is first imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREADS = "1"
MIN_ROUNDS = 3

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402  (standard library only)


def _limit_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def set_up(workload, seed, model_dir):
    """Import the package from src/, write the workload's models and load them.

    Returns (seconds, package, cases, paths). Must run before anything else
    in the process imports numpy, so that the import is part of the time.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ctmc_bounds
    import ctmc_bounds.cli  # noqa: F401
    if not Path(ctmc_bounds.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"ctmc_bounds was imported from {ctmc_bounds.__file__}, not {SRC}")
    cases = workloads.make_cases(workload, seed)
    paths = workloads.write_models(cases, model_dir)
    for case in cases:
        ctmc_bounds.load_model(paths[case.name])
    return time.perf_counter() - t0, ctmc_bounds, cases, paths


def setup_in_fresh_interpreter(workload, seed, model_dir):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--models", str(model_dir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Outcome:
    """What one case produced in one round: exit code or exception, stdout, CSV digest."""

    def __init__(self, rc, error, stdout, csv_text):
        self.rc, self.error, self.stdout, self.csv_text = rc, error, stdout, csv_text
        self.signature = (rc, error, stdout, hashlib.sha256(csv_text.encode()).hexdigest())

    @property
    def failed(self):
        return self.error is not None or self.rc != 0


def run_round(pkg, cases, paths, csv_dir, tracer=None):
    """Run every case once; returns (round seconds, {case: seconds}, {case: Outcome}).

    The round's time is the sum of its cases' wall times, so the harness's
    own reading and hashing of outputs between cases is left out.
    """
    times, outcomes = {}, {}
    for case in cases:
        if tracer:
            tracer.case = case.name
        csv_path = csv_dir / f"{case.name}.csv"
        csv_path.unlink(missing_ok=True)
        argv = [case.command, str(paths[case.name]), *case.flags, "--csv", str(csv_path)]
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = pkg.cli.main(argv)
        except Exception as exc:  # a fault of the program under test: record it
            error = f"{type(exc).__name__}: {exc}"
        times[case.name] = time.perf_counter() - t0
        csv_text = csv_path.read_text() if csv_path.exists() else ""
        outcomes[case.name] = Outcome(rc, error, out.getvalue() + err.getvalue(), csv_text)
    return sum(times.values()), times, outcomes


def run_rounds(pkg, cases, paths, csv_dir, seconds, rounds_log, tracer_factory=None,
               min_rounds=MIN_ROUNDS, after_round=None):
    """Whole rounds until `seconds` have passed and at least `min_rounds` ran.

    Appends each round's outcomes to rounds_log and calls after_round()
    between rounds, outside their timing; returns
    [(round seconds, {case: seconds}, tracer or None), ...].
    """
    results = []
    start = time.perf_counter()
    while len(results) < min_rounds or time.perf_counter() - start < seconds:
        tracer = tracer_factory() if tracer_factory else None
        if tracer:
            tracer.install()
        try:
            round_s, times, outcomes = run_round(pkg, cases, paths, csv_dir, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        results.append((round_s, times, tracer))
        rounds_log.append(outcomes)
        if after_round:
            after_round()
    return results


def check_outputs(cases, rounds_log):
    """Oracle checks on the first round; every later round must repeat it exactly."""
    import oracles  # scipy is imported only now, after the timed rounds
    problems = []
    first = rounds_log[0]
    for k, outcomes in enumerate(rounds_log[1:], start=2):
        for case in cases:
            if outcomes[case.name].signature != first[case.name].signature:
                problems.append(f"{case.name}: round {k} output differs from round 1")
    for case in cases:
        outcome = first[case.name]
        if outcome.failed:
            if outcome.error is None or outcome.error.split(":")[0] != case.expect_error:
                problems.append(f"{case.name}: unexpected failure "
                                f"(exit {outcome.rc}, {outcome.error})")
            continue
        for msg in oracles.check_case(case.command, case.model, outcome.stdout,
                                      outcome.csv_text):
            problems.append(f"{case.name}: {msg}")
    return problems


def count_failed(cases, rounds_log):
    return sum(outcomes[c.name].failed for outcomes in rounds_log for c in cases)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, run_dir):
    seconds, pkg, cases, paths = set_up(args.workload, args.seed, run_dir / "models")
    # more set-up samples, one per round in a fresh interpreter, so that they
    # spread over the run as the rounds do
    samples = [seconds]
    probe = lambda: samples.append(
        setup_in_fresh_interpreter(args.workload, args.seed, run_dir / "models"))
    largest = workloads.largest_case(cases)
    rounds_log = []
    results = run_rounds(pkg, cases, paths, run_dir, args.seconds, rounds_log,
                         after_round=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_outputs(cases, rounds_log)

    sweeps = [r[0] for r in results]
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} rounds of "
          f"{len(cases)} cases, BLAS threads {BLAS_THREADS}")
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in samples)}")
    print(f"sweep per round (s): {' '.join(f'{s:.4f}' for s in sweeps)}")
    for case in cases:
        med = statistics.median(r[1][case.name] for r in results)
        mark = " (largest S)" if case is largest else ""
        status = "FAILED " + rounds_log[0][case.name].error.split(":")[0] \
            if rounds_log[0][case.name].failed else "ok"
        print(f"  {case.name:22s} {case.command:6s} S={case.S:<4d} median {med:.4f} s  "
              f"{status}{mark}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    return {
        "correct": not problems,
        "attempted": len(results) * len(cases),
        "failed": count_failed(cases, rounds_log),
        "metrics": {
            "setup_s": metric(statistics.median(samples), "s"),
            "sweep_s": metric(statistics.median(sweeps), "s"),
            "largest_case_s": metric(statistics.median(r[1][largest.name] for r in results), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def traced(args, run_dir):
    import tracemalloc
    import tracer as tracing
    _, pkg, cases, paths = set_up(args.workload, args.seed, run_dir / "models")
    rounds_log = []
    plain = run_rounds(pkg, cases, paths, run_dir, args.seconds / 2, rounds_log)
    spans = run_rounds(pkg, cases, paths, run_dir, args.seconds / 2, rounds_log,
                       lambda: tracing.Tracer(pkg))
    tracemalloc.start()
    try:
        peaks = run_rounds(pkg, cases, paths, run_dir, 0, rounds_log,
                           lambda: tracing.Tracer(pkg, peaks=True), min_rounds=1)[0][2]
    finally:
        tracemalloc.stop()
    problems = check_outputs(cases, rounds_log)

    plain_s = statistics.median(r[0] for r in plain)
    traced_s = statistics.median(r[0] for r in spans)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(spans)} traced rounds, one tracemalloc round")
    print(f"tracing overhead: median round {traced_s:.4f} s traced vs {plain_s:.4f} s "
          f"untraced ({100.0 * (traced_s / plain_s - 1.0):+.1f} %)")
    tracers = [r[2] for r in spans]
    counts = [t.counts() for t in tracers]
    if any(c != counts[0] for c in counts[1:]):
        print("note: work counts differ between traced rounds")
    print(f"{'case':22s} {'Q points':>9s} {'distinct t':>10s} {'rate calls':>10s} "
          f"{'rates/eval':>10s} {'perron it':>9s} {'rk4 steps':>11s} {'peak MB':>8s}")
    for case in cases:
        c = tracers[0].counts(case.name)
        peak = max((mb for (_, name), mb in peaks.peak_mb.items() if name == case.name),
                   default=0.0)
        print(f"{case.name:22s} {c['chain.generator_points']:9d} {c['distinct_times']:10d} "
              f"{c['rates.calls']:10d} {c['distinct_rates_per_eval']:10.1f} "
              f"{c['spectral.perron_iterations']:9d} {c['odesolve.trajectory_steps']:11d} "
              f"{peak:8.1f}")
    tracers[0].write_spans(run_dir / "spans.csv")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")

    times = [t.layer_times() for t in tracers]
    metrics = {}
    for name in tracing.LAYER_FUNCTIONS:
        metrics[f"{name}_s"] = metric(statistics.median(t[name] for t in times), "s")
    for name in tracing.COUNTS:
        metrics[name] = metric(counts[0][name], "count")
    for name in ("rates.useful_call_frac", "chain.useful_point_frac"):
        metrics[name] = metric(counts[0][name], "ratio")
    for name in tracing.PEAK_FUNCTIONS:
        metrics[f"{name}_peak_mb"] = metric(
            max((mb for (span, _), mb in peaks.peak_mb.items() if span == name), default=0.0),
            "MB")
    return {
        "correct": not problems,
        "attempted": len(rounds_log) * len(cases),
        "failed": count_failed(cases, rounds_log),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="ctmc-bounds benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once in this interpreter and print the seconds taken")
    parser.add_argument("--models", type=Path, help="model directory for --setup-only")
    args = parser.parse_args(argv)
    _limit_threads()
    if not (SRC / "ctmc_bounds" / "__init__.py").is_file():
        print(f"error: the package under test is missing: no {SRC}/ctmc_bounds", file=sys.stderr)
        return 2
    if args.setup_only:
        print(f"{set_up(args.workload, args.seed, args.models)[0]!r}")
        return 0
    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    result = (traced if args.trace else end_to_end)(args, run_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
