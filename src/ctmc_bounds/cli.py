"""Command-line front end.

Four subcommands, each driven by a JSON model file (schema in
:mod:`ctmc_bounds.modelfile`):

``check``   structural checks: regularity and essential non-negativity
``rate``    sharp rate and equalizing weights of a homogeneous chain
``bounds``  two-sided envelope report, optionally as CSV
``verify``  verification of the envelopes on the integrated propagators

Exit codes (a total function of the outcome):

====  =======================================================
0     success; for ``check`` the transform is essentially
      non-negative everywhere (a regularity failure alone only
      warns), for ``verify`` no envelope violations
1     property violation: an envelope break, or a non-negativity
      break (``check``; ``bounds``, ``verify`` and the perron
      weight modes refuse such a chain)
2     model file cannot be parsed, an analysis value is out
      of range, or the --csv path cannot be written
3     rate evaluation, a trajectory or the Perron solve failed,
      a rate, an entry of B* or an envelope integral is not
      finite (for ``verify`` also
      an envelope that overflows or underflows to zero), or a
      matrix stack is larger than the machine's memory
4     homogeneous-only command applied to a time-varying chain
5     transformed matrix is reducible
6     sharpness conditions not satisfied
====  =======================================================
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .bounds import (NonFiniteBoundError, bound_report_to_csv, compute_bounds,
                     perron_at_start, sharp_report, write_csv)
from .chain import InhomogeneousChainError, check_regularity, rate_table
from .modelfile import (WEIGHT_MODES, AnalysisSettings, ModelFileError, _number, load_model,
                        read_text)
from .odesolve import OdeBlowUpError, _verify_both
from .rates import RateEvaluationError
from .spectral import (PowerIterationError, ReducibleMatrixError, SharpnessConditionError,
                       check_sharpness_conditions, closed_form_bd)
from .transform import NonnegativityError, scan_transform, validate_weights

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_EVAL = 3
EXIT_INHOMOGENEOUS = 4
EXIT_REDUCIBLE = 5
EXIT_CONDITIONS = 6

# typed errors and the exit codes main() maps them to
_ERROR_EXITS = ((NonnegativityError, EXIT_VIOLATION), (ModelFileError, EXIT_PARSE),
                (OSError, EXIT_PARSE),
                (RateEvaluationError, EXIT_EVAL), (OdeBlowUpError, EXIT_EVAL),
                (PowerIterationError, EXIT_EVAL), (NonFiniteBoundError, EXIT_EVAL),
                (MemoryError, EXIT_EVAL),
                (InhomogeneousChainError, EXIT_INHOMOGENEOUS),
                (ReducibleMatrixError, EXIT_REDUCIBLE),
                (SharpnessConditionError, EXIT_CONDITIONS))


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _load_weights_file(path):
    text = read_text(path, f"weights file {path}")
    try:
        values = json.loads(text)
    except json.JSONDecodeError:
        values = None
    if isinstance(values, list):  # a JSON array takes numbers as the model file does
        return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(values))
    try:
        return tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise ModelFileError(f"weights file {path} must contain numbers") from None


def _load(args):
    """The model file's chain and its settings, with the options given on the command line."""
    model = load_model(args.model)
    updates = {f.name: getattr(args, f.name) for f in dataclasses.fields(AnalysisSettings)
               if getattr(args, f.name, None) is not None}
    if updates.get("weights") not in (None, *WEIGHT_MODES):  # not a mode name: a file
        updates["weights"] = _load_weights_file(updates["weights"])
    return model.chain, dataclasses.replace(model.analysis, **updates)


def resolve_weights(spec, settings: AnalysisSettings):
    """Weight vector for the configured weights, plus soft warnings.

    'ones' is the default; 'perron' demands a homogeneous chain and yields
    the sharp equalizing weights; 'frozen-perron' computes them from the
    transform at t=0 of a possibly time-varying chain, flagged as a
    heuristic; a tuple gives the weights themselves. Both Perron modes
    solve B*(0) as the rate command does (:func:`ctmc_bounds.bounds.perron_at_start`),
    from its diagonals when it is tridiagonal.
    """
    w = settings.weights
    warnings = []
    if not isinstance(w, str):
        try:
            return validate_weights(w, spec.S), warnings
        except ValueError as exc:
            raise ModelFileError(str(exc)) from None
    if w == "ones":
        return np.ones(spec.S), warnings
    if w == "perron" and not spec.is_homogeneous:
        raise InhomogeneousChainError(
            "weights mode 'perron' requires constant rates; "
            "use 'frozen-perron' for time-varying chains")
    if not spec.is_homogeneous:
        warnings.append("frozen-perron weights computed at t=0 of a "
                        "time-varying chain: a heuristic, not sharp")
    rate, _ = perron_at_start(rate_table(spec, np.zeros(1)))
    return rate.weights, warnings


def cmd_check(args) -> int:
    spec, settings = _load(args)
    grid = np.linspace(0.0, settings.horizon, settings.grid)
    table = rate_table(spec, grid)
    reg = check_regularity(table)
    nonneg = scan_transform(table, None, None)
    if reg.regular:
        print(f"regular: yes ({settings.grid} grid points over "
              f"[0, {_fmt(settings.horizon)}])")
    else:
        v = reg.violations[0]
        print(f"regular: no ({len(reg.violations)} violations; first: t={_fmt(v.t)}, "
              f"state {v.state}, {v.direction} jump {v.k}->{v.k + 1}: "
              f"{_fmt(v.value)} -> {_fmt(v.next_value)})")
    worst = _fmt(nonneg.min_offdiagonal)
    if nonneg.passed:
        print(f"B* essentially non-negative: yes (off-diagonal minimum {worst})")
    else:
        ti, i, j = nonneg.worst_index
        print(f"B* essentially non-negative: no (entry ({i + 1},{j + 1}) = "
              f"{worst} at t={_fmt(grid[ti])})")
    if not reg.regular and nonneg.passed:
        print("warning: generator is not regular, but the transform is "
              "essentially non-negative; downstream bounds remain valid")
    return EXIT_OK if nonneg.passed else EXIT_VIOLATION


def cmd_rate(args) -> int:
    spec, settings = _load(args)
    cond = check_sharpness_conditions(spec)
    status = "pass" if cond.passed else "FAIL: " + "; ".join(cond.failures)
    print(f"sharpness conditions ({spec.kind}): {status}")
    report = sharp_report(spec, tmax=settings.horizon, n_grid=settings.grid)
    print(f"lambda0: {format(report.lambda0, '.17g')}")
    print("weights: " + " ".join(format(w, ".17g") for w in report.weights))
    lo, hi = report.perron.bracket
    print(f"perron: {report.perron.iterations} solves, "
          f"bracket [{format(lo, '.17g')}, {format(hi, '.17g')}]")
    print("sharp: yes (h_max = h_min = lambda0 on the grid)")
    if args.closed_form:
        _print_closed_form(spec, report.lambda0)
    if args.csv:
        bound_report_to_csv(report, args.csv)
        print(f"csv written: {args.csv}")
    return EXIT_OK


def _print_closed_form(spec, lambda0) -> None:
    if spec.kind != "birth_death":
        print("closed form: only available for birth_death chains")
        return
    lam = {fn.constant_value for fn in spec.birth}
    mu = {fn.constant_value for fn in spec.death}
    if len(lam) != 1 or len(mu) != 1:
        print("closed form: needs identical birth rates and identical death rates")
        return
    beta, g = closed_form_bd(lam.pop(), mu.pop(), spec.S)
    print(f"closed form: beta_star={format(beta, '.17g')} "
          f"g_star={format(g, '.17g')} |beta_star + lambda0|="
          f"{format(abs(beta + lambda0), '.3e')}")


def cmd_bounds(args) -> int:
    spec, settings = _load(args)
    weights, warnings = resolve_weights(spec, settings)
    report = compute_bounds(spec, weights, settings.horizon, settings.grid)
    for note in warnings + list(report.warnings):
        print(f"warning: {note}")
    print(f"horizon: [0, {_fmt(settings.horizon)}], {settings.grid} grid points")
    print(f"I_upper(T) = {_fmt(report.I_upper[-1])}   "
          f"envelope_upper(T) = {_fmt(report.env_upper[-1])}")
    print(f"I_lower(T) = {_fmt(report.I_lower[-1])}   "
          f"envelope_lower(T) = {_fmt(report.env_lower[-1])}")
    if args.csv:
        bound_report_to_csv(report, args.csv)
        print(f"csv written: {args.csv}")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, settings = _load(args)
    weights, warnings = resolve_weights(spec, settings)
    for note in warnings:
        print(f"warning: {note}")
    rep_b, rep_c = _verify_both(spec, weights, settings.horizon, settings.steps,
                                slack=settings.tolerance)
    for rep, label in ((rep_b, "bounds"), (rep_c, "coupling")):
        print(f"{label}: {'pass' if rep.passed else 'FAIL'} "
              f"(every start, slack_total {rep.slack_total:.3e})")
        print(f"  worst upper ratio: {format(rep.worst_upper, '.17g')}")
        if rep.worst_lower is not None:
            print(f"  worst lower ratio: {format(rep.worst_lower, '.17g')}")
        if not rep.passed:
            # a probability check records the worst column-sum error or entry
            phase, t, value = rep.violations[0]
            label = "value" if phase.startswith("probability") else "ratio"
            print(f"  first violation: {phase}, t={_fmt(t)}, "
                  f"{label} {format(value, '.17g')} ({rep.n_violations} total)")
    if args.csv:
        write_csv(args.csv, ("t", "bounds_ratio_upper_max", "bounds_ratio_lower_min",
                             "coupling_ratio_max"),
                  (rep_b.grid, rep_b.ratio_upper_max, rep_b.ratio_lower_min,
                   rep_c.ratio_upper_max))
        print(f"csv written: {args.csv}")
    return EXIT_OK if rep_b.passed and rep_c.passed else EXIT_VIOLATION


_OPTIONS = {
    "horizon": dict(type=float, help="analysis horizon Tmax"),
    "grid": dict(type=int, help="number of report grid points"),
    "tol": dict(type=float, dest="tolerance", metavar="TOL", help="verification slack"),
    "weights": dict(help=" | ".join(WEIGHT_MODES) + " | path to a weights file"),
    "csv": dict(help="write the report to this CSV path"),
    "closed-form": dict(action="store_true",
                        help="cross-check against the constant birth-death closed form"),
    "steps": dict(type=int, help="RK4 steps over the horizon"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmc-bounds",
        description="Convergence-rate bounds for finite continuous-time "
                    "Markov chains with structured generators.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the options it reads
    for name, help_text, options in (
            ("check", "regularity and essential non-negativity", "horizon grid"),
            ("rate", "sharp rate of a homogeneous chain", "horizon grid csv closed-form"),
            ("bounds", "two-sided envelope report", "horizon grid weights csv"),
            ("verify", "envelope verification over every start",
             "horizon tol weights csv steps")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to the JSON model file")
        for option in options.split():
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every non-finite result has its own check and error, so numpy's
        # warnings would only add lines before the one error line
        with np.errstate(all="ignore"):
            # cmd_<command> is looked up at each call, not held by the
            # parser that is built once per process
            return globals()[f"cmd_{args.command}"](args)
    except tuple(kind for kind, _ in _ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
