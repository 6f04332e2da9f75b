"""Independent checks of the CLI's outputs.

Nothing here imports the package under test. The oracles read the same
JSON model files, assemble Q(t) themselves from the documented schema, form
B*(t) as the explicit dense product T B(t) T^-1, and recompute every
printed or written quantity with numpy, scipy.linalg and scipy.integrate:

``rate``    lambda0 against the birth-death closed form or the largest real
            eigenvalue of B*; the printed weights are positive and equalise
            the column sums of D B* D^-1
``bounds``  the CSV's h and I columns against the column-sum extremes of the
            dense B**(t) and their own fine-grid quadrature, env = exp(I),
            I_upper >= I_lower, and a solve_ivp trajectory inside both
            envelopes
``verify``  both verdicts pass, and the CSV's worst ratios are bounded by the
            norms of the propagator Phi(t) obtained from the matrix ODE

Each check returns a list of failure messages; an empty list means the case
passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import integrate, linalg

REFINE = 4            # oracle quadrature samples per report interval
ODE_RTOL = 1e-10      # solve_ivp tolerance for trajectories and propagators
RATIO_TOL = 1e-7      # allowance on trajectory-norm ratios (program RK4 + oracle ODE error)
BOUNDS_COLUMNS = ("t", "h_upper", "h_lower", "I_upper", "I_lower", "env_upper", "env_lower")


class DenseChain:
    """Q(t), B(t) and B*(t) of a model-file chain, assembled from the schema alone."""

    def __init__(self, model: dict):
        chain = model["chain"]
        self.S = int(chain["states"])
        self._defs = chain.get("define") or {}
        keys, rows, cols, gids, specs = {}, [], [], [], []
        for i, j, node in self._entries(chain):
            spec = self._resolve(node)
            key = json.dumps(spec, sort_keys=True)
            if key not in keys:
                keys[key] = len(specs)
                specs.append(spec)
            rows.append(i)
            cols.append(j)
            gids.append(keys[key])
        self._rows, self._cols, self._gids = np.array(rows), np.array(cols), np.array(gids)
        self._bank = _RateBank(specs)
        self.homogeneous = self._bank.constant
        S = self.S
        self.T = np.triu(np.ones((S, S)))
        self.Tinv = np.eye(S) - np.eye(S, k=1)

    def _entries(self, chain):
        S, kind = self.S, chain["kind"]
        if kind == "general":
            for tr in chain["transitions"]:
                yield int(tr["from"]), int(tr["to"]), tr["rate"]
            return
        up = chain.get("birth")
        down = chain.get("death")
        for i in range(S):
            if up is not None:
                yield i, i + 1, up[i]
            if down is not None:
                yield i + 1, i, down[i]
        for key, sign in (("batch_birth", 1), ("batch_death", -1)):
            rates = chain.get(key)
            if rates is None:
                continue
            for i in range(S + 1):
                for k in range(1, S + 1):
                    if 0 <= i + sign * k <= S:
                        yield i, i + sign * k, rates[k - 1]

    def _resolve(self, node):
        if isinstance(node, str):
            node = self._defs[node]
        if isinstance(node, dict) and "constant" in node:
            return float(node["constant"])
        return node

    def generator(self, ts):
        """Q at each time of the 1d array ts: shape (len(ts), S+1, S+1)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        n = self.S + 1
        Q = np.zeros((ts.size, n, n))
        Q[:, self._rows, self._cols] = self._bank(ts)[self._gids].T
        Q[:, np.arange(n), np.arange(n)] = -Q.sum(axis=2)
        return Q

    def bstar(self, ts):
        """Dense T B(t) T^-1 with B = (A[1:, 1:] - A[1:, :1]) and A = Q^T."""
        A = np.swapaxes(self.generator(ts), 1, 2)
        B = A[:, 1:, 1:] - A[:, 1:, :1]
        return self.T @ B @ self.Tinv

    def weighted(self, ts, d):
        """B**(t) = D B*(t) D^-1."""
        return self.bstar(ts) * (d[:, None] / d[None, :])

    def column_sum_extremes(self, ts, d, chunk=256):
        """Largest and smallest column sum of B**(t) over the times ts.

        Returns (h_up, h_lo, col_up, col_lo, worst): the extremes, the
        columns that attain them, and the minimum off-diagonal entry.
        """
        ts = np.asarray(ts, dtype=float)
        parts, worst = [], math.inf
        off = ~np.eye(self.S, dtype=bool)
        for a in range(0, 1 if self.homogeneous else ts.size, chunk):
            M = self.weighted(ts[a:a + chunk], d)
            sums = M.sum(axis=1)
            parts.append((sums.max(axis=1), sums.min(axis=1),
                          sums.argmax(axis=1), sums.argmin(axis=1)))
            worst = min(worst, float(M[:, off].min(initial=math.inf)))
        out = [np.concatenate(p) for p in zip(*parts)]
        if self.homogeneous:
            out = [np.full(ts.size, v[0]) for v in out]
        return (*out, worst)

    def breakpoints(self):
        """Times at which some table rate changes slope."""
        return self._bank.breakpoints


class _RateBank:
    """All distinct rate functions of a chain, evaluated together.

    Constants, sinusoids (offset + amplitude * sin(2 pi frequency t + phase))
    and tables (linear interpolation clamped at the ends) as the model-file
    schema defines them; tables sharing breakpoints share one interpolation.
    """

    def __init__(self, specs):
        self.n = len(specs)
        self.constant = all(not isinstance(s, dict) for s in specs)
        self._const = [(g, float(s)) for g, s in enumerate(specs) if not isinstance(s, dict)]
        sin = [(g, s["sinusoid"]) for g, s in enumerate(specs)
               if isinstance(s, dict) and "sinusoid" in s]
        self._sin_ids = np.array([g for g, _ in sin], dtype=int)
        self._sin = np.array([[p["offset"], p["amplitude"], p["frequency"],
                               p.get("phase", 0.0)] for _, p in sin]).reshape(-1, 4)
        tables = {}
        for g, s in enumerate(specs):
            if isinstance(s, dict) and "table" in s:
                times = tuple(float(v) for v in s["table"]["times"])
                ids, vals = tables.setdefault(times, ([], []))
                ids.append(g)
                vals.append(s["table"]["values"])
        self._tables = [(np.array(t), np.array(ids), np.array(vals, dtype=float))
                        for t, (ids, vals) in tables.items()]
        self.breakpoints = np.unique(np.concatenate([[]] + [t for t, _, _ in self._tables]))

    def __call__(self, ts):
        """Values of every rate at the times ts: shape (n, len(ts))."""
        out = np.empty((self.n, ts.size))
        for g, value in self._const:
            out[g] = value
        if self._sin_ids.size:
            o, a, f, ph = (self._sin[:, k:k + 1] for k in range(4))
            out[self._sin_ids] = o + a * np.sin(2.0 * math.pi * f * ts[None, :] + ph)
        for times, ids, vals in self._tables:
            x = np.clip(ts, times[0], times[-1])
            k = np.clip(np.searchsorted(times, x, side="right") - 1, 0, times.size - 2)
            frac = (x - times[k]) / (times[k + 1] - times[k])
            out[ids] = vals[:, k] + (vals[:, k + 1] - vals[:, k]) * frac
        return out


def model_weights(model, S):
    w = model.get("analysis", {}).get("weights", "ones")
    return np.ones(S) if w == "ones" else np.asarray(w, dtype=float)


def perron_vector(Bstar):
    """Positive eigenvector of Bstar^T for its largest real eigenvalue, and that eigenvalue."""
    vals, vecs = linalg.eig(Bstar.T)
    k = int(np.argmax(vals.real))
    v = np.abs(vecs[:, k].real)
    return float(vals[k].real), v / v.sum()


def envelope_integrals(dense, d, horizon, n_out):
    """Oracle integrals of h_up and h_lo over the n_out - 1 intervals of a uniform grid.

    Each report interval of length `step` is integrated by scipy's
    composite Simpson rule on REFINE sub-intervals. For key in ("up", "lo")
    the result holds ``h_<key>`` (the extreme at the report times),
    ``I_<key>`` (running integrals, 0 at t=0) and ``tol_<key>``: how far
    the increment of a Simpson rule at the report spacing (samples at the
    interval ends and midpoint) may lie from the oracle's on each interval.

    Where the integrand is smooth on an interval, that is the fourth-order
    Simpson error step^5/2880 * max|h^(4)|, with the fourth derivative read
    from the oracle's fourth differences, times 10. Where it has a kink - the
    extreme column changes, or a table rate has a breakpoint - a slope jump
    J costs Simpson at most J * step^2 / 24, and twice that is added. A
    floor covers round-off: the rates and B* assembled in another order
    (``h_tol`` on h) and the running sums printed to 17 digits.
    """
    fine = np.linspace(0.0, horizon, (n_out - 1) * REFINE + 1)
    h_up, h_lo, col_up, col_lo, worst = dense.column_sum_extremes(fine, d)
    delta = fine[1] - fine[0]
    step = horizon / (n_out - 1)
    scale = max(1.0, float(np.max(np.abs(np.concatenate([h_up, h_lo])))))
    out = {"worst_offdiag": worst, "h_tol": 1e-12 * scale * dense.S}
    windows = np.arange(n_out - 1)[:, None] * REFINE + np.arange(REFINE + 1)
    for key, h, col in (("up", h_up, col_up), ("lo", h_lo, col_lo)):
        increments = integrate.simpson(h[windows], dx=delta, axis=1)
        out[f"I_{key}"] = np.concatenate([[0.0], np.cumsum(increments)])
        out[f"h_{key}"] = h[::REFINE]
        floor = 4.0 * np.finfo(float).eps * float(np.abs(out[f"I_{key}"]).max()) \
            + 2.0 * step * out["h_tol"]
        out[f"tol_{key}"] = _simpson_tolerances(h, col, fine, step, dense.breakpoints()) + floor
    return out


def _simpson_tolerances(h, col, fine, step, breaks):
    """Per report interval: the Simpson error bound described in envelope_integrals."""
    delta = fine[1] - fine[0]
    slope = np.diff(h) / delta
    fourth = np.abs(np.diff(h, 4)) / delta**4
    switches = np.flatnonzero(col[1:] != col[:-1])   # extreme column changes in (i, i+1)
    n = (h.size - 1) // REFINE
    tol = np.empty(n)
    for k in range(n):
        lo, hi = max(k * REFINE - 1, 0), min((k + 1) * REFINE + 1, h.size - 1)
        m4 = fourth[max(lo - 2, 0):max(min(hi - 1, fourth.size), 1)].max(initial=0.0)
        tol[k] = 10.0 * step**5 / 2880.0 * m4
        kink = np.any((switches >= lo) & (switches < hi)) or \
            np.any((breaks >= fine[lo]) & (breaks <= fine[hi]))
        if kink:
            tol[k] += step**2 * float(np.ptp(slope[lo:hi])) / 12.0
    return tol


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, k] for k, name in enumerate(header)}


def _ode_trajectory(dense, d, w0, ts):
    """Columns of w0 propagated by w' = B**(t) w, sampled at the times ts."""
    S, m = w0.shape

    def rhs(t, y):
        return (dense.weighted([t], d)[0] @ y.reshape(S, m)).ravel()

    sol = integrate.solve_ivp(rhs, (0.0, ts[-1]), w0.ravel(), method="DOP853",
                              t_eval=ts, rtol=ODE_RTOL, atol=1e-14 * np.abs(w0).max())
    if not sol.success:
        raise RuntimeError(f"oracle ODE failed: {sol.message}")
    return sol.y.T.reshape(ts.size, S, m)


def check_bounds(model, csv_text, weights=None):
    """Check a bounds (or rate) CSV: t, h_upper, h_lower, I_upper, I_lower, env_upper, env_lower."""
    dense = DenseChain(model)
    S = dense.S
    d = model_weights(model, S) if weights is None else np.asarray(weights, dtype=float)
    a = model.get("analysis", {})
    horizon, n_grid = float(a.get("horizon", 1.0)), int(a.get("grid", 1001))
    got = read_csv(csv_text)
    errors = []
    if got["t"].size != n_grid or not np.allclose(got["t"], np.linspace(0, horizon, n_grid),
                                                   rtol=0, atol=1e-14 * horizon):
        return [f"report grid is not {n_grid} uniform points on [0, {horizon}]"]
    ref = envelope_integrals(dense, d, horizon, n_grid)
    if ref["worst_offdiag"] < -1e-12 * max(1.0, np.abs(ref["h_up"]).max()):
        errors.append(f"oracle B** has a negative off-diagonal entry {ref['worst_offdiag']}")
    for key in ("up", "lo"):
        col = "upper" if key == "up" else "lower"
        dh = float(np.max(np.abs(got[f"h_{col}"] - ref[f"h_{key}"])))
        if dh > ref["h_tol"]:
            errors.append(f"h_{col} differs from the dense column sums by {dh:.3e}")
        if got[f"I_{col}"][0] != 0.0:
            errors.append(f"I_{col} does not start at 0")
        excess = np.abs(np.diff(got[f"I_{col}"]) - np.diff(ref[f"I_{key}"])) - ref[f"tol_{key}"]
        if excess.max() > 0.0:
            k = int(np.argmax(excess))
            errors.append(f"I_{col} increment on [{got['t'][k]}, {got['t'][k + 1]}] differs "
                          f"from the refined quadrature by "
                          f"{excess[k] + ref[f'tol_{key}'][k]:.3e} "
                          f"(tolerance {ref[f'tol_{key}'][k]:.3e})")
        env_err = float(np.max(np.abs(got[f"env_{col}"] / np.exp(got[f"I_{col}"]) - 1.0)))
        if env_err > 1e-14:
            errors.append(f"env_{col} != exp(I_{col}) (relative error {env_err:.3e})")
    if np.any(got["I_upper"] < got["I_lower"]):
        errors.append("I_upper < I_lower at some grid time")

    rng = np.random.default_rng(0)
    w0 = np.column_stack([rng.uniform(0.0, 1.0, S), rng.uniform(-1.0, 1.0, S)])
    pick = np.unique(np.linspace(0, n_grid - 1, min(n_grid, 101)).astype(int))
    W = _ode_trajectory(dense, d, w0, got["t"][pick])
    ratio = np.abs(W).sum(axis=1) / np.abs(w0).sum(axis=0)
    up = ratio / got["env_upper"][pick, None]
    lo = ratio[:, 0] / got["env_lower"][pick]
    # the envelopes carry the rule's quadrature error
    tol = RATIO_TOL + max(ref["tol_up"].sum(), ref["tol_lo"].sum())
    if up.max() > 1.0 + tol:
        errors.append(f"solve_ivp trajectory leaves the upper envelope (ratio {up.max():.12g})")
    if lo.min() < 1.0 - tol:
        errors.append(f"solve_ivp trajectory leaves the lower envelope (ratio {lo.min():.12g})")
    return errors


def _printed(stdout, label):
    for line in stdout.splitlines():
        if line.startswith(label + ":"):
            return line.split(":", 1)[1].split()
    return None


def check_rate(model, stdout, csv_text):
    """Check ``rate --closed-form --csv`` output of a homogeneous chain."""
    dense = DenseChain(model)
    S = dense.S
    chain = model["chain"]
    errors = []
    lam_txt, w_txt = _printed(stdout, "lambda0"), _printed(stdout, "weights")
    if lam_txt is None or w_txt is None or len(w_txt) != S:
        return ["lambda0 or the weights are missing from the output"]
    lam0 = float(lam_txt[0])
    d = np.array([float(v) for v in w_txt])
    Bstar = dense.bstar([0.0])[0]
    births, deaths = chain.get("birth"), chain.get("death")
    if chain["kind"] == "birth_death" and len(set(births)) == 1 and len(set(deaths)) == 1:
        a, b = float(births[0]), float(deaths[0])
        expect = -(a + b - 2.0 * math.sqrt(a * b) * math.cos(math.pi / (S + 1)))
        source = "closed form"
    else:
        expect = float(np.max(np.linalg.eigvals(Bstar).real))
        source = "largest real eigenvalue of dense B*"
    if abs(lam0 - expect) > 1e-9 * abs(expect):
        errors.append(f"lambda0 {lam0!r} differs from the {source} {expect!r}")
    if not np.all(d > 0.0):
        errors.append("printed weights are not all positive")
    else:
        sums = (Bstar * (d[:, None] / d[None, :])).sum(axis=0)
        spread = float(sums.max() - sums.min())
        allowed = 1e-9 * abs(lam0) + 1e-12 * S * float(np.abs(Bstar).max())
        if spread > allowed or abs(float(sums.mean()) - lam0) > allowed:
            errors.append(f"printed weights do not equalise the column sums of D B* D^-1 "
                          f"(spread {spread:.3e}, allowed {allowed:.3e})")
    if "sharp: yes" not in stdout:
        errors.append("report is not marked sharp")
    errors += check_bounds(model, csv_text, weights=d)
    return errors


def check_verify(model, stdout, csv_text):
    """Check ``verify --csv`` output: t, bounds_ratio_upper_max, bounds_ratio_lower_min, coupling_ratio_max."""
    errors = [f"{label} verdict is not pass" for label in ("bounds", "coupling")
              if f"{label}: pass" not in stdout]
    dense = DenseChain(model)
    S = dense.S
    a = model.get("analysis", {})
    horizon, steps = float(a.get("horizon", 1.0)), int(a.get("steps", 10_000))
    if a.get("weights") == "perron":
        d = perron_vector(dense.bstar([0.0])[0])[1]
    else:
        d = model_weights(model, S)
    got = read_csv(csv_text)
    ts = got["t"]
    if ts.size != steps + 1:
        return errors + [f"verify CSV has {ts.size} rows, expected {steps + 1}"]
    ref = envelope_integrals(dense, d, horizon, steps + 1)
    if dense.homogeneous:
        M = dense.weighted([0.0], d)[0]
        Phi = np.stack([linalg.expm(t * M) for t in ts])
    else:
        Phi = _ode_trajectory(dense, d, np.eye(S), ts)
    norm1 = np.abs(Phi).sum(axis=1).max(axis=1)     # induced l1 norm of Phi(t)
    min_colsum = Phi.sum(axis=1).min(axis=1)         # Phi >= 0: worst nonnegative start
    upper = norm1 / np.exp(ref["I_up"])
    lower = min_colsum / np.exp(ref["I_lo"])
    # the CSV's ratios divide by the program's envelopes, whose integrals may
    # differ from the oracle's by the summed interval tolerances (relative,
    # as env = exp(I))
    tol = RATIO_TOL + max(ref["tol_up"].sum(), ref["tol_lo"].sum())
    if np.any(got["bounds_ratio_upper_max"] > upper + tol):
        k = int(np.argmax(got["bounds_ratio_upper_max"] - upper))
        errors.append(f"bounds_ratio_upper_max exceeds ||Phi||_1/env_up at t={ts[k]}")
    if np.any(got["bounds_ratio_lower_min"] < lower - tol):
        k = int(np.argmax(lower - got["bounds_ratio_lower_min"]))
        errors.append(f"bounds_ratio_lower_min is below min colsum(Phi)/env_lo at t={ts[k]}")
    # the envelope theorem itself, against the oracle's integrals; their own
    # error is the same bound at a quarter of the spacing: 1/16 of it or less
    tol = RATIO_TOL + max(ref["tol_up"].sum(), ref["tol_lo"].sum()) / 16.0
    worst_up, worst_lo = float(upper.max()), float(lower.min())
    if worst_up > 1.0 + tol:
        errors.append(f"||Phi(t)||_1 exceeds the upper envelope (ratio {worst_up:.12g})")
    if worst_lo < 1.0 - tol:
        errors.append(f"min column sum of Phi(t) falls below the lower envelope "
                      f"(ratio {worst_lo:.12g})")
    return errors


def check_case(command, model, stdout, csv_text):
    if command == "rate":
        return check_rate(model, stdout, csv_text)
    if command == "bounds":
        return check_bounds(model, csv_text)
    if command == "verify":
        return check_verify(model, stdout, csv_text)
    raise ValueError(f"no oracle for command {command!r}")
