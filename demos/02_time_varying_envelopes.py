"""Two-sided envelopes for a chain with a periodically varying arrival rate.

The birth rate oscillates as 1 + sin(2 pi t) while deaths stay constant.
For any positive weights the extreme column sums of the transformed matrix
bound the decay of the weighted norm from both sides; the envelopes land in
a CSV ready for external plotting.
"""

import numpy as np

import ctmc_bounds as cb

S = 5
lam = cb.RateFunction.sinusoid(1.0, 1.0, 1.0)   # 1 + sin(2 pi t)
spec = cb.birth_death_chain(S, [lam] * S, [1.0] * S)

print("chain is homogeneous:", spec.is_homogeneous)
grid = np.linspace(0, 3, 301)
print("regular on a fine grid:",
      cb.check_regularity(cb.rate_table(spec, grid)).regular)

report = cb.compute_bounds(spec, np.ones(S), tmax=3.0, n_grid=601)
print("\n   t     h_upper    h_lower    env_upper   env_lower")
for k in range(0, 601, 100):
    print(f"  {report.grid[k]:4.1f}  {report.h_upper[k]:9.5f}  "
          f"{report.h_lower[k]:9.5f}  {report.env_upper[k]:10.6f}  "
          f"{report.env_lower[k]:10.6f}")

cb.bound_report_to_csv(report, "envelopes.csv")
print("\nwrote envelopes.csv (t, h_upper, h_lower, I_upper, I_lower, "
      "env_upper, env_lower)")

# a nonnegative initial vector must stay between the envelopes; the
# trajectory grid is 10x finer, every 10th sample lands on the report grid
rng = np.random.default_rng(1)
w0 = rng.uniform(0.0, 1.0, S)
traj = cb.solve("transformed", spec, w0, tmax=3.0, n_steps=6000)
norms = np.abs(traj.states).sum(axis=1)
lo = norms[0] * np.exp(report.I_lower)
hi = norms[0] * np.exp(report.I_upper)

inside = np.all((norms[::10] <= hi * (1 + 1e-9) + 1e-15)
                & (norms[::10] >= lo * (1 - 1e-9) - 1e-15))
print("trajectory stays inside the envelopes:", bool(inside))

# the verifier repeats this for every start at once, from the propagators,
# and certifies the integrator error at each time by step halving
rep = cb.verify_bounds(spec, np.ones(S), tmax=3.0, n_steps=6000)
print(f"verification: passed={rep.passed}, worst upper ratio "
      f"{rep.worst_upper:.12f}, worst lower ratio {rep.worst_lower:.12f}, "
      f"slack {rep.slack_total:.2e}")
