"""End-to-end verification: envelopes against integrated trajectories.

Two verifiers back every bound with direct integration of the underlying
differential systems. Both read the RK4 propagators, the trajectories of
every initial vector at once, so each grid time is judged at its worst
start. The first checks the weighted transformed system against both
envelopes; the second checks that the mapped difference of any two
probability trajectories contracts no slower than the upper envelope
allows.
"""

import numpy as np

import ctmc_bounds as cb

spec = cb.batch_both_chain(4, [1.2, 0.6, 0.3, 0.15], [1.0, 0.5, 0.25, 0.1])
rate = cb.perron_weights(cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0))))
print(f"sharp rate lambda0 = {rate.lambda0:.10f}")
print("weights:", np.round(rate.weights, 6))

rep = cb.verify_bounds(spec, rate.weights, tmax=4.0, n_steps=8000)
print("\nenvelope verification (every start, at every grid time):")
print(f"  passed            : {rep.passed}")
print(f"  worst upper ratio : {rep.worst_upper:.12f} (every start)")
print(f"  worst lower ratio : {rep.worst_lower:.12f} (every non-negative start)")
print(f"  integrator margin : {rep.integrator_margin:.2e} (step halving)")
print(f"  quadrature margin : {rep.quadrature_margin:.2e} (grid doubling)")

# with the equalizing weights both ratios pin to 1: the envelopes and every
# nonnegative trajectory decay at exactly the same exponential rate

coup = cb.verify_convergence_coupling(spec, rate.weights, tmax=4.0, n_steps=8000)
print("\ncoupling verification (every pair of distributions):")
print(f"  passed                  : {coup.passed}")
print(f"  worst ratio             : {coup.worst_upper:.12f}")
print(f"  most negative component : {coup.prob_min:.2e}")

cb.verification_to_csv(rep, "verify_bounds.csv")
cb.verification_to_csv(coup, "verify_coupling.csv")
print("\nwrote verify_bounds.csv and verify_coupling.csv")

# the same run is available from the command line:
#   ctmc-bounds verify model.json --csv report.csv
