"""End-to-end verification: envelopes against integrated trajectories.

Two randomized harnesses back every bound with direct integration of the
underlying differential systems. The first drives the weighted transformed
system from random initial vectors; the second integrates pairs of actual
probability trajectories and checks that their mapped difference contracts
no slower than the upper envelope allows.
"""

import numpy as np

import ctmc_bounds as cb

spec = cb.batch_both_chain(4, [1.2, 0.6, 0.3, 0.15], [1.0, 0.5, 0.25, 0.1])
rate = cb.perron_weights(cb.to_bstar(cb.build_reduced(cb.eval_generator(spec, 0.0))))
print(f"sharp rate lambda0 = {rate.lambda0:.10f}")
print("weights:", np.round(rate.weights, 6))

rep = cb.verify_bounds(spec, rate.weights, tmax=4.0, n_steps=8000,
                       n_trials=500, seed=11)
print("\nenvelope verification (500 signed + 500 nonnegative starts):")
print(f"  passed            : {rep.passed}")
print(f"  worst upper ratio : {rep.worst_upper:.12f}")
print(f"  worst lower ratio : {rep.worst_lower:.12f}")
print(f"  exact upper ratio : {rep.exact_upper:.12f} (every start, from the propagators)")
print(f"  exact lower ratio : {rep.exact_lower:.12f} (every non-negative start)")
print(f"  integrator margin : {rep.integrator_margin:.2e} (step halving)")
print(f"  quadrature margin : {rep.quadrature_margin:.2e} (grid doubling)")

# with the equalizing weights both ratios pin to 1: the envelopes and every
# nonnegative trajectory decay at exactly the same exponential rate

coup = cb.verify_convergence_coupling(spec, rate.weights, tmax=4.0,
                                      n_steps=8000, n_pairs=100, seed=12)
print("\ncoupling verification (100 random pairs of distributions):")
print(f"  passed                  : {coup.passed}")
print(f"  worst ratio             : {coup.worst_upper:.12f}")
print(f"  probability sum error   : {coup.prob_sum_error:.2e}")
print(f"  most negative component : {coup.prob_min:.2e}")

cb.verification_to_csv(rep, "verify_bounds.csv")
cb.verification_to_csv(coup, "verify_coupling.csv")
print("\nwrote verify_bounds.csv and verify_coupling.csv")

# the same run is available from the command line:
#   ctmc-bounds verify model.json --trials 500 --pairs 100 --csv report.csv
