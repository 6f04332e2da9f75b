"""The four structured transition classes and their transformed matrices.

Single-step chains, group births, group deaths, and both combined all share
one property: as long as the group rates do not increase with the group
size, intensities into every state decay with the jump size, and the
triangular similarity transform of the reduced system has nonnegative
off-diagonal entries. Each class also admits a closed-form transform,
checked here against the generic numeric route.
"""

import numpy as np

import ctmc_bounds as cb

S = 4
chains = {
    "birth_death": cb.birth_death_chain(S, [1.0, 1.2, 0.8, 1.0],
                                        [2.0, 1.5, 1.8, 2.2]),
    "batch_birth": cb.batch_birth_chain(S, [1.0, 0.5, 0.25, 0.125],
                                        [2.0, 2.0, 2.0, 2.0]),
    "batch_death": cb.batch_death_chain(S, [1.5, 0.7, 0.3, 0.1],
                                        [1.0, 1.0, 1.0, 1.0]),
    "batch_both": cb.batch_both_chain(S, [1.0, 0.5, 0.25, 0.125],
                                      [1.5, 0.7, 0.3, 0.1]),
}

for name, spec in chains.items():
    print("=" * 64)
    print(name)
    Q = cb.eval_generator(spec, 0.0)
    print("Q(0):")
    print(np.round(Q, 3))

    report = cb.check_regularity(cb.rate_table(spec, 0.0))
    print("regular:", report.regular)

    numeric = cb.to_bstar(cb.build_reduced(Q))
    analytic = cb.analytic_bstar(spec, 0.0)
    print("closed-form transform matches numeric:",
          np.abs(numeric - analytic).max() < 1e-12)
    print("B*:")
    print(np.round(numeric, 3))

    rate = cb.perron_weights(numeric)
    print(f"sharp rate lambda0 = {rate.lambda0:.8f} "
          f"(conditions: {cb.check_sharpness_conditions(spec).passed})")

# breaking the group-rate monotonicity breaks everything downstream
print("=" * 64)
broken = cb.batch_birth_chain(3, [1.0, 2.0, 0.5], [1.0, 1.0, 1.0])
print("a_2 > a_1:")
Q = cb.eval_generator(broken, 0.0)
print("  regular:", cb.check_regularity(cb.rate_table(broken, 0.0)).regular)
bstar = cb.to_bstar(cb.build_reduced(Q))
nn = cb.check_essential_nonnegativity(bstar)
print("  transform essentially non-negative:", nn.passed,
      "| worst off-diagonal:", nn.min_offdiagonal)
