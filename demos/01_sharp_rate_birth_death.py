"""Sharp decay rate of a constant birth-death chain, step by step.

Builds the generator of a chain on {0,...,S}, reduces and transforms it,
computes the equalizing weights by Collatz-Wielandt shifted inverse
iteration, and compares the resulting rate with the closed-form value
a + b - 2*sqrt(ab)*cos(pi/(S+1)).
"""

import numpy as np

import ctmc_bounds as cb

S = 4
a, b = 1.0, 2.0          # birth and death rates, identical across states

spec = cb.birth_death_chain(S, [a] * S, [b] * S)

print("generator Q(0):")
Q = cb.eval_generator(spec, 0.0)
print(Q)

B = cb.build_reduced(Q)
print("\nreduced matrix B (state 0 eliminated):")
print(B)

Bstar = cb.to_bstar(B)
print("\ntransformed matrix B* = T B T^-1 (tridiagonal for this class):")
print(Bstar)
print("essentially non-negative:",
      cb.check_essential_nonnegativity(Bstar).passed)

rate = cb.perron_weights(Bstar)
lo, hi = rate.bracket
print(f"\nperron weighting converged in {rate.iterations} solves, "
      f"residual {rate.residual:.2e}")
print(f"certified enclosure of lambda0: [{lo:.17g}, {hi:.17g}] (width {hi - lo:.1e})")
print("weights d:", np.round(rate.weights, 6))

Bss = cb.apply_weights(Bstar, rate.weights)
print("column sums of D B* D^-1 (all equal the sharp rate):")
print(np.round(Bss.sum(axis=0), 12))

beta, g = cb.closed_form_bd(a, b, S)
print(f"\nlambda0 from the Perron solve: {rate.lambda0:.12f}")
print(f"closed form -beta_star       : {-beta:.12f}")
print(f"difference                   : {abs(rate.lambda0 + beta):.2e}")
print(f"(the opposite end of the spectrum sits at -g_star = {-g:.12f})")

# the norm of the weighted transformed coordinates decays exactly at lambda0
w0 = np.array([0.3, 0.1, 0.4, 0.2])
traj = cb.solve("transformed", spec, w0, tmax=3.0, n_steps=3000,
                weights=rate.weights)
norms = np.abs(traj.states).sum(axis=1)
print("\n   t      ||w(t)||        ||w(0)|| e^(lambda0 t)")
for k in range(0, 3001, 600):
    t = traj.grid[k]
    print(f"  {t:4.1f}   {norms[k]:.10f}   {norms[0] * np.exp(rate.lambda0 * t):.10f}")
