"""Mass-corrected adiabatic surfaces of a two-state model.

Solves the nonlinear eigenvalue problem that shifts the bare adiabatic
surfaces by an O(1/M) kinetic correction, shows the 1/M scaling and the
agreement of the two solver modes, verifies the per-particle partition
identity, and samples Gibbs surface weights for a small cluster.

Run:  python3 demos/corrected_surfaces.py
"""

import numpy as np

from mdfields import ensemble, geometry, nonlinear_eigen, potential

rng = np.random.default_rng(11)

# -- a coupling-active configuration ------------------------------------------

n = 3
v_pot = potential.make_two_state_model(
    potential.Morse(1.0, 1.2, 1.0), 0.8,
    potential.GaussianCoupling(0.15, 1.3, 0.6), n)

while True:
    x = rng.normal(scale=0.7, size=(n, 3))
    r = geometry.pair_distances(x)
    if r.min() > 0.5 and r.max() < 2.5:
        break
print(f"pair distances: {np.round(r, 3)}")

bare = potential.eigendecompose(v_pot.evaluate(x)).lambdas
print(f"bare surfaces:  {bare}")

# -- O(1/M) scaling and solver cross-check -----------------------------------

print("\n      M     |corr|        fixed-point vs continuation")
for mass in (1e2, 1e3, 1e4):
    fp = nonlinear_eigen.solve_nonlinear_eigen(v_pot, x, mass)
    ct = nonlinear_eigen.solve_nonlinear_eigen(v_pot, x, mass,
                                               method="continuation")
    corr = np.linalg.norm(fp.lambdas_bar - bare)
    gap = np.max(np.abs(fp.lambdas_bar - ct.lambdas_bar))
    print(f"  {mass:7.0f}  {corr:.6e}  {gap:.3e}")

# the shares of each surface sum to the surface value exactly
cs = nonlinear_eigen.solve_nonlinear_eigen(v_pot, x, 1e3)
mismatch = np.max(np.abs(cs.per_particle_bar.sum(axis=0) - cs.lambdas_bar))
print(f"\npartition identity mismatch: {mismatch:.3e}")
print(f"solver residual norm:        {cs.residual_norm:.3e}")

# -- Gibbs surface weights ----------------------------------------------------

box = ensemble.BoxContainer(0.0, 1.8)
spec = ensemble.GibbsSpec(T=2.0)
shares = ensemble.AdiabaticShares(v_pot)
qw = ensemble.surface_weights(spec, shares, np.full(n, 1e3), box,
                              "reweighting", n_samples=2000, seed=2)
print(f"\nsurface weights at T = {spec.T}: q = {np.round(qw.q, 4)} "
      f"(stderr {np.round(qw.stderr, 5)})")
print("the upper surface sits one gap higher, so its weight is "
      "Boltzmann-suppressed")
