"""Continuum fields and conservation residuals for a pair-potential cluster.

Walks through the basic workflow: build a scalar pair model, integrate a
short trajectory, extract mollified density / velocity / stress / heat-flux
fields at a probe grid, then verify the pointwise conservation laws with a
central-difference check and a Richardson step-halving estimate of its
order.

Run:  python3 demos/conservation_fields.py
"""

import numpy as np

from mdfields import conservation, dynamics, fields, potential
from mdfields.mollifier import Mollifier

rng = np.random.default_rng(7)

# -- a small Morse cluster ---------------------------------------------------

n = 6
pair = potential.Morse(1.0, 1.2, 1.0)
v_pot = potential.make_scalar_pair_model(pair, n)
provider = dynamics.AdiabaticSurface(v_pot, gap_tol=0.0)
model = fields.AdiabaticFieldModel(v_pot, 0, gap_tol=0.0)

# perturbed octahedron-ish seed, min pair distance kept away from zero
x0 = np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.1, 1.0, 0.0],
               [1.1, 1.0, 0.1], [0.5, 0.5, 0.9], [0.6, 0.4, -0.8]])
p0 = rng.normal(scale=0.25, size=(n, 3))
initial = dynamics.PhaseState(x=x0, p=p0, masses=np.ones(n))

traj = dynamics.integrate(initial, 1e-3, 400, provider)
print(f"integrated {len(traj.times)} states, "
      f"energy oscillation {traj.energy_oscillation:.3e}, "
      f"secular drift {traj.energy_drift:.3e}")

# -- instantaneous fields at the cluster center ------------------------------

mol = Mollifier(1.0)
st = traj.state(-1)
sd = fields.prepare_state(st.x, st.p, st.masses, model)
y = st.x.mean(axis=0)

grid = fields.field_grid([(1.0, [sd])], mol, [y], mode="ensemble")
rho, u, sigma, q = grid.rho[0], grid.u[0], grid.sigma[0], grid.q[0]
print(f"\nat the center y = {np.round(y, 3)}:")
print(f"  rho   = {rho:.6f}")
print(f"  u     = {np.round(u, 6)}")
print(f"  tr(sigma)/3 = {np.trace(sigma) / 3.0:.6f}")
print(f"  |q|   = {np.linalg.norm(q):.6f}")

# -- conservation residuals at a probe cloud ---------------------------------

lo = st.x.min(axis=0) - 0.3
hi = st.x.max(axis=0) + 0.3
probes = rng.uniform(lo, hi, size=(60, 3))

rep = conservation.per_trajectory_residuals(
    st, provider, model, mol, probes, dt_check=1e-4, richardson=True)
rel = rep.relative_max()
print("\nmax residual relative to the field scale (dt_check = 1e-4):")
for law in ("mass", "mom", "energy"):
    ratio = 2.0 ** rep.richardson_order[law]
    print(f"  {law:6s}: {rel[law]:.3e}   step-halving ratio {ratio:.2f} "
          "(central differences give ~4)")
