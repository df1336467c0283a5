import numpy as np
import pytest

from mdfields import fields, geometry, potential
from mdfields.errors import VacuumProbeError
from mdfields.mollifier import Mollifier


class ZeroModel:
    """Free particles: no potential energy anywhere."""

    def __init__(self, n):
        self.n = n

    def surface_data(self, x):
        return np.zeros(self.n), np.zeros((self.n, 3)), \
            np.zeros((self.n, self.n, 3))


def scalar_model(n, kappa=1.0, r0=1.0):
    v = potential.make_scalar_pair_model(potential.Harmonic(kappa, r0), n)
    return fields.AdiabaticFieldModel(v, 0, gap_tol=0.0)


def random_states(n, count, rng, model=None, spread=0.7):
    model = model or scalar_model(n)
    out = []
    for _ in range(count):
        while True:
            x = rng.normal(scale=spread, size=(n, 3))
            if geometry.pair_distances(x).min() > 0.4:
                break
        p = rng.normal(scale=0.5, size=(n, 3))
        out.append(fields.prepare_state(x, p, np.ones(n), model))
    return out


class TestInstantaneousDensity:
    def test_single_particle_at_probe(self):
        mol = Mollifier(0.5)
        sd = fields.prepare_state(np.zeros((1, 3)), np.zeros((1, 3)),
                                  np.array([2.0]), ZeroModel(1))
        rho, mom, en = fields.instantaneous_density(sd, mol, np.zeros(3))
        assert rho == 2.0 * mol.eval(np.zeros(3))
        np.testing.assert_allclose(mom, 0.0)
        assert en == 0.0

    def test_far_probe_vanishes(self):
        mol = Mollifier(0.5)
        rng = np.random.default_rng(0)
        sd = random_states(3, 1, rng)[0]
        far = sd.x.max(axis=0) + 10.0
        rho, mom, en = fields.instantaneous_density(sd, mol, far)
        assert rho == 0.0 and en == 0.0
        np.testing.assert_allclose(mom, 0.0)

    def test_density_integral_is_total_mass(self):
        mol = Mollifier(0.4)
        rng = np.random.default_rng(1)
        sd = random_states(3, 1, rng)[0]
        lo = sd.x.min(axis=0) - 0.5
        hi = sd.x.max(axis=0) + 0.5
        npts = 40
        axes = [np.linspace(lo[a], hi[a], npts) for a in range(3)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        rho, _, _ = fields.instantaneous_density(sd, mol, grid)
        dv = np.prod([(hi[a] - lo[a]) / (npts - 1) for a in range(3)])
        total = np.sum(rho) * dv
        assert abs(total - sd.masses.sum()) <= 1e-3 * sd.masses.sum()

    def test_energy_includes_lambda_shares(self):
        mol = Mollifier(0.6)
        rng = np.random.default_rng(2)
        sd = random_states(2, 1, rng)[0]
        y = sd.x[0]
        _, _, en = fields.instantaneous_density(sd, mol, y)
        dy = y - sd.x
        eta = mol.eval(dy)
        expect = np.sum(eta * (0.5 * np.sum(sd.p ** 2, axis=1) + sd.lam_n))
        np.testing.assert_allclose(en, expect, rtol=1e-14)


class TestVelocityField:
    def test_shared_velocity(self):
        mol = Mollifier(0.6)
        rng = np.random.default_rng(3)
        w = np.array([0.3, -0.2, 0.1])
        states = random_states(3, 5, rng)
        for sd in states:
            sd.p[:] = w * sd.masses[:, None]
        y = states[0].x[0]
        np.testing.assert_allclose(
            fields.velocity_field(states, mol, y), w, atol=1e-13)

    def test_vacuum_error(self):
        mol = Mollifier(0.3)
        rng = np.random.default_rng(4)
        states = random_states(2, 2, rng)
        with pytest.raises(VacuumProbeError):
            fields.velocity_field(states, mol, np.full(3, 50.0))

    def test_peculiar_momentum_vanishes(self):
        # <sum_n M_n eta v^n> = 0 exactly by the definition of u
        mol = Mollifier(0.8)
        rng = np.random.default_rng(5)
        states = random_states(3, 7, rng)
        y = np.array([0.1, 0.0, -0.1])
        u = fields.velocity_field(states, mol, y)
        acc = np.zeros(3)
        for sd in states:
            eta = mol.eval(y - sd.x)
            v = sd.p / sd.masses[:, None] - u
            acc += np.einsum("n,nj->j", eta * sd.masses, v) / len(states)
        np.testing.assert_allclose(acc, 0.0, atol=1e-12)


class TestMomentumFlux:
    def test_zero_potential_kinetic_only(self):
        mol = Mollifier(0.7)
        rng = np.random.default_rng(6)
        x = rng.normal(scale=0.4, size=(2, 3))
        p = rng.normal(size=(2, 3))
        sd = fields.prepare_state(x, p, np.ones(2), ZeroModel(2))
        y = x[0]
        flux = fields.instantaneous_momentum_flux(sd, mol, y)
        eta = mol.eval(y - x)
        expect = np.einsum("n,nl,nj->lj", eta, p, p)
        np.testing.assert_allclose(flux, expect, atol=1e-14)

    def test_harmonic_midpoint_closed_form(self):
        kappa, r0 = 1.3, 1.0
        mol = Mollifier(0.6)
        x = np.array([[0.0, 0.0, 0.0], [1.6, 0.0, 0.0]])
        sd = fields.prepare_state(x, np.zeros((2, 3)), np.ones(2),
                                  scalar_model(2, kappa, r0))
        y = 0.5 * (x[0] + x[1])
        flux = fields.instantaneous_momentum_flux(sd, mol, y)
        dx = x[0] - x[1]
        r = np.linalg.norm(dx)
        b = mol.bond_integral(y, x[0], x[1])
        expect = -b * kappa * (r - r0) * np.outer(dx, dx) / r
        np.testing.assert_allclose(flux, expect, atol=1e-12)

    def test_potential_part_symmetric(self):
        mol = Mollifier(0.8)
        rng = np.random.default_rng(7)
        sd = random_states(4, 1, rng)[0]
        sd.p[:] = 0.0  # isolate the potential part
        y = sd.x.mean(axis=0)
        flux = fields.instantaneous_momentum_flux(sd, mol, y)
        np.testing.assert_allclose(flux, flux.T, atol=1e-12)


class TestStressHeat:
    def test_ideal_gas_pressure(self):
        # isotropic Maxwellian at temperature T: sigma = -n T I
        mol = Mollifier(0.8)
        rng = np.random.default_rng(8)
        t = 0.7
        count = 4000
        box = 1.0
        states = []
        for _ in range(count):
            x = rng.uniform(-box, box, size=(4, 3))
            p = rng.normal(scale=np.sqrt(t), size=(4, 3))
            states.append(fields.prepare_state(x, p, np.ones(4),
                                               ZeroModel(4)))
        y = np.zeros(3)
        sigma = fields.stress_tensor(states, mol, y, u=np.zeros(3))
        n_density = 4.0 / (2.0 * box) ** 3
        expect = -n_density * t * np.eye(3)
        # MC error of each entry ~ n T sqrt(2/count-ish); allow 3 sigma
        tol = 3.0 * n_density * t * np.sqrt(3.0 / count) * 3.0
        np.testing.assert_allclose(sigma, expect, atol=tol)

    def test_symmetric_ensemble_zero_heat(self):
        mol = Mollifier(0.8)
        rng = np.random.default_rng(9)
        states = []
        base = random_states(3, 40, rng)
        for sd in base:
            states.append(sd)
            flipped = fields.StateData(x=sd.x, p=-sd.p, masses=sd.masses,
                                       lam_n=sd.lam_n,
                                       pair_derivs=sd.pair_derivs,
                                       pp_grads=sd.pp_grads)
            states.append(flipped)
        y = np.array([0.1, -0.05, 0.0])
        q = fields.heat_flux(states, mol, y, u=np.zeros(3))
        np.testing.assert_allclose(q, 0.0, atol=1e-12)

    def test_kinetic_split_identity(self):
        # <K - W> = rho u u - sigma exactly, the canonical rearrangement
        mol = Mollifier(0.8)
        rng = np.random.default_rng(10)
        states = random_states(3, 9, rng)
        y = np.array([0.05, 0.1, -0.1])
        u = fields.velocity_field(states, mol, y)
        sigma = fields.stress_tensor(states, mol, y)
        flux = np.zeros((3, 3))
        rho = 0.0
        for sd in states:
            flux += fields.instantaneous_momentum_flux(sd, mol, y) \
                / len(states)
            rho += fields.instantaneous_density(sd, mol, y)[0] / len(states)
        np.testing.assert_allclose(flux, rho * np.outer(u, u) - sigma,
                                   atol=1e-10)


class TestFieldGrid:
    def test_single_surface_weight_one(self):
        mol = Mollifier(0.8)
        rng = np.random.default_rng(11)
        states = random_states(3, 4, rng)
        probes = np.array([[0.0, 0.0, 0.0], [0.2, -0.1, 0.1]])
        g1 = fields.field_grid(states, mol, probes, mode="ensemble")
        g2 = fields.field_grid([(1.0, states)], mol, probes, mode="ensemble")
        np.testing.assert_array_equal(g1.sigma, g2.sigma)
        np.testing.assert_array_equal(g1.q, g2.q)

    def test_degenerate_half_half_weighting(self):
        mol = Mollifier(0.8)
        rng = np.random.default_rng(12)
        states = random_states(3, 4, rng)
        probes = np.array([[0.0, 0.0, 0.0]])
        one = fields.field_grid([(1.0, states)], mol, probes,
                                mode="ensemble")
        half = fields.field_grid([(0.5, states), (0.5, states)], mol,
                                 probes, mode="ensemble")
        np.testing.assert_allclose(half.sigma[0], one.sigma[0], atol=1e-14)
        np.testing.assert_allclose(half.q[0], one.q[0], atol=1e-14)

    def test_canonical_equals_presplit_single_state(self):
        # with a one-state ensemble, u = mom/rho pointwise, so the canonical
        # divergences must reproduce the pre-split ones algebraically
        mol = Mollifier(0.9)
        rng = np.random.default_rng(13)
        sd = random_states(3, 1, rng)[0]
        probes = sd.x[0] + np.array([[0.05, 0.02, -0.1],
                                     [0.3, 0.0, 0.1],
                                     [-0.2, 0.15, 0.0]])
        pre = fields.field_grid(sd, mol, probes, mode="per-trajectory")
        can = fields.field_grid([sd], mol, probes, mode="ensemble")
        for i in range(len(probes)):
            scale = max(1.0, np.abs(pre.div_mom_flux[i]).max())
            np.testing.assert_allclose(can.div_mom_flux[i],
                                       pre.div_mom_flux[i],
                                       atol=1e-10 * scale)
            scale = max(1.0, abs(pre.div_energy_flux[i]))
            np.testing.assert_allclose(can.div_energy_flux[i],
                                       pre.div_energy_flux[i],
                                       atol=1e-10 * scale)

    def test_divergences_match_fd(self):
        mol = Mollifier(0.9)
        rng = np.random.default_rng(14)
        states = random_states(3, 3, rng)
        y = np.array([0.1, -0.05, 0.12])
        h = 1e-5

        grid = fields.field_grid(states, mol, [y], mode="ensemble")

        def canonical_fluxes(yy):
            g = fields.field_grid(states, mol, [yy], mode="ensemble")
            rho, u, sigma = g.rho[0], g.u[0], g.sigma[0]
            mom_flux = rho * np.outer(u, u) - sigma
            en_flux = g.energy[0] * u + g.q[0] - sigma.T @ u
            return rho, g.mom[0], mom_flux, en_flux

        div_mom = 0.0
        div_mom_flux = np.zeros(3)
        div_en_flux = 0.0
        grad_rho = np.zeros(3)
        for c in range(3):
            e = np.zeros(3); e[c] = h
            rp, mp, fp, gp_ = canonical_fluxes(y + e)
            rm, mm, fm, gm_ = canonical_fluxes(y - e)
            grad_rho[c] = (rp - rm) / (2 * h)
            div_mom += (mp[c] - mm[c]) / (2 * h)
            div_mom_flux += (fp[c] - fm[c]) / (2 * h)
            div_en_flux += (gp_[c] - gm_[c]) / (2 * h)
        np.testing.assert_allclose(grid.grad_rho[0], grad_rho, atol=1e-6)
        np.testing.assert_allclose(grid.div_mom[0], div_mom, atol=1e-6)
        np.testing.assert_allclose(grid.div_mom_flux[0], div_mom_flux,
                                   atol=1e-6)
        np.testing.assert_allclose(grid.div_energy_flux[0], div_en_flux,
                                   atol=1e-6)

    def test_vacuum_probe_flagged(self):
        mol = Mollifier(0.4)
        rng = np.random.default_rng(15)
        states = random_states(2, 2, rng)
        probes = np.array([[0.0, 0.0, 0.0], [40.0, 40.0, 40.0]])
        grid = fields.field_grid(states, mol, probes, mode="ensemble")
        assert not grid.vacuum[0]
        assert grid.vacuum[1]
        assert grid.rho[1] == 0.0

    def test_support_locality(self):
        mol = Mollifier(0.5)
        rng = np.random.default_rng(16)
        sd = random_states(3, 1, rng)[0]
        far = sd.x.mean(axis=0) + np.array([20.0, 0.0, 0.0])
        grid = fields.field_grid(sd, mol, [far], mode="per-trajectory")
        assert grid.rho[0] == 0.0 and grid.energy[0] == 0.0
        np.testing.assert_array_equal(grid.sigma[0], 0.0)
        np.testing.assert_array_equal(grid.q[0], 0.0)
        np.testing.assert_array_equal(grid.grad_rho[0], 0.0)
        np.testing.assert_array_equal(grid.div_mom_flux[0], 0.0)

    def test_csv_export(self, tmp_path):
        mol = Mollifier(0.8)
        rng = np.random.default_rng(17)
        states = random_states(3, 3, rng)
        probes = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.0]])
        grid = fields.field_grid(states, mol, probes, mode="ensemble")
        path = tmp_path / "fields.csv"
        grid.to_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert "sigma_12" in data.dtype.names
        assert "q_3_err" in data.dtype.names
        np.testing.assert_allclose(data["rho"], grid.rho, rtol=1e-15)


# ---------------------------------------------------------------------------
# physical invariances of the ensemble fields

MASSES = np.array([1.0, 2.0, 1.5, 0.7])
BASE = np.array([[0.0, 0.0, 0.0], [1.1, 0.1, 0.0],
                 [0.2, 1.0, 0.2], [1.0, 1.1, 0.9]])
INVARIANCE_MODELS = {
    "harmonic": lambda: potential.make_scalar_pair_model(
        potential.Harmonic(1.0, 1.0), 4),
    "two_state": lambda: potential.make_two_state_model(
        potential.Morse(1.0, 1.2, 1.0), 0.8,
        potential.GaussianCoupling(0.15, 1.3, 0.6), 4),
}
RTOL = 1e-12
SAMPLE_FIELDS = ("rho", "mom", "energy", "sigma", "q", "grad_rho",
                 "grad_mom", "grad_energy", "div_mom", "div_mom_flux",
                 "div_energy_flux", "u")


def ensemble_configs(seed, count=5):
    rng = np.random.default_rng(seed)
    return [(BASE + rng.normal(scale=0.1, size=BASE.shape),
             rng.normal(scale=0.3, size=BASE.shape)) for _ in range(count)]


def ensemble_grid(model, configs, masses=MASSES):
    probes = np.random.default_rng(0).uniform(0.0, 1.0, size=(8, 3))
    states = [fields.prepare_state(x, p, masses, model) for x, p in configs]
    return fields.field_grid([(1.0, states)], Mollifier(0.9), probes,
                             mode="ensemble")


def assert_field_close(new, old, what):
    """Normwise: |new - old| <= RTOL * max |old|."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    scale = np.max(np.abs(old))
    assert np.max(np.abs(new - old)) <= RTOL * scale, what


@pytest.mark.parametrize("kind", sorted(INVARIANCE_MODELS))
class TestInvariance:
    def test_permutation(self, kind):
        # relabelling the particles of every state changes no field, no
        # divergence and no standard error
        model = fields.AdiabaticFieldModel(INVARIANCE_MODELS[kind](), 0)
        configs = ensemble_configs(21)
        perm = np.array([2, 0, 3, 1])
        grid = ensemble_grid(model, configs)
        moved = ensemble_grid(model, [(x[perm], p[perm])
                                      for x, p in configs], MASSES[perm])
        assert not np.any(grid.vacuum)
        for key in SAMPLE_FIELDS:
            assert_field_close(getattr(moved, key), getattr(grid, key), key)
        for key in grid.stderr:
            assert_field_close(moved.stderr[key], grid.stderr[key],
                               f"stderr {key}")

    def test_galilean_boost(self, kind):
        # p^n -> p^n + M_n U shifts u by U and leaves the peculiar
        # velocities, hence sigma, unchanged.  q is unchanged when the
        # shares are pair-additive (the scalar model): there the share
        # gradients of each pair lie along the pair.  The two-state shares
        # mix pairs through the eigenvectors, so the bond power term does
        # not cancel the W u term and q moves with the boost.
        model = fields.AdiabaticFieldModel(INVARIANCE_MODELS[kind](), 0)
        configs = ensemble_configs(22)
        boost = np.array([0.3, -0.2, 0.5])
        grid = ensemble_grid(model, configs)
        moved = ensemble_grid(model, [(x, p + MASSES[:, None] * boost)
                                      for x, p in configs])
        assert_field_close(moved.u, grid.u + boost, "u")
        assert_field_close(moved.sigma, grid.sigma, "sigma")
        if kind == "harmonic":
            assert_field_close(moved.q, grid.q, "q")
