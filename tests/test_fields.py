import dataclasses
import functools

import numpy as np
import pytest

from mdfields import fields, geometry, potential
from mdfields.errors import InvalidParameterError
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


def densities(sd, mol, probes):
    """rho, mom and E of one state at probes (Q, 3)."""
    return fields.densities(sd.x, sd.p, sd.masses, sd.lam_n, mol,
                            np.asarray(probes, dtype=float))


def momentum_flux(sd, mol, y):
    """Pre-split momentum flux K - W of one state at one probe."""
    return -fields.field_grid([(1.0, [sd])], mol, [y]).sigma[0]


class TestInstantaneousDensity:
    def test_single_particle_at_probe(self):
        mol = Mollifier(0.5)
        sd = fields.prepare_state(np.zeros((1, 3)), np.zeros((1, 3)),
                                  np.array([2.0]), ZeroModel(1))
        d = densities(sd, mol, np.zeros((1, 3)))
        assert d["rho"][0] == 2.0 * mol.eval(np.zeros(3))
        np.testing.assert_allclose(d["mom"][0], 0.0)
        assert d["energy"][0] == 0.0

    def test_far_probe_vanishes(self):
        mol = Mollifier(0.5)
        rng = np.random.default_rng(0)
        sd = random_states(3, 1, rng)[0]
        far = sd.x.max(axis=0) + 10.0
        d = densities(sd, mol, [far])
        assert d["rho"][0] == 0.0 and d["energy"][0] == 0.0
        np.testing.assert_allclose(d["mom"][0], 0.0)

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
        rho = densities(sd, mol, grid)["rho"]
        dv = np.prod([(hi[a] - lo[a]) / (npts - 1) for a in range(3)])
        total = np.sum(rho) * dv
        assert abs(total - sd.masses.sum()) <= 1e-3 * sd.masses.sum()

    def test_energy_includes_lambda_shares(self):
        mol = Mollifier(0.6)
        rng = np.random.default_rng(2)
        sd = random_states(2, 1, rng)[0]
        y = sd.x[0]
        en = densities(sd, mol, [y])["energy"][0]
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
        grid = fields.field_grid([(1.0, states)], mol, [y], mode="ensemble")
        np.testing.assert_allclose(grid.u[0], w, atol=1e-13)

    def test_vacuum_flagged(self):
        mol = Mollifier(0.3)
        rng = np.random.default_rng(4)
        states = random_states(2, 2, rng)
        grid = fields.field_grid([(1.0, states)], mol, [np.full(3, 50.0)],
                                 mode="ensemble")
        assert grid.vacuum[0]

    def test_peculiar_momentum_vanishes(self):
        # <sum_n M_n eta v^n> = 0 exactly by the definition of u
        mol = Mollifier(0.8)
        rng = np.random.default_rng(5)
        states = random_states(3, 7, rng)
        y = np.array([0.1, 0.0, -0.1])
        u = fields.field_grid([(1.0, states)], mol, [y], mode="ensemble").u[0]
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
        flux = momentum_flux(sd, mol, y)
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
        flux = momentum_flux(sd, mol, y)
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
        flux = momentum_flux(sd, mol, y)
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
        # per-trajectory mode reports the mean sigma at u = 0
        sigma = fields.field_grid([(1.0, states)], mol, [np.zeros(3)]).sigma[0]
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
        q = fields.field_grid([(1.0, states)], mol, [y]).q[0]  # at u = 0
        np.testing.assert_allclose(q, 0.0, atol=1e-12)

    def test_kinetic_split_identity(self):
        # <K - W> = rho u u - sigma exactly, the canonical rearrangement
        mol = Mollifier(0.8)
        rng = np.random.default_rng(10)
        states = random_states(3, 9, rng)
        y = np.array([0.05, 0.1, -0.1])
        grid = fields.field_grid([(1.0, states)], mol, [y], mode="ensemble")
        u, sigma = grid.u[0], grid.sigma[0]
        flux = np.zeros((3, 3))
        rho = 0.0
        for sd in states:
            flux += momentum_flux(sd, mol, y) / len(states)
            rho += densities(sd, mol, [y])["rho"][0] / len(states)
        np.testing.assert_allclose(flux, rho * np.outer(u, u) - sigma,
                                   atol=1e-10)


# ---------------------------------------------------------------------------
# the canonical-vs-pre-split identity

def identity_inputs():
    """(groups, probes) pairs: one harmonic state, and a two-group ensemble
    of two-state surface states with distinct masses."""
    sd = random_states(3, 1, np.random.default_rng(13))[0]
    single = ([(1.0, [sd])], sd.x[0] + np.array([[0.05, 0.02, -0.1],
                                                  [0.3, 0.0, 0.1],
                                                  [-0.2, 0.15, 0.0]]))
    rng = np.random.default_rng(17)
    v = INVARIANCE_MODELS["two_state"]()
    groups = [(wt, [fields.prepare_state(x, p, MASSES,
                                         fields.AdiabaticFieldModel(v, j))
                    for x, p in ensemble_configs(seed, count)])
              for j, (wt, seed, count) in enumerate(((0.35, 1, 3),
                                                     (0.65, 2, 4)))]
    return [single, (groups, rng.uniform(0.0, 1.0, size=(10, 3)))]


def assert_canonical_equals_presplit(groups, probes):
    """Canonical divergences equal the pre-split ones within 1e-12 of each
    law's largest pre-split divergence."""
    pre = fields.field_grid(groups, Mollifier(0.9), probes)
    can = fields.field_grid(groups, Mollifier(0.9), probes, mode="ensemble")
    assert not np.any(can.vacuum)
    for key in ("div_mom_flux", "div_energy_flux"):
        new, old = getattr(can, key), getattr(pre, key)
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old)), key


# each planted defect drops one term of the canonical sigma or q
PLANTED_DEFECTS = {
    "sigma_without_w": ("_sigma_from_mean",
                        lambda f, mean, u: f(mean, u) - mean["w"]),
    "q_without_w_u": ("_q_from_mean", lambda f, mean, u: f(mean, u)
                      - np.einsum("...lj,...j->...l", mean["w"], u)),
}


def plant_defect(monkeypatch, defect):
    name, broken = PLANTED_DEFECTS[defect]
    monkeypatch.setattr(fields, name,
                        functools.partial(broken, getattr(fields, name)))


class TestFieldGrid:
    def test_single_surface_weight_one(self):
        # a second surface of weight zero leaves the weight-one surface's
        # fields unchanged, bit for bit
        mol = Mollifier(0.8)
        rng = np.random.default_rng(11)
        states = random_states(3, 4, rng)
        probes = np.array([[0.0, 0.0, 0.0], [0.2, -0.1, 0.1]])
        g1 = fields.field_grid([(1.0, states), (0.0, states[:1])], mol,
                               probes, mode="ensemble")
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
        # u = mom/rho of the mean makes the canonical divergences an exact
        # rearrangement of the pre-split ones, for one state as for a
        # two-group ensemble of many
        for groups, probes in identity_inputs():
            assert_canonical_equals_presplit(groups, probes)

    @pytest.mark.parametrize("defect", sorted(PLANTED_DEFECTS))
    def test_identity_catches_planted_defects(self, monkeypatch, defect):
        plant_defect(monkeypatch, defect)
        for groups, probes in identity_inputs():
            with pytest.raises(AssertionError):
                assert_canonical_equals_presplit(groups, probes)

    def test_complex_step_size(self, monkeypatch):
        # the divergences do not depend on the step beyond a few ulps, and
        # no complex value reaches the grid
        groups, probes = identity_inputs()[1]

        def grid():
            return fields.field_grid(groups, Mollifier(0.9), probes,
                                     mode="ensemble")

        ref = grid()
        monkeypatch.setattr(fields, "CS_STEP", fields.CS_STEP * 1e-10)
        small = grid()
        for key in ("div_mom_flux", "div_energy_flux"):
            new, old = getattr(small, key), getattr(ref, key)
            assert np.max(np.abs(new - old)) <= 8 * np.spacing(
                np.max(np.abs(old))), key
        for f in dataclasses.fields(fields.ProbeGrid):
            value = getattr(ref, f.name)
            if isinstance(value, np.ndarray):
                assert value.dtype == (bool if f.name == "vacuum"
                                       else np.float64), f.name

    def test_divergences_match_fd(self):
        mol = Mollifier(0.9)
        rng = np.random.default_rng(14)
        states = random_states(3, 3, rng)
        y = np.array([0.1, -0.05, 0.12])
        h = 1e-5

        grid = fields.field_grid([(1.0, states)], mol, [y], mode="ensemble")

        def canonical_fluxes(yy):
            g = fields.field_grid([(1.0, states)], mol, [yy], mode="ensemble")
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

    def test_presplit_divergences_shared(self):
        # on a per-state stack, item k is the single call on state k; a
        # per-trajectory grid's div_* are the call on its weighted mean,
        # all bit for bit
        mol = Mollifier(0.9)
        rng = np.random.default_rng(18)
        states = random_states(3, 4, rng)
        probes = rng.uniform(-0.5, 0.5, size=(6, 3))
        groups = [(0.3, states[:1]), (0.7, states[1:])]
        grid = fields.field_grid(groups, mol, probes)
        raws = [fields._raw_fields(fields._stack(group), mol, probes)
                for _, group in groups]
        stacked = fields.presplit_divergences(grid.raws[1])
        for k, sd in enumerate(states):
            mo = fields._raw_fields(fields._stack([sd]), mol, probes)
            for law, div in fields.presplit_divergences(mo).items():
                np.testing.assert_array_equal(stacked[law][k], div[0])
        w = fields.state_weights(groups)
        mean = fields.presplit_divergences(
            {k: fields.weighted_mean(w, np.concatenate([r[k] for r in raws]))
             for k in raws[0]})
        np.testing.assert_array_equal(grid.div_mom, mean["mass"])
        np.testing.assert_array_equal(grid.div_mom_flux, mean["mom"])
        np.testing.assert_array_equal(grid.div_energy_flux, mean["energy"])

    def test_empty_ensemble_rejected(self):
        # an ensemble without states, or with a group without states, has
        # no mean to take
        states = random_states(2, 2, np.random.default_rng(19))
        probes = np.zeros((1, 3))
        for ensembles in ([], [(1.0, [])], [(0.5, states), (0.5, [])]):
            with pytest.raises(InvalidParameterError):
                fields.field_grid(ensembles, Mollifier(0.8), probes,
                                  mode="ensemble")

    def test_vacuum_probe_flagged(self):
        mol = Mollifier(0.4)
        rng = np.random.default_rng(15)
        states = random_states(2, 2, rng)
        probes = np.array([[0.0, 0.0, 0.0], [40.0, 40.0, 40.0]])
        grid = fields.field_grid([(1.0, states)], mol, probes, mode="ensemble")
        assert not grid.vacuum[0]
        assert grid.vacuum[1]
        assert grid.rho[1] == 0.0

    def test_support_locality(self):
        mol = Mollifier(0.5)
        rng = np.random.default_rng(16)
        sd = random_states(3, 1, rng)[0]
        far = sd.x.mean(axis=0) + np.array([20.0, 0.0, 0.0])
        grid = fields.field_grid([(1.0, [sd])], mol, [far],
                                 mode="per-trajectory")
        assert grid.rho[0] == 0.0 and grid.energy[0] == 0.0
        np.testing.assert_array_equal(grid.sigma[0], 0.0)
        np.testing.assert_array_equal(grid.q[0], 0.0)
        np.testing.assert_array_equal(grid.grad_rho[0], 0.0)
        np.testing.assert_array_equal(grid.div_mom_flux[0], 0.0)


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


PROBES = np.random.default_rng(0).uniform(0.0, 1.0, size=(8, 3))


def ensemble_grid(model, configs, masses=MASSES, probes=PROBES):
    states = [fields.prepare_state(x, p, masses, model) for x, p in configs]
    return fields.field_grid([(1.0, states)], Mollifier(0.9), probes,
                             mode="ensemble")


def boost_shift(states, mol, probes, boost):
    """The heat-flux change under p^n -> p^n + M_n U, as the fields
    docstring writes it: <sum_pairs B_k dx_k [U.(grad_{x^j} lambda^i -
    grad_{x^i} lambda^j) + (dx_k.U) lambda'_k / r_k]>."""
    total = 0.0
    for sd in states:
        iu, ju = geometry.pair_indices(len(sd.x))
        dx = sd.x[iu] - sd.x[ju]
        r = np.linalg.norm(dx, axis=1)
        b, _ = mol.bond_weights(probes, sd.x[iu], sd.x[ju])
        bracket = (sd.pp_grads[iu, ju] - sd.pp_grads[ju, iu]) @ boost \
            + (dx @ boost) * sd.pair_derivs / r
        total = total + b @ (dx * bracket[:, None])
    return total / len(states)


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
        # velocities, hence sigma, unchanged.  q moves by the bond terms
        # of boost_shift.  They vanish when the shares are pair-additive
        # (the scalar model): there the share gradients of each pair lie
        # along the pair.  The two-state shares mix pairs through the
        # eigenvectors, so the bond power term does not cancel the W u
        # term and q moves with the boost.
        model = fields.AdiabaticFieldModel(INVARIANCE_MODELS[kind](), 0)
        configs = ensemble_configs(22)
        boost = np.array([0.3, -0.2, 0.5])
        grid = ensemble_grid(model, configs)
        moved = ensemble_grid(model, [(x, p + MASSES[:, None] * boost)
                                      for x, p in configs])
        assert_field_close(moved.u, grid.u + boost, "u")
        assert_field_close(moved.sigma, grid.sigma, "sigma")
        shift = boost_shift([fields.prepare_state(x, p, MASSES, model)
                             for x, p in configs], Mollifier(0.9), PROBES,
                            boost)
        if kind == "harmonic":
            assert np.max(np.abs(shift)) <= RTOL * np.max(np.abs(grid.q))
            assert_field_close(moved.q, grid.q, "q")
        else:
            assert_field_close(moved.q - grid.q, shift, "q shift")

    def test_rigid_motion(self, kind):
        # rotating and translating every x, p and probe: rho and E move as
        # scalars, u, mom and q as vectors and sigma as R sigma R^T
        model = fields.AdiabaticFieldModel(INVARIANCE_MODELS[kind](), 0)
        configs = ensemble_configs(23)
        q, r = np.linalg.qr(np.random.default_rng(24).normal(size=(3, 3)))
        rot = q * np.sign(np.diag(r))
        rot *= np.linalg.det(rot)     # a proper rotation, det +1
        shift = np.array([0.4, -1.3, 2.2])
        grid = ensemble_grid(model, configs)
        moved = ensemble_grid(model, [(x @ rot.T + shift, p @ rot.T)
                                      for x, p in configs],
                              probes=PROBES @ rot.T + shift)
        assert not np.any(grid.vacuum)
        for key in ("rho", "energy"):
            assert_field_close(getattr(moved, key), getattr(grid, key), key)
        for key in ("u", "mom", "q"):
            assert_field_close(getattr(moved, key), getattr(grid, key)
                               @ rot.T, key)
        assert_field_close(moved.sigma, rot @ grid.sigma @ rot.T, "sigma")


class TestStderr:
    @pytest.mark.parametrize("kind", sorted(INVARIANCE_MODELS))
    def test_q_deviation_is_delta_method(self, kind):
        # each state's q deviation from the mean is the derivative of q at
        # the mean moved towards that state, mean + eps (m_s - mean), with
        # u recomputed from the moved mean: a central difference in eps
        model = fields.AdiabaticFieldModel(INVARIANCE_MODELS[kind](), 0)
        grid = ensemble_grid(model, ensemble_configs(25))
        w, moments = grid.raws
        mean = {k: fields.weighted_mean(w, v) for k, v in moments.items()}
        q_states = fields._state_values(grid)["q"]
        assert not np.any(grid.vacuum)
        np.testing.assert_allclose(fields.weighted_mean(w, q_states), grid.q,
                                   rtol=0, atol=1e-12 * np.abs(grid.q).max())

        def q_at(s, eps):
            moved = {k: mean[k] + eps * (moments[k][s] - mean[k])
                     for k in mean}
            return fields._q_from_mean(moved,
                                       moved["mom"] / moved["rho"][:, None])

        # truncation about eps^2, roundoff about 1e-16 / eps
        eps = 1e-5
        for s in range(len(w)):
            fd = (q_at(s, eps) - q_at(s, -eps)) / (2 * eps)
            dev = q_states[s] - grid.q
            assert np.max(np.abs(dev - fd)) <= 1e-8 * np.max(np.abs(fd)), s

    def test_only_q_error_moves(self):
        # the delta-method term of q leaves the other errors as they were
        model = fields.AdiabaticFieldModel(INVARIANCE_MODELS["two_state"](),
                                           0)
        grid = ensemble_grid(model, ensemble_configs(26))
        w, moments = grid.raws
        plug_in = {"rho": moments["rho"], "mom": moments["mom"],
                   "energy": moments["energy"],
                   "sigma": fields._sigma_from_mean(moments, grid.u),
                   "q": fields._q_from_mean(moments, grid.u)}
        for key, vals in plug_in.items():
            old = np.sqrt(fields.weighted_mean_variance(w, vals))
            if key == "q":
                assert not np.allclose(grid.stderr[key], old)
            else:
                np.testing.assert_array_equal(grid.stderr[key], old)
