import inspect

import numpy as np
import pytest

from mdfields import (conservation, dynamics, fields, geometry,
                      nonlinear_eigen, potential)
from mdfields.errors import IdentityGapError, InvalidParameterError
from mdfields.mollifier import Mollifier
from test_fields import PLANTED_DEFECTS, plant_defect


class ZeroModel:
    """The zero surface: provider and model at once, at one configuration
    or a stack."""

    def __init__(self, n):
        self.n = n
        self.j = 0

    def at(self, x, j, fields=True):
        lead = np.shape(x)[:-2]
        return dynamics.SurfacePoint(
            np.zeros(lead + (self.n,)), np.zeros(lead + (self.n, 3)),
            np.zeros(lead + (self.n, self.n, 3)) if fields else None,
            np.zeros(lead) if lead else 0.0)

    def gradient(self, x, j):
        return self.at(x, j, fields=False).grad


def harmonic_setup(n, kappa=1.0, r0=1.0):
    v = potential.make_scalar_pair_model(potential.Harmonic(kappa, r0), n)
    provider = dynamics.AdiabaticSurface(v, gap_tol=0.0)
    model = fields.AdiabaticFieldModel(v, 0, gap_tol=0.0)
    return v, provider, model


def pair_states(count, rng):
    """Two-particle states near the harmonic rest length."""
    return [dynamics.PhaseState(
        x=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        + rng.normal(scale=0.1, size=(2, 3)),
        p=rng.normal(scale=0.2, size=(2, 3)), masses=np.ones(2))
        for _ in range(count)]


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper; returns the list to which it
    appends the arguments of each call, by parameter name."""
    calls = []
    fn = getattr(owner, name)
    signature = inspect.signature(fn)

    def counted(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def cloud_probes(x, count, rng, margin=0.3):
    lo = x.min(axis=0) - margin
    hi = x.max(axis=0) + margin
    return rng.uniform(lo, hi, size=(count, 3))


class TestPerTrajectory:
    def test_static_state_zero_residual(self):
        # p = 0 at a potential minimum: nothing moves, all terms vanish
        _, provider, model = harmonic_setup(2)
        st = dynamics.PhaseState(
            x=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            p=np.zeros((2, 3)), masses=np.ones(2))
        mol = Mollifier(0.6)
        probes = np.array([[0.2, 0.1, 0.0], [0.8, -0.1, 0.1]])
        rep = conservation.per_trajectory_residuals(
            st, provider, model, mol, probes, 1e-4, richardson=False)
        norms = rep.max_norms()
        assert norms["mass"] <= 1e-12
        assert norms["mom"] <= 1e-12
        assert norms["energy"] <= 1e-12

    def test_free_particles(self):
        provider = model = ZeroModel(2)
        rng = np.random.default_rng(0)
        st = dynamics.PhaseState(x=rng.normal(scale=0.3, size=(2, 3)),
                                 p=rng.normal(scale=0.4, size=(2, 3)),
                                 masses=np.ones(2))
        mol = Mollifier(0.7)
        probes = cloud_probes(st.x, 10, rng)
        rep = conservation.per_trajectory_residuals(
            st, provider, model, mol, probes, 1e-4, richardson=False)
        assert rep.relative_max()["mass"] <= 1e-8

    def test_harmonic_residuals_and_richardson(self):
        rng = np.random.default_rng(1)
        _, provider, model = harmonic_setup(3)
        while True:
            x = rng.normal(scale=0.6, size=(3, 3))
            if geometry.pair_distances(x).min() > 0.5:
                break
        st = dynamics.PhaseState(x=x, p=rng.normal(scale=0.3, size=(3, 3)),
                                 masses=np.ones(3))
        mol = Mollifier(0.8)
        probes = cloud_probes(x, 20, rng)
        rep = conservation.per_trajectory_residuals(
            st, provider, model, mol, probes, 1e-4)
        rel = rep.relative_max()
        assert rel["mass"] <= 1e-6
        assert rel["mom"] <= 1e-6
        assert rel["energy"] <= 1e-6
        # central differencing: halving dt_check divides residuals by ~4
        for law in ("mass", "mom", "energy"):
            assert 1.5 <= rep.richardson_order[law] <= 2.5

    def test_central_state_shared_by_richardson(self, monkeypatch):
        # tau is evaluated with its share gradients, lifted and
        # bond-integrated once, and the provider checked there once; each
        # of dt and dt/2 adds the densities of two Verlet steps, each
        # closed by the model without share gradients
        _, provider, model = harmonic_setup(2)
        st = pair_states(1, np.random.default_rng(4))[0]
        raws = count_calls(monkeypatch, fields, "_raw_fields")
        bonds = count_calls(monkeypatch, Mollifier, "bond_weights")
        lifts = count_calls(monkeypatch, geometry,
                            "lift_gradient_to_distances")
        grads = count_calls(monkeypatch, provider, "gradient")
        points = count_calls(monkeypatch, model, "at")
        pps = count_calls(monkeypatch, potential,
                          "per_particle_gradients_all")
        conservation.per_trajectory_residuals(
            st, provider, model, Mollifier(0.8),
            np.array([[0.5, 0.0, 0.0], [0.3, 0.1, 0.0]]), 1e-4,
            richardson=True)
        assert len(raws) == 1
        assert len(bonds) == 1
        assert len(lifts) == 1
        assert len(grads) == 1
        assert len(points) == 5
        assert len(pps) == 1

    def test_steps_match_integrate(self):
        # the tau -/+ dt densities are bit for bit those of one integrate
        # step from (x, p) and, time-reversed, from (x, -p)
        _, provider, model = harmonic_setup(2)
        st = pair_states(1, np.random.default_rng(5))[0]
        mol = Mollifier(0.8)
        probes = cloud_probes(st.x, 6, np.random.default_rng(6))
        f = -provider.gradient(st.x, st.surface)
        centre = (st.x[None], st.p[None], st.masses[None], f[None])
        dm, dp = conservation._neighbours(centre, model, 1e-3, mol, probes)
        fwd = dynamics.integrate(st, 1e-3, 1, provider).state(1)
        back = dynamics.integrate(
            dynamics.PhaseState(x=st.x, p=-st.p, masses=st.masses),
            1e-3, 1, provider).state(1)
        for dens, x, p in ((dp, fwd.x, fwd.p), (dm, back.x, -back.p)):
            expect = fields.densities(x, p, st.masses,
                                      model.surface_data(x)[0], mol, probes)
            assert dens.keys() == expect.keys()
            for key in expect:
                assert np.array_equal(dens[key][0], expect[key]), key


def ensemble_report():
    """Canonical report of 16 harmonic pair states at two probes."""
    rng = np.random.default_rng(4)
    _, provider, model = harmonic_setup(2)
    states = []
    for _ in range(16):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]) \
            + rng.normal(scale=0.1, size=(2, 3))
        p = rng.normal(scale=0.2, size=(2, 3))
        states.append(dynamics.PhaseState(x=x, p=p, masses=np.ones(2)))
    probes = np.array([[0.5, 0.0, 0.0], [0.3, 0.2, -0.1]])
    return conservation.canonical_residuals(
        [(1.0, states, provider, model)], Mollifier(0.8), probes, 1e-4,
        richardson=False)


class TestCanonical:
    def test_single_trajectory_matches_per_trajectory(self):
        rng = np.random.default_rng(3)
        _, provider, model = harmonic_setup(3)
        while True:
            x = rng.normal(scale=0.6, size=(3, 3))
            if geometry.pair_distances(x).min() > 0.5:
                break
        st = dynamics.PhaseState(x=x, p=rng.normal(scale=0.3, size=(3, 3)),
                                 masses=np.ones(3))
        mol = Mollifier(0.8)
        probes = cloud_probes(x, 8, rng)
        pre = conservation.per_trajectory_residuals(
            st, provider, model, mol, probes, 1e-4, richardson=False)
        can = conservation.canonical_residuals(
            [(1.0, [st], provider, model)], mol, probes, 1e-4,
            richardson=False)
        scale = max(pre.scales["mom"], 1.0)
        np.testing.assert_allclose(can.r_mass, pre.r_mass,
                                   atol=1e-10 * max(pre.scales["mass"], 1.0))
        np.testing.assert_allclose(can.r_mom, pre.r_mom, atol=1e-10 * scale)
        np.testing.assert_allclose(can.r_energy, pre.r_energy,
                                   atol=1e-10 * max(pre.scales["energy"], 1))

    def test_ensemble_within_stderr(self):
        rep = ensemble_report()
        assert not np.any(rep.masked)
        assert np.all(np.abs(rep.r_mass) <= 5.0 * rep.stderr_mass)
        assert np.all(np.abs(rep.r_mom) <= 5.0 * rep.stderr_mom)
        assert np.all(np.abs(rep.r_energy) <= 5.0 * rep.stderr_energy)

    @pytest.mark.parametrize("defect", sorted(PLANTED_DEFECTS))
    def test_identity_gap_raises(self, monkeypatch, defect):
        # a canonical residual that is not the weighted mean of the
        # per-state pre-split ones is a defect in sigma or q
        plant_defect(monkeypatch, defect)
        with pytest.raises(IdentityGapError):
            ensemble_report()

    def test_vacuum_probes_masked(self):
        rng = np.random.default_rng(5)
        _, provider, model = harmonic_setup(2)
        st = dynamics.PhaseState(
            x=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            p=rng.normal(scale=0.1, size=(2, 3)), masses=np.ones(2))
        mol = Mollifier(0.7)
        probes = np.array([[0.5, 0.0, 0.0], [30.0, 0.0, 0.0]])
        rep = conservation.canonical_residuals(
            [(1.0, [st], provider, model)], mol, probes, 1e-4,
            richardson=False)
        assert not rep.masked[0]
        assert rep.masked[1]

    def test_neighbour_vacuum_masked(self):
        # the density at the second probe is above RHO_FLOOR at tau and
        # below it at tau + dt, as the particle moves away: masked in
        # canonical mode only
        provider = model = ZeroModel(2)
        st = dynamics.PhaseState(
            x=np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]),
            p=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            masses=np.ones(2))
        mol = Mollifier(0.7)
        # eta = a exp(-1/(1 - z^2)) = 1e3 RHO_FLOOR behind the particle
        a = mol.normalization * mol.epsilon ** -3
        z = np.sqrt(1.0 - 1.0 / np.log(a / (1e3 * fields.RHO_FLOOR)))
        probes = np.array([[0.3, 0.0, 0.0], [-z * mol.epsilon, 0.0, 0.0]])
        can = conservation.canonical_residuals(
            [(1.0, [st], provider, model)], mol, probes, 1e-2,
            richardson=False)
        pre = conservation.per_trajectory_residuals(
            st, provider, model, mol, probes, 1e-2, richardson=False)
        assert can.masked.tolist() == [False, True]
        assert not np.any(pre.masked)

    def test_empty_ensemble_rejected(self):
        _, provider, model = harmonic_setup(2)
        st = pair_states(1, np.random.default_rng(7))[0]
        for groups in ([], [(0.5, [st], provider, model),
                            (0.5, [], provider, model)]):
            with pytest.raises(InvalidParameterError):
                conservation.canonical_residuals(
                    groups, Mollifier(0.8), np.array([[0.5, 0.0, 0.0]]),
                    1e-4, richardson=False)

    def test_all_vacuum_richardson(self):
        # with every probe masked there is nothing to extrapolate: the
        # orders are nan, as for zero residuals, and the norms are zero
        rng = np.random.default_rng(5)
        _, provider, model = harmonic_setup(2)
        st = dynamics.PhaseState(
            x=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            p=rng.normal(scale=0.1, size=(2, 3)), masses=np.ones(2))
        probes = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        rep = conservation.canonical_residuals(
            [(1.0, [st], provider, model)], Mollifier(0.7), probes, 1e-4,
            richardson=True)
        assert np.all(rep.masked)
        assert rep.max_norms() == {"mass": 0.0, "mom": 0.0, "energy": 0.0}
        assert all(np.isnan(v) for v in rep.richardson_order.values())

    def test_all_vacuum_per_trajectory_raises(self):
        # per-trajectory mode masks nothing, so a check of nothing would
        # read as zero residuals on zero scales; it raises instead
        rng = np.random.default_rng(5)
        _, provider, model = harmonic_setup(2)
        st = dynamics.PhaseState(
            x=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            p=rng.normal(scale=0.1, size=(2, 3)), masses=np.ones(2))
        probes = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        with pytest.raises(InvalidParameterError, match="every probe"):
            conservation.per_trajectory_residuals(
                st, provider, model, Mollifier(0.7), probes, 1e-4)
        # one probe in the support is a check
        rep = conservation.per_trajectory_residuals(
            st, provider, model, Mollifier(0.7),
            np.vstack([probes, [[0.5, 0.0, 0.0]]]), 1e-4)
        assert rep.scales["mass"] > 0.0

    def test_raw_moments_computed_once_per_state(self, monkeypatch):
        # the field grid at tau and the stderr pass share one set of
        # per-state raw moments, from one pass over every state with one
        # bond quadrature, and one lift per state; tau - dt and tau + dt
        # need only densities.  Each configuration is evaluated once, a
        # group's states as one stack: at tau, the only evaluation with
        # share gradients, which gives the force that opens both Verlet
        # steps, and at tau - dt and at tau + dt, which close them; the
        # provider is checked once per group
        _, provider, model = harmonic_setup(2)
        states = pair_states(5, np.random.default_rng(6))
        calls = count_calls(monkeypatch, fields, "_raw_fields")
        bonds = count_calls(monkeypatch, Mollifier, "bond_weights")
        lifts = count_calls(monkeypatch, geometry,
                            "lift_gradient_to_distances")
        grads = count_calls(monkeypatch, provider, "gradient")
        points = count_calls(monkeypatch, model, "at")
        pps = count_calls(monkeypatch, potential,
                          "per_particle_gradients_all")
        conservation.canonical_residuals(
            [(0.4, states[:2], provider, model),
             (0.6, states[2:], provider, model)],
            Mollifier(0.8), np.array([[0.5, 0.0, 0.0]]), 1e-4,
            richardson=False)
        assert [len(c["sd"].x) for c in calls] == [len(states)]
        assert [len(c["a"]) for c in bonds] == [len(states)]  # one pair each
        assert len(lifts) == len(states)
        assert len(grads) == 2
        # at tau per group, then tau - dt and tau + dt per group
        assert [len(c["x"]) for c in points] == [2, 3, 2, 2, 3, 3]
        assert [len(c["x"]) for c in pps] == [2, 3]

    def test_field_stderr_not_computed(self, monkeypatch):
        # the report's standard errors come from the raw stacks; the
        # ensemble grid at tau never computes its own
        _, provider, model = harmonic_setup(2)
        states = pair_states(3, np.random.default_rng(10))
        calls = count_calls(monkeypatch, fields, "_stderr")
        rep = conservation.canonical_residuals(
            [(1.0, states, provider, model)], Mollifier(0.8),
            np.array([[0.5, 0.0, 0.0]]), 1e-4, richardson=True)
        assert np.all(np.isfinite(rep.stderr_mass))
        assert len(calls) == 0


MASS = 1.0e3


def two_state_states(n, count, rng, masses=1.0):
    """Well-separated states of the two-state model on surface 0."""
    base = np.array([[0.0, 0.0, 0.0], [1.1, 0.1, 0.0],
                     [0.2, 1.0, 0.2], [1.0, 1.1, 0.9]])[:n]
    v = potential.make_two_state_model(
        potential.Morse(1.0, 1.2, 1.0), 0.8,
        potential.GaussianCoupling(0.15, 1.3, 0.6), n)
    states = [dynamics.PhaseState(
        x=base + rng.normal(scale=0.05, size=(n, 3)),
        p=rng.normal(scale=0.05, size=(n, 3)), masses=np.full(n, masses))
        for _ in range(count)]
    return v, states


class TestCanonicalStderr:
    def test_stderr_definition(self):
        # each law's standard error adds in quadrature the weighted-mean
        # errors of the per-state rates, from Verlet neighbours rebuilt
        # here, and of the per-state pre-split divergences at tau
        v, states = two_state_states(3, 5, np.random.default_rng(11))
        provider = dynamics.AdiabaticSurface(v)
        model = fields.AdiabaticFieldModel(v, 0)
        mol, dt = Mollifier(0.9), 1e-4
        probes = cloud_probes(states[0].x, 8, np.random.default_rng(12))
        groups = [(0.4, states[:2]), (0.6, states[2:])]
        rep = conservation.canonical_residuals(
            [(wt, sts, provider, model) for wt, sts in groups], mol, probes,
            dt, richardson=False)

        def at(x):
            return model.at(x, 0, fields=False)

        minus, plus = [], []
        for s in states:
            f, m = -model.at(s.x, 0).grad, s.masses[:, None]
            xm, pm, dm = dynamics.verlet_step(at, s.x, -s.p, m, f, dt)
            xp, pp, dp = dynamics.verlet_step(at, s.x, s.p, m, f, dt)
            minus.append(fields.densities(xm, -pm, s.masses, dm.lam_n, mol,
                                          probes))
            plus.append(fields.densities(xp, pp, s.masses, dp.lam_n, mol,
                                         probes))
        grid = fields.field_grid(
            [(wt, [fields.prepare_state(s.x, s.p, s.masses, model)
                   for s in sts]) for wt, sts in groups],
            mol, probes, mode="ensemble")
        w, stack = grid.raws
        div = fields.presplit_divergences(stack)
        assert not np.all(rep.masked)
        for law, key in conservation.LAWS:
            rate = np.stack([(dp[key] - dm[key]) / (2 * dt)
                             for dm, dp in zip(minus, plus)])
            expect = np.sqrt(fields.weighted_mean_variance(w, rate)
                             + fields.weighted_mean_variance(w, div[law]))
            np.testing.assert_array_equal(getattr(rep, f"stderr_{law}"),
                                          expect)


class TestCorrectedCanonical:
    def test_solves_per_state(self, monkeypatch):
        # one solve per evaluated configuration: the model at tau and tau
        # -/+ dt, and the provider gradient on the group's first state;
        # share gradients only at tau.  The model's configurations are
        # solved as stacks: one stacked solve at tau and one each way
        n = 4
        v, states = two_state_states(n, 2, np.random.default_rng(7), MASS)
        provider = dynamics.CorrectedSurface(v, MASS)
        model = fields.CorrectedFieldModel(v, 0, MASS)
        solves = count_calls(monkeypatch, nonlinear_eigen,
                             "solve_nonlinear_eigen")
        derivs = count_calls(monkeypatch, nonlinear_eigen,
                             "fixed_point_derivatives")
        grads = count_calls(monkeypatch, provider, "gradient")
        points = count_calls(monkeypatch, model, "at")
        conservation.canonical_residuals(
            [(1.0, states, provider, model)], Mollifier(0.9),
            np.array([[0.6, 0.6, 0.4]]), 1e-4, richardson=False)
        assert len(grads) == 1
        assert sum(configs(c["x"]) for c in points) == 3 * len(states)
        assert sum(configs(c["x"]) for c in solves) == 3 * len(states) + 1
        assert sum(configs(c["x"]) for c in derivs
                   if c["shares"]) == len(states)
        # the model's stacks and the provider's single configuration
        assert [np.ndim(c["x"]) for c in solves] == [3, 2, 3, 3]


def configs(x):
    """The number of configurations in x, one (N, 3) or a stack."""
    return 1 if np.ndim(x) == 2 else len(x)


class TestSurfaceMismatch:
    """The provider opens the Verlet steps and the model closes them, so
    the two must describe one surface."""

    def check(self, provider, model, states):
        with pytest.raises(InvalidParameterError):
            conservation.canonical_residuals(
                [(1.0, states, provider, model)], Mollifier(0.9),
                np.array([[0.6, 0.6, 0.4]]), 1e-4, richardson=False)
        with pytest.raises(InvalidParameterError):
            conservation.per_trajectory_residuals(
                states[0], provider, model, Mollifier(0.9),
                np.array([[0.6, 0.6, 0.4]]), 1e-4, richardson=False)

    def test_model_on_another_surface(self):
        v, states = two_state_states(4, 2, np.random.default_rng(8))
        self.check(dynamics.AdiabaticSurface(v),
                   fields.AdiabaticFieldModel(v, 1), states)

    def test_provider_with_another_mass(self):
        v, states = two_state_states(2, 1, np.random.default_rng(9), MASS)
        self.check(dynamics.CorrectedSurface(v, 2.0 * MASS),
                   fields.CorrectedFieldModel(v, 0, MASS), states)
