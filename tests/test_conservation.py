import numpy as np
import pytest

from mdfields import (conservation, dynamics, fields, geometry,
                      nonlinear_eigen, potential)
from mdfields.errors import InvalidParameterError
from mdfields.mollifier import Mollifier


class ZeroModel:
    def __init__(self, n):
        self.n = n

    def surface_data(self, x):
        return np.zeros(self.n), np.zeros((self.n, 3)), \
            np.zeros((self.n, self.n, 3))


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
    """Replace owner.name by a wrapper; returns the list it appends to."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
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
        provider = dynamics.FiniteDifferenceSurface(lambda x, j: 0.0)
        model = ZeroModel(2)
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
        # tau is prepared and the provider's force taken once; each of dt
        # and dt/2 adds the raw moments of two Verlet steps, each closed by
        # the model's surface data, which the fields reuse
        _, provider, model = harmonic_setup(2)
        st = pair_states(1, np.random.default_rng(4))[0]
        raws = count_calls(monkeypatch, fields, "_raw_fields")
        grads = count_calls(monkeypatch, provider, "gradient")
        data = count_calls(monkeypatch, model, "surface_data")
        conservation.per_trajectory_residuals(
            st, provider, model, Mollifier(0.8),
            np.array([[0.5, 0.0, 0.0], [0.3, 0.1, 0.0]]), 1e-4,
            richardson=True)
        assert len(raws) == 5
        assert len(grads) == 1
        assert len(data) == 5

    def test_steps_match_integrate(self):
        # the tau -/+ dt states are bit for bit one integrate step from
        # (x, p) and, time-reversed, from (x, -p)
        _, provider, model = harmonic_setup(2)
        st = pair_states(1, np.random.default_rng(5))[0]
        f = dynamics.force(provider, st.x, st.surface)
        sm, sp = conservation._neighbours(st, model, f, 1e-3)
        fwd = dynamics.integrate(st, 1e-3, 1, provider).state(1)
        back = dynamics.integrate(
            dynamics.PhaseState(x=st.x, p=-st.p, masses=st.masses),
            1e-3, 1, provider).state(1)
        assert np.array_equal(sp.x, fwd.x) and np.array_equal(sp.p, fwd.p)
        assert np.array_equal(sm.x, back.x) and np.array_equal(sm.p, -back.p)

    def test_json_and_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        _, provider, model = harmonic_setup(2)
        st = dynamics.PhaseState(
            x=np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0]]),
            p=np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]]),
            masses=np.ones(2))
        mol = Mollifier(0.6)
        probes = cloud_probes(st.x, 5, rng)
        rep = conservation.per_trajectory_residuals(
            st, provider, model, mol, probes, 1e-4, richardson=False)
        jpath = tmp_path / "resid.json"
        cpath = tmp_path / "resid.csv"
        rep.to_json(jpath)
        rep.to_csv(cpath)
        import json
        data = json.loads(jpath.read_text())
        assert data["mode"] == "per-trajectory"
        assert data["n_probes"] == 5
        rows = np.genfromtxt(cpath, delimiter=",", names=True)
        np.testing.assert_allclose(rows["r_mass"], rep.r_mass, rtol=1e-15)


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
        rng = np.random.default_rng(4)
        _, provider, model = harmonic_setup(2)
        states = []
        for _ in range(16):
            x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]) \
                + rng.normal(scale=0.1, size=(2, 3))
            p = rng.normal(scale=0.2, size=(2, 3))
            states.append(dynamics.PhaseState(x=x, p=p, masses=np.ones(2)))
        mol = Mollifier(0.8)
        probes = np.array([[0.5, 0.0, 0.0], [0.3, 0.2, -0.1]])
        rep = conservation.canonical_residuals(
            [(1.0, states, provider, model)], mol, probes, 1e-4,
            richardson=False)
        assert not np.any(rep.masked)
        assert np.all(np.abs(rep.r_mass) <= 5.0 * rep.stderr_mass)
        assert np.all(np.abs(rep.r_mom) <= 5.0 * rep.stderr_mom)
        assert np.all(np.abs(rep.r_energy) <= 5.0 * rep.stderr_energy)

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

    def test_raw_moments_computed_once_per_state(self, monkeypatch):
        # the field grids and the stderr pass share one set of per-state
        # raw moments: 3 evaluations per state (tau - dt, tau, tau + dt);
        # one provider force at tau opens both Verlet steps, and the
        # model's surface data at tau - dt and tau + dt closes them
        _, provider, model = harmonic_setup(2)
        states = pair_states(5, np.random.default_rng(6))
        calls = count_calls(monkeypatch, fields, "_raw_fields")
        grads = count_calls(monkeypatch, provider, "gradient")
        data = count_calls(monkeypatch, model, "surface_data")
        conservation.canonical_residuals(
            [(0.4, states[:2], provider, model),
             (0.6, states[2:], provider, model)],
            Mollifier(0.8), np.array([[0.5, 0.0, 0.0]]), 1e-4,
            richardson=False)
        assert len(calls) == 3 * len(states)
        assert len(grads) == len(states)
        assert len(data) == 3 * len(states)


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


class TestCorrectedCanonical:
    def test_solves_per_state(self, monkeypatch):
        # N = 4: one provider gradient at tau (6N = 24 solves) and the
        # model's surface data at tau and tau -/+ dt (3 x (1 + 6N) = 75)
        n = 4
        v, states = two_state_states(n, 2, np.random.default_rng(7), MASS)
        provider = dynamics.CorrectedSurface(v, MASS)
        model = fields.CorrectedFieldModel(v, 0, MASS)
        solves = count_calls(monkeypatch, nonlinear_eigen,
                             "solve_nonlinear_eigen")
        grads = count_calls(monkeypatch, provider, "gradient")
        data = count_calls(monkeypatch, model, "surface_data")
        conservation.canonical_residuals(
            [(1.0, states, provider, model)], Mollifier(0.9),
            np.array([[0.6, 0.6, 0.4]]), 1e-4, richardson=False)
        assert len(grads) == len(states)
        assert len(data) == 3 * len(states)
        assert len(solves) == 99 * len(states)


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
