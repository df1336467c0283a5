import numpy as np
import pytest

from mdfields import dynamics, geometry, potential
from mdfields.errors import BlowUpError, InvalidParameterError


def harmonic_pair_surface(kappa=1.0, r0=1.0, n=2):
    v = potential.make_scalar_pair_model(potential.Harmonic(kappa, r0), n)
    return v, dynamics.AdiabaticSurface(v)


class FunctionSurface:
    """Surface f(x), the same for every j, with analytic gradient g(x)."""

    def __init__(self, f, g):
        self.f, self.g = f, g

    def value(self, x, j):
        return float(self.f(x))

    def gradient(self, x, j):
        return self.g(x)

    def at(self, x, j, fields=False):
        return dynamics.SurfacePoint(None, self.gradient(x, j), None,
                                     self.value(x, j))


def constant_surface(c):
    return FunctionSurface(lambda x: c, np.zeros_like)


def central_difference(f, x, h=1e-5):
    """(f(x + h e_na) - f(x - h e_na)) / 2h along every coordinate of x,
    shape (N, 3) + f's shape."""
    out = []
    for n in range(x.shape[0]):
        for a in range(3):
            xp = x.copy(); xp[n, a] += h
            xm = x.copy(); xm[n, a] -= h
            out.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h))
    out = np.array(out)
    return out.reshape(x.shape + out.shape[1:])


def two_state_surface(n):
    v = potential.make_two_state_model(
        phi1=potential.Morse(d=1.0, a=1.2, r0=1.0),
        gap=0.8,
        coupling=potential.GaussianCoupling(c0=0.15, rc=1.3, w=0.6),
        n_particles=n)
    return v, dynamics.AdiabaticSurface(v)


class TestForce:
    def test_constant_surface_zero_force(self):
        provider = constant_surface(2.5)
        x = np.random.default_rng(0).normal(size=(3, 3))
        np.testing.assert_allclose(-provider.gradient(x, 0), 0.0)

    def test_harmonic_closed_form(self):
        kappa, r0 = 1.7, 1.2
        _, provider = harmonic_pair_surface(kappa, r0)
        x = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        f = -provider.gradient(x, 0)
        # force on particle 1 is -kappa (r - r0) along +x toward particle 0
        np.testing.assert_allclose(f[1], [-kappa * (2.0 - r0), 0.0, 0.0],
                                   atol=1e-12)
        np.testing.assert_allclose(f[0], -f[1], atol=1e-12)

    def test_analytic_vs_fd(self):
        rng = np.random.default_rng(1)
        while True:
            x = rng.normal(scale=0.8, size=(3, 3))
            r = geometry.pair_distances(x)
            if r.min() > 0.5 and r.max() < 2.5:
                break
        v, provider = two_state_surface(3)
        for j in range(2):
            fd = central_difference(
                lambda xx: np.linalg.eigvalsh(v.evaluate(xx))[j], x)
            np.testing.assert_allclose(
                -provider.gradient(x, j), -fd, atol=1e-6)


class TestIntegrate:
    def test_invalid_args(self):
        _, provider = harmonic_pair_surface()
        st = dynamics.PhaseState(x=np.zeros((2, 3)) + [[0, 0, 0], [1, 0, 0]],
                                 p=np.zeros((2, 3)), masses=np.ones(2))
        with pytest.raises(InvalidParameterError):
            dynamics.integrate(st, -0.1, 10, provider)

    def test_free_flight(self):
        provider = constant_surface(0.0)
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(3, 3))
        p0 = rng.normal(size=(3, 3))
        m = np.array([1.0, 2.0, 0.5])
        st = dynamics.PhaseState(x=x0, p=p0, masses=m)
        tr = dynamics.integrate(st, 0.05, 40, provider)
        tau = tr.times[-1]
        np.testing.assert_allclose(
            tr.positions[-1], x0 + p0 * tau / m[:, None], atol=1e-12)
        np.testing.assert_allclose(tr.momenta[-1], p0, atol=1e-15)

    def test_time_reversibility(self):
        _, provider = harmonic_pair_surface()
        st = dynamics.PhaseState(
            x=np.array([[0.0, 0.0, 0.0], [1.4, 0.0, 0.0]]),
            p=np.array([[0.0, 0.1, 0.0], [0.0, -0.1, 0.05]]),
            masses=np.ones(2))
        fwd = dynamics.integrate(st, 1e-2, 500, provider)
        back = dynamics.PhaseState(x=fwd.positions[-1],
                                   p=-fwd.momenta[-1], masses=np.ones(2))
        rev = dynamics.integrate(back, 1e-2, 500, provider)
        np.testing.assert_allclose(rev.positions[-1], st.x, atol=1e-10)
        np.testing.assert_allclose(rev.momenta[-1], -st.p, atol=1e-10)

    def test_energy_drift_harmonic(self):
        _, provider = harmonic_pair_surface()
        st = dynamics.PhaseState(
            x=np.array([[0.0, 0.0, 0.0], [1.3, 0.0, 0.0]]),
            p=np.array([[0.0, 0.2, 0.0], [0.0, -0.2, 0.0]]),
            masses=np.ones(2))
        tr = dynamics.integrate(st, 1e-3, 10_000, provider)
        assert tr.energy_drift <= 1e-8

    def test_momentum_conservation(self):
        v, provider = two_state_surface(3)
        rng = np.random.default_rng(3)
        x = np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [0.5, 1.0, 0.3]])
        p = rng.normal(scale=0.1, size=(3, 3))
        st = dynamics.PhaseState(x=x, p=p, masses=np.ones(3), surface=0)
        tr = dynamics.integrate(st, 1e-3, 2000, provider)
        p_tot0 = tr.momenta[0].sum(axis=0)
        l_tot0 = np.cross(tr.positions[0], tr.momenta[0]).sum(axis=0)
        for i in (500, 2000):
            np.testing.assert_allclose(tr.momenta[i].sum(axis=0), p_tot0,
                                       atol=1e-10)
            np.testing.assert_allclose(
                np.cross(tr.positions[i], tr.momenta[i]).sum(axis=0),
                l_tot0, atol=1e-8)

    def test_blowup(self):
        # strong repulsive linear surface drives coordinates out fast
        provider = FunctionSurface(
            lambda x: -1e6 * float(np.sum(x[:, 0])),
            lambda x: np.tile([-1e6, 0.0, 0.0], (len(x), 1)))
        st = dynamics.PhaseState(x=np.zeros((2, 3)) + [[0, 0, 0], [1, 0, 0]],
                                 p=np.zeros((2, 3)), masses=np.ones(2))
        with pytest.raises(BlowUpError):
            dynamics.integrate(st, 10.0, 10_000, provider)

    def test_verlet_matches_rk4_reference(self):
        kappa, r0 = 1.0, 1.0
        _, provider = harmonic_pair_surface(kappa, r0)
        x0 = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
        p0 = np.zeros((2, 3))
        st = dynamics.PhaseState(x=x0, p=p0, masses=np.ones(2))
        tr = dynamics.integrate(st, 1e-4, 5000, provider)

        def rhs(y):
            x = y[:6].reshape(2, 3)
            p = y[6:].reshape(2, 3)
            f = -provider.gradient(x, 0)
            return np.concatenate([p.reshape(-1), f.reshape(-1)])

        y = np.concatenate([x0.reshape(-1), p0.reshape(-1)])
        h = 1e-4
        for _ in range(5000):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(tr.positions[-1].reshape(-1), y[:6],
                                   atol=1e-6)


class TestCorrectedSurface:
    def test_value_and_gradient(self):
        v, _ = two_state_surface(2)
        cp = dynamics.CorrectedSurface(v, mass=100.0)
        x = np.array([[0.0, 0.0, 0.0], [1.3, 0.0, 0.0]])
        bare = np.linalg.eigvalsh(v.evaluate(x))[0]
        val = cp.value(x, 0)
        assert val >= bare - 1e-14
        # gradient against a full finite difference of the corrected value
        fd = central_difference(lambda xx: cp.value(xx, 0), x)
        np.testing.assert_allclose(cp.gradient(x, 0), fd, atol=1e-6)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("mass", [100.0, 1000.0])
    def test_exact_derivatives_match_central_differences(self, n, mass):
        v, _ = two_state_surface(n)
        cp = dynamics.CorrectedSurface(v, mass)
        x = np.array([[0.0, 0.0, 0.0], [1.1, 0.1, 0.0], [0.2, 1.0, 0.2],
                      [1.0, 1.1, 0.9]])[:n] \
            + np.random.default_rng(n).normal(scale=0.05, size=(n, 3))
        for j in range(2):
            _, grad, pp, _ = cp.at(x, j)
            fd = central_difference(lambda xx: cp.value(xx, j), x)
            np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-8)
            # shares differenced to [m, a, n], the share gradients [n, m, a]
            fd = central_difference(lambda xx: cp.shares(xx)[:, j], x)
            np.testing.assert_allclose(pp, np.moveaxis(fd, 2, 0), rtol=0,
                                       atol=1e-8)
