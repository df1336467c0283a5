import warnings

import numpy as np
import pytest

from mdfields import geometry, nonlinear_eigen, potential
from mdfields.errors import InvalidParameterError


def random_config(n, rng, spread=0.8):
    # keep pair distances near the coupling range rc ~ 1.3 so the
    # eigenvectors actually vary with position
    while True:
        x = rng.normal(scale=spread, size=(n, 3))
        r = geometry.pair_distances(x)
        if r.min() > 0.5 and r.max() < 2.5:
            return x


def two_state(n, c0=0.15):
    return potential.make_two_state_model(
        phi1=potential.Morse(d=1.0, a=1.2, r0=1.0),
        gap=0.8,
        coupling=potential.GaussianCoupling(c0=c0, rc=1.3, w=0.6),
        n_particles=n)


class TestSolve:
    def test_mass_guard(self):
        rng = np.random.default_rng(0)
        x = random_config(3, rng)
        with pytest.raises(InvalidParameterError):
            nonlinear_eigen.solve_nonlinear_eigen(two_state(3), x, mass=1.0)

    def test_scalar_case_uncorrected(self):
        # d=1: the normalized eigenvector is constant, so the correction
        # vanishes and lambda_bar equals the bare pair sum
        rng = np.random.default_rng(1)
        x = random_config(3, rng)
        v = potential.make_scalar_pair_model(potential.Harmonic(1.0, 1.0), 3)
        cs = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=100.0)
        np.testing.assert_allclose(cs.lambdas_bar, v.evaluate(x)[0, 0],
                                   atol=1e-14)
        assert cs.residual_norm <= 1e-14

    def test_near_cap_warns(self):
        # the solve settles in 2 iterations: past 80 % of max_iter = 2, far
        # below it at the default max_iter
        rng = np.random.default_rng(5)
        x = random_config(4, rng)
        with pytest.warns(RuntimeWarning, match="after 2 iterations, near "
                                                "max_iter = 2"):
            near = nonlinear_eigen.solve_nonlinear_eigen(two_state(4), x,
                                                         1.0e3, max_iter=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs = nonlinear_eigen.solve_nonlinear_eigen(two_state(4), x,
                                                       1.0e3)
        np.testing.assert_array_equal(near.lambdas_bar, cs.lambdas_bar)

    def test_residual_and_unitarity(self):
        rng = np.random.default_rng(2)
        x = random_config(4, rng)
        v = two_state(4)
        cs = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=100.0)
        vmat = v.evaluate(x)
        assert cs.residual_norm <= 1e-10 * np.linalg.norm(vmat)
        np.testing.assert_allclose(cs.psi_bar.T @ cs.psi_bar, np.eye(2),
                                   atol=1e-12)
        assert np.all(np.diff(cs.lambdas_bar) > 0)

    def test_correction_positive(self):
        # the correction matrix G is positive semidefinite, so the trace of
        # lambda_bar cannot drop below the bare trace
        rng = np.random.default_rng(3)
        x = random_config(3, rng)
        v = two_state(3)
        cs = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=50.0)
        bare = np.linalg.eigvalsh(v.evaluate(x))
        assert cs.lambdas_bar.sum() >= bare.sum() - 1e-14

    def test_one_over_m_scaling(self):
        rng = np.random.default_rng(4)
        x = random_config(3, rng)
        v = two_state(3)
        bare = np.linalg.eigvalsh(v.evaluate(x))
        masses = [1e2, 1e3, 1e4]
        diffs = []
        for m in masses:
            cs = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=m)
            diffs.append(np.linalg.norm(cs.lambdas_bar - bare))
        slope = np.polyfit(np.log(masses), np.log(diffs), 1)[0]
        assert abs(slope + 1.0) <= 0.1
        # doubling M halves the difference within 10 percent
        c1 = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=500.0)
        c2 = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=1000.0)
        r1 = np.linalg.norm(c1.lambdas_bar - bare)
        r2 = np.linalg.norm(c2.lambdas_bar - bare)
        assert abs(r1 / r2 - 2.0) <= 0.2

    def test_modes_agree(self):
        rng = np.random.default_rng(5)
        x = random_config(3, rng)
        v = two_state(3)
        # the two solvers differ at O(1/M^2); large mass pins agreement
        fp = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=1e4)
        co = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=1e4,
                                                   method="continuation")
        np.testing.assert_allclose(fp.lambdas_bar, co.lambdas_bar, atol=1e-9)

    def test_unknown_method(self):
        rng = np.random.default_rng(6)
        x = random_config(3, rng)
        with pytest.raises(InvalidParameterError):
            nonlinear_eigen.solve_nonlinear_eigen(two_state(3), x, mass=100.0,
                                                  method="bogus")


class TestPartition:
    def test_shares_sum(self):
        rng = np.random.default_rng(7)
        for seed in range(3):
            x = random_config(4, np.random.default_rng(seed))
            v = two_state(4)
            cs = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=100.0)
            np.testing.assert_allclose(cs.per_particle_bar.sum(axis=0),
                                       cs.lambdas_bar, atol=1e-10)

    def test_large_mass_limit_is_bare_partition(self):
        rng = np.random.default_rng(9)
        x = random_config(3, rng)
        v = two_state(3)
        cs = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=1e9)
        eig = potential.eigendecompose(v.evaluate(x))
        bare = potential.surface_partition(v, x, eig)
        np.testing.assert_allclose(cs.per_particle_bar, bare, atol=1e-8)

    def test_fd_gradient_oracle_for_shares(self):
        # replacing the perturbation-formula grad Psi by finite differences
        # moves the shares by at most 1e-6
        rng = np.random.default_rng(10)
        x = random_config(3, rng)
        v = two_state(3)
        mass = 100.0
        cs = nonlinear_eigen.solve_nonlinear_eigen(v, x, mass=mass)
        h = 1e-5
        psi0 = cs.psi_bar
        b = psi0 @ nonlinear_eigen._gram(
            potential.eigenvector_derivatives(v.deriv(x), cs.lambdas_bar, psi0)
        ) @ psi0.T
        eff0 = v.evaluate(x) + b / (4.0 * mass)

        def psi_at(xx):
            # eigenvectors of the effective matrix frozen at the solved B,
            # sign-aligned to the solution
            p = potential.eigendecompose(
                v.evaluate(xx) + b / (4.0 * mass)).psi
            for k in range(2):
                if np.dot(p[:, k], psi0[:, k]) < 0:
                    p[:, k] *= -1
            return p

        dpsi_fd = np.empty((3, 3, 2, 2))
        for n in range(3):
            for a in range(3):
                xp = x.copy(); xp[n, a] += h
                xm = x.copy(); xm[n, a] -= h
                dpsi_fd[n, a] = (psi_at(xp) - psi_at(xm)) / (2 * h)
        shares_fd = nonlinear_eigen._partition(
            v.evaluate_parts(x)[1], psi0, dpsi_fd, mass)
        np.testing.assert_allclose(shares_fd, cs.per_particle_bar, atol=1e-6)
