import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdfields import geometry
from mdfields.errors import CoincidentPointsError, ResidualTooLargeError


def random_config(n, rng, spread=2.0):
    while True:
        x = rng.normal(scale=spread, size=(n, 3))
        if geometry.pair_distances(x).min() > 1e-3:
            return x


def random_rigid(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    alpha = rng.normal(size=3)
    return q, alpha


class TestPairDistances:
    def test_triangle(self):
        x = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        np.testing.assert_allclose(
            geometry.pair_distances(x), [1.0, 1.0, np.sqrt(2.0)])

    def test_two_particles(self):
        x = np.array([[0, 0, 0], [0, 0, 2]], dtype=float)
        np.testing.assert_allclose(geometry.pair_distances(x), [2.0])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        x = random_config(6, rng)
        r = geometry.pair_distances(x)
        brute = []
        for i in range(6):
            for j in range(i + 1, 6):
                brute.append(np.linalg.norm(x[i] - x[j]))
        np.testing.assert_allclose(r, brute, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(0, 10_000))
    def test_rigid_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        x = random_config(n, rng)
        q, alpha = random_rigid(rng)
        np.testing.assert_allclose(
            geometry.pair_distances(x @ q.T + alpha),
            geometry.pair_distances(x), atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        x = random_config(5, rng)
        assert np.all(geometry.pair_distances(x) >= 0)


class TestPairDirection:
    """Row (i, j) of the distance Jacobian holds the gradient of r^{ij}:
    the unit vector (x^i - x^j)/r^{ij} in block i, its negation in j."""

    def test_unit_separation(self):
        x = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
        row = geometry.distance_jacobian(x)[0].reshape(2, 3)
        np.testing.assert_allclose(row[1], [1, 0, 0])
        np.testing.assert_allclose(row[0], [-1, 0, 0])

    def test_coincident_error(self):
        x = np.zeros((2, 3))
        with pytest.raises(CoincidentPointsError):
            geometry.distance_jacobian(x)

    def test_finite_difference(self):
        rng = np.random.default_rng(7)
        x = random_config(2, rng)
        h = 1e-6
        fd = np.empty(3)
        for a in range(3):
            xp = x.copy(); xp[0, a] += h
            xm = x.copy(); xm[0, a] -= h
            fd[a] = (np.linalg.norm(xp[0] - xp[1])
                     - np.linalg.norm(xm[0] - xm[1])) / (2 * h)
        np.testing.assert_allclose(
            geometry.distance_jacobian(x)[0, :3], fd, atol=1e-8)


class TestDistanceJacobian:
    def test_two_particle_row(self):
        x = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
        j = geometry.distance_jacobian(x)
        np.testing.assert_allclose(j, [[-1, 0, 0, 1, 0, 0]])

    def test_row_norms(self):
        rng = np.random.default_rng(11)
        x = random_config(5, rng)
        j = geometry.distance_jacobian(x)
        np.testing.assert_allclose(
            np.linalg.norm(j, axis=1), np.sqrt(2.0), atol=1e-12)

    def test_taylor(self):
        rng = np.random.default_rng(13)
        x = random_config(4, rng)
        delta = rng.normal(size=(4, 3))
        j = geometry.distance_jacobian(x)
        errs = []
        for h in (1e-3, 5e-4):
            lin = geometry.pair_distances(x) + h * j @ delta.reshape(-1)
            errs.append(np.max(np.abs(geometry.pair_distances(
                x + h * delta) - lin)))
        # halving h shrinks the error about 4x
        assert errs[1] < 0.3 * errs[0]


class TestLift:
    def test_quadratic_pair_sum(self):
        # lambda = sum r^2 has pair derivative 2r
        rng = np.random.default_rng(17)
        x = random_config(5, rng)
        j = geometry.distance_jacobian(x)
        r = geometry.pair_distances(x)
        g = j.T @ (2.0 * r)
        v = geometry.lift_gradient_to_distances(x, g)
        np.testing.assert_allclose(v, 2.0 * r, atol=1e-9)

    def test_zero_gradient(self):
        rng = np.random.default_rng(19)
        x = random_config(4, rng)
        v = geometry.lift_gradient_to_distances(x, np.zeros(12))
        np.testing.assert_allclose(v, 0.0)

    def test_collinear_chain_rule(self):
        x = np.array([[0, 0, 0], [1.1, 0, 0], [2.5, 0, 0]])
        r = geometry.pair_distances(x)
        j = geometry.distance_jacobian(x)
        g = j.T @ (r - 1.0)  # harmonic pair gradient, kappa=1, r0=1
        v = geometry.lift_gradient_to_distances(x, g)
        resid = np.linalg.norm(j.T @ v - g)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(g))

    def test_non_invariant_gradient_rejected(self):
        rng = np.random.default_rng(23)
        x = random_config(4, rng)
        g = np.zeros(12)
        g[0] = 1.0  # pure translation component, not in the Jacobian range
        with pytest.raises(ResidualTooLargeError):
            geometry.lift_gradient_to_distances(x, g)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(0, 10_000))
    def test_roundtrip_invariant_potential(self, n, seed):
        rng = np.random.default_rng(seed)
        x = random_config(n, rng)
        r = geometry.pair_distances(x)
        j = geometry.distance_jacobian(x)
        g = j.T @ np.exp(-r)  # gradient of sum of -exp(-r) pair terms
        v = geometry.lift_gradient_to_distances(x, g)
        np.testing.assert_allclose(j.T @ v, g,
                                   atol=1e-10 * max(1.0, np.linalg.norm(g)))
