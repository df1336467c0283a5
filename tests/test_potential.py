import numpy as np
import pytest

from mdfields import geometry, potential
from mdfields.errors import (CoincidentPointsError, DegenerateSpectrumError,
                             InvalidParameterError)


def random_config(n, rng, spread=1.5):
    while True:
        x = rng.normal(scale=spread, size=(n, 3))
        if geometry.pair_distances(x).min() > 0.3:
            return x


def two_state(n):
    return potential.make_two_state_model(
        phi1=potential.Morse(d=1.0, a=1.2, r0=1.0),
        gap=0.8,
        coupling=potential.GaussianCoupling(c0=0.15, rc=1.3, w=0.6),
        n_particles=n)


MODELS = {
    "harmonic": lambda n: potential.make_scalar_pair_model(
        potential.Harmonic(1.7, 1.2), n),
    "two_state": two_state,
    "lj": lambda n: potential.make_scalar_pair_model(
        potential.LennardJones(0.7, 1.0), n),
}


def per_pair_reference(v_pot, x):
    """V, the V^n, dV and the dV^n by a plain loop over pairs and entries."""
    n, d = v_pot.n_particles, v_pot.d
    v = np.zeros((d, d))
    parts = np.zeros((n, d, d))
    dv = np.zeros((n, 3, d, d))
    dparts = np.zeros((n, n, 3, d, d))
    for i in range(n):
        for j in range(i + 1, n):
            diff = x[i] - x[j]
            r = np.array([np.linalg.norm(diff)])
            val = np.zeros((d, d))
            der = np.zeros((d, d))
            for a in range(d):
                for b in range(d):
                    f = v_pot.entries[a][b]
                    if f is not None:
                        val[a, b] = f.value(r)[0]
                        der[a, b] = f.deriv(r)[0]
            # gradient of the pair term in x^i; its negation in x^j
            g = (diff / r[0])[:, None, None] * der
            v += val
            dv[i] += g
            dv[j] -= g
            for k in (i, j):
                parts[k] += 0.5 * val
                dparts[k, i] += 0.5 * g
                dparts[k, j] -= 0.5 * g
    return v, parts, dv, dparts


def fd_matrix(v_pot, x, n, a, h=1e-6):
    xp = x.copy(); xp[n, a] += h
    xm = x.copy(); xm[n, a] -= h
    return (v_pot.evaluate(xp) - v_pot.evaluate(xm)) / (2 * h)


class TestPairFunctions:
    def test_harmonic(self):
        f = potential.Harmonic(kappa=2.0, r0=1.5)
        assert f.value(np.array(1.5)) == 0.0
        np.testing.assert_allclose(f.value(np.array(2.5)), 1.0)
        np.testing.assert_allclose(f.deriv(np.array(2.5)), 2.0)

    def test_morse_minimum(self):
        f = potential.Morse(d=3.0, a=1.1, r0=1.2)
        np.testing.assert_allclose(f.value(np.array(1.2)), -3.0)
        np.testing.assert_allclose(f.deriv(np.array(1.2)), 0.0, atol=1e-14)
        assert f.value(np.array(10.0)) > f.value(np.array(1.2))

    def test_lj_continuation_smooth(self):
        f = potential.LennardJones(eps=1.0, sigma=1.0, r_inner=0.9)
        h = 1e-7
        for r in (0.9 - 1e-9, 0.9 + 1e-9):
            r = np.array(r)
            pass
        # value and derivative continuous at the switch point
        lo = f.value(np.array([0.9 - 1e-10]))[0]
        hi = f.value(np.array([0.9 + 1e-10]))[0]
        assert abs(lo - hi) < 1e-6
        lo = f.deriv(np.array([0.9 - 1e-10]))[0]
        hi = f.deriv(np.array([0.9 + 1e-10]))[0]
        assert abs(lo - hi) < 1e-5
        # bounded below r_inner, unlike the raw power law
        assert np.isfinite(f.value(np.array([1e-3]))[0])

    def test_derivs_match_fd(self):
        fns = [potential.Harmonic(1.3, 1.1),
               potential.Morse(2.0, 0.9, 1.4),
               potential.LennardJones(0.7, 1.0),
               potential.GaussianCoupling(0.4, 1.2, 0.5),
               potential.SumPair(potential.Harmonic(1.0, 1.0),
                                 potential.Constant(0.3))]
        r = np.linspace(0.5, 3.0, 40)
        h = 1e-6
        for f in fns:
            fd = (f.value(r + h) - f.value(r - h)) / (2 * h)
            np.testing.assert_allclose(f.deriv(r), fd, atol=1e-6, rtol=1e-6)

    def test_constant_gap_required(self):
        with pytest.raises(InvalidParameterError):
            two = potential.make_two_state_model(
                potential.Harmonic(1.0, 1.0), gap=0.0,
                coupling=potential.Constant(0.1), n_particles=3)


class TestPairSumPotential:
    def test_scalar_matches_brute(self):
        rng = np.random.default_rng(1)
        x = random_config(5, rng)
        f = potential.Harmonic(1.7, 1.2)
        v = potential.make_scalar_pair_model(f, 5)
        brute = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                brute += f.value(np.array(np.linalg.norm(x[i] - x[j])))
        np.testing.assert_allclose(v.evaluate(x)[0, 0], brute, rtol=1e-14)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(2)
        x = random_config(4, rng)
        v = two_state(4)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        alpha = rng.normal(size=3)
        np.testing.assert_allclose(
            v.evaluate(x @ q.T + alpha), v.evaluate(x), atol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        x = random_config(4, rng)
        m = two_state(4).evaluate(x)
        np.testing.assert_allclose(m, m.T, atol=1e-15)

    def test_parts_sum_to_total(self):
        rng = np.random.default_rng(4)
        x = random_config(5, rng)
        v = two_state(5)
        total = sum(v.part(x, n) for n in range(5))
        np.testing.assert_allclose(total, v.evaluate(x), atol=1e-13)

    def test_deriv_matches_fd(self):
        rng = np.random.default_rng(5)
        x = random_config(4, rng)
        v = two_state(4)
        dv = v.deriv(x)
        for n in range(4):
            for a in range(3):
                np.testing.assert_allclose(
                    dv[n, a], fd_matrix(v, x, n, a), atol=1e-7)

    def test_part_deriv_matches_fd(self):
        rng = np.random.default_rng(6)
        x = random_config(4, rng)
        v = two_state(4)
        h = 1e-6
        for part_n in range(4):
            dvn = v.part_deriv_all(x)[part_n]
            for n in range(4):
                for a in range(3):
                    xp = x.copy(); xp[n, a] += h
                    xm = x.copy(); xm[n, a] -= h
                    fd = (v.part(xp, part_n) - v.part(xm, part_n)) / (2 * h)
                    np.testing.assert_allclose(dvn[n, a], fd, atol=1e-7)

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_one_pass_matches_per_pair_loop(self, model, n):
        rng = np.random.default_rng(20 + n)
        x = random_config(n, rng)
        v = MODELS[model](n)
        ref_v, ref_parts, ref_dv, ref_dparts = per_pair_reference(v, x)
        got_v, got_parts = v.evaluate_parts(x)
        for got, ref in ((got_v, ref_v), (v.evaluate(x), ref_v),
                         (got_parts, ref_parts), (v.deriv(x), ref_dv),
                         (v.part_deriv_all(x), ref_dparts)):
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
        for k in range(n):
            np.testing.assert_array_equal(v.part(x, k), got_parts[k])

    def test_coincident_points_raise(self):
        rng = np.random.default_rng(30)
        x = random_config(4, rng)
        x[3] = x[1]
        v = two_state(4)
        with pytest.raises(CoincidentPointsError):
            v.deriv(x)
        with pytest.raises(CoincidentPointsError):
            v.part_deriv_all(x)

    def test_wrong_particle_count_rejected(self):
        rng = np.random.default_rng(31)
        v = two_state(4)
        with pytest.raises(InvalidParameterError):
            v.evaluate(random_config(5, rng))

    def test_part_derivs_sum_to_deriv(self):
        rng = np.random.default_rng(7)
        x = random_config(5, rng)
        v = two_state(5)
        total = sum(v.part_deriv_all(x)[n] for n in range(5))
        np.testing.assert_allclose(total, v.deriv(x), atol=1e-13)


class TestEigendecompose:
    def test_two_by_two_closed_form(self):
        # [[0, gamma], [gamma, delta]]: lambda = delta/2 -+ sqrt(delta^2/4+g^2)
        delta, gamma = 0.7, 0.25
        v = np.array([[0.0, gamma], [gamma, delta]])
        eig = potential.eigendecompose(v)
        root = np.sqrt(delta ** 2 / 4.0 + gamma ** 2)
        np.testing.assert_allclose(
            eig.lambdas, [delta / 2.0 - root, delta / 2.0 + root], atol=1e-14)
        # residual check V psi = lambda psi
        np.testing.assert_allclose(v @ eig.psi, eig.psi * eig.lambdas,
                                   atol=1e-14)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            potential.eigendecompose(np.eye(2))

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3))
        v = a + a.T
        e1 = potential.eigendecompose(v)
        e2 = potential.eigendecompose(v + 0.0)
        np.testing.assert_array_equal(e1.psi, e2.psi)
        # each column's largest entry is positive
        for k in range(3):
            i = np.argmax(np.abs(e1.psi[:, k]))
            assert e1.psi[i, k] > 0

    def test_gap_min(self):
        v = np.diag([0.0, 1.0, 3.0])
        eig = potential.eigendecompose(v)
        assert eig.gap_min == 1.0


class TestPartition:
    def test_shares_sum_to_eigenvalues(self):
        rng = np.random.default_rng(9)
        x = random_config(4, rng)
        v = two_state(4)
        eig = potential.eigendecompose(v.evaluate(x))
        lam_n = potential.surface_partition(v, x, eig)
        np.testing.assert_allclose(lam_n.sum(axis=0), eig.lambdas, atol=1e-12)

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_shares_reproduce_eigenvalues(self, model, n):
        rng = np.random.default_rng(40 + n)
        x = random_config(n, rng)
        v = MODELS[model](n)
        eig = potential.eigendecompose(v.evaluate(x), gap_tol=0.0)
        lam_n = potential.surface_partition(v, x, eig)
        assert lam_n.shape == (n, v.d)
        np.testing.assert_allclose(lam_n.sum(axis=0), eig.lambdas,
                                   rtol=1e-13, atol=1e-13)

    def test_permutation_permutes_rows(self):
        rng = np.random.default_rng(41)
        x = random_config(5, rng)
        v = two_state(5)
        perm = rng.permutation(5)
        lam_n = potential.surface_partition(
            v, x, potential.eigendecompose(v.evaluate(x)))
        lam_p = potential.surface_partition(
            v, x[perm], potential.eigendecompose(v.evaluate(x[perm])))
        np.testing.assert_allclose(lam_p, lam_n[perm], atol=1e-13)

    def test_scalar_half_half(self):
        # scalar case: share of particle n is half its pair sums
        rng = np.random.default_rng(10)
        x = random_config(3, rng)
        f = potential.Morse(1.0, 1.0, 1.0)
        v = potential.make_scalar_pair_model(f, 3)
        eig = potential.eigendecompose(v.evaluate(x), gap_tol=0.0)
        lam_n = potential.surface_partition(v, x, eig)
        r = geometry.pair_distances(x)
        # particle 0 touches pairs (0,1) and (0,2)
        expect = 0.5 * (f.value(r[0:1])[0] + f.value(r[1:2])[0])
        np.testing.assert_allclose(lam_n[0, 0], expect, rtol=1e-13)


class TestEigenDerivatives:
    def test_surface_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        x = random_config(4, rng)
        v = two_state(4)
        eig = potential.eigendecompose(v.evaluate(x))
        h = 1e-6
        for k in range(2):
            g = potential.surface_gradient(v.deriv(x), eig, k)
            for n in range(4):
                for a in range(3):
                    xp = x.copy(); xp[n, a] += h
                    xm = x.copy(); xm[n, a] -= h
                    lp = np.linalg.eigvalsh(v.evaluate(xp))[k]
                    lm = np.linalg.eigvalsh(v.evaluate(xm))[k]
                    assert abs(g[n, a] - (lp - lm) / (2 * h)) < 1e-7

    def test_eigenvector_derivative_matches_fd(self):
        rng = np.random.default_rng(12)
        x = random_config(3, rng)
        v = two_state(3)
        eig = potential.eigendecompose(v.evaluate(x))
        dpsi = potential.eigenvector_derivatives(v.deriv(x), eig.lambdas,
                                                 eig.psi)
        h = 1e-5
        for n in range(3):
            for a in range(3):
                xp = x.copy(); xp[n, a] += h
                xm = x.copy(); xm[n, a] -= h
                ep = potential.eigendecompose(v.evaluate(xp))
                em = potential.eigendecompose(v.evaluate(xm))
                # align FD eigenvector signs to the center decomposition
                pp, pm = ep.psi.copy(), em.psi.copy()
                for k in range(2):
                    if np.dot(pp[:, k], eig.psi[:, k]) < 0:
                        pp[:, k] *= -1
                    if np.dot(pm[:, k], eig.psi[:, k]) < 0:
                        pm[:, k] *= -1
                fd = (pp - pm) / (2 * h)
                # project out the gauge direction psi_k per column
                for k in range(2):
                    fd[:, k] -= eig.psi[:, k] * (eig.psi[:, k] @ fd[:, k])
                np.testing.assert_allclose(dpsi[n, a], fd, atol=1e-6)

    def test_gauge_orthogonality(self):
        rng = np.random.default_rng(13)
        x = random_config(4, rng)
        v = two_state(4)
        eig = potential.eigendecompose(v.evaluate(x))
        dpsi = potential.eigenvector_derivatives(v.deriv(x), eig.lambdas,
                                                 eig.psi)
        for k in range(2):
            overlap = np.einsum("i,nci->nc",
                                eig.psi[:, k], dpsi[:, :, :, k])
            np.testing.assert_allclose(overlap, 0.0, atol=1e-13)

    def test_per_particle_gradients_sum(self):
        rng = np.random.default_rng(14)
        x = random_config(4, rng)
        v = two_state(4)
        eig = potential.eigendecompose(v.evaluate(x))
        parts, dv = v.evaluate_parts(x)[1], v.deriv(x)
        for k in range(2):
            allg = potential.per_particle_gradients_all(v, x, parts, dv, eig,
                                                        k)
            np.testing.assert_allclose(
                allg.sum(axis=0), potential.surface_gradient(dv, eig, k),
                atol=1e-10)

    def test_per_particle_gradient_matches_fd(self):
        rng = np.random.default_rng(15)
        x = random_config(3, rng)
        v = two_state(3)
        eig = potential.eigendecompose(v.evaluate(x))
        h = 1e-5
        k, part_n = 0, 1
        g = potential.per_particle_gradients_all(
            v, x, v.evaluate_parts(x)[1], v.deriv(x), eig, k)[part_n]

        def share(xx):
            e = potential.eigendecompose(v.evaluate(xx))
            p = e.psi[:, k]
            if np.dot(p, eig.psi[:, k]) < 0:
                p = -p
            return float(p @ v.part(xx, part_n) @ p)

        for n in range(3):
            for a in range(3):
                xp = x.copy(); xp[n, a] += h
                xm = x.copy(); xm[n, a] -= h
                fd = (share(xp) - share(xm)) / (2 * h)
                assert abs(g[n, a] - fd) < 1e-6
