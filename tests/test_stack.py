"""Stacked calls of the surface and field layers against their single calls.

Every function that takes a stack of K configurations (or S states) must
give, as item k, what the single call on item k gives, bit for bit; a
failing item's error or warning names it ("item k: ...").
"""

import warnings

import numpy as np
import pytest

from mdfields import dynamics, fields, nonlinear_eigen, potential
from mdfields.errors import (CoincidentPointsError, DegenerateSpectrumError,
                             NoConvergenceError, ResidualTooLargeError)
from mdfields.mollifier import Mollifier

K = 1000
N = 4
MASS = 1.0e3
# a coupled configuration that settles in 2 fixed-point iterations, and one
# so spread out that the coupling underflows to 0 and it settles in 1
COUPLED = np.array([[0.0, 0.0, 0.0], [1.1, 0.1, 0.0],
                    [0.2, 1.0, 0.2], [1.0, 1.1, 0.9]])
APART = 50.0 * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def two_state(n=N):
    return potential.make_two_state_model(
        potential.Morse(1.0, 1.2, 1.0), 0.8,
        potential.GaussianCoupling(0.15, 1.3, 0.6), n)


def configs(seed, count=K, n=N):
    """Random configurations in the canonical-corrected box of side 1.8."""
    return np.random.default_rng(seed).uniform(0.0, 1.8, size=(count, n, 3))


def assert_items(stacked, single, count=K):
    """Item k of every array of ``stacked`` equals ``single(k)``."""
    for k in range(count):
        for got, want in zip(stacked, single(k)):
            np.testing.assert_array_equal(got[k], want)


class TestPotential:
    @pytest.mark.parametrize("method", ["deriv", "hessian",
                                        "part_deriv_all"])
    def test_pair_sum(self, method):
        v, x = two_state(), configs(1)
        fn = getattr(v, method)
        assert_items([fn(x)], lambda k: [fn(x[k])])

    def test_eigen(self):
        v, x = two_state(), configs(2)
        eig = potential.eigendecompose(v.evaluate_parts(x)[0])
        dv = v.deriv(x)
        stacked = [potential.inverse_gaps(eig.lambdas),
                   potential.eigenvector_derivatives(dv, eig.lambdas,
                                                     eig.psi)]

        def single(k):
            lam, psi = eig.lambdas[k], eig.psi[k]
            return [potential.inverse_gaps(lam),
                    potential.eigenvector_derivatives(dv[k], lam, psi)]

        assert_items(stacked, single)

    def test_coincident_item_named(self):
        x = configs(3, 5)
        x[3, 2] = x[3, 0]
        with pytest.raises(CoincidentPointsError,
                           match="^item 3: particles 0 and 2 coincide"):
            two_state().deriv(x)
        with pytest.raises(CoincidentPointsError, match="^particles 0 and 2"):
            two_state().deriv(x[3])


class TestSurfaces:
    @pytest.mark.parametrize("kind", ["bare", "corrected"])
    def test_at(self, kind):
        # the corrected record is one lockstep solve and its exact
        # derivatives with the share gradients
        v, x = two_state(), configs(4)
        surf = dynamics.AdiabaticSurface(v) if kind == "bare" \
            else dynamics.CorrectedSurface(v, MASS)
        point = surf.at(x, 1)
        assert point.value.shape == (K,)
        assert_items(point, lambda k: surf.at(x[k], 1))

    def test_corrected_solve_and_shares(self):
        v, x = two_state(), configs(5)
        surf = dynamics.CorrectedSurface(v, MASS)
        cs = nonlinear_eigen.solve_nonlinear_eigen(v, x, MASS)
        assert cs.residual_norm.shape == (K,)

        def single(k):
            one = nonlinear_eigen.solve_nonlinear_eigen(v, x[k], MASS)
            assert isinstance(one.residual_norm, float)
            return [one.lambdas_bar, one.psi_bar, one.per_particle_bar,
                    one.residual_norm]

        assert_items([cs.lambdas_bar, cs.psi_bar, cs.per_particle_bar,
                      cs.residual_norm], single)
        np.testing.assert_array_equal(surf.shares(x), cs.per_particle_bar)

    @pytest.mark.parametrize("kind", ["bare", "corrected"])
    def test_verlet_step(self, kind):
        # closed by at(x, j, fields=False), which drops the share
        # gradients and, on the corrected surface, their linear solve
        v, x = two_state(), configs(6)
        rng = np.random.default_rng(7)
        p, f = rng.normal(size=(2, K, N, 3))
        m = rng.uniform(1.0, 2.0, size=(K, N, 1))
        surf = dynamics.AdiabaticSurface(v) if kind == "bare" \
            else dynamics.CorrectedSurface(v, MASS)

        def at(xx):
            return surf.at(xx, 0, fields=False)

        xn, pn, point = dynamics.verlet_step(at, x, p, m, f, 1e-3)
        assert point.pp is None

        def single(k):
            xk, pk, pt = dynamics.verlet_step(at, x[k], p[k], m[k], f[k],
                                              1e-3)
            return [xk, pk, pt.lam_n, pt.grad, pt.value]

        assert_items([xn, pn, point.lam_n, point.grad, point.value], single)


class TestSolveItemErrors:
    """A failing item raises the single call's error, named."""

    def stack(self, bad):
        """APART items with the COUPLED configuration at item ``bad``."""
        x = np.repeat(APART[None], 5, axis=0)
        x[bad] = COUPLED
        return x

    def test_degenerate_item(self):
        # V11 = (r - 1)^2 / 2 meets V22 = 1/8 at r = 1.5
        v = potential.PairSumPotential(
            [[potential.Harmonic(1.0, 1.0), None],
             [None, potential.Constant(0.125)]], 2)
        x = np.zeros((4, 2, 3))
        x[:, 1, 0] = [1.2, 1.2, 1.5, 1.2]
        with pytest.raises(DegenerateSpectrumError, match="^item 2: "):
            nonlinear_eigen.solve_nonlinear_eigen(v, x, MASS)
        with pytest.raises(DegenerateSpectrumError, match="^adjacent"):
            nonlinear_eigen.solve_nonlinear_eigen(v, x[2], MASS)

    def test_coincident_item(self):
        x = self.stack(1)
        x[4, 3] = x[4, 1]
        with pytest.raises(CoincidentPointsError, match="^item 4: "):
            nonlinear_eigen.solve_nonlinear_eigen(two_state(), x, MASS)

    def test_unconverged_item(self):
        # one iteration settles the APART items but not the COUPLED one
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NoConvergenceError,
                               match="^item 3: no fixed point after 1 "):
                nonlinear_eigen.solve_nonlinear_eigen(
                    two_state(), self.stack(3), MASS, max_iter=1)
            with pytest.raises(NoConvergenceError, match="^no fixed point"):
                nonlinear_eigen.solve_nonlinear_eigen(two_state(), COUPLED,
                                                      MASS, max_iter=1)

    def test_residual_item(self, monkeypatch):
        # the APART items' residual is exactly 0, the COUPLED one's is not
        monkeypatch.setattr(nonlinear_eigen, "RESIDUAL_TOL", 0.0)
        with pytest.raises(ResidualTooLargeError,
                           match="^item 2: nonlinear eigen residual"):
            nonlinear_eigen.solve_nonlinear_eigen(two_state(),
                                                  self.stack(2), MASS)

    def test_near_cap_warning_names_item(self):
        # at max_iter = 2 only the COUPLED item, settling at 2, is near
        with pytest.warns(RuntimeWarning) as record:
            cs = nonlinear_eigen.solve_nonlinear_eigen(
                two_state(), self.stack(1), MASS, max_iter=2)
        assert [str(w.message) for w in record] == [
            "item 1: fixed point converged after 2 iterations, near "
            "max_iter = 2"]
        one = nonlinear_eigen.solve_nonlinear_eigen(two_state(), COUPLED,
                                                    MASS)
        np.testing.assert_array_equal(cs.lambdas_bar[1], one.lambdas_bar)


class TestFields:
    S = 1000

    def states(self, seed):
        """S states of the two-state model with corrected surface data at
        tau, and two free-particle states (no bond terms) among them."""
        rng = np.random.default_rng(seed)
        x = configs(seed, self.S)
        p = rng.normal(scale=0.3, size=x.shape)
        masses = rng.uniform(1.0, 2.0, size=(self.S, N))
        point = dynamics.CorrectedSurface(two_state(), MASS).at(x, 0)
        sds = [fields.state_data(x[k], p[k], masses[k],
                                 [a[k] for a in point[:3]])
               for k in range(self.S)]
        for k in (5, 17):
            sds[k].pair_derivs = np.zeros_like(sds[k].pair_derivs)
            sds[k].pp_grads = np.zeros_like(sds[k].pp_grads)
        return sds

    def test_densities(self):
        sds = self.states(8)
        st = fields._stack(sds)
        probes = np.random.default_rng(9).uniform(0.0, 1.8, size=(5, 3))
        mol = Mollifier(0.9)
        dens = fields.densities(st.x, st.p, st.masses, st.lam_n, mol, probes)
        assert_items(list(dens.values()), lambda k: list(fields.densities(
            sds[k].x, sds[k].p, sds[k].masses, sds[k].lam_n, mol,
            probes).values()), self.S)

    def test_raw_fields(self):
        # one bond quadrature for every state's (probe, pair) items
        sds = self.states(10)
        probes = np.random.default_rng(11).uniform(0.0, 1.8, size=(3, 3))
        mol = Mollifier(0.9)
        raw = fields._raw_fields(fields._stack(sds), mol, probes)
        assert not np.any(raw["w"][[5, 17]]) and np.any(raw["w"])
        assert_items(list(raw.values()), lambda k: [
            v[0] for v in fields._raw_fields(fields._stack([sds[k]]), mol,
                                             probes).values()], self.S)
