"""The two surface classes: symmetry properties and solve counts."""

import numpy as np
import pytest

from mdfields import dynamics, nonlinear_eigen, potential

MASS = 1.0e3
BASE = np.array([[0.0, 0.0, 0.0], [1.1, 0.1, 0.0],
                 [0.2, 1.0, 0.2], [1.0, 1.1, 0.9]])


def two_state(n):
    return potential.make_two_state_model(
        potential.Morse(1.0, 1.2, 1.0), 0.8,
        potential.GaussianCoupling(0.15, 1.3, 0.6), n)


def make_surface(kind, n=4):
    if kind == "bare":
        return dynamics.AdiabaticSurface(two_state(n))
    return dynamics.CorrectedSurface(two_state(n), MASS)


def config(seed):
    return BASE + np.random.default_rng(seed).normal(scale=0.05,
                                                     size=BASE.shape)


def rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


# both gradients are analytic: the corrected one differentiates the solved
# fixed point exactly, so only the solve's convergence and roundoff remain
ATOL = {"bare": 1e-12, "corrected": 1e-12}


@pytest.mark.parametrize("kind", ["bare", "corrected"])
class TestProperties:
    def test_permutation(self, kind):
        surf = make_surface(kind)
        x = config(1)
        perm = np.array([2, 0, 3, 1])
        sh, (lam, grad, pp) = surf.shares(x), surf.at(x, 1)[:3]
        sh_p, (lam_p, grad_p, pp_p) = (surf.shares(x[perm]),
                                       surf.at(x[perm], 1)[:3])
        atol = ATOL[kind]
        np.testing.assert_allclose(sh_p, sh[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(lam_p, lam[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad_p, grad[perm], rtol=0, atol=atol)
        np.testing.assert_allclose(pp_p, pp[perm][:, perm], rtol=0,
                                   atol=atol)

    def test_rigid_motion(self, kind):
        surf = make_surface(kind)
        x = config(2)
        rot = rotation(3)
        moved = x @ rot.T + np.array([0.3, -1.2, 0.7])
        lam, grad, pp = surf.at(x, 0)[:3]
        lam_m, grad_m, pp_m = surf.at(moved, 0)[:3]
        atol = ATOL[kind]
        np.testing.assert_allclose(lam_m, lam, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad_m, grad @ rot.T, rtol=0, atol=atol)
        np.testing.assert_allclose(pp_m, pp @ rot.T, rtol=0, atol=atol)
        np.testing.assert_allclose(surf.gradient(moved, 0), grad @ rot.T,
                                   rtol=0, atol=atol)

    def test_field_data_matches_value_gradient_shares(self, kind):
        surf = make_surface(kind)
        x = config(4)
        for j in range(2):
            lam, grad, _ = surf.at(x, j)[:3]
            np.testing.assert_array_equal(lam, surf.shares(x)[:, j])
            np.testing.assert_array_equal(grad, surf.gradient(x, j))
            assert abs(lam.sum() - surf.value(x, j)) <= 1e-10


class TestCorrected:
    def test_share_gradients_sum_to_gradient(self):
        surf = make_surface("corrected")
        for seed in range(3):
            for j in range(2):
                _, grad, pp = surf.at(config(seed), j)[:3]
                np.testing.assert_allclose(pp.sum(axis=0), grad, rtol=0,
                                           atol=1e-12)

    @pytest.mark.parametrize("kind", ["bare", "corrected"])
    def test_fields_false_skips_share_gradients(self, monkeypatch, kind):
        # Verlet and ``gradient`` drop the share gradients: they are not
        # computed, and the shares, gradient and value are bit-identical
        surf = make_surface(kind)
        x = config(6)
        counts = count_calls(monkeypatch, [(surf.v_pot, "part_deriv_all")])
        for j in range(2):
            full, bare = surf.at(x, j), surf.at(x, j, fields=False)
            assert bare.pp is None
            np.testing.assert_array_equal(bare.lam_n, full.lam_n)
            np.testing.assert_array_equal(bare.grad, full.grad)
            assert bare.value == full.value
            np.testing.assert_array_equal(surf.gradient(x, j), full.grad)
        solves = {"solve": 6} if kind == "corrected" else {}
        assert counts == {**solves, "part_deriv_all": 2}

    def count_solves(self, monkeypatch):
        calls = []
        solve = nonlinear_eigen.solve_nonlinear_eigen

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(nonlinear_eigen, "solve_nonlinear_eigen",
                            counted)
        return calls

    @pytest.mark.parametrize("n", [2, 4])
    def test_solve_counts(self, monkeypatch, n):
        # one solve per call: the gradient and the share gradients are
        # exact derivatives of that solve's fixed point
        surf = make_surface("corrected", n)
        x = config(5)[:n]
        calls = self.count_solves(monkeypatch)
        for call in (surf.at, surf.gradient, surf.value):
            calls.clear()
            call(x, 0)
            assert len(calls) == 1
        calls.clear()
        surf.shares(x)
        assert len(calls) == 1


def count_calls(monkeypatch, targets):
    """Wrap each (owner, name) of ``targets``; the dict of call counts.

    ``solve_nonlinear_eigen`` is counted too, and calls made inside it are
    not."""
    counts = {}
    depth = [0]
    solve = nonlinear_eigen.solve_nonlinear_eigen

    def solving(*args, **kwargs):
        if not depth[0]:
            counts["solve"] = counts.get("solve", 0) + 1
        depth[0] += 1
        try:
            return solve(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(nonlinear_eigen, "solve_nonlinear_eigen", solving)
    for owner, name in targets:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            if not depth[0]:
                counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def pair_sums(v_pot):
    return [(v_pot, "evaluate"), (v_pot, "evaluate_parts"),
            (v_pot, "deriv"), (potential, "eigendecompose")]


def test_shares_one_pass(monkeypatch):
    """The sampler's hot path: one evaluate_parts, one eigendecompose and
    one shares_from_parts per call."""
    surf = make_surface("bare")
    counts = count_calls(monkeypatch, ((surf.v_pot, "evaluate_parts"),
                                       (potential, "eigendecompose"),
                                       (potential, "shares_from_parts")))
    surf.shares(config(6))
    assert counts == {"evaluate_parts": 1, "eigendecompose": 1,
                      "shares_from_parts": 1}


def test_field_data_one_pass(monkeypatch):
    """Bare field data: one evaluate_parts, one deriv and one
    eigendecompose, shared by the gradient and the share gradients."""
    surf = make_surface("bare")
    counts = count_calls(monkeypatch, pair_sums(surf.v_pot))
    surf.at(config(7), 1)
    assert counts == {"evaluate_parts": 1, "deriv": 1, "eigendecompose": 1}


def moving_state(n, seed):
    rng = np.random.default_rng(seed)
    return dynamics.PhaseState(x=config(seed)[:n],
                               p=rng.normal(scale=0.05, size=(n, 3)),
                               masses=np.full(n, MASS))


def test_bare_integrate_one_evaluation_per_step(monkeypatch):
    # the energy and the next force come from one record per configuration
    surf = make_surface("bare")
    counts = count_calls(monkeypatch, pair_sums(surf.v_pot))
    steps = 3
    dynamics.integrate(moving_state(4, 8), 1e-3, steps, surf)
    assert counts == {"evaluate_parts": steps + 1, "deriv": steps + 1,
                      "eigendecompose": steps + 1}


def test_corrected_integrate_only_solves(monkeypatch):
    # one solve per configuration, and the parts and derivatives its fixed
    # point is differentiated with; no bare eigendecomposition
    n, steps = 2, 2
    surf = make_surface("corrected", n)
    counts = count_calls(monkeypatch, pair_sums(surf.v_pot))
    dynamics.integrate(moving_state(n, 9), 1e-3, steps, surf)
    assert counts == {"solve": steps + 1, "evaluate_parts": steps + 1,
                      "deriv": steps + 1}
