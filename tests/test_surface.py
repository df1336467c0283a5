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


# the corrected gradient carries central-difference noise (h = FD_STEP) on
# the O(1/M) correction; the bare one is analytic
ATOL = {"bare": 1e-12, "corrected": 1e-9}


@pytest.mark.parametrize("kind", ["bare", "corrected"])
class TestProperties:
    def test_permutation(self, kind):
        surf = make_surface(kind)
        x = config(1)
        perm = np.array([2, 0, 3, 1])
        sh, (lam, grad, pp) = surf.shares(x), surf.field_data(x, 1)
        sh_p, (lam_p, grad_p, pp_p) = (surf.shares(x[perm]),
                                       surf.field_data(x[perm], 1))
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
        lam, grad, pp = surf.field_data(x, 0)
        lam_m, grad_m, pp_m = surf.field_data(moved, 0)
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
            lam, grad, _ = surf.field_data(x, j)
            np.testing.assert_array_equal(lam, surf.shares(x)[:, j])
            np.testing.assert_array_equal(grad, surf.gradient(x, j))
            assert abs(lam.sum() - surf.value(x, j)) <= 1e-10


class TestCorrected:
    def test_share_gradients_sum_to_gradient(self):
        surf = make_surface("corrected")
        for seed in range(3):
            for j in range(2):
                _, grad, pp = surf.field_data(config(seed), j)
                np.testing.assert_allclose(pp.sum(axis=0), grad, rtol=0,
                                           atol=1e-9)

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
        # one solve at x plus one per central-difference point: field data
        # built as gradient() followed by a second difference pass for the
        # shares would make 12N + 1
        surf = make_surface("corrected", n)
        x = config(5)[:n]
        calls = self.count_solves(monkeypatch)
        surf.field_data(x, 0)
        assert len(calls) == 1 + 6 * n
        calls.clear()
        surf.gradient(x, 0)
        assert len(calls) == 6 * n
        calls.clear()
        surf.shares(x)
        surf.value(x, 0)
        assert len(calls) == 2


def test_shares_one_pass(monkeypatch):
    """The sampler's hot path: one evaluate_parts, one eigendecompose and
    one shares_from_parts per call."""
    surf = make_surface("bare")
    counts = {}
    for owner, name in ((surf.v_pot, "evaluate_parts"),
                        (potential, "eigendecompose"),
                        (potential, "shares_from_parts")):
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    surf.shares(config(6))
    assert counts == {"evaluate_parts": 1, "eigendecompose": 1,
                      "shares_from_parts": 1}
