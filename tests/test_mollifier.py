import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from mdfields import mollifier
from mdfields.errors import InvalidParameterError, NoConvergenceError
from mdfields.mollifier import Mollifier


def grid_integral(eta, lim, n=160):
    """Tensor Gauss-Legendre integral of eta.eval over [-lim, lim]^3."""
    nodes, weights = leggauss(n)
    pts = nodes * lim
    xx, yy, zz = np.meshgrid(pts, pts, pts, indexing="ij")
    y = np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)
    vals = eta.eval(y).reshape(n, n, n)
    w = weights * lim
    return float(np.einsum("ijk,i,j,k->", vals, w, w, w))


class TestEval:
    def test_invalid_epsilon(self):
        with pytest.raises(InvalidParameterError):
            Mollifier(0.0)

    def test_support(self):
        eta = Mollifier(0.5)
        assert eta.eval(np.array([0.5, 0.0, 0.0])) == 0.0
        assert eta.eval(np.array([0.6, 0.1, 0.0])) == 0.0
        assert eta.eval(np.array([0.2, 0.1, 0.0])) > 0.0

    def test_even_symmetry(self):
        eta = Mollifier(0.8)
        rng = np.random.default_rng(2)
        y = rng.uniform(-1, 1, size=(40, 3))
        np.testing.assert_allclose(eta.eval(y), eta.eval(-y), atol=1e-15)

    def test_normalization(self):
        for eps in (0.3, 1.0, 2.5):
            eta = Mollifier(eps)
            assert abs(grid_integral(eta, eps) - 1.0) <= 1e-10

    def test_scaling(self):
        # eta_eps(y) = eps^-3 eta_1(y/eps)
        e1 = Mollifier(1.0)
        e2 = Mollifier(2.0)
        y = np.array([0.4, -0.2, 0.6])
        np.testing.assert_allclose(
            e2.eval(y), e1.eval(y / 2.0) / 8.0, rtol=1e-14)

    def test_batched_matches_scalar(self):
        eta = Mollifier(0.7)
        rng = np.random.default_rng(5)
        y = rng.uniform(-1, 1, size=(20, 3))
        batch = eta.eval(y)
        for i in range(20):
            assert batch[i] == eta.eval(y[i])


class TestGrad:
    def test_zero_at_origin_and_outside(self):
        eta = Mollifier(0.5)
        np.testing.assert_allclose(eta.grad(np.zeros(3)), 0.0)
        np.testing.assert_allclose(eta.grad(np.array([0.7, 0.0, 0.0])), 0.0)

    def test_finite_difference(self):
        eta = Mollifier(1.0)
        rng = np.random.default_rng(8)
        h = 1e-6
        for y in rng.uniform(-0.9, 0.9, size=(15, 3)):
            fd = np.empty(3)
            for a in range(3):
                e = np.zeros(3)
                e[a] = h
                fd[a] = (eta.eval(y + e) - eta.eval(y - e)) / (2 * h)
            np.testing.assert_allclose(eta.grad(y), fd, atol=1e-6)

    def test_odd_symmetry(self):
        eta = Mollifier(0.6)
        rng = np.random.default_rng(9)
        y = rng.uniform(-0.7, 0.7, size=(25, 3))
        np.testing.assert_allclose(eta.grad(y), -eta.grad(-y), atol=1e-15)


class TestBondIntegral:
    def test_coincident_endpoints(self):
        eta = Mollifier(0.5)
        a = np.array([0.1, 0.0, 0.0])
        y = np.array([0.2, 0.1, -0.1])
        assert eta.bond_integral(y, a, a) == eta.eval(y - a)

    def test_endpoint_symmetry(self):
        eta = Mollifier(0.8)
        rng = np.random.default_rng(12)
        a = rng.normal(size=3)
        b = a + rng.normal(scale=0.4, size=3)
        y = a + rng.normal(scale=0.3, size=(10, 3))
        np.testing.assert_allclose(
            eta.bond_integral(y, a, b), eta.bond_integral(y, b, a),
            atol=1e-12)

    def test_far_probe_vanishes(self):
        eta = Mollifier(0.3)
        a = np.zeros(3)
        b = np.array([1.0, 0.0, 0.0])
        y = np.array([0.5, 5.0, 0.0])  # off the tube around the segment
        assert eta.bond_integral(y, a, b) == 0.0

    def test_against_adaptive_reference(self):
        from scipy.integrate import quad

        eta = Mollifier(0.6)
        rng = np.random.default_rng(15)
        a = np.array([0.2, -0.1, 0.3])
        b = np.array([-0.4, 0.2, -0.1])
        for y in rng.normal(scale=0.4, size=(6, 3)):
            def f(s):
                return eta.eval(y - s * a - (1.0 - s) * b)

            ref, _ = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
            assert abs(eta.bond_integral(y, a, b) - ref) <= 1e-9

    def test_divergence_identity(self):
        # eta(y-a) - eta(y-b) = -(a-b) . grad_y int_0^1 eta(y-sa-(1-s)b) ds
        eta = Mollifier(0.7)
        rng = np.random.default_rng(18)
        a = np.array([0.15, 0.05, -0.2])
        b = np.array([-0.25, 0.3, 0.1])
        y = rng.normal(scale=0.35, size=(30, 3))
        lhs = eta.eval(y - a) - eta.eval(y - b)
        rhs = -eta.bond_integral_grad(y, a, b) @ (a - b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_grad_matches_fd_of_bond(self):
        eta = Mollifier(0.5)
        a = np.array([0.1, 0.0, 0.0])
        b = np.array([-0.2, 0.1, 0.05])
        y = np.array([0.05, 0.12, -0.03])
        h = 1e-6
        fd = np.empty(3)
        for c in range(3):
            e = np.zeros(3)
            e[c] = h
            fd[c] = (eta.bond_integral(y + e, a, b)
                     - eta.bond_integral(y - e, a, b)) / (2 * h)
        np.testing.assert_allclose(eta.bond_integral_grad(y, a, b), fd,
                                   atol=1e-6)


def per_pair_bond(eta, y, a, b, kernel, vector=False, panels=None):
    """Reference: one pair at a time, Gauss-Legendre panels doubled until the
    worst probe's change is below BOND_TOL, or a fixed number of
    ``panels``."""
    d = a - b
    seg2 = float(d @ d)
    if seg2 == 0.0:
        return kernel(y - a)
    w = y - b
    beta = (w @ d) / seg2
    disc = beta ** 2 - (np.sum(w * w, axis=1) - eta.epsilon ** 2) / seg2
    out = np.zeros((len(y), 3) if vector else len(y))
    hit = disc > 0.0
    if not np.any(hit):
        return out
    lo = np.clip(beta[hit] - np.sqrt(disc[hit]), 0.0, 1.0)
    hi = np.clip(beta[hit] + np.sqrt(disc[hit]), 0.0, 1.0)
    nodes, weights = leggauss(16)

    def estimate(panels):
        edges = lo[:, None] + (hi - lo)[:, None] \
            * np.linspace(0.0, 1.0, panels + 1)[None, :]
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
        s = mid[:, :, None] + half[:, :, None] * nodes[None, None, :]
        pts = y[hit][:, None, None, :] - b - s[..., None] * d
        vals = kernel(pts.reshape(-1, 3))
        if vector:
            return np.einsum("mpkc,k,mp->mc", vals.reshape(s.shape + (3,)),
                             weights, half)
        return np.einsum("mpk,k,mp->m", vals.reshape(s.shape), weights, half)

    if panels is not None:
        out[hit] = estimate(panels)
        return out
    panels = 1
    prev = estimate(panels)
    while panels < 64:
        panels *= 2
        cur = estimate(panels)
        err = np.max(np.abs(cur - prev))
        prev = cur
        if err < mollifier.BOND_TOL:
            break
    out[hit] = prev
    return out


def mixed_pairs():
    """Pairs and probes mixing hits, misses, empty clipped intervals and a
    coincident pair."""
    rng = np.random.default_rng(21)
    a = rng.normal(scale=0.6, size=(6, 3))
    b = a + rng.normal(scale=0.5, size=(6, 3))
    b[2] = a[2]                                   # coincident endpoints
    a[4], b[4] = [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]
    y = np.vstack([rng.normal(scale=0.7, size=(30, 3)),
                   [[1.9, 0.0, 0.0],              # on the line past a: the
                    [-0.9, 0.0, 0.0],             # clipped interval is empty
                    [6.0, 6.0, 6.0]]])            # misses every segment
    return y, a, b


def lattice_pairs():
    """A traj-conserve-shaped state: eight particles near the corners of a
    unit cube, their 28 pairs and 200 probes in the box around them."""
    rng = np.random.default_rng(23)
    x = np.mgrid[0:2, 0:2, 0:2].reshape(3, -1).T \
        + rng.normal(scale=0.05, size=(8, 3))
    iu, ju = np.triu_indices(8, 1)
    y = rng.uniform(x.min(axis=0) - 0.3, x.max(axis=0) + 0.3, size=(200, 3))
    return y, x[iu], x[ju]


# probes and pairs of the stop-rule checks, with a mollifier radius of 1.2
STATES = pytest.mark.parametrize("state", [mixed_pairs, lattice_pairs],
                                 ids=["mixed", "lattice"])


def quadrature_items(monkeypatch, eta, y, a, b):
    """The per-item rows ``bond_weights`` hands its tanh-sinh quadrature."""
    rows = []
    real = mollifier._tanh_sinh

    def keep(par):
        rows.append(par)
        return real(par)

    monkeypatch.setattr(mollifier, "_tanh_sinh", keep)
    eta.bond_weights(y, a, b)
    monkeypatch.setattr(mollifier, "_tanh_sinh", real)
    return np.concatenate(rows)


def items_per_step(monkeypatch, eta, y, a, b):
    """The number of items the tanh-sinh quadrature evaluates at each step
    of a ``bond_weights`` call."""
    counts = np.zeros(len(mollifier._LEVELS), dtype=int)
    real = mollifier._node_sums

    def count(par, x, wt):
        step = [level[1] is x for level in mollifier._LEVELS].index(True)
        counts[step] += par.shape[0]
        return real(par, x, wt)

    monkeypatch.setattr(mollifier, "_node_sums", count)
    eta.bond_weights(y, a, b)
    monkeypatch.setattr(mollifier, "_node_sums", real)
    return counts


def nested_estimates(par):
    """(h, estimate, change) per step, from running sums over the steps'
    new nodes: estimate (items, 2) is h times the sums of w bump and
    w bump g^2, and change (items, 2) the changes of B and of grad B
    against the step before (None at the first step)."""
    sums = 0.0
    for level, (h, x, wt, w_end) in enumerate(mollifier._LEVELS):
        new = mollifier._node_sums(par, x, wt) + w_end * par[:, 3:5]
        change = None
        if level:
            change = np.abs(new - sums) * (h * par[:, 5:6])
            change[:, 1] *= par[:, 6]
        sums = sums + new
        yield h, h * sums, change


class TestBondWeights:
    def test_matches_per_pair_reference(self):
        eta = Mollifier(0.6)
        y, a, b = mixed_pairs()
        bw, gbw = eta.bond_weights(y, a, b)
        # the mix holds every kind of item
        assert np.any(bw == 0.0) and np.any(bw > 0.0)
        assert np.all(bw[-3:-1, 4] == 0.0) and np.all(bw[-1] == 0.0)
        # coincident endpoints keep the exact kernel values
        assert np.array_equal(bw[:, 2], eta.eval(y - a[2]))
        assert np.array_equal(gbw[:, 2], eta.grad(y - a[2]))
        for probes in (y, y[:1]):
            bw, gbw = eta.bond_weights(probes, a, b)
            assert bw.shape == (len(probes), len(a))
            assert gbw.shape == (len(probes), len(a), 3)
            for k in range(len(a)):
                ref = per_pair_bond(eta, probes, a[k], b[k], eta.eval)
                gref = per_pair_bond(eta, probes, a[k], b[k], eta.grad,
                                     vector=True)
                np.testing.assert_allclose(bw[:, k], ref, rtol=0, atol=1e-12)
                np.testing.assert_allclose(gbw[:, k], gref, rtol=0,
                                           atol=1e-12)

    def test_pair_permutation_permutes_columns(self):
        eta = Mollifier(0.7)
        y, a, b = mixed_pairs()
        perm = np.random.default_rng(3).permutation(len(a))
        bw, gbw = eta.bond_weights(y, a, b)
        pbw, pgbw = eta.bond_weights(y, a[perm], b[perm])
        np.testing.assert_allclose(pbw, bw[:, perm], rtol=0, atol=1e-15)
        np.testing.assert_allclose(pgbw, gbw[:, perm], rtol=0, atol=1e-15)

    def test_matches_fine_reference(self):
        eta = Mollifier(0.6)
        y, a, b = mixed_pairs()
        bw, gbw = eta.bond_weights(y, a, b)
        for k in range(len(a)):
            ref = per_pair_bond(eta, y, a[k], b[k], eta.eval, panels=1024)
            gref = per_pair_bond(eta, y, a[k], b[k], eta.grad, vector=True,
                                 panels=1024)
            np.testing.assert_allclose(bw[:, k], ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gbw[:, k], gref, rtol=0, atol=1e-12)

    def test_first_moment_closed_form(self):
        # wp is orthogonal to d, so grad B . d = 2 eps^-2 |d|^2 S1 with
        # S1 = int eta g^2 (s - beta) ds, and grad B . d is the bond
        # integral of grad eta . d, a function of the point alone
        eta = Mollifier(1.2)
        rng = np.random.default_rng(31)
        a = rng.normal(scale=0.8, size=(8, 3))
        b = a + rng.normal(scale=0.7, size=(8, 3))
        # probes near the endpoints clip the support interval at s = 0 or 1
        y = np.vstack([rng.normal(scale=1.0, size=(20, 3)),
                       a + rng.normal(scale=0.3, size=(8, 3)),
                       b + rng.normal(scale=0.3, size=(8, 3))])
        _, gbw = eta.bond_weights(y, a, b)
        clipped = 0
        for k in range(len(a)):
            d = a[k] - b[k]
            to_s1 = eta.epsilon ** 2 / (2.0 * (d @ d))
            ref = per_pair_bond(eta, y, a[k], b[k],
                                lambda v: eta.grad(v) @ d, panels=1024)
            np.testing.assert_allclose(gbw[:, k] @ d * to_s1, ref * to_s1,
                                       rtol=0, atol=1e-14)
            clipped += np.sum(eta.eval(y - a[k]) > 0.0)
        assert clipped > 0

    def test_tail_weight(self):
        # the weight tanh-sinh drops past |tau| = tau_max on each side is
        # 1 - tanh(pi/2 sinh tau_max), below rounding of any sum
        tau = mollifier._TAU_MAX
        tail = 2.0 / (1.0 + np.exp(np.pi * np.sinh(tau)))
        edge = 0.5 * np.pi * np.cosh(tau) / np.cosh(0.5 * np.pi
                                                    * np.sinh(tau)) ** 2
        assert tail < 1e-30 and edge < 1e-30

    def test_nested_sums_match_fresh_rule(self, monkeypatch):
        par = quadrature_items(monkeypatch, Mollifier(1.2), *mixed_pairs())
        center, radius, gap = par[:, 0:1], par[:, 1:2], par[:, 2:3]
        for h, estimate, _ in nested_estimates(par):
            # a fresh rule: every node tau = k h, |tau| <= tau_max, at once
            tau = h * np.arange(-round(mollifier._TAU_MAX / h),
                                round(mollifier._TAU_MAX / h) + 1)
            u = 0.5 * np.pi * np.sinh(tau)
            w = 0.5 * np.pi * np.cosh(tau) / np.cosh(u) ** 2
            one_minus_z2 = gap - (center + radius * np.tanh(u)) ** 2
            inside = one_minus_z2 > 0.0
            g = 1.0 / np.where(inside, one_minus_z2, 1.0)
            bump = np.where(inside, np.exp(-g), 0.0)
            fresh = h * np.stack([bump @ w, (bump * g * g) @ w], axis=1)
            np.testing.assert_allclose(estimate, fresh, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("tol", [1e-6, mollifier.BOND_TOL])
    def test_stop_rule(self, monkeypatch, tol):
        # an item stops at the first step from h = 1/8 on where the
        # estimated errors of its B and grad B are below the tolerance: the
        # change at h = 1/8, then change * min(1, change / previous
        # change)^2
        monkeypatch.setattr(mollifier, "BOND_TOL", tol)
        par = quadrature_items(monkeypatch, Mollifier(1.2), *mixed_pairs())
        n = par.shape[0]
        stop = np.zeros(n, dtype=int)
        levels = []
        for level, (_, estimate, change) in enumerate(
                nested_estimates(par)):
            levels.append(estimate)
            if level >= 2:
                rate = np.ones_like(change)
                if level > 2:
                    np.divide(change, prev, out=rate, where=prev > 0.0)
                    np.minimum(rate, 1.0, out=rate)
                error = change * rate * rate
                stop[(stop == 0) & (np.max(error, axis=1) < tol)] = level
            prev = change
        assert np.all(stop >= 2) and len(set(stop)) > 1
        np.testing.assert_array_equal(mollifier._tanh_sinh(par).T,
                                      np.array(levels)[stop, np.arange(n)])

    @STATES
    def test_no_stop_on_one_change(self, monkeypatch, state):
        # h = 1/2 and 1/4 can agree by chance, so every item goes on to
        # h = 1/8, where it has two changes
        counts = items_per_step(monkeypatch, Mollifier(1.2), *state())
        assert counts[0] > 0
        assert counts[2] == counts[1] == counts[0]

    @STATES
    def test_stopped_items_near_finest_step(self, monkeypatch, state):
        # every item's result is within 2 BOND_TOL of its h = 1/128 sums,
        # in B and in the largest grad B component
        par = quadrature_items(monkeypatch, Mollifier(1.2), *state())
        *_, (_, finest, _) = nested_estimates(par)
        error = np.abs(mollifier._tanh_sinh(par).T - finest) * par[:, 5:6]
        error[:, 1] *= par[:, 6]
        assert np.max(error) <= 2.0 * mollifier.BOND_TOL

    @STATES
    def test_evaluations_per_item(self, monkeypatch, state):
        # the error estimate stops most items at h = 1/16, after 101 kernel
        # evaluations; a stop on the last change alone takes about 167
        counts = items_per_step(monkeypatch, Mollifier(1.2), *state())
        nodes = [x.size for _, x, _, _ in mollifier._LEVELS]
        assert counts @ nodes / counts[0] <= 110.0

    def test_memory_bounded(self):
        # items are culled and integrated in chunks of fixed size, so the
        # heap a call needs beyond its outputs does not grow with the items
        eta = Mollifier(0.9)
        rng = np.random.default_rng(4)
        probes = rng.uniform(0.3, 1.5, size=(27, 3))
        extra = []
        for states in (96, 384):
            x = rng.uniform(0.0, 1.8, size=(states, 4, 3))
            iu, ju = np.triu_indices(4, 1)
            tracemalloc.start()
            try:
                bw, gbw = eta.bond_weights(probes, x[:, iu].reshape(-1, 3),
                                           x[:, ju].reshape(-1, 3))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - bw.nbytes - gbw.nbytes)
        assert extra[1] < 1.5 * extra[0]

    def test_level_cap_raises(self, monkeypatch):
        eta = Mollifier(0.6)
        y, a, b = mixed_pairs()
        monkeypatch.setattr(mollifier, "BOND_TOL", 0.0)
        with pytest.raises(NoConvergenceError, match="h = 1/128"):
            eta.bond_weights(y, a, b)
