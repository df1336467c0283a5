"""Compactly supported smooth weight function and bond line integrals.

The weight is the standard bump ``C * eps**-3 * exp(-1/(1-|y/eps|^2))`` for
``|y| < eps`` and zero outside, normalized so its integral over space is one.
The bond integral ``int_0^1 eta(y - s*a - (1-s)*b) ds`` and its y-gradient
turn pair-force differences into divergence form.

``Mollifier.bond_weights`` evaluates both for every (probe, pair) item, a
bounded chunk of items at a time: items whose segment misses the support
ball are culled before any quadrature, and the rest are integrated on the
part of the segment inside the ball.  The part of grad B along the segment
is an exact derivative, so it needs no quadrature.  B and the rest of
grad B come from the same kernel values of a nested tanh-sinh rule
(Takahasi & Mori, Publ. RIMS 9 (1974) 721): each item halves its step,
adding only the new nodes, until the errors of its own B and grad B,
estimated from its last two changes, are below ``BOND_TOL``.  The rule
converges quadratically, so the error left after a step is about
change^3 / previous change^2 (Bailey, Jeyabalan & Li, Experiment. Math.
14 (2005) 317), far below the change itself.  An item still unconverged
at the last step raises ``NoConvergenceError``.  Each item's result
depends on that item alone, not on the others of the call.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameterError, NoConvergenceError

BOND_TOL = 1e-12
# tanh-sinh nodes tau = k h, |tau| <= _TAU_MAX, for the steps h = 1/2, 1/4,
# ..., 1/128.  Past 4 the weights are below 1e-35, so the error estimate,
# which reads the changes between steps on the same tau range, has no
# truncation error to miss
_TAU_MAX = 4.0
_STEPS = 0.5 ** np.arange(1, 8)
# floor of 1 - z2 at the nodes: rounding can put z2 at or past 1 at the ends
# of the support.  exp(-1/floor) = 2.7e-261 is far below any tolerance, and
# it keeps exp and the weighted sums out of the slow subnormal range
_GAP_FLOOR = 1.0 / 600.0
# (probe, pair) items culled and integrated together, and nodes per batch
# of one step's (items, nodes) arrays: both bound the memory whatever the
# probe, pair and state counts, and an item's result does not depend on
# either.  On a shared 2-core x86_64 machine, 2^11 items kept the heap peak
# of a canonical-corrected check at 5.2 MB (5.7 MB at 2^12, 7.8 MB with
# the whole call culled at once); 2^15 nodes (256 kB arrays) ran its bonds
# in 18 ms and a traj-conserve state's in 8 ms, against 20 and 10 ms at 2^17
_BOND_CHUNK_ITEMS = 1 << 11
_BOND_CHUNK_NODES = 1 << 15


def _tanh_sinh_levels():
    """(h, x, w, w_end) per step: the nodes a step adds to the steps before.

    x = tanh(pi/2 sinh tau) and w = dx/dtau, so that int_{-1}^{1} f dx is
    about h sum w f(x) over every node up to step h; ``x`` holds the nodes
    inside (-1, 1), and ``w_end`` is the weight of the nodes that round to
    each end.
    """
    levels = []
    for h in _STEPS:
        k = np.arange(-round(_TAU_MAX / h), round(_TAU_MAX / h) + 1)
        tau = h * (k if h == _STEPS[0] else k[k % 2 == 1])
        u = 0.5 * np.pi * np.sinh(tau)
        x = np.tanh(u)
        w = 0.5 * np.pi * np.cosh(tau) / np.cosh(u) ** 2
        # nodes that round to x = +-1 would evaluate the kernel at the
        # ends, whose values each item has already
        inner = np.abs(x) < 1.0
        levels.append((h, x[inner], w[inner], 0.5 * np.sum(w[~inner])))
    return tuple(levels)


_LEVELS = _tanh_sinh_levels()


def _bump_unit(z2):
    """exp(-1/(1-z2)) on z2 < 1, 0 elsewhere; z2 = |y/eps|^2."""
    out = np.zeros_like(z2)
    inside = z2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - z2[inside]))
    return out


def _unit_integral():
    """Integral of the unnormalized unit bump over space.

    The bump is radial, so this is 4 pi int_0^1 r^2 exp(-1/(1-r^2)) dr;
    128 Gauss-Legendre nodes agree with a 30-digit adaptive quadrature to
    1e-14 relative.
    """
    nodes, weights = leggauss(128)
    r = 0.5 * (nodes + 1.0)
    return float(2.0 * np.pi * np.sum(weights * r * r * _bump_unit(r * r)))


_UNIT_INTEGRAL = _unit_integral()


class Mollifier:
    """Normalized bump of support radius ``epsilon``.

    ``eval`` and ``grad`` accept points shaped ``(..., 3)`` and broadcast.
    """

    def __init__(self, epsilon):
        if epsilon <= 0:
            raise InvalidParameterError("mollifier radius must be positive")
        self.epsilon = float(epsilon)
        # normalization constant C with eval = C * eps^-3 * bump(|y/eps|^2);
        # the unit integral is epsilon-independent
        self.normalization = 1.0 / _UNIT_INTEGRAL

    def eval(self, y):
        y = np.asarray(y, dtype=float)
        z2 = np.sum((y / self.epsilon) ** 2, axis=-1)
        scalar = z2.ndim == 0
        z2 = np.atleast_1d(z2)
        out = self.normalization * self.epsilon ** -3 * _bump_unit(z2)
        return float(out[0]) if scalar else out

    def grad(self, y):
        """Exact gradient of ``eval``; identically zero for |y| >= epsilon."""
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        y = np.atleast_2d(y)
        z2 = np.sum((y / self.epsilon) ** 2, axis=-1)
        out = np.zeros_like(y)
        inside = z2 < 1.0
        if np.any(inside):
            g = 1.0 / (1.0 - z2[inside])
            eta = self.normalization * self.epsilon ** -3 * np.exp(-g)
            # d/dy [-1/(1-|y/eps|^2)] = -g^2 * 2y/eps^2
            out[inside] = (-eta * g ** 2 * 2.0 / self.epsilon ** 2)[:, None] \
                * y[inside]
        return out[0] if single else out

    def bond_integral(self, y, a, b):
        """``int_0^1 eta(y - s*a - (1-s)*b) ds``; ``y`` may be batched.

        Symmetric in (a, b).  A single-pair view of ``bond_weights``.
        """
        y = np.asarray(y, dtype=float)
        bw, _ = self.bond_weights(np.atleast_2d(y), np.reshape(a, (1, 3)),
                                  np.reshape(b, (1, 3)))
        return bw[0, 0] if y.ndim == 1 else bw[:, 0]

    def bond_integral_grad(self, y, a, b):
        """y-gradient of the bond integral (grad eta along the segment)."""
        y = np.asarray(y, dtype=float)
        _, gbw = self.bond_weights(np.atleast_2d(y), np.reshape(a, (1, 3)),
                                   np.reshape(b, (1, 3)))
        return gbw[0, 0] if y.ndim == 1 else gbw[:, 0]

    def bond_weights(self, y, a, b):
        """Bond integrals and their y-gradients for every probe and pair.

        ``y`` is (Q, 3), ``a`` and ``b`` are (P, 3); returns ``B`` (Q, P)
        with ``B[q, k] = int_0^1 eta(y_q - s a_k - (1-s) b_k) ds`` and
        ``gB`` (Q, P, 3), its y-gradient.  Each item is integrated on the
        part of its segment inside the support ball by the nested tanh-sinh
        rule, its step halved until the errors of both B and grad B,
        estimated from the item's last two changes, are below ``BOND_TOL``
        absolute (never before h = 1/8); the part of grad B along the
        segment is exact.  Items are culled and integrated
        ``_BOND_CHUNK_ITEMS`` at a time.

        Raises
        ------
        NoConvergenceError
            When an item is still unconverged at the last step, h = 1/128.
        """
        y = np.asarray(y, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        nq, npair = y.shape[0], a.shape[0]
        bw = np.zeros((nq, npair))
        gbw = np.zeros((nq, npair, 3))
        d = a - b
        seg2 = np.einsum("kc,kc->k", d, d)
        same = seg2 == 0.0
        if np.any(same):
            # coincident endpoints: the integrand is constant in s
            dy = y[:, None, :] - a[None, same, :]
            bw[:, same] = self.eval(dy)
            gbw[:, same] = self.grad(dy)
        for start in range(0, nq * npair, _BOND_CHUNK_ITEMS):
            qi, ki = np.divmod(
                np.arange(start, min(start + _BOND_CHUNK_ITEMS, nq * npair)),
                npair)
            qi, ki = qi[~same[ki]], ki[~same[ki]]
            bw[qi, ki], gbw[qi, ki] = self._bond_chunk(
                y[qi] - b[ki], d[ki], seg2[ki])
        return bw, gbw

    def _bond_chunk(self, w, d, seg2):
        """(B, grad B) of the items with y - b = ``w`` and a - b = ``d``.

        Items whose segment misses the support ball get zeros without any
        quadrature.
        """
        bval = np.zeros(w.shape[0])
        gval = np.zeros(w.shape)
        # support of the integrand: |y - b - s d| < eps, quadratic in s
        beta = np.einsum("ic,ic->i", w, d) / seg2
        disc = beta ** 2 - (np.einsum("ic,ic->i", w, w)
                            - self.epsilon ** 2) / seg2
        root = np.sqrt(np.maximum(disc, 0.0))
        lo = np.clip(beta - root, 0.0, 1.0)
        hi = np.clip(beta + root, 0.0, 1.0)
        live = np.flatnonzero((disc > 0.0) & (hi > lo))
        if not live.size:
            return bval, gval
        beta, lo, hi, d = beta[live], lo[live], hi[live], d[live]
        # foot of the perpendicular: y - b - s d = wp - (s - beta) d with
        # wp orthogonal to d, so |y - b - s d|^2 = |wp|^2 + (s - beta)^2 |d|^2
        # and, with t = s - beta, 1 - z2 = 1 - |wp|^2/eps^2 - r^2 t^2 where
        # r = |d|/eps
        wp = w[live] - beta[:, None] * d
        inv_eps2 = self.epsilon ** -2
        r = np.sqrt(seg2[live] * inv_eps2)
        gap = 1.0 - np.einsum("ic,ic->i", wp, wp) * inv_eps2
        half = 0.5 * (hi - lo)
        norm = self.normalization * self.epsilon ** -3
        scale = half * norm
        # kernel values at lo and hi: bump = exp(-g) and bump g^2
        g_end = 1.0 / np.maximum(
            gap - (r * (np.stack([lo, hi]) - beta)) ** 2, _GAP_FLOOR)
        bump_end = np.exp(-g_end)
        sums = _tanh_sinh(np.stack(
            [r * (0.5 * (lo + hi) - beta), r * half, gap,
             bump_end[0] + bump_end[1],
             np.einsum("ei,ei->i", g_end * g_end, bump_end),
             scale,
             2.0 * inv_eps2 * np.max(np.abs(wp), axis=1)], axis=1))
        sums *= scale
        # S1 = int eta g^2 t ds in closed form: d/dt exp(-g) = -2 r^2 t g^2
        # exp(-g) with g = 1 / (1 - z2); grad B = -2 eps^-2 (S0 wp - S1 d)
        s1 = norm * (bump_end[0] - bump_end[1]) / (2.0 * r * r)
        bval[live] = sums[0]
        gval[live] = (-2.0 * inv_eps2) * (sums[1][:, None] * wp
                                          - s1[:, None] * d)
        return bval, gval


def _tanh_sinh(par):
    """Per-item tanh-sinh sums (h sum w bump, h sum w bump g^2) on (-1, 1).

    Row i of ``par`` is (center, radius, gap, bump_ends, bump_g2_ends,
    scale, grad_weight): the node at x has rt = center + radius x and
    1 - z2 = gap - rt^2, the nodes at x = -1 and 1 take the kernel values
    summed in ``bump_ends`` and ``bump_g2_ends``, ``scale`` turns a sum
    into the item's integral and ``grad_weight`` the S0 change into the
    largest grad B change.  Each halving of the step adds its new nodes to
    running sums, and an item stops when the estimated errors of its B and
    grad B are below ``BOND_TOL``.  The estimate needs two changes, so no
    item stops before h = 1/8.  At h = 1/8 it is the change itself; from
    h = 1/16 on it is change * min(1, change / previous change)^2, the
    error a quadratically converging rule leaves, and never more than the
    change.
    """
    todo = np.arange(par.shape[0])
    out = np.empty((2, todo.size))
    for h, x, wt, w_end in _LEVELS:
        rows = max(1, _BOND_CHUNK_NODES // x.size)
        new = np.concatenate([_node_sums(par[i:i + rows], x, wt)
                              for i in range(0, todo.size, rows)])
        new += w_end * par[:, 3:5]
        if h == _STEPS[0]:
            sums = new
            continue
        # at step h the estimate is h (old + new) against 2 h old
        change = np.abs(new - sums)
        change *= h * par[:, 5:6]
        change[:, 1] *= par[:, 6]
        sums += new
        if h == _STEPS[1]:
            # one change only: h = 1/2 and 1/4 can agree by chance, and the
            # 13 nodes of h = 1/2 are too few to set a rate.  A previous
            # change of 0 makes the h = 1/8 estimate the change itself
            prev = np.zeros_like(change)
            continue
        shrink = np.divide(change, prev, out=np.ones_like(change),
                           where=change < prev)
        error = change * shrink * shrink
        done = np.max(error, axis=1) < BOND_TOL
        out[:, todo[done]] = h * sums[done].T
        if np.all(done):
            return out
        keep = ~done
        par, sums, todo = par[keep], sums[keep], todo[keep]
        prev = change[keep]
    raise NoConvergenceError(
        f"bond quadrature: {todo.size} (probe, pair) item(s) not converged "
        f"at tanh-sinh step h = 1/{round(1 / h)}; worst estimated error "
        f"{float(np.max(error[keep])):.3g} (tolerance {BOND_TOL:g})")


def _node_sums(par, x, wt):
    """(sum w bump, sum w bump g^2) per item over the nodes ``x``."""
    rt = par[:, 1:2] * x
    rt += par[:, 0:1]
    g = np.multiply(rt, rt, out=rt)
    np.subtract(par[:, 2:3], g, out=g)                         # 1 - z2
    np.maximum(g, _GAP_FLOOR, out=g)
    np.divide(-1.0, g, out=g)                                  # -g
    bump = np.exp(g)
    g *= g
    g *= bump
    # einsum rather than a BLAS product, whose sum for one item can depend
    # on the item's place in the batch
    return np.stack([np.einsum("in,n->i", bump, wt),
                     np.einsum("in,n->i", g, wt)], axis=1)
