"""Compactly supported smooth weight function and bond line integrals.

The weight is the standard bump ``C * eps**-3 * exp(-1/(1-|y/eps|^2))`` for
``|y| < eps`` and zero outside, normalized so its integral over space is one.
The bond integral ``int_0^1 eta(y - s*a - (1-s)*b) ds`` and its y-gradient
turn pair-force differences into divergence form.

``Mollifier.bond_weights`` evaluates both for every (probe, pair) item in
one fused pass: items whose segment misses the support ball are culled
before any quadrature, B and grad B come from the same kernel values, and
each item doubles its Gauss-Legendre panels until its own B and grad B
changes are below ``BOND_TOL``.  An item still unconverged at
``MAX_PANELS`` panels raises ``NoConvergenceError``.  Each item's result
depends on that item alone, not on the others of the call.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameterError, NoConvergenceError

BOND_TOL = 1e-12
MAX_PANELS = 64
_GL_POINTS = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_POINTS)
# quadrature nodes per batch of items: the (items, nodes) arrays of one batch
# stay at 128 kB each whatever the probe and pair counts.  An item's result
# does not depend on the batching.  On a shared 2-core x86_64 machine, 2^14
# ran the bonds of 96 states x 27 probes x 6 pairs in 60 ms against 110 ms
# at 2^16, and a traj-conserve state's in 23 ms against 33-44 ms
_BOND_CHUNK_NODES = 1 << 14


def _panel_rule(panels):
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    u = (np.arange(panels)[:, None] + 0.5 * (1.0 + _GL_NODES)) / panels
    w = np.broadcast_to(_GL_WEIGHTS / (2.0 * panels), u.shape)
    return u.ravel(), w.ravel()


# the doubling schedule 1, 2, 4, ..., MAX_PANELS panels
_PANEL_RULES = tuple(_panel_rule(2 ** k)
                     for k in range(int(np.log2(MAX_PANELS)) + 1))


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
        ``gB`` (Q, P, 3), its y-gradient.  Each item is integrated by
        Gauss-Legendre panels on the part of the segment inside the support
        ball, doubled until the changes of both B and grad B are below
        ``BOND_TOL`` absolute.

        Raises
        ------
        NoConvergenceError
            When an item is still unconverged at ``MAX_PANELS`` panels.
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
        # support of the integrand: |y - b - s d| < eps, quadratic in s
        qi, ki = np.nonzero(np.broadcast_to(~same, (nq, npair)))
        w = y[qi] - b[ki]
        dk, sk = d[ki], seg2[ki]
        beta = np.einsum("ic,ic->i", w, dk) / sk
        disc = beta ** 2 - (np.einsum("ic,ic->i", w, w)
                            - self.epsilon ** 2) / sk
        root = np.sqrt(np.maximum(disc, 0.0))
        lo = np.clip(beta - root, 0.0, 1.0)
        hi = np.clip(beta + root, 0.0, 1.0)
        live = (disc > 0.0) & (hi > lo)
        if not np.any(live):
            return bw, gbw
        qi, ki = qi[live], ki[live]
        beta, dk, sk = beta[live], dk[live], sk[live]
        # foot of the perpendicular: y - b - s d = wp - (s - beta) d with
        # wp orthogonal to d, so |y - b - s d|^2 = |wp|^2 + (s - beta)^2 |d|^2
        wp = w[live] - beta[:, None] * dk
        inv_eps2 = self.epsilon ** -2
        bw[qi, ki], gbw[qi, ki] = self._converge(
            [lo[live], hi[live] - lo[live], beta,
             np.einsum("ic,ic->i", wp, wp) * inv_eps2, sk * inv_eps2],
            wp, dk)
        return bw, gbw

    def _converge(self, items, wp, d):
        """Per-item panel doubling; returns (B, grad B) of every item.

        ``items`` holds per-item arrays (lo, span, beta, |wp|^2/eps^2,
        |d|^2/eps^2); ``wp`` and ``d`` are the (n, 3) perpendicular and
        segment vectors.
        """
        n = wp.shape[0]
        bval = np.empty(n)
        gval = np.empty((n, 3))
        todo = np.arange(n)
        prev = None
        for u, wt in _PANEL_RULES:
            step = max(1, _BOND_CHUNK_NODES // u.size)
            bcur, s0, s1 = np.concatenate(
                [self._panel_moments([arr[i:i + step] for arr in items],
                                     u, wt)
                 for i in range(0, todo.size, step)], axis=1)
            # grad B = -2 eps^-2 int eta g^2 (wp - t d) ds
            gcur = (-2.0 * self.epsilon ** -2) \
                * (s0[:, None] * wp - s1[:, None] * d)
            if prev is not None:
                change = np.maximum(np.abs(bcur - prev[0]),
                                    np.max(np.abs(gcur - prev[1]), axis=1))
                done = change < BOND_TOL
                bval[todo[done]] = bcur[done]
                gval[todo[done]] = gcur[done]
                keep = ~done
                if not np.any(keep):
                    return bval, gval
                todo, bcur, gcur = todo[keep], bcur[keep], gcur[keep]
                items = [arr[keep] for arr in items]
                wp, d = wp[keep], d[keep]
            prev = bcur, gcur
        raise NoConvergenceError(
            f"bond quadrature: {todo.size} (probe, pair) item(s) not "
            f"converged at {MAX_PANELS} panels; worst change "
            f"{float(np.max(change[keep])):.3g} (tolerance {BOND_TOL:g})")

    def _panel_moments(self, items, u, wt):
        """(B, S0, S1) of a batch of items on one composite rule.

        With t = s - beta, z2 = |y - b - s d|^2 / eps^2 and
        g = 1 / (1 - z2): B = int eta ds, S0 = int eta g^2 ds and
        S1 = int eta g^2 t ds over each item's [lo, lo + span].
        """
        lo, span, beta, perp2, seg2 = items
        t = (lo - beta)[:, None] + span[:, None] * u
        # in place from here on: these (items, nodes) arrays are the cost
        g = t * t
        g *= -seg2[:, None]
        g += (1.0 - perp2)[:, None]                 # 1 - z2
        # nodes lie inside the clipped support, but rounding can put z2 at
        # or past 1; the floor makes exp(-g) exactly 0 there with g^2 finite
        np.maximum(g, 2.0 ** -60, out=g)
        np.divide(1.0, g, out=g)
        bump = np.exp(-g)                           # eta / (C eps^-3)
        g *= g
        g *= bump                                   # eta g^2 / (C eps^-3)
        # einsum rather than a BLAS product, whose sum for one item can
        # depend on the item's place in the batch: an item's B is then the
        # same whatever other items, of whichever states, share the call
        b = np.einsum("in,n->i", bump, wt)
        s0 = np.einsum("in,n->i", g, wt)
        g *= t
        scale = span * (self.normalization * self.epsilon ** -3)
        return np.stack([b, s0, np.einsum("in,n->i", g, wt)]) * scale
