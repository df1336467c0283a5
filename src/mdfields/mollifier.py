"""Compactly supported smooth weight function and bond line integrals.

The weight is the standard bump ``C * eps**-3 * exp(-1/(1-|y/eps|^2))`` for
``|y| < eps`` and zero outside, normalized so its integral over space is one.
The bond integral ``int_0^1 eta(y - s*a - (1-s)*b) ds`` and its y-gradient
turn pair-force differences into divergence form.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameterError

BOND_TOL = 1e-12
_GL_POINTS = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_POINTS)

_unit_integral_cache = {}


def _bump_unit(z2):
    """exp(-1/(1-z2)) on z2 < 1, 0 elsewhere; z2 = |y/eps|^2."""
    out = np.zeros_like(z2)
    inside = z2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - z2[inside]))
    return out


def _unit_integral(n_gauss=160):
    """Integral of the unnormalized unit bump over its support cube."""
    if n_gauss in _unit_integral_cache:
        return _unit_integral_cache[n_gauss]
    nodes, weights = leggauss(n_gauss)
    xx, yy, zz = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    z2 = xx ** 2 + yy ** 2 + zz ** 2
    vals = _bump_unit(z2)
    w3 = weights[:, None, None] * weights[None, :, None] * weights[None, None, :]
    val = float(np.sum(vals * w3))
    _unit_integral_cache[n_gauss] = val
    return val


class Mollifier:
    """Normalized bump of support radius ``epsilon``.

    ``eval`` and ``grad`` accept points shaped ``(..., 3)`` and broadcast.
    """

    def __init__(self, epsilon):
        if epsilon <= 0:
            raise InvalidParameterError("mollifier radius must be positive")
        self.epsilon = float(epsilon)
        # normalization constant C with eval = C * eps^-3 * bump(|y/eps|^2);
        # the unit integral is epsilon-independent and cached; 160 Gauss
        # points per axis pin it to ~1e-14
        self.normalization = 1.0 / _unit_integral()

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

        Symmetric in (a, b).  Gauss-Legendre panels on the sub-interval where
        the segment intersects the support ball, bisected until the change is
        below ``BOND_TOL`` absolute.
        """
        return self._bond(y, a, b, self.eval)

    def bond_integral_grad(self, y, a, b):
        """y-gradient of the bond integral (grad eta along the segment)."""
        return self._bond(y, a, b, self.grad, vector=True)

    def _bond(self, y, a, b, kernel, vector=False):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        y = np.atleast_2d(y)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        nq = y.shape[0]
        shape = (nq, 3) if vector else (nq,)
        d = a - b
        seg2 = float(d @ d)
        if seg2 == 0.0:
            vals = kernel(y - a)
            out = np.asarray(vals, dtype=float).reshape(shape)
            return out[0] if single else out
        # support of the integrand: |y - b - s d| < eps, quadratic in s
        w = y - b
        beta = (w @ d) / seg2
        disc = beta ** 2 - (np.sum(w * w, axis=1) - self.epsilon ** 2) / seg2
        out = np.zeros(shape)
        hit = disc > 0.0
        if not np.any(hit):
            return out[0] if single else out
        sqrt_disc = np.sqrt(disc[hit])
        lo = np.clip(beta[hit] - sqrt_disc, 0.0, 1.0)
        hi = np.clip(beta[hit] + sqrt_disc, 0.0, 1.0)
        yh = y[hit]

        def estimate(panels):
            # composite rule with `panels` equal panels on [lo, hi] per probe
            edges = lo[:, None] + (hi - lo)[:, None] * \
                np.linspace(0.0, 1.0, panels + 1)[None, :]
            half = 0.5 * (edges[:, 1:] - edges[:, :-1])      # (m, panels)
            mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
            s = mid[:, :, None] + half[:, :, None] * _GL_NODES[None, None, :]
            pts = yh[:, None, None, :] - b[None, None, None, :] \
                - s[..., None] * d[None, None, None, :]
            vals = kernel(pts.reshape(-1, 3))
            if vector:
                vals = vals.reshape(s.shape + (3,))
                return np.einsum("mpkc,k,mp->mc", vals, _GL_WEIGHTS, half)
            vals = vals.reshape(s.shape)
            return np.einsum("mpk,k,mp->m", vals, _GL_WEIGHTS, half)

        panels = 1
        prev = estimate(panels)
        while panels < 64:
            panels *= 2
            cur = estimate(panels)
            err = np.max(np.abs(cur - prev))
            prev = cur
            if err < BOND_TOL:
                break
        out[hit] = prev
        return out[0] if single else out
