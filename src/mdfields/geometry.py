"""Pair-distance coordinates, their Jacobian and the gradient lift.

A configuration of N particles is an ``(N, 3)`` array.  Pair quantities use
the fixed lexicographic ordering (0,1), (0,2), ..., (0,N-1), (1,2), ...,
(N-2,N-1); every module in the package shares this layout.
"""

import functools

import numpy as np

from .errors import CoincidentPointsError, ResidualTooLargeError

# relative cutoff for the pseudoinverse; the Jacobian has rank <= 3N-6 for
# N >= 3 because of rigid-motion invariance, so a hard inverse is unusable
SVD_CUTOFF = 1e-10
LIFT_RESIDUAL_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def pair_indices(n):
    """Read-only index arrays (iu, ju) of the pairs i < j in canonical order."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def pair_distances(x):
    """All N(N-1)/2 pair distances |x^i - x^j| in canonical order."""
    x = np.asarray(x, dtype=float)
    iu, ju = pair_indices(x.shape[0])
    return np.linalg.norm(x[iu] - x[ju], axis=1)


def distance_jacobian(x):
    """Jacobian dr/dx as a (P, 3N) matrix, P = N(N-1)/2.

    Row (i, j) carries (x^i - x^j)/r^{ij} in block i and its negation in
    block j; all other entries are zero.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    iu, ju = pair_indices(n)
    diff = x[iu] - x[ju]
    r = np.linalg.norm(diff, axis=1)
    if np.any(r == 0.0):
        bad = int(np.argmin(r))
        raise CoincidentPointsError(
            f"particles {iu[bad]} and {ju[bad]} coincide")
    unit = diff / r[:, None]
    jac = np.zeros((len(iu), 3 * n))
    rows = np.arange(len(iu))
    for a in range(3):
        jac[rows, 3 * iu + a] = unit[:, a]
        jac[rows, 3 * ju + a] = -unit[:, a]
    return jac


def lift_gradient_to_distances(x, g):
    """Minimal-norm v with (dr/dx)^T v = g, i.e. the pair derivatives of an
    invariant potential whose configuration gradient is ``g``.

    ``g`` may be shaped (N, 3) or (3N,).  Uses an SVD pseudoinverse with
    relative cutoff ``SVD_CUTOFF``.

    Raises
    ------
    ResidualTooLargeError
        If the residual exceeds ``LIFT_RESIDUAL_TOL`` max(1, |g|), which
        signals a non-invariant gradient or a geometry degenerate beyond the
        cutoff.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    a = distance_jacobian(x).T  # (3N, P)
    v, *_ = np.linalg.lstsq(a, g, rcond=SVD_CUTOFF)
    resid = np.linalg.norm(a @ v - g)
    tol = LIFT_RESIDUAL_TOL * max(1.0, np.linalg.norm(g))
    if resid > tol:
        raise ResidualTooLargeError(
            f"chain-rule residual {resid:.3e} exceeds {tol:.3e}")
    return v
