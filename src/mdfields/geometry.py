"""Pair-distance coordinates, their Jacobian and the gradient lift.

A configuration of N particles is an ``(N, 3)`` array.  Pair quantities use
the fixed lexicographic ordering (0,1), (0,2), ..., (0,N-1), (1,2), ...,
(N-2,N-1); every module in the package shares this layout.
"""

import functools

import numpy as np

from .errors import CoincidentPointsError, ResidualTooLargeError, item_label

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
    """Jacobian dr/dx, (P, 3N) with P = N(N-1)/2, or (K, P, 3N) at a stack
    (K, N, 3): row (i, j) carries (x^i - x^j)/r^{ij} in block i and its
    negation in block j.  Coincident particles raise CoincidentPointsError,
    naming the first such item of a stack."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-2]
    iu, ju = pair_indices(n)
    diff = x[..., iu, :] - x[..., ju, :]
    r = np.linalg.norm(diff, axis=-1)
    if np.any(r == 0.0):
        *item, bad = np.argwhere(r == 0.0)[0]
        raise CoincidentPointsError(
            f"{item_label(item[0] if item else None)}particles {iu[bad]} "
            f"and {ju[bad]} coincide")
    unit = diff / r[..., None]
    jac = np.zeros(r.shape + (n, 3))
    rows = np.arange(len(iu))
    jac[..., rows, iu, :] = unit
    jac[..., rows, ju, :] = -unit
    return jac.reshape(r.shape + (3 * n,))


def lift_gradient_to_distances(x, g):
    """Minimal-norm v with (dr/dx)^T v = g, i.e. the pair derivatives of an
    invariant potential whose configuration gradient is ``g``, (N, 3) or
    (3N,); at a stack x (K, N, 3), g is (K, N, 3) or (K, 3N) and item k
    equals the single call on item k bit for bit.  One SVD least-squares
    solve per item, relative cutoff ``SVD_CUTOFF``.

    Raises
    ------
    ResidualTooLargeError
        If the residual exceeds ``LIFT_RESIDUAL_TOL`` max(1, |g|), which
        signals a non-invariant gradient or a geometry degenerate beyond the
        cutoff; the message names the first such item of a stack.
    """
    a = np.swapaxes(distance_jacobian(x), -1, -2)  # (..., 3N, P)
    g = np.asarray(g, dtype=float).reshape(a.shape[:-1])
    v = np.empty(a.shape[:-2] + a.shape[-1:])
    for k in np.ndindex(a.shape[:-2]):
        v[k], *_ = np.linalg.lstsq(a[k], g[k], rcond=SVD_CUTOFF)
        resid = np.linalg.norm(a[k] @ v[k] - g[k])
        tol = LIFT_RESIDUAL_TOL * max(1.0, np.linalg.norm(g[k]))
        if resid > tol:
            raise ResidualTooLargeError(
                f"{item_label(k[0] if k else None)}chain-rule residual "
                f"{resid:.3e} exceeds {tol:.3e}")
    return v
