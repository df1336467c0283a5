"""Pair-distance coordinates and rigid-motion utilities.

A configuration of N particles is an ``(N, 3)`` array.  Pair quantities use
the fixed lexicographic ordering (0,1), (0,2), ..., (0,N-1), (1,2), ...,
(N-2,N-1); every module in the package shares this layout.
"""

import functools

import numpy as np

from .errors import CoincidentPointsError, NotRealizableError, ResidualTooLargeError

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


def pair_direction(x, n, k):
    """Unit vector (x^n - x^k)/|x^n - x^k|, the gradient of r^{nk} in x^n.

    Raises
    ------
    CoincidentPointsError
        If the two points coincide.
    """
    x = np.asarray(x, dtype=float)
    d = x[n] - x[k]
    r = np.linalg.norm(d)
    if r == 0.0:
        raise CoincidentPointsError(f"particles {n} and {k} coincide")
    return d / r


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


def reconstruct_positions(r, n, tol=1e-8):
    """Recover an (N, 3) configuration realizing the pair distances ``r``.

    Classical multidimensional scaling: double-center the squared distance
    matrix and truncate the Gram eigendecomposition to rank 3.  The result
    reproduces ``r`` up to a rigid motion.

    Raises
    ------
    NotRealizableError
        If the Gram matrix has a meaningfully negative eigenvalue or rank
        above 3, i.e. the distances do not embed in 3-space.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (n * (n - 1) // 2,):
        raise ValueError(f"expected {n*(n-1)//2} distances, got {r.shape}")
    d2 = np.zeros((n, n))
    iu, ju = pair_indices(n)
    d2[iu, ju] = r ** 2
    d2 += d2.T
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    gram = -0.5 * j @ d2 @ j
    lam, vec = np.linalg.eigh(gram)
    scale = max(1.0, lam.max(initial=0.0))
    if lam.min() < -tol * scale:
        raise NotRealizableError(
            f"Gram matrix has negative eigenvalue {lam.min():.3e}")
    if n > 4 and np.any(lam[:-3] > tol * scale):
        raise NotRealizableError("Gram matrix rank exceeds 3")
    lam = np.clip(lam[-3:], 0.0, None)
    return vec[:, -3:] * np.sqrt(lam)


def align_rigid(x, y):
    """Best rigid motion (Q, alpha) mapping y onto x, Q in O(3).

    Minimizes sum_i |x^i - Q y^i - alpha|^2 (Kabsch without the reflection
    restriction).  Returns ``(Q, alpha, rms_residual)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("configurations must have equal particle counts")
    xc = x.mean(axis=0)
    yc = y.mean(axis=0)
    h = (y - yc).T @ (x - xc)
    u, _, vt = np.linalg.svd(h)
    q = (u @ vt).T
    alpha = xc - q @ yc
    resid = x - y @ q.T - alpha
    rms = np.sqrt(np.mean(np.sum(resid ** 2, axis=1)))
    return q, alpha, rms
