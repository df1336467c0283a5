"""Mass-corrected adiabatic surfaces from the nonlinear eigenvalue problem.

Solves ``(V + (1/4M) Psi grad(Psi)^T . grad(Psi) Psi^T) Psi = Psi LambdaBar``
for the unitary ``Psi`` and diagonal ``LambdaBar``.  The correction term is
O(1/M), so a fixed-point iteration starting from the eigenvectors of V(x)
contracts rapidly; an epsilon-continuation ODE integrated by RK4 is kept as
an independent cross-check mode.
"""

from dataclasses import dataclass

import numpy as np

from . import potential
from .errors import (InvalidParameterError, NoConvergenceError,
                     ResidualTooLargeError)

M_MIN = 10.0
RESIDUAL_TOL = 1e-10
PARTITION_TOL = 1e-10
_EPS_STEPS = 8


@dataclass
class CorrectedSurfaces:
    """Corrected surfaces lambda_bar_k with per-particle partition.

    ``per_particle_bar[n, k]`` is the share of surface k carried by particle
    n; the shares sum over n to ``lambdas_bar[k]`` exactly at the fixed
    point.  ``bare`` is the eigendecomposition of V(x) the solve started
    from.
    """

    lambdas_bar: np.ndarray
    psi_bar: np.ndarray
    per_particle_bar: np.ndarray
    mass: float
    residual_norm: float
    bare: potential.EigenData


def _gram(dpsi):
    """G = sum_i (d_i Psi)^T (d_i Psi) over all 3N coordinates, (d, d)."""
    return np.einsum("ncia,ncib->ab", dpsi, dpsi)


def _partition(parts, psi, dpsi, mass):
    """Per-particle shares <psi_k, (V^n + G_n/4M) psi_k>, shape (N, d).

    ``parts`` are the V^n, shaped (N, d, d); G_n is the Gram matrix of
    particle n's three coordinates, and psi_k^T Psi G_n Psi^T psi_k is its
    diagonal entry (G_n)_kk since Psi^T psi_k = e_k.
    """
    gram_diag = np.einsum("ncia,ncia->na", dpsi, dpsi)
    return potential.shares_from_parts(parts, psi) + gram_diag / (4.0 * mass)


def _residual(v, lam, psi, dpsi, mass):
    b = psi @ _gram(dpsi) @ psi.T
    return float(np.linalg.norm((v + b / (4.0 * mass)) @ psi - psi * lam))


def solve_nonlinear_eigen(v_pot, x, mass, method="fixed_point",
                          gap_tol=potential.GAP_TOL, max_iter=50,
                          tol=1e-12, m_min=M_MIN):
    """Solve the nonlinear eigenvalue problem at configuration ``x``.

    ``method`` is ``"fixed_point"`` (production) or ``"continuation"``
    (epsilon-ODE cross-check).  The two agree to O(1/M^2).

    Raises
    ------
    InvalidParameterError
        If ``mass < m_min``; the problem is only guaranteed solvable for
        large mass.
    NoConvergenceError
        If the fixed-point iteration does not settle within ``max_iter``.
    ResidualTooLargeError
        If the converged fixed point violates the residual bound
        ``RESIDUAL_TOL * ||V||``.
    """
    if mass < m_min:
        raise InvalidParameterError(
            f"mass {mass} below the solvability guard {m_min}")
    x = np.asarray(x, dtype=float)
    v, parts = v_pot.evaluate_parts(x)
    dv = v_pot.deriv(x)
    eig = potential.eigendecompose(v, gap_tol)
    if method == "fixed_point":
        lam, psi, dpsi = _solve_fixed_point(v, dv, eig, mass, max_iter, tol)
        resid = _residual(v, lam, psi, dpsi, mass)
        bound = RESIDUAL_TOL * max(np.linalg.norm(v), 1e-300)
        if resid > bound:
            raise ResidualTooLargeError(
                f"nonlinear eigen residual {resid:.3e} exceeds {bound:.3e}")
    elif method == "continuation":
        lam, psi = _solve_continuation(v, dv, eig, mass)
        dpsi = potential.eigenvector_derivatives(dv, lam, psi)
        resid = _residual(v, lam, psi, dpsi, mass)
    else:
        raise InvalidParameterError(f"unknown method {method!r}")
    shares = _partition(parts, psi, dpsi, mass)
    return CorrectedSurfaces(lambdas_bar=lam, psi_bar=psi,
                             per_particle_bar=shares, mass=float(mass),
                             residual_norm=resid, bare=eig)


def _solve_fixed_point(v, dv, eig, mass, max_iter, tol):
    lam = eig.lambdas.copy()
    psi = eig.psi.copy()
    for _ in range(max_iter):
        # grad Psi from the perturbation formula against the current
        # effective matrix; the x-derivative of the O(1/M) part is dropped,
        # consistent to the order of the correction
        dpsi = potential.eigenvector_derivatives(dv, lam, psi)
        b = psi @ _gram(dpsi) @ psi.T
        new = potential.eigendecompose(v + b / (4.0 * mass))
        delta = np.max(np.abs(new.lambdas - lam))
        lam, psi = new.lambdas, new.psi
        if delta <= tol:
            dpsi = potential.eigenvector_derivatives(dv, lam, psi)
            return lam, psi, dpsi
    raise NoConvergenceError(
        f"no fixed point after {max_iter} iterations; "
        "mass too small or spectrum near-degenerate")


def _solve_continuation(v, dv, eig, mass):
    """Integrate the epsilon-ODE from the bare eigenpairs to eps = 1/4M.

    Per RK4 stage the eigenvector x-gradients are frozen at the stage state;
    the stage derivative is dlam_k = G_kk and dpsi_k = sum_{l != k} psi_l
    G_lk / (lam_k - lam_l).
    """

    def rate(lam, psi):
        dpsi = potential.eigenvector_derivatives(dv, lam, psi)
        g = _gram(dpsi)
        d = len(lam)
        denom = lam[None, :] - lam[:, None]  # lam_k - lam_l at (l, k)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(np.eye(d, dtype=bool), 0.0, 1.0 / denom)
        return np.diag(g).copy(), psi @ (g * w)

    lam = eig.lambdas.copy()
    psi = eig.psi.copy()
    h = 1.0 / (4.0 * mass * _EPS_STEPS)
    for _ in range(_EPS_STEPS):
        k1l, k1p = rate(lam, psi)
        k2l, k2p = rate(lam + 0.5 * h * k1l, psi + 0.5 * h * k1p)
        k3l, k3p = rate(lam + 0.5 * h * k2l, psi + 0.5 * h * k2p)
        k4l, k4p = rate(lam + h * k3l, psi + h * k3p)
        lam = lam + h / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
        psi = psi + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        # project back to the closest orthogonal matrix (polar factor)
        u, _, vt = np.linalg.svd(psi)
        psi = u @ vt
    return lam, psi


def corrected_partition(cs, v_pot, x):
    """Recompute the per-particle shares of ``cs`` at configuration ``x``.

    Returns an (N, d) array; row sums reproduce ``cs.lambdas_bar`` to
    ``PARTITION_TOL`` when ``cs`` was solved at ``x``.
    """
    x = np.asarray(x, dtype=float)
    dv = v_pot.deriv(x)
    dpsi = potential.eigenvector_derivatives(dv, cs.lambdas_bar, cs.psi_bar)
    return _partition(v_pot.evaluate_parts(x)[1], cs.psi_bar, dpsi, cs.mass)
