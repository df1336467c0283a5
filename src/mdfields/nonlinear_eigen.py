"""Mass-corrected adiabatic surfaces from the nonlinear eigenvalue problem.

Solves ``(V + (1/4M) Psi grad(Psi)^T . grad(Psi) Psi^T) Psi = Psi LambdaBar``
for the unitary ``Psi`` and diagonal ``LambdaBar``.  The correction term is
O(1/M), so a fixed-point iteration starting from the eigenvectors of V(x)
contracts rapidly; an epsilon-continuation ODE integrated by RK4 is kept as
an independent cross-check mode.  ``fixed_point_derivatives`` differentiates
the solved fixed point exactly, for gradients without further solves.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import potential
from .errors import (InvalidParameterError, NoConvergenceError,
                     ResidualTooLargeError)

M_MIN = 10.0
RESIDUAL_TOL = 1e-10
FIXED_POINT_TOL = 1e-12  # largest eigenvalue move of a settled iteration
_EPS_STEPS = 8
# a solve converging after more than this share of max_iter warns
NEAR_CAP = 0.8


@dataclass
class CorrectedSurfaces:
    """Corrected surfaces lambda_bar_k with per-particle partition.

    ``per_particle_bar[n, k]`` is the share of surface k carried by particle
    n; the shares sum over n to ``lambdas_bar[k]`` exactly at the fixed
    point.
    """

    lambdas_bar: np.ndarray
    psi_bar: np.ndarray
    per_particle_bar: np.ndarray
    mass: float
    residual_norm: float


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
                          gap_tol=potential.GAP_TOL, max_iter=50):
    """Solve the nonlinear eigenvalue problem at configuration ``x``.

    ``method`` is ``"fixed_point"`` (production) or ``"continuation"``
    (epsilon-ODE cross-check).  The two agree to O(1/M^2).

    Raises
    ------
    InvalidParameterError
        If ``mass < M_MIN``; the problem is only guaranteed solvable for
        large mass.
    NoConvergenceError
        If the fixed-point iteration does not settle to ``FIXED_POINT_TOL``
        within ``max_iter``; a ``RuntimeWarning`` names the count when it
        settles after more than ``NEAR_CAP`` * ``max_iter`` iterations.
    ResidualTooLargeError
        If the converged fixed point violates the residual bound
        ``RESIDUAL_TOL * ||V||``.
    """
    if mass < M_MIN:
        raise InvalidParameterError(
            f"mass {mass} below the solvability guard {M_MIN}")
    x = np.asarray(x, dtype=float)
    v, parts = v_pot.evaluate_parts(x)
    dv = v_pot.deriv(x)
    eig = potential.eigendecompose(v, gap_tol)
    if method == "fixed_point":
        lam, psi, dpsi = _solve_fixed_point(v, dv, eig, mass, max_iter)
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
                             residual_norm=resid)


def _solve_fixed_point(v, dv, eig, mass, max_iter):
    """Iterate to the fixed point; warns when it takes more than
    NEAR_CAP * max_iter iterations."""
    lam = eig.lambdas.copy()
    psi = eig.psi.copy()
    for it in range(1, max_iter + 1):
        # grad Psi from the perturbation formula against the current
        # effective matrix; the x-derivative of the O(1/M) part is dropped,
        # consistent to the order of the correction
        dpsi = potential.eigenvector_derivatives(dv, lam, psi)
        b = psi @ _gram(dpsi) @ psi.T
        new = potential.eigendecompose(v + b / (4.0 * mass))
        delta = np.max(np.abs(new.lambdas - lam))
        lam, psi = new.lambdas, new.psi
        if delta <= FIXED_POINT_TOL:
            if it > NEAR_CAP * max_iter:
                warnings.warn(f"fixed point converged after {it} "
                              f"iterations, near max_iter = {max_iter}",
                              RuntimeWarning)
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
        return np.diag(g).copy(), psi @ (g * potential.inverse_gaps(lam))

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


def fixed_point_derivatives(v_pot, x, cs, shares=True):
    """Exact derivatives of the surfaces ``cs`` solved at ``x``.

    Returns grad[n, c, k] = d lambda_bar_k / d x^n_c, (N, 3, d), and the
    share gradients pp[n, m, c, k] = d lambda_bar_k^n / d x^m_c,
    (N, N, 3, d), which sum over n to grad; pp is None unless ``shares``.
    The fixed point is S + G/4M = diag(lambda_bar), S = Psi^T V Psi and
    G = sum_i E_i^T E_i, where E_i = C_i o W, C_i = Psi^T d_i V Psi and W
    the inverse gaps (d_i Psi = Psi E_i).  With d Psi = Psi Omega, Omega
    antisymmetric, its derivative is linear in (d lambda_bar, Omega) with
    one operator for all 3N coordinates: one d(d+1)/2 system with 3N
    right-hand sides.
    """
    n, d = v_pot.n_particles, v_pot.d
    psi, quarter = cs.psi_bar, 0.25 / cs.mass
    p_n = psi.T @ v_pot.evaluate_parts(x)[1] @ psi           # (N, d, d)
    s = p_n.sum(axis=0)
    c = psi.T @ v_pot.deriv(x).reshape(3 * n, d, d) @ psi
    h = psi.T @ v_pot.hessian(x).reshape(3 * n, 3 * n, d, d) @ psi
    w = potential.inverse_gaps(cs.lambdas_bar)
    e = c * w

    def gram_change(de):
        """d(G/4M) for changes de (K, 3N, d, d) of the E_i."""
        eg = np.einsum("ila,kilb->kab", e, de)
        return quarter * (eg + eg.transpose(0, 2, 1))

    # unknown t is d lambda_bar_a at (a, a) and Omega_ab at (a, b), a < b,
    # the same positions as the equations, the upper triangle
    rows, cols = np.triu_indices(d)
    unit = np.eye(len(rows))
    omega = np.zeros((len(rows), d, d))
    omega[:, rows, cols] = unit * (rows != cols)
    omega -= omega.transpose(0, 2, 1)
    dlam = unit[:, rows == cols]
    # E_i moves with Psi and lambda_bar (de_basis) and with x (de_direct)
    de_basis = (c @ omega[:, None] - omega[:, None] @ c) * w \
        - c * ((dlam[:, None, :] - dlam[:, :, None]) * w * w)[:, None]
    de_direct = h * w                    # h is symmetric: h[m, i] = d_m C_i
    op = s @ omega - omega @ s + gram_change(de_basis) \
        - dlam[:, :, None] * np.eye(d)
    rhs = c + gram_change(de_direct)
    z = np.linalg.solve(op[:, rows, cols].T, -rhs[:, rows, cols].T).T
    grad = z[:, rows == cols].reshape(n, 3, d)
    if not shares:
        return grad, None
    omega = np.einsum("mt,tab->mab", z, omega)
    de = np.einsum("mt,tiab->miab", z, de_basis) + de_direct
    # d lambda_bar_k^n = 2 (P^n Omega)_kk + (Psi^T d V^n Psi)_kk
    #                    + 2 sum_{i of particle n} (E_i^T dE_i)_kk / 4M
    pp = np.einsum("ik,nmcij,jk->nmck", psi, v_pot.part_deriv_all(x), psi)
    pp += 2.0 * np.einsum("nkl,mlk->nmk", p_n, omega).reshape(n, n, 3, d)
    pp += 2.0 * quarter * np.einsum("ilk,milk->imk", e, de).reshape(
        n, 3, n, 3, d).sum(axis=1)
    return grad, pp
