"""Mass-corrected adiabatic surfaces from the nonlinear eigenvalue problem.

Solves ``(V + (1/4M) Psi grad(Psi)^T . grad(Psi) Psi^T) Psi = Psi LambdaBar``
for the unitary ``Psi`` and diagonal ``LambdaBar``.  The correction term is
O(1/M), so a fixed-point iteration starting from the eigenvectors of V(x)
contracts rapidly; an epsilon-continuation ODE integrated by RK4 is kept as
an independent cross-check mode.  ``fixed_point_derivatives`` differentiates
the solved fixed point exactly, for gradients without further solves.

Both also take a stack of configurations (K, N, 3).  The stack iterates in
lockstep, each item until its own fixed point settles, and item k equals
the single call on x[k] bit for bit; an error or warning names its item
("item k: ...").  The continuation cross-check takes one configuration.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import potential
from .errors import (InvalidParameterError, NoConvergenceError,
                     ResidualTooLargeError, item_label)

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
    point.  A stacked solve puts its item axis in front of every array, and
    ``residual_norm`` is then one norm per item.
    """

    lambdas_bar: np.ndarray
    psi_bar: np.ndarray
    per_particle_bar: np.ndarray
    mass: float
    residual_norm: float


def _gram(dpsi):
    """G = sum_i (d_i Psi)^T (d_i Psi) over all 3N coordinates, (..., d, d)."""
    return np.einsum("...ncia,...ncib->...ab", dpsi, dpsi)


def _partition(parts, psi, dpsi, mass):
    """Per-particle shares <psi_k, (V^n + G_n/4M) psi_k>, shape (..., N, d).

    ``parts`` are the V^n, shaped (..., N, d, d); G_n is the Gram matrix of
    particle n's three coordinates, and psi_k^T Psi G_n Psi^T psi_k is its
    diagonal entry (G_n)_kk since Psi^T psi_k = e_k.
    """
    gram_diag = np.einsum("...ncia,...ncia->...na", dpsi, dpsi)
    return potential.shares_from_parts(parts, psi) + gram_diag / (4.0 * mass)


def _norm(a):
    """Frobenius norm of each (d, d) matrix of ``a`` (..., d, d)."""
    return np.sqrt(np.einsum("...ij,...ij->...", a, a))


def _effective(v, psi, dpsi, mass):
    """V + Psi G Psi^T / 4M, (..., d, d)."""
    b = psi @ _gram(dpsi) @ np.swapaxes(psi, -1, -2)
    return v + b / (4.0 * mass)


def _residual(v, lam, psi, dpsi, mass):
    return _norm(_effective(v, psi, dpsi, mass) @ psi
                 - psi * lam[..., None, :])


def solve_nonlinear_eigen(v_pot, x, mass, method="fixed_point",
                          gap_tol=potential.GAP_TOL, max_iter=50):
    """Solve the nonlinear eigenvalue problem at configuration ``x``.

    ``method`` is ``"fixed_point"`` (production) or ``"continuation"``
    (epsilon-ODE cross-check).  The two agree to O(1/M^2).  A stack x
    (K, N, 3) is solved in lockstep by the fixed point.

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
    if method == "continuation":
        if x.ndim != 2:
            raise InvalidParameterError(
                "the continuation cross-check takes one configuration")
        v, parts = v_pot.evaluate_parts(x)
        dv = v_pot.deriv(x)
        lam, psi = _solve_continuation(
            v, dv, potential.eigendecompose(v, gap_tol), mass)
        dpsi = potential.eigenvector_derivatives(dv, lam, psi)
        return CorrectedSurfaces(
            lambdas_bar=lam, psi_bar=psi,
            per_particle_bar=_partition(parts, psi, dpsi, mass),
            mass=float(mass),
            residual_norm=float(_residual(v, lam, psi, dpsi, mass)))
    if method != "fixed_point":
        raise InvalidParameterError(f"unknown method {method!r}")
    # a single configuration is the stack of one, whose messages name no item
    stacked = x.ndim == 3
    xs = x if stacked else x[None]
    names = list(range(len(xs))) if stacked else [None]
    v, parts = v_pot.evaluate_parts(xs)
    dv = v_pot.deriv(xs)
    eig = potential.eigendecompose(v, gap_tol, items=names)
    lam, psi, dpsi = _solve_fixed_point(v, dv, eig, mass, max_iter, names)
    resid = _residual(v, lam, psi, dpsi, mass)
    bound = RESIDUAL_TOL * np.maximum(_norm(v), 1e-300)
    over = np.flatnonzero(resid > bound)
    if over.size:
        k = over[0]
        raise ResidualTooLargeError(
            f"{item_label(names[k])}nonlinear eigen residual "
            f"{resid[k]:.3e} exceeds {bound[k]:.3e}")
    shares = _partition(parts, psi, dpsi, mass)
    if not stacked:
        lam, psi, shares, resid = lam[0], psi[0], shares[0], float(resid[0])
    return CorrectedSurfaces(lambdas_bar=lam, psi_bar=psi,
                             per_particle_bar=shares, mass=float(mass),
                             residual_norm=resid)


def _solve_fixed_point(v, dv, eig, mass, max_iter, names):
    """Iterate a stack (K, d, d) to its fixed points in lockstep; an item
    leaves the iteration once its eigenvalues settle.  Warns for each item
    that takes more than NEAR_CAP * max_iter iterations."""
    lam, psi = eig.lambdas, eig.psi
    lam_out, psi_out = np.empty_like(lam), np.empty_like(psi)
    todo = np.arange(len(v))
    for it in range(1, max_iter + 1):
        # grad Psi from the perturbation formula against the current
        # effective matrix; the x-derivative of the O(1/M) part is dropped,
        # consistent to the order of the correction
        dpsi = potential.eigenvector_derivatives(dv[todo], lam, psi)
        new = potential.eigendecompose(
            _effective(v[todo], psi, dpsi, mass),
            items=[names[k] for k in todo])
        delta = np.max(np.abs(new.lambdas - lam), axis=-1)
        lam, psi = new.lambdas, new.psi
        done = delta <= FIXED_POINT_TOL
        if it > NEAR_CAP * max_iter:
            for k in todo[done]:
                warnings.warn(f"{item_label(names[k])}fixed point converged "
                              f"after {it} iterations, near max_iter = "
                              f"{max_iter}", RuntimeWarning)
        lam_out[todo[done]], psi_out[todo[done]] = lam[done], psi[done]
        todo, lam, psi = todo[~done], lam[~done], psi[~done]
        if not todo.size:
            dpsi = potential.eigenvector_derivatives(dv, lam_out, psi_out)
            return lam_out, psi_out, dpsi
    raise NoConvergenceError(
        f"{item_label(names[todo[0]])}no fixed point after {max_iter} "
        "iterations; mass too small or spectrum near-degenerate")


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
    A stacked solve at a stack x (K, N, 3) gives (K, N, 3, d) and
    (K, N, N, 3, d), with one batched linear solve.
    The fixed point is S + G/4M = diag(lambda_bar), S = Psi^T V Psi and
    G = sum_i E_i^T E_i, where E_i = C_i o W, C_i = Psi^T d_i V Psi and W
    the inverse gaps (d_i Psi = Psi E_i).  With d Psi = Psi Omega, Omega
    antisymmetric, its derivative is linear in (d lambda_bar, Omega) with
    one operator for all 3N coordinates: one d(d+1)/2 system with 3N
    right-hand sides.
    """
    n, d = v_pot.n_particles, v_pot.d
    psi, quarter = cs.psi_bar, 0.25 / cs.mass
    lead = psi.shape[:-2]

    def rotate(a, axes):
        """Psi^T a Psi of matrices a (..., <axes coordinate axes>, d, d)."""
        grow = (Ellipsis,) + (None,) * axes + (slice(None),) * 2
        return np.swapaxes(psi, -1, -2)[grow] @ a @ psi[grow]

    p_n = rotate(v_pot.evaluate_parts(x)[1], 1)               # (..., N, d, d)
    s = p_n.sum(axis=-3)
    c = rotate(v_pot.deriv(x).reshape(lead + (3 * n, d, d)), 1)
    h = rotate(v_pot.hessian(x).reshape(lead + (3 * n, 3 * n, d, d)), 2)
    w = potential.inverse_gaps(cs.lambdas_bar)[..., None, :, :]
    e = c * w

    def gram_change(de):
        """d(G/4M) for changes de (..., K, 3N, d, d) of the E_i."""
        eg = np.einsum("...ila,...kilb->...kab", e, de)
        return quarter * (eg + np.swapaxes(eg, -1, -2))

    # unknown t is d lambda_bar_a at (a, a) and Omega_ab at (a, b), a < b,
    # the same positions as the equations, the upper triangle
    rows, cols = np.triu_indices(d)
    unit = np.eye(len(rows))
    omega = np.zeros((len(rows), d, d))
    omega[:, rows, cols] = unit * (rows != cols)
    omega -= omega.transpose(0, 2, 1)
    dlam = unit[:, rows == cols]
    # E_i moves with Psi and lambda_bar (de_basis) and with x (de_direct)
    c_t, w_t = c[..., None, :, :, :], w[..., None, :, :, :]
    de_basis = (c_t @ omega[:, None] - omega[:, None] @ c_t) * w_t \
        - c_t * ((dlam[:, None, :] - dlam[:, :, None]) * w * w)[..., None,
                                                                :, :]
    de_direct = h * w_t                  # h is symmetric: h[m, i] = d_m C_i
    op = s[..., None, :, :] @ omega - omega @ s[..., None, :, :] \
        + gram_change(de_basis) - dlam[:, :, None] * np.eye(d)
    rhs = c + gram_change(de_direct)
    z = np.swapaxes(np.linalg.solve(
        np.swapaxes(op[..., rows, cols], -1, -2),
        -np.swapaxes(rhs[..., rows, cols], -1, -2)), -1, -2)   # (..., 3N, T)
    grad = z[..., rows == cols].reshape(lead + (n, 3, d))
    if not shares:
        return grad, None
    omega = np.einsum("...mt,tab->...mab", z, omega)
    de = np.einsum("...mt,...tiab->...miab", z, de_basis) + de_direct
    # d lambda_bar_k^n = 2 (P^n Omega)_kk + (Psi^T d V^n Psi)_kk
    #                    + 2 sum_{i of particle n} (E_i^T dE_i)_kk / 4M
    pp = np.einsum("...ik,...nmcij,...jk->...nmck", psi,
                   v_pot.part_deriv_all(x), psi)
    pp += 2.0 * np.einsum("...nkl,...mlk->...nmk", p_n, omega).reshape(
        lead + (n, n, 3, d))
    pp += 2.0 * quarter * np.einsum("...ilk,...milk->...imk", e, de).reshape(
        lead + (n, 3, n, 3, d)).sum(axis=-4)
    return grad, pp
