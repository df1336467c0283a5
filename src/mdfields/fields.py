"""Mollified continuum fields from microscopic states.

Every field is a mollified sum over particles or over bond segments.  For a
probe point y and a state (x, p):

- density        rho  = sum_n M_n eta(y - x^n)
- momentum       mom  = sum_n eta(y - x^n) p^n
- energy         E    = sum_n eta(y - x^n) (|p^n|^2 / 2M_n + lambda^n)
- stress         sigma = -sum_n M_n eta v^n (x) v^n + bond potential term
- heat flux      q    = peculiar transport + bond power term

with v^n = p^n/M_n - u(y) the peculiar velocity and u the ensemble velocity
field.  Bond terms carry the line-integrated mollifier
B = int_0^1 eta(y - s x^n - (1-s) x^k) ds, which is what turns pair forces
into divergence form.  Every moment comes with its analytic y-gradient;
the canonical flux divergences push those through the sigma and q formula
by complex step, so divergences in the conservation checks are exact.

The per-particle shares lambda^n, the surface gradient and the share
gradients come from the same surface object that drives the trajectory
(``dynamics.AdiabaticSurface`` or ``CorrectedSurface``), evaluated once per
configuration; this module holds no surface math.

The heat-flux bond term sums ordered pairs n != m for the power part
(p^m/M_m).grad_{x^m} lambda^n; its u-part is a single unordered pair sum
+sum_j W_{lj} u_j, the orientation that makes the canonical energy law an
exact algebraic rearrangement of the pre-split one.

A Galilean boost p^n -> p^n + M_n U shifts u by U and leaves the peculiar
velocities, sigma and the transport part of q unchanged; q moves by the
change of T2 plus W U,

    dq(U) = < sum_pairs B_k dx_k [U.(grad_{x^j} lambda^i - grad_{x^i} lambda^j)
                                  + (dx_k.U) lambda'_k / r_k] >

over the pairs k = (i, j), dx_k = x^i - x^j, r_k = |dx_k|, lambda'_k the
lifted pair derivative.  The bracket vanishes when each pair's share
gradients lie along the pair (pair-additive shares); two-state shares mix
the pairs through the eigenvectors, and q moves.

States come in stacks: a ``StateData`` holds S states, S leading every
array, from one surface evaluation and one gradient lift of the stack
(``prepare_state``; one state is a stack of one).  Data are arrays with
the probe index first, after the state index.  ``densities`` gives rho,
mom and E of one state or of a stack, and ``_raw_fields`` every per-state
moment of a stack, with one bond quadrature for all states.  A group is a
(weight, StateData) pair; ``state_weights`` gives each state its weight,
w (S,), and an ensemble is the per-state stack (w, moments), moments[k]
(S, Q, ...).  The mean is the one ``weighted_mean`` of that stack, and
sigma, q, their standard errors and ``presplit_divergences`` are array
expressions over it.  ``field_grid``, the one path to the fields, makes
one ``_raw_fields`` pass over the groups' stacks, concatenated, and
returns a ``ProbeGrid`` holding one (Q, ...) array per field.
"""

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, geometry, potential
from .errors import InvalidParameterError

RHO_FLOOR = 1e-12
# group weights, the surface weights q_j*, must sum to one within this
WEIGHT_SUM_TOL = 1e-12
# complex step h of the canonical divergences: Im f(m + i h dm) / h has no
# truncation error at this h and, unlike a difference, no cancellation
CS_STEP = 1e-20


# ---------------------------------------------------------------------------
# per-state microscopic inputs

@dataclass
class StateData:
    """S phase-space states with the surface data the fields need, S
    leading every array: ``lam_n`` the per-particle potential energies,
    ``pair_derivs`` the lifted pair-distance derivatives of the total
    surface, ``pp_grads`` the share gradients grad_{x^m} lambda^n [s, n, m].
    """

    x: np.ndarray
    p: np.ndarray
    masses: np.ndarray
    lam_n: np.ndarray
    pair_derivs: np.ndarray
    pp_grads: np.ndarray

    def __len__(self):
        return len(self.x)


class AdiabaticFieldModel(dynamics.AdiabaticSurface):
    """The bare surface bound to one index j, whose ``at(x, self.j)``
    gives the fields of that surface."""

    def __init__(self, v_pot, j=0, gap_tol=potential.GAP_TOL):
        super().__init__(v_pot, gap_tol)
        self.j = int(j)

    def surface_data(self, x):
        return self.at(x, self.j)[:3]


class CorrectedFieldModel(dynamics.CorrectedSurface):
    """The mass-corrected surface bound to one index j, whose
    ``at(x, self.j)`` gives the fields of that surface."""

    def __init__(self, v_pot, j, mass, gap_tol=potential.GAP_TOL):
        super().__init__(v_pot, mass, gap_tol)
        self.j = int(j)

    def surface_data(self, x):
        return self.at(x, self.j)[:3]


def prepare_state(x, p, masses, model):
    """The StateData of states x, p (S, N, 3), masses (S, N) on one
    surface, or of one state (N, 3), (N,) as S = 1.

    ``model.surface_data(x)`` returns (lam_n, grad, pp) of the states'
    surface; ``AdiabaticFieldModel`` and ``CorrectedFieldModel`` bind a
    ``dynamics`` surface to its index.
    """
    x = np.asarray(x, dtype=float)
    return state_data(x, p, masses, model.surface_data(x))


def state_data(x, p, masses, data):
    """The StateData of ``prepare_state`` from surface data (lam_n, grad,
    pp) evaluated at x, with one gradient lift for all the states."""
    lam_n, grad, pp = data
    arrays = (x, p, masses, lam_n,
              geometry.lift_gradient_to_distances(x, grad), pp)
    lead = (None,) * (3 - np.ndim(x))   # one state: a stack of one
    return StateData(*(np.asarray(a, dtype=float)[lead] for a in arrays))


# ---------------------------------------------------------------------------
# raw per-state moments

def densities(x, p, masses, lam_n, mol, probes):
    """rho (Q,), mom (Q, 3) and E (Q,) of one state at probes (Q, 3),
    keyed as in the raw moments; a stack of S states (x, p (S, N, 3),
    masses, lam_n (S, N)) gives (S, Q, ...)."""
    eta = mol.eval(probes[:, None, :] - x[..., None, :, :])   # (..., Q, N)
    return {"rho": (eta @ masses[..., None])[..., 0],
            "mom": np.einsum("...qn,...nj->...qj", eta, p),
            "energy": (eta @ _particle_energies(p, masses,
                                                lam_n)[..., None])[..., 0]}


def _particle_energies(p, masses, lam_n):
    """|p^n|^2 / 2M_n + lambda^n for every particle n."""
    return 0.5 * np.sum(p ** 2, axis=-1) / masses + lam_n


def _raw_fields(sd, mol, probes):
    """All per-state moments and their y-gradients at the probes.

    ``sd`` is a StateData stack of S states and every moment is
    (S, Q, ...); item s equals the call on the stack of state s alone bit
    for bit.  Gradient arrays carry the derivative index after the probe:
    grad_mom[s, q, c, j] is d mom_j / d y_c at probe q.  The bond terms of
    every state come from one ``bond_weights`` call; a state without bond
    terms (free particles) gets zeros without one.
    """
    x, p, m = sd.x, sd.p, sd.masses
    ns, n = x.shape[:2]
    nq = probes.shape[0]
    dy = probes[:, None, :] - x[:, None, :, :]                 # (S, Q, N, 3)
    eta = mol.eval(dy)
    geta = mol.grad(dy.reshape(-1, 3)).reshape(dy.shape)
    en = _particle_energies(p, m, sd.lam_n)
    kin_n = p[..., :, None] * p[..., None, :] / m[..., None, None]
    t1_n = (p / m[..., None]) * en[..., None]                  # (S, N, l)

    out = densities(x, p, m, sd.lam_n, mol, probes)
    out.update({
        "grad_rho": np.einsum("sqnc,sn->sqc", geta, m),
        "grad_mom": np.einsum("sqnc,snj->sqcj", geta, p),
        "grad_energy": np.einsum("sqnc,sn->sqc", geta, en),
        "kin": np.einsum("sqn,snlj->sqlj", eta, kin_n),
        "grad_kin": np.einsum("sqnc,snlj->sqclj", geta, kin_n),
        "t1": np.einsum("sqn,snl->sql", eta, t1_n),
        "grad_t1": np.einsum("sqnc,snl->sqcl", geta, t1_n),
        "w": np.zeros((ns, nq, 3, 3)),
        "grad_w": np.zeros((ns, nq, 3, 3, 3)),
        "t2": np.zeros((ns, nq, 3)),
        "grad_t2": np.zeros((ns, nq, 3, 3)),
    })
    # free particles: every bond kernel vanishes identically
    live = np.flatnonzero(np.any(sd.pair_derivs, axis=1)
                          | np.any(sd.pp_grads.reshape(ns, -1), axis=1))
    if not live.size:
        return out
    x, p, m = x[live], p[live], m[live]
    iu, ju = geometry.pair_indices(n)
    dx = x[:, iu] - x[:, ju]                                   # (L, P, 3)
    r = np.linalg.norm(dx, axis=-1)
    b, gb = mol.bond_weights(probes, x[:, iu].reshape(-1, 3),
                             x[:, ju].reshape(-1, 3))
    # (Q, L P) to one contiguous (Q, P) block per state
    b = np.ascontiguousarray(b.reshape(nq, live.size, -1).swapaxes(0, 1))
    gb = np.ascontiguousarray(
        gb.reshape(nq, live.size, -1, 3).swapaxes(0, 1))
    # bond stress kernel dx_l * dlambda/dr * dx_j / r per pair
    w_pair = dx[..., :, None] * dx[..., None, :] \
        * (sd.pair_derivs[live] / r)[..., None, None]
    # bond power kernel: ordered n != m collapsed onto unordered pairs
    pp = sd.pp_grads[live]
    a_fwd = np.einsum("skj,skj->sk", p[:, ju] / m[:, ju, None],
                      pp[:, iu, ju])    # (p^j/M_j) . grad_{x^j} l^i
    a_back = np.einsum("skj,skj->sk", p[:, iu] / m[:, iu, None],
                       pp[:, ju, iu])   # (p^i/M_i) . grad_{x^i} l^j
    t2_pair = dx * (a_fwd - a_back)[..., None]
    out["w"][live] = np.einsum("sqk,sklj->sqlj", b, w_pair)
    out["grad_w"][live] = np.einsum("sqkc,sklj->sqclj", gb, w_pair)
    out["t2"][live] = np.einsum("sqk,skl->sql", b, t2_pair)
    out["grad_t2"][live] = np.einsum("sqkc,skl->sqcl", gb, t2_pair)
    return out


def state_weights(ensembles):
    """Each state's weight in the ensemble mean, (S,): its group's weight
    (surface weight q_j*) over the group's size, in group and state order.

    ``ensembles`` is a list of (weight, states) groups, ``states`` a
    sequence or a StateData stack.

    Raises
    ------
    InvalidParameterError
        For an empty ensemble or an empty group, or when the group weights
        do not sum to one within WEIGHT_SUM_TOL: a dropped group would
        take its weight out of the mean unseen.
    """
    sizes = [len(group) for _, group in ensembles]
    if not sizes or not all(sizes):
        raise InvalidParameterError("empty ensemble or ensemble group")
    total = sum(wt for wt, _ in ensembles)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidParameterError(
            f"group weights sum to {total!r}, not one")
    return np.repeat([wt / n for (wt, _), n in zip(ensembles, sizes)], sizes)


def weighted_mean(weights, vals):
    """sum_s w_s vals_s, the weighted mean of a per-state stack ``vals``
    (S, Q, ...) with weights (S,), summed in state order."""
    wview = weights.reshape(weights.shape + (1,) * (vals.ndim - 1))
    return np.sum(wview * vals, axis=0)


def vacuum(rho):
    """The probes where the density ``rho`` falls below RHO_FLOOR."""
    return rho < RHO_FLOOR


def presplit_divergences(moments):
    """Divergences of the pre-split fluxes, keyed by law: div mom (mass),
    div(K - W) (mom) and div(T1 + T2) (energy), of the mean moments
    (Q, ...) or of a per-state stack (S, Q, ...)."""
    return {"mass": np.einsum("...cc->...", moments["grad_mom"]),
            "mom": np.einsum("...ccj->...j",
                             moments["grad_kin"] - moments["grad_w"]),
            "energy": np.einsum("...cc->...",
                                moments["grad_t1"] + moments["grad_t2"])}


def _sigma_from_mean(mean, u):
    # sum_n M_n eta v (x) v = K - u (x) mom - mom (x) u + rho u (x) u
    mvv = mean["kin"] \
        - u[..., :, None] * mean["mom"][..., None, :] \
        - mean["mom"][..., :, None] * u[..., None, :] \
        + mean["rho"][..., None, None] * u[..., :, None] * u[..., None, :]
    return -mvv + mean["w"]


def _q_from_mean(mean, u):
    u2 = np.sum(u ** 2, axis=-1)
    mom_u = np.einsum("...j,...j->...", mean["mom"], u)
    return (mean["t1"]
            - np.einsum("...lj,...j->...l", mean["kin"], u)
            - u * mean["energy"][..., None]
            + u * mom_u[..., None]
            + mean["mom"] * (0.5 * u2)[..., None]
            - u * (0.5 * mean["rho"] * u2)[..., None]
            + mean["t2"]
            + np.einsum("...lj,...j->...l", mean["w"], u))


# ---------------------------------------------------------------------------
# probe grids

@dataclass
class ProbeGrid:
    """All fields at the probes, one array per field, probe index first.

    Gradients carry the derivative index next: grad_mom[i, c, j] is
    d mom_j / d y_c at probe i.  The ``div_*`` are the
    ``presplit_divergences`` of the mean, but for the canonical
    div(rho u u - sigma) and div(E u + q - sigma u) in ensemble mode.
    ``vacuum`` flags the probes below RHO_FLOOR (ensemble mode only); an
    ensemble grid also holds the velocity ``u``.  ``raws`` keeps the
    per-state stack (w, moments) the grid was built from, so callers can
    form per-state statistics without evaluating the moments again.
    """

    points: np.ndarray
    mode: str
    rho: np.ndarray
    mom: np.ndarray
    energy: np.ndarray
    sigma: np.ndarray
    q: np.ndarray
    grad_rho: np.ndarray
    grad_mom: np.ndarray
    grad_energy: np.ndarray
    div_mom: np.ndarray
    div_mom_flux: np.ndarray
    div_energy_flux: np.ndarray
    vacuum: np.ndarray
    u: np.ndarray = None
    raws: tuple = field(default=None, repr=False)

    @functools.cached_property
    def stderr(self):
        """Ensemble mode: the standard errors of rho, mom, energy, sigma, q."""
        return _stderr(self) if self.mode == "ensemble" else None


def _velocity(mean, ok):
    """u = mom / rho at the probes ``ok`` (axis -2 of mom), else 0."""
    u = np.zeros_like(mean["mom"])
    u[..., ok, :] = mean["mom"][..., ok, :] / mean["rho"][..., ok, None]
    return u


def _canonical_divergences(mean, ok):
    """div(rho u u - sigma) and div(E u + q - sigma u), u = mom/rho at the
    probes ``ok``, by complex step: the fluxes of the moments m + i h dm/dy_c
    (c the leading axis) through ``_sigma_from_mean`` and ``_q_from_mean``
    have Im(flux[c]) / h = d flux / dy_c.  Their identity with the
    pre-split divergences is what tests sigma and q.
    """
    mc = {k: mean[k] + 1j * CS_STEP * np.moveaxis(mean[f"grad_{k}"], 1, 0)
          for k in ("rho", "mom", "energy", "kin", "t1", "w", "t2")}
    u = _velocity(mc, ok)
    sigma = _sigma_from_mean(mc, u)
    mom_flux = mc["rho"][..., None, None] * u[..., :, None] \
        * u[..., None, :] - sigma
    energy_flux = mc["energy"][..., None] * u + _q_from_mean(mc, u) \
        - np.einsum("...lj,...j->...l", sigma, u)
    return (np.einsum("cqcj->qj", mom_flux.imag) / CS_STEP,
            np.einsum("cqc->q", energy_flux.imag) / CS_STEP)


def field_grid(ensembles, mol, probes, mode="per-trajectory"):
    """Evaluate all fields on a probe grid.

    ``ensembles`` is a list of (weight, StateData) groups, one state of
    weight 1 being ``[(1.0, sd)]``.  ``mode`` is "per-trajectory"
    (pre-split fluxes of the weighted mean; the reported sigma and q use
    u = 0) or "ensemble" (canonical fields with u and Monte Carlo standard
    errors; vacuum probes are flagged, not filled).
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    w = state_weights(ensembles)
    sd = StateData(*(np.concatenate([getattr(g, f.name) for _, g in ensembles])
                     for f in dataclasses.fields(StateData)))
    raw = _raw_fields(sd, mol, probes)
    mean = {k: weighted_mean(w, v) for k, v in raw.items()}
    nq = probes.shape[0]
    pre = presplit_divergences(mean)
    extra = {"vacuum": np.zeros(nq, dtype=bool)}
    if mode == "per-trajectory":
        div_mom_flux, div_energy_flux = pre["mom"], pre["energy"]
        sigma = -mean["kin"] + mean["w"]
        q = mean["t1"] + mean["t2"]
    elif mode == "ensemble":
        empty = vacuum(mean["rho"])
        u = _velocity(mean, ~empty)
        sigma, q = _sigma_from_mean(mean, u), _q_from_mean(mean, u)
        div_mom_flux, div_energy_flux = _canonical_divergences(mean, ~empty)
        extra = {"vacuum": empty, "u": u}
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    return ProbeGrid(
        points=probes, mode=mode, rho=mean["rho"], mom=mean["mom"],
        energy=mean["energy"], sigma=sigma, q=q, grad_rho=mean["grad_rho"],
        grad_mom=mean["grad_mom"], grad_energy=mean["grad_energy"],
        div_mom=pre["mass"],
        div_mom_flux=div_mom_flux, div_energy_flux=div_energy_flux,
        raws=(w, raw), **extra)


def _stderr(grid):
    """Monte Carlo standard errors of the canonical fields of an ensemble
    grid: the spread of the weighted mean of each ``_state_values``
    stack."""
    w, _ = grid.raws
    return {key: np.sqrt(weighted_mean_variance(w, vals))
            for key, vals in _state_values(grid).items()}


def _state_values(grid):
    """Per-state values (S, Q, ...) of rho, mom, energy, sigma and q whose
    weighted mean is the grid's field, u varying with the state.

    By the delta method a state moves u = mom/rho by
    du_s = (mom_s - rho_s u) / rho.  sigma does not move with u to first
    order at u = mom/rho; q does, by dq_l/du_a = sigma_la - delta_la e_int
    with e_int = E - rho |u|^2 / 2, so each state's q at the ensemble u
    gains (sigma - e_int I) du_s.  These terms have weighted mean zero.
    Vacuum probes (u = 0) gain none.
    """
    _, moments = grid.raws
    u, ok = grid.u, ~grid.vacuum
    rho = np.where(ok, grid.rho, 1.0)
    du = np.where(ok[:, None],
                  moments["mom"] - moments["rho"][..., None] * u, 0.0) \
        / rho[:, None]
    e_int = grid.energy - 0.5 * grid.rho * np.sum(u ** 2, axis=-1)
    dq = np.einsum("qla,sqa->sql", grid.sigma, du) - e_int[:, None] * du
    return {"rho": moments["rho"], "mom": moments["mom"],
            "energy": moments["energy"],
            "sigma": _sigma_from_mean(moments, u),
            "q": _q_from_mean(moments, u) + dq}


def weighted_mean_variance(weights, vals):
    """sum_i w_i^2 (x_i - mean)^2, the variance of the weighted mean of the
    per-state values ``vals`` (S, Q, ...) with weights (S,)."""
    wview = weights.reshape(weights.shape + (1,) * (vals.ndim - 1))
    mean = weighted_mean(weights, vals)
    return np.sum(wview ** 2 * (vals - mean) ** 2, axis=0)
