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
into divergence form.  All fields come with analytic y-gradients so
divergences in the conservation checks are exact.

The per-particle shares lambda^n, the surface gradient and the share
gradients come from the same surface object that drives the trajectory
(``dynamics.AdiabaticSurface`` or ``CorrectedSurface``), evaluated once per
configuration; this module holds no surface math.

The heat-flux bond term sums ordered pairs n != m for the power part
(p^m/M_m).grad_{x^m} lambda^n; its u-part is a single unordered pair sum
+sum_j W_{lj} u_j, the orientation that makes the canonical energy law an
exact algebraic rearrangement of the pre-split one.

Data are arrays with the probe index first.  The raw moments of all states
are one stack (w, moments): w (S,) weights each state in the ensemble mean,
moments[k] is (S, Q, ...), and the mean, sigma, q and their standard
errors are array expressions over it.  ``field_grid`` returns a
``ProbeGrid`` holding one (Q, ...) array per field.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, geometry, potential
from .errors import InvalidParameterError, VacuumProbeError

RHO_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# per-state microscopic inputs

@dataclass
class StateData:
    """One phase-space state with the surface data the fields need.

    ``lam_n`` are the per-particle potential energies, ``pair_derivs`` the
    lifted pair-distance derivatives of the total surface, ``pp_grads`` the
    per-particle gradients grad_{x^m} lambda^n indexed [n, m, :].
    """

    x: np.ndarray
    p: np.ndarray
    masses: np.ndarray
    lam_n: np.ndarray
    pair_derivs: np.ndarray
    pp_grads: np.ndarray


class AdiabaticFieldModel(dynamics.AdiabaticSurface):
    """The bare surface bound to one index j, for ``prepare_state``."""

    def __init__(self, v_pot, j=0, gap_tol=potential.GAP_TOL):
        super().__init__(v_pot, gap_tol)
        self.j = int(j)

    def surface_data(self, x):
        return self.field_data(x, self.j)


class CorrectedFieldModel(dynamics.CorrectedSurface):
    """The mass-corrected surface bound to one index j, for
    ``prepare_state``."""

    def __init__(self, v_pot, j, mass, gap_tol=potential.GAP_TOL):
        super().__init__(v_pot, mass, gap_tol)
        self.j = int(j)

    def surface_data(self, x):
        return self.field_data(x, self.j)


def lift_tol(model):
    """``model.lift_tol``, else ``geometry.LIFT_RESIDUAL_TOL``."""
    return getattr(model, "lift_tol", geometry.LIFT_RESIDUAL_TOL)


def prepare_state(x, p, masses, model):
    """Assemble StateData for one state.

    ``model.surface_data(x)`` returns (lam_n, grad, pp) of the state's
    surface; ``AdiabaticFieldModel`` and ``CorrectedFieldModel`` bind a
    ``dynamics`` surface to its index.
    """
    x = np.asarray(x, dtype=float)
    return state_data(x, p, masses, model.surface_data(x), lift_tol(model))


def state_data(x, p, masses, data, tol):
    """StateData from surface data (lam_n, grad, pp) evaluated at x."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    masses = np.asarray(masses, dtype=float)
    lam_n, grad, pp = data
    pair_derivs = geometry.lift_gradient_to_distances(x, grad, tol_factor=tol)
    return StateData(x=x, p=p, masses=masses, lam_n=np.asarray(lam_n),
                     pair_derivs=pair_derivs, pp_grads=pp)


# ---------------------------------------------------------------------------
# raw per-state moments

_RAW_KEYS = ("rho", "grad_rho", "mom", "grad_mom", "energy", "grad_energy",
             "kin", "grad_kin", "w", "grad_w", "t1", "grad_t1",
             "t2", "grad_t2")


def _raw_fields(sd, mol, probes):
    """All per-state moments and their y-gradients at the probes.

    Gradient arrays carry the derivative index first: grad_mom[q, c, j] is
    d mom_j / d y_c at probe q.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    nq = probes.shape[0]
    x, p, m = sd.x, sd.p, sd.masses
    n = x.shape[0]
    dy = probes[:, None, :] - x[None, :, :]
    eta = mol.eval(dy)                            # (Q, N)
    geta = mol.grad(dy.reshape(-1, 3)).reshape(nq, n, 3)
    en = 0.5 * np.sum(p ** 2, axis=1) / m + sd.lam_n
    kin_n = p[:, :, None] * p[:, None, :] / m[:, None, None]   # (N, l, j)
    t1_n = (p / m[:, None]) * en[:, None]

    out = {
        "rho": eta @ m,
        "grad_rho": np.einsum("qnc,n->qc", geta, m),
        "mom": np.einsum("qn,nj->qj", eta, p),
        "grad_mom": np.einsum("qnc,nj->qcj", geta, p),
        "energy": eta @ en,
        "grad_energy": np.einsum("qnc,n->qc", geta, en),
        "kin": np.einsum("qn,nlj->qlj", eta, kin_n),
        "grad_kin": np.einsum("qnc,nlj->qclj", geta, kin_n),
        "t1": np.einsum("qn,nl->ql", eta, t1_n),
        "grad_t1": np.einsum("qnc,nl->qcl", geta, t1_n),
    }

    if not (np.any(sd.pair_derivs) or np.any(sd.pp_grads)):
        # free particles: every bond kernel vanishes identically
        out["w"] = np.zeros((nq, 3, 3))
        out["grad_w"] = np.zeros((nq, 3, 3, 3))
        out["t2"] = np.zeros((nq, 3))
        out["grad_t2"] = np.zeros((nq, 3, 3))
        return out

    iu, ju = geometry.pair_indices(n)
    dx = x[iu] - x[ju]
    r = np.linalg.norm(dx, axis=1)
    b, gb = mol.bond_weights(probes, x[iu], x[ju])
    # bond stress kernel dx_l * dlambda/dr * dx_j / r per pair
    w_pair = dx[:, :, None] * dx[:, None, :] \
        * (sd.pair_derivs / r)[:, None, None]
    # bond power kernel: ordered n != m collapsed onto unordered pairs
    a_fwd = np.einsum("kj,kj->k", p[ju] / m[ju, None],
                      sd.pp_grads[iu, ju])      # (p^j/M_j) . grad_{x^j} l^i
    a_back = np.einsum("kj,kj->k", p[iu] / m[iu, None],
                       sd.pp_grads[ju, iu])     # (p^i/M_i) . grad_{x^i} l^j
    t2_pair = dx * (a_fwd - a_back)[:, None]
    out["w"] = np.einsum("qk,klj->qlj", b, w_pair)
    out["grad_w"] = np.einsum("qkc,klj->qclj", gb, w_pair)
    out["t2"] = np.einsum("qk,kl->ql", b, t2_pair)
    out["grad_t2"] = np.einsum("qkc,kl->qcl", gb, t2_pair)
    return out


def _mean_raw(ensembles, mol, probes):
    """Weighted ensemble mean of the raw moments, and their per-state stack.

    ``ensembles`` is a list of (weight, [StateData, ...]) groups; the group
    means are combined with the given weights (surface weights q_j*).  The
    stack is (w, moments): w (S,) is each state's weight in the mean, its
    group weight over the group size, and moments[k] stacks moment k of
    every state to (S, Q, ...).  Accumulation order is fixed, so results
    are bit-reproducible.
    """
    sizes = [len(states) for _, states in ensembles]
    if not sizes or not all(sizes):
        raise InvalidParameterError("empty ensemble or ensemble group")
    states = [sd for _, group in ensembles for sd in group]
    moments = {}
    for i, sd in enumerate(states):
        for k, v in _raw_fields(sd, mol, probes).items():
            if i == 0:
                moments[k] = np.empty((len(states),) + v.shape)
            moments[k][i] = v
    w = np.repeat([wt / n for (wt, _), n in zip(ensembles, sizes)], sizes)
    total = None
    start = 0
    for (weight, _), n in zip(ensembles, sizes):
        group = {k: sum(moments[k][start:start + n]) / n for k in _RAW_KEYS}
        start += n
        if total is None:
            total = {k: weight * group[k] for k in _RAW_KEYS}
        else:
            for k in _RAW_KEYS:
                total[k] = total[k] + weight * group[k]
    return total, (w, moments)


def _as_ensembles(source):
    """Normalize a flat state list to the weighted-group form."""
    if isinstance(source, StateData):
        return [(1.0, [source])]
    source = list(source)
    if source and isinstance(source[0], StateData):
        return [(1.0, source)]
    return source


# ---------------------------------------------------------------------------
# public instantaneous operations

def instantaneous_density(sd, mol, y):
    """(rho, momentum density, energy density) at probe(s) ``y``."""
    single = np.asarray(y).ndim == 1
    raw = _raw_fields(sd, mol, y)
    if single:
        return float(raw["rho"][0]), raw["mom"][0], float(raw["energy"][0])
    return raw["rho"], raw["mom"], raw["energy"]


def instantaneous_momentum_flux(sd, mol, y):
    """Pre-split momentum flux tensor K - W, so that
    d/dt mom_j + sum_l d_l flux[l, j] = 0 along the trajectory."""
    single = np.asarray(y).ndim == 1
    raw = _raw_fields(sd, mol, y)
    flux = raw["kin"] - raw["w"]
    return flux[0] if single else flux


def velocity_field(source, mol, y):
    """Ensemble velocity u = <mom> / <rho> at probe(s) ``y``.

    Raises
    ------
    VacuumProbeError
        Where the ensemble density falls below RHO_FLOOR.
    """
    single = np.asarray(y).ndim == 1
    _, u = _mean_and_u(source, mol, y)
    return u[0] if single else u


def _mean_and_u(source, mol, y, u=None):
    """Ensemble mean moments at ``y`` and ``u``, by default the ensemble
    velocity (which raises VacuumProbeError below RHO_FLOOR)."""
    mean, _ = _mean_raw(_as_ensembles(source), mol, y)
    if u is not None:
        return mean, np.atleast_2d(np.asarray(u, dtype=float))
    if np.any(mean["rho"] < RHO_FLOOR):
        raise VacuumProbeError("ensemble density below the vacuum floor")
    return mean, mean["mom"] / mean["rho"][:, None]


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


def stress_tensor(source, mol, y, u=None):
    """Ensemble stress sigma(y); ``u`` defaults to the ensemble velocity."""
    single = np.asarray(y).ndim == 1
    sigma = _sigma_from_mean(*_mean_and_u(source, mol, y, u))
    return sigma[0] if single else sigma


def heat_flux(source, mol, y, u=None):
    """Ensemble heat flux q(y); ``u`` defaults to the ensemble velocity."""
    single = np.asarray(y).ndim == 1
    q = _q_from_mean(*_mean_and_u(source, mol, y, u))
    return q[0] if single else q


# ---------------------------------------------------------------------------
# probe grids

@dataclass
class ProbeGrid:
    """All fields at the probes, one array per field, probe index first.

    Gradients carry the derivative index next: grad_mom[i, c, j] is
    d mom_j / d y_c at probe i.  ``div_mom_flux`` and ``div_energy_flux``
    are the canonical div(rho u u - sigma) and div(E u + q - sigma u) in
    ensemble mode, the pre-split div(K - W) and div(T1 + T2) otherwise.
    ``vacuum`` flags the probes below RHO_FLOOR (ensemble mode only); an
    ensemble grid also holds the velocity ``u`` and a ``stderr`` dict of
    arrays for rho, mom, energy, sigma and q.  ``raws`` keeps the per-state
    stack (w, moments) the grid was built from, so callers can form
    per-state statistics without evaluating the moments again.
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
    stderr: dict = None
    time: float = 0.0
    raws: tuple = field(default=None, repr=False)

    def to_csv(self, path):
        cols = (["y_1", "y_2", "y_3", "rho", "mom_1", "mom_2", "mom_3", "E"]
                + [f"sigma_{l + 1}{j + 1}" for l in range(3)
                   for j in range(3)]
                + ["q_1", "q_2", "q_3"])
        keys = ("rho", "mom", "energy", "sigma", "q")
        n = len(self.points)
        blocks = [self.points] + [getattr(self, k).reshape(n, -1)
                                  for k in keys]
        if self.mode == "ensemble":
            cols += [f"{c}_err" for c in cols[3:]]
            blocks += [self.stderr[k].reshape(n, -1) for k in keys]
        write_csv(path, cols, blocks)


def write_csv(path, header, blocks):
    """Write the columns of ``blocks`` (arrays with the row index first)
    under ``header``, every value as %.17g."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.column_stack(blocks):
            writer.writerow([f"{v:.17g}" for v in row])


def _grad_u(mean, u):
    """gu[q, c, j] = d u_j / d y_c from the quotient rule."""
    rho = mean["rho"][:, None, None]
    return (mean["grad_mom"] - mean["grad_rho"][:, :, None]
            * u[:, None, :]) / rho


def _canonical_divergences(mean, u):
    """Analytic divergences of the canonical momentum and energy fluxes.

    The chain rule runs through every u(y) occurrence, so the result tests
    the canonical rearrangement rather than assuming it.
    """
    gu = _grad_u(mean, u)
    rho, grho = mean["rho"], mean["grad_rho"]
    mom, gmom = mean["mom"], mean["grad_mom"]
    # convective tensor P_lj = mom_l mom_j / rho and its gradient
    gp = (gmom[:, :, :, None] * mom[:, None, None, :]
          + mom[:, None, :, None] * gmom[:, :, None, :]) \
        / rho[:, None, None, None] \
        - (mom[:, None, :, None] * mom[:, None, None, :]
           * grho[:, :, None, None]) / (rho ** 2)[:, None, None, None]
    # sum_n M eta v v = K - P, so grad sigma = -(grad K - grad P) + grad W
    gsigma = -(mean["grad_kin"] - gp) + mean["grad_w"]
    div_mom_flux = np.einsum("qccj->qj", gp - gsigma)

    sigma = _sigma_from_mean(mean, u)
    q = _q_from_mean(mean, u)
    e, ge = mean["energy"], mean["grad_energy"]
    kin, gkin = mean["kin"], mean["grad_kin"]
    w, gw = mean["w"], mean["grad_w"]
    u2 = np.sum(u ** 2, axis=1)
    mom_u = np.einsum("qj,qj->q", mom, u)
    u_gu = np.einsum("qj,qcj->qc", u, gu)           # d(|u|^2/2)/dy_c
    gq = (mean["grad_t1"]
          - np.einsum("qclj,qj->qcl", gkin, u)
          - np.einsum("qlj,qcj->qcl", kin, gu)
          - gu * e[:, None, None] - u[:, None, :] * ge[:, :, None]
          + gu * mom_u[:, None, None]
          + u[:, None, :] * (np.einsum("qcj,qj->qc", gmom, u)
                             + np.einsum("qj,qcj->qc", mom, gu))[:, :, None]
          + gmom * (0.5 * u2)[:, None, None] + mom[:, None, :] * u_gu[:, :, None]
          - gu * (0.5 * rho * u2)[:, None, None]
          - u[:, None, :] * (0.5 * u2[:, None] * grho
                             + rho[:, None] * u_gu)[:, :, None]
          + mean["grad_t2"]
          + np.einsum("qclj,qj->qcl", gw, u)
          + np.einsum("qlj,qcj->qcl", w, gu))
    # energy flux G_l = E u_l + q_l - sum_j sigma_lj u_j
    div_energy_flux = (np.einsum("qc,qc->q", ge, u)
                       + e * np.einsum("qcc->q", gu)
                       + np.einsum("qcc->q", gq)
                       - np.einsum("qccj,qj->q", gsigma, u)
                       - np.einsum("qcj,qcj->q", sigma, gu))
    return sigma, q, div_mom_flux, div_energy_flux


def field_grid(source, mol, probes, mode="per-trajectory", time=0.0):
    """Evaluate all fields on a probe grid.

    ``mode`` is "per-trajectory" (one state, pre-split fluxes; the reported
    sigma and q use u = 0) or "ensemble" (weighted groups of states,
    canonical fields with u and Monte Carlo standard errors; vacuum probes
    are flagged, not filled).
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    mean, raws = _mean_raw(_as_ensembles(source), mol, probes)
    nq = probes.shape[0]
    extra = {"vacuum": np.zeros(nq, dtype=bool)}
    if mode == "per-trajectory":
        div_mom_flux = np.einsum("qccj->qj",
                                 mean["grad_kin"] - mean["grad_w"])
        div_energy_flux = np.einsum("qcc->q",
                                    mean["grad_t1"] + mean["grad_t2"])
        sigma = -mean["kin"] + mean["w"]
        q = mean["t1"] + mean["t2"]
    elif mode == "ensemble":
        vacuum = mean["rho"] < RHO_FLOOR
        u = np.zeros((nq, 3))
        ok = ~vacuum
        u[ok] = mean["mom"][ok] / mean["rho"][ok, None]
        # replace the vacuum density by 1 inside the quotient rules; every
        # numerator vanishes there, so the outputs stay zero
        safe = dict(mean)
        safe["rho"] = np.where(vacuum, 1.0, mean["rho"])
        sigma, q, div_mom_flux, div_energy_flux = \
            _canonical_divergences(safe, u)
        extra = {"vacuum": vacuum, "u": u, "stderr": _stderr(raws, u)}
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    return ProbeGrid(
        points=probes, mode=mode, rho=mean["rho"], mom=mean["mom"],
        energy=mean["energy"], sigma=sigma, q=q, grad_rho=mean["grad_rho"],
        grad_mom=mean["grad_mom"], grad_energy=mean["grad_energy"],
        div_mom=np.trace(mean["grad_mom"], axis1=1, axis2=2),
        div_mom_flux=div_mom_flux, div_energy_flux=div_energy_flux,
        time=float(time), raws=raws, **extra)


def _stderr(raws, u):
    """Monte Carlo standard errors of the canonical fields from the
    per-state stack (w, moments).

    Per-state sigma and q contributions are evaluated at the plug-in
    ensemble u; the variance of u itself is not propagated.
    """
    w, moments = raws
    per_state = {"rho": moments["rho"], "mom": moments["mom"],
                 "energy": moments["energy"],
                 "sigma": _sigma_from_mean(moments, u),
                 "q": _q_from_mean(moments, u)}
    return {key: np.sqrt(weighted_mean_variance(w, vals))
            for key, vals in per_state.items()}


def weighted_mean_variance(weights, vals):
    """sum_i w_i^2 (x_i - mean)^2, the variance of the weighted mean of the
    per-state values ``vals`` (S, Q, ...) with weights (S,)."""
    wview = weights.reshape(weights.shape + (1,) * (vals.ndim - 1))
    mean = np.sum(wview * vals, axis=0)
    return np.sum(wview ** 2 * (vals - mean) ** 2, axis=0)
