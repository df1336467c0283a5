"""Numerical certification of the mass, momentum and energy conservation laws.

The time derivatives are central differences of rho, mom and E at
tau +/- dt_check (states advanced by single Verlet steps), so the check
exercises the whole pipeline instead of sharing the derivatives of the
quantities being tested.  Spatial divergences come from the exact
probe-space gradients of the field grid at tau; the stress and the heat
flux enter only there, so the states at tau +/- dt_check are reduced to
their densities (``fields.densities``).  A canonical residual must equal
the weighted mean of the per-state pre-split ones to rounding.

Every law is the time derivative of a density plus the divergence of a
flux, and one table, ``LAWS``, drives the check: residuals, field scales,
standard errors and Richardson orders are each one expression over it.

Each configuration is evaluated once, from the model's own record, and the
states of a group are evaluated together as one stack: one stacked ``at``
at tau with the share gradients, which give the fields and the force that
opens the Verlet steps, and one stacked Verlet step each way, closed by
``at(x, j, fields=False)``, whose shares the densities at tau +/- dt_check
read.  The field grid at tau is one pass over every state of every group.
The provider's gradient is compared with the model's on the first state
of each group.

Past that, groups are one per-state stack with per-state weights w
(``fields.state_weights``): the densities at tau -/+ dt_check of every
state give the per-state rates once (``_rates``), each law's rate is their
``fields.weighted_mean``, the vacuum mask reads the weighted-mean
densities, and the canonical standard errors read the same rate stack.
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics, fields, geometry
from .errors import IdentityGapError, InvalidParameterError

# each law and the density whose time derivative it reads
LAWS = (("mass", "rho"), ("mom", "mom"), ("energy", "energy"))
# rounding bound on a canonical residual minus the weighted mean of the
# per-state pre-split ones, relative to the law's scale
IDENTITY_GAP_TOL = 1e-12


@dataclass
class ResidualReport:
    """Per-probe conservation residuals and their norms.

    ``masked`` marks vacuum probes, excluded from the norms.  In canonical
    mode ``stderr_*`` hold the combined Monte Carlo standard errors of the
    two estimated terms in each law.
    """

    probes: np.ndarray
    r_mass: np.ndarray
    r_mom: np.ndarray
    r_energy: np.ndarray
    masked: np.ndarray
    dt_check: float
    mode: str
    scales: dict
    richardson_order: dict = None
    stderr_mass: np.ndarray = None
    stderr_mom: np.ndarray = None
    stderr_energy: np.ndarray = None

    def _norms(self, norm):
        keep = ~self.masked
        return {law: float(norm(getattr(self, f"r_{law}")[keep]))
                if np.any(keep) else 0.0 for law, _ in LAWS}

    def max_norms(self):
        return self._norms(lambda r: np.max(np.abs(r)))

    def rms_norms(self):
        return self._norms(lambda r: np.sqrt(np.mean(r ** 2)))

    def relative_max(self):
        """Max residual of each law divided by its field scale."""
        norms = self.max_norms()
        return {k: norms[k] / max(self.scales[k], 1e-300) for k in norms}

    def to_json_dict(self):
        out = {
            "mode": self.mode,
            "dt_check": self.dt_check,
            "n_probes": int(len(self.probes)),
            "n_masked": int(np.sum(self.masked)),
            "max_norms": self.max_norms(),
            "rms_norms": self.rms_norms(),
            "relative_max": self.relative_max(),
            "scales": self.scales,
        }
        if self.richardson_order is not None:
            out["richardson_order"] = self.richardson_order
        return out


def _central(states, model):
    """The StateData of each state at tau, shared by every dt_check, and
    the group's stack (x, p, masses, force), from one stacked evaluation
    of the model."""
    x, p, masses = (np.stack([getattr(s, k) for s in states])
                    for k in ("x", "p", "masses"))
    point = model.at(x, model.j)
    sds = [fields.state_data(x[k], p[k], masses[k],
                             [a[k] for a in point[:3]])
           for k in range(len(states))]
    return sds, (x, p, masses, -point.grad)


def _check_provider(provider, state, f):
    """Raise ``InvalidParameterError`` if the provider's gradient at
    ``state`` differs from the model's force ``f`` beyond
    ``geometry.LIFT_RESIDUAL_TOL``: the fields and the dynamics would
    describe different surfaces."""
    g = provider.gradient(state.x, state.surface)
    miss = np.linalg.norm(g + f)
    limit = geometry.LIFT_RESIDUAL_TOL * max(1.0, np.linalg.norm(g))
    if miss > limit:
        raise InvalidParameterError(
            f"model gradient and provider force differ by {miss:.3e} "
            f"(limit {limit:.1e}) on surface {state.surface}")


def _neighbours(centre, model, dt_check, mol, probes):
    """Densities of a group's states at tau - dt_check and tau + dt_check,
    each (S, Q, ...).

    One stacked Verlet step each way from the group's stack ``centre`` =
    (x, p, masses, force at tau), closed by the model without share
    gradients; the backward step runs forward from the reversed momenta.
    """
    x, p, masses, f = centre

    def at(xx):
        return model.at(xx, model.j, fields=False)

    out = []
    for sign in (-1.0, 1.0):
        xn, pn, point = dynamics.verlet_step(at, x, sign * p,
                                             masses[..., None], f, dt_check)
        out.append(fields.densities(xn, sign * pn, masses, point.lam_n, mol,
                                    probes))
    return out


def _rates(dens_m, dens_p, dt):
    """Central-difference time derivative of each law's density, per state
    (S, Q, ...), from the per-state densities at tau -/+ dt."""
    return {law: (dens_p[k] - dens_m[k]) / (2 * dt) for law, k in LAWS}


def per_trajectory_residuals(state, provider, model, mol, probes, dt_check,
                             richardson=True):
    """Residuals of the pre-split conservation laws along one trajectory.

    mass:     d rho / dt + div mom
    momentum: d mom / dt + div (K - W)
    energy:   d E / dt + div (T1 + T2)

    Nothing is masked.  Raises ``InvalidParameterError`` when the density
    at tau is vacuum (``fields.vacuum``) at every probe: there is nothing
    to check.
    """
    return _check([(1.0, [state], provider, model)], mol, probes, dt_check,
                  richardson, "per-trajectory")


def canonical_residuals(groups, mol, probes, dt_check, richardson=True):
    """Residuals of the canonical conservation laws on weighted ensembles.

    ``groups`` is a list of (weight, states, provider, model) with states a
    list of PhaseState at the common evaluation time; weights are the
    surface probabilities q_j*.  Vacuum probes are masked.  The reported
    standard errors combine the Monte Carlo errors of the time-derivative
    and divergence estimators of each law.
    """
    return _check(groups, mol, probes, dt_check, richardson, "ensemble")


def _check(groups, mol, probes, dt_check, richardson, mode):
    """Residual report of ``mode`` on ``groups``, from the field grid at tau
    and the densities at tau -/+ dt_check."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    w = fields.state_weights([(weight, states)
                              for weight, states, *_ in groups])
    centres = [_central(states, model) for _, states, _, model in groups]
    for (_, states, provider, _), (_, centre) in zip(groups, centres):
        _check_provider(provider, states[0], centre[-1][0])
    gc = fields.field_grid(
        [(weight, sds) for (weight, *_), (sds, _) in zip(groups, centres)],
        mol, probes, mode=mode)
    if mode == "per-trajectory" and np.all(fields.vacuum(gc.rho)):
        raise InvalidParameterError(
            f"density below {fields.RHO_FLOOR:g} at every probe: there is "
            "nothing to check")

    div = {"mass": gc.div_mom, "mom": gc.div_mom_flux,
           "energy": gc.div_energy_flux}

    def residuals(dt):
        """Per-law residuals with the densities at tau -/+ dt, the mask,
        the per-law mean rates and the per-state rate stacks."""
        pairs = [_neighbours(centre, model, dt, mol, probes)
                 for (*_, model), (_, centre) in zip(groups, centres)]
        dm, dp = ({k: np.concatenate([pair[side][k] for pair in pairs])
                   for k in pairs[0][side]} for side in (0, 1))
        rate = _rates(dm, dp, dt)
        mean = {law: fields.weighted_mean(w, v) for law, v in rate.items()}
        masked = gc.vacuum
        if mode == "ensemble":  # and the vacuum of the mean at tau -/+ dt
            for dens in (dm, dp):
                masked = masked | fields.vacuum(
                    fields.weighted_mean(w, dens["rho"]))
        return ({law: mean[law] + div[law] for law, _ in LAWS}, masked,
                mean, rate)

    r, masked, mean_rate, rate = residuals(dt_check)

    def peak(a):  # over the probes that are not vacuum at tau
        return float(np.max(np.abs(a[~gc.vacuum]), initial=0.0))

    # each law's field scale: the larger of its two terms
    scales = {law: max(peak(mean_rate[law]), peak(div[law]))
              for law, _ in LAWS}
    err = {}
    if mode == "ensemble":
        # each state's rate and pre-split divergence are single-sample
        # estimates of the law's two terms; their errors add in quadrature
        dv = fields.presplit_divergences(gc.raws[1])
        err = {f"stderr_{law}": np.sqrt(
            fields.weighted_mean_variance(w, rate[law])
            + fields.weighted_mean_variance(w, dv[law])) for law, _ in LAWS}
        for law, _ in LAWS:  # canonical = pre-split, u being mom/rho
            gap = np.abs(r[law] - fields.weighted_mean(w, rate[law] + dv[law]))
            if np.any(gap[~masked] > IDENTITY_GAP_TOL * scales[law]):
                raise IdentityGapError(
                    f"{law}: canonical and pre-split residuals differ by "
                    f"{gap[~masked].max():.3e}, scale {scales[law]:.3e}")
    order = None
    if richardson:
        fine, fine_mask, _, _ = residuals(dt_check / 2.0)
        keep = ~(masked | fine_mask)
        order = {law: _order(r[law][keep], fine[law][keep])
                 for law, _ in LAWS}
    return ResidualReport(
        probes=probes, masked=masked, dt_check=float(dt_check),
        mode="canonical" if mode == "ensemble" else mode, scales=scales,
        richardson_order=order, **{f"r_{law}": r[law] for law, _ in LAWS},
        **err)


def _order(coarse, fine):
    """Richardson order log2(max |coarse| / max |fine|) of one law."""
    a = np.max(np.abs(coarse), initial=0.0)
    b = np.max(np.abs(fine), initial=0.0)
    return float("nan") if b == 0.0 else float(np.log2(a / b))
