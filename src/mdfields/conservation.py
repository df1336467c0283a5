"""Numerical certification of the mass, momentum and energy conservation laws.

The time derivative of each field is a central difference of full field
evaluations at tau +/- dt_check (states advanced by single Verlet steps), so
the check exercises the whole pipeline instead of sharing the analytic chain
rule with the quantities being tested.  Spatial divergences come from the
analytic probe-space gradients of ``fields`` and are exact.

The provider opens the Verlet steps and the model closes them, with the
gradient of its surface data at tau +/- dt_check, which the fields read
anyway; so every configuration is evaluated once.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, fields
from .errors import InvalidParameterError


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
        if np.all(self.masked):
            return {"mass": 0.0, "mom": 0.0, "energy": 0.0}
        keep = ~self.masked
        return {law: float(norm(r[keep])) for law, r in (
            ("mass", self.r_mass), ("mom", self.r_mom),
            ("energy", self.r_energy))}

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

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_csv(self, path):
        cols = ["y_1", "y_2", "y_3", "masked", "r_mass",
                "r_mom_1", "r_mom_2", "r_mom_3", "r_energy"]
        blocks = [self.probes, self.masked, self.r_mass, self.r_mom,
                  self.r_energy]
        if self.stderr_mass is not None:
            cols += ["stderr_mass", "stderr_mom_1", "stderr_mom_2",
                     "stderr_mom_3", "stderr_energy"]
            blocks += [self.stderr_mass, self.stderr_mom, self.stderr_energy]
        fields.write_csv(path, cols, blocks)


def _central(state, provider, model):
    """StateData and force at tau, shared by every dt_check.

    Raises ``InvalidParameterError`` if the model's gradient differs from
    the provider's force beyond the model's lift tolerance: the fields and
    the dynamics would describe different surfaces.
    """
    data = model.surface_data(state.x)
    f = dynamics.force(provider, state.x, state.surface)
    tol = fields.lift_tol(model)
    miss = np.linalg.norm(data[1] + f)
    limit = tol * max(1.0, np.linalg.norm(f))
    if miss > limit:
        raise InvalidParameterError(
            f"model gradient and provider force differ by {miss:.3e} "
            f"(limit {limit:.1e}) on surface {state.surface}")
    return fields.state_data(state.x, state.p, state.masses, data, tol), f


def _neighbours(state, model, f, dt_check):
    """StateData at tau - dt_check and tau + dt_check.

    One Verlet step each way, opened by the force ``f`` at tau and closed
    by the model's surface data, which the StateData reuses; the backward
    step runs forward from the reversed momenta.
    """
    m = state.masses[:, None]
    tol = fields.lift_tol(model)
    xm, pm, dm = dynamics.verlet_step(model.surface_data, state.x, -state.p,
                                      m, f, dt_check)
    xp, pp, dp = dynamics.verlet_step(model.surface_data, state.x, state.p,
                                      m, f, dt_check)
    return (fields.state_data(xm, -pm, state.masses, dm, tol),
            fields.state_data(xp, pp, state.masses, dp, tol))


def _residuals(grid_m, grid_c, grid_p, dt):
    """Per-probe residuals of the three laws, and the vacuum mask."""
    return ((grid_p.rho - grid_m.rho) / (2 * dt) + grid_c.div_mom,
            (grid_p.mom - grid_m.mom) / (2 * dt) + grid_c.div_mom_flux,
            (grid_p.energy - grid_m.energy) / (2 * dt)
            + grid_c.div_energy_flux,
            grid_m.vacuum | grid_c.vacuum | grid_p.vacuum)


def _scales(grid_m, grid_c, grid_p, dt_check):
    """Field scales: the largest magnitude among the two terms of each law,
    over the probes that are not vacuum at tau."""
    ok = ~grid_c.vacuum

    def peak(a):
        return float(np.max(np.abs(a[ok]), initial=0.0))

    return {"mass": max(peak(grid_p.rho - grid_m.rho) / (2 * dt_check),
                        peak(grid_c.div_mom)),
            "mom": max(peak(grid_p.mom - grid_m.mom) / (2 * dt_check),
                       peak(grid_c.div_mom_flux)),
            "energy": max(peak(grid_p.energy - grid_m.energy)
                          / (2 * dt_check), peak(grid_c.div_energy_flux))}


def per_trajectory_residuals(state, provider, model, mol, probes, dt_check,
                             richardson=True):
    """Residuals of the pre-split conservation laws along one trajectory.

    mass:     d rho / dt + div mom
    momentum: d mom / dt + div (K - W)
    energy:   d E / dt + div (T1 + T2)
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
    """Residual report of the field grids of ``mode`` on ``groups``."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    centres = [[_central(s, provider, model) for s in states]
               for _, states, provider, model in groups]
    gc = fields.field_grid(
        [(weight, [sd for sd, _ in cs])
         for (weight, *_), cs in zip(groups, centres)],
        mol, probes, mode=mode)

    def neighbours(dt):
        """Field grids at tau - dt and tau + dt."""
        ens_m, ens_p = [], []
        for (weight, states, _, model), cs in zip(groups, centres):
            pairs = [_neighbours(s, model, f, dt)
                     for s, (_, f) in zip(states, cs)]
            ens_m.append((weight, [sm for sm, _ in pairs]))
            ens_p.append((weight, [sp for _, sp in pairs]))
        return (fields.field_grid(ens_m, mol, probes, mode=mode),
                fields.field_grid(ens_p, mol, probes, mode=mode))

    gm, gp = neighbours(dt_check)
    r_mass, r_mom, r_energy, masked = _residuals(gm, gc, gp, dt_check)
    scales = _scales(gm, gc, gp, dt_check)
    err = {}
    if mode == "ensemble":
        err = _canonical_stderr(gm.raws, gc.raws, gp.raws, dt_check)
    order = None
    if richardson:
        hm, hp = neighbours(dt_check / 2.0)
        h_mass, h_mom, h_energy, hmask = _residuals(hm, gc, hp,
                                                    dt_check / 2.0)
        keep = ~(masked | hmask)
        order = _richardson(
            (r_mass[keep], r_mom[keep], r_energy[keep]),
            (h_mass[keep], h_mom[keep], h_energy[keep]))
    return ResidualReport(
        probes=probes, r_mass=r_mass, r_mom=r_mom, r_energy=r_energy,
        masked=masked, dt_check=float(dt_check),
        mode="canonical" if mode == "ensemble" else mode, scales=scales,
        richardson_order=order,
        **{f"stderr_{law}": v for law, v in err.items()})


def _richardson(coarse, fine):
    out = {}
    for name, rc, rf in zip(("mass", "mom", "energy"), coarse, fine):
        a = np.max(np.abs(rc), initial=0.0)
        b = np.max(np.abs(rf), initial=0.0)
        if b == 0.0:
            out[name] = float("nan")
        else:
            out[name] = float(np.log2(a / b))
    return out


def _canonical_stderr(raws_m, raws_c, raws_p, dt):
    """Combined MC standard errors of each conservation law.

    ``raws_*`` are the per-state stacks (w, moments) of the three field
    grids.  For every member trajectory the central-difference time
    derivative and the pre-split divergence are single-sample estimates;
    the canonical residual is exactly their weighted mean, so the law's
    standard error is the quadrature sum of both terms' standard errors.
    """
    (_, mm), (w, mc), (_, mp) = raws_m, raws_c, raws_p
    dt_terms = {"mass": (mp["rho"] - mm["rho"]) / (2 * dt),
                "mom": (mp["mom"] - mm["mom"]) / (2 * dt),
                "energy": (mp["energy"] - mm["energy"]) / (2 * dt)}
    dv_terms = {"mass": np.einsum("...cc->...", mc["grad_mom"]),
                "mom": np.einsum("...ccj->...j",
                                 mc["grad_kin"] - mc["grad_w"]),
                "energy": np.einsum("...cc->...",
                                    mc["grad_t1"] + mc["grad_t2"])}
    return {key: np.sqrt(fields.weighted_mean_variance(w, dt_terms[key])
                         + fields.weighted_mean_variance(w, dv_terms[key]))
            for key in dt_terms}
