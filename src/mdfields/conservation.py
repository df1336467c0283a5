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

import csv
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

    def _active(self, arr):
        return arr[~self.masked]

    def max_norms(self):
        if np.all(self.masked):
            return {"mass": 0.0, "mom": 0.0, "energy": 0.0}
        return {
            "mass": float(np.max(np.abs(self._active(self.r_mass)))),
            "mom": float(np.max(np.abs(self._active(self.r_mom)))),
            "energy": float(np.max(np.abs(self._active(self.r_energy)))),
        }

    def rms_norms(self):
        if np.all(self.masked):
            return {"mass": 0.0, "mom": 0.0, "energy": 0.0}
        return {
            "mass": float(np.sqrt(np.mean(self._active(self.r_mass) ** 2))),
            "mom": float(np.sqrt(np.mean(self._active(self.r_mom) ** 2))),
            "energy": float(
                np.sqrt(np.mean(self._active(self.r_energy) ** 2))),
        }

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
        has_err = self.stderr_mass is not None
        if has_err:
            cols += ["stderr_mass", "stderr_mom_1", "stderr_mom_2",
                     "stderr_mom_3", "stderr_energy"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for i in range(len(self.probes)):
                row = list(self.probes[i]) + [int(self.masked[i]),
                                              self.r_mass[i]]
                row += list(self.r_mom[i]) + [self.r_energy[i]]
                if has_err:
                    row += [self.stderr_mass[i]] + list(self.stderr_mom[i])
                    row += [self.stderr_energy[i]]
                writer.writerow([f"{v:.17g}" if isinstance(v, float)
                                 else str(v) for v in row])


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
    nq = len(grid_c.samples)
    r_mass = np.empty(nq)
    r_mom = np.empty((nq, 3))
    r_energy = np.empty(nq)
    masked = np.zeros(nq, dtype=bool)
    for i, (a, c, b) in enumerate(zip(grid_m.samples, grid_c.samples,
                                      grid_p.samples)):
        masked[i] = a.vacuum or c.vacuum or b.vacuum
        r_mass[i] = (b.rho - a.rho) / (2 * dt) + c.div_mom
        r_mom[i] = (b.mom - a.mom) / (2 * dt) + c.div_mom_flux
        r_energy[i] = (b.energy - a.energy) / (2 * dt) + c.div_energy_flux
    return r_mass, r_mom, r_energy, masked


def _scales(grid_m, grid_c, grid_p, dt_check):
    """Field scales: the largest magnitude among the two terms of each law."""
    s_mass = s_mom = s_energy = 0.0
    for sm, sc, sp in zip(grid_m.samples, grid_c.samples, grid_p.samples):
        if getattr(sc, "vacuum", False):
            continue
        s_mass = max(s_mass, abs(sp.rho - sm.rho) / (2 * dt_check),
                     abs(sc.div_mom))
        s_mom = max(s_mom,
                    np.max(np.abs(sp.mom - sm.mom)) / (2 * dt_check),
                    np.max(np.abs(sc.div_mom_flux)))
        s_energy = max(s_energy,
                       abs(sp.energy - sm.energy) / (2 * dt_check),
                       abs(sc.div_energy_flux))
    return {"mass": s_mass, "mom": s_mom, "energy": s_energy}


def per_trajectory_residuals(state, provider, model, mol, probes, dt_check,
                             richardson=True):
    """Residuals of the pre-split conservation laws along one trajectory.

    mass:     d rho / dt + div mom
    momentum: d mom / dt + div (K - W)
    energy:   d E / dt + div (T1 + T2)
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    sc, f = _central(state, provider, model)
    gc = fields.field_grid(sc, mol, probes, mode="per-trajectory")

    def run(dt):
        sm, sp = _neighbours(state, model, f, dt)
        gm = fields.field_grid(sm, mol, probes, mode="per-trajectory")
        gp = fields.field_grid(sp, mol, probes, mode="per-trajectory")
        return _residuals(gm, gc, gp, dt) + (_scales(gm, gc, gp, dt),)

    r_mass, r_mom, r_energy, masked, scales = run(dt_check)
    order = None
    if richardson:
        h_mass, h_mom, h_energy, _, _ = run(dt_check / 2.0)
        order = _richardson(
            (r_mass, r_mom, r_energy), (h_mass, h_mom, h_energy))
    return ResidualReport(probes=probes, r_mass=r_mass, r_mom=r_mom,
                          r_energy=r_energy, masked=masked,
                          dt_check=float(dt_check), mode="per-trajectory",
                          scales=scales, richardson_order=order)


def _richardson(coarse, fine):
    out = {}
    for name, rc, rf in zip(("mass", "mom", "energy"), coarse, fine):
        a = np.max(np.abs(rc))
        b = np.max(np.abs(rf))
        if b == 0.0:
            out[name] = float("nan")
        else:
            out[name] = float(np.log2(a / b))
    return out


def canonical_residuals(groups, mol, probes, dt_check, richardson=True):
    """Residuals of the canonical conservation laws on weighted ensembles.

    ``groups`` is a list of (weight, states, provider, model) with states a
    list of PhaseState at the common evaluation time; weights are the
    surface probabilities q_j*.  Vacuum probes are masked.  The reported
    standard errors combine the Monte Carlo errors of the time-derivative
    and divergence estimators of each law.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    centres = []
    for _, states, provider, model in groups:
        if not states:
            raise InvalidParameterError("empty ensemble group")
        centres.append([_central(s, provider, model) for s in states])
    gc = fields.field_grid(
        [(weight, [sd for sd, _ in cs])
         for (weight, *_), cs in zip(groups, centres)],
        mol, probes, mode="ensemble")

    def run(dt):
        ens_m, ens_p = [], []
        for (weight, states, _, model), cs in zip(groups, centres):
            pairs = [_neighbours(s, model, f, dt)
                     for s, (_, f) in zip(states, cs)]
            ens_m.append((weight, [sm for sm, _ in pairs]))
            ens_p.append((weight, [sp for _, sp in pairs]))
        gm = fields.field_grid(ens_m, mol, probes, mode="ensemble")
        gp = fields.field_grid(ens_p, mol, probes, mode="ensemble")
        r_mass, r_mom, r_energy, masked = _residuals(gm, gc, gp, dt)
        err = _canonical_stderr(gm.raws, gc.raws, gp.raws, dt)
        scales = _scales(gm, gc, gp, dt)
        return r_mass, r_mom, r_energy, masked, err, scales

    r_mass, r_mom, r_energy, masked, err, scales = run(dt_check)
    order = None
    if richardson:
        h_mass, h_mom, h_energy, hmask, _, _ = run(dt_check / 2.0)
        keep = ~(masked | hmask)
        order = _richardson(
            (r_mass[keep], r_mom[keep], r_energy[keep]),
            (h_mass[keep], h_mom[keep], h_energy[keep]))
    return ResidualReport(probes=probes, r_mass=r_mass, r_mom=r_mom,
                          r_energy=r_energy, masked=masked,
                          dt_check=float(dt_check), mode="canonical",
                          scales=scales, richardson_order=order,
                          stderr_mass=err["mass"], stderr_mom=err["mom"],
                          stderr_energy=err["energy"])


def _canonical_stderr(raws_m, raws_c, raws_p, dt):
    """Combined MC standard errors of each conservation law.

    ``raws_*`` are the per-state raw moments of the three field grids, as
    (weight, [moments, ...]) groups.  For every member trajectory the
    central-difference time derivative and the pre-split divergence are
    single-sample estimates; the canonical residual is exactly their
    weighted mean, so the law's standard error is the quadrature sum of
    both terms' standard errors.
    """
    dt_terms = {"mass": [], "mom": [], "energy": []}
    dv_terms = {"mass": [], "mom": [], "energy": []}
    wlist = []
    for (wt, sm), (_, sc), (_, sp) in zip(raws_m, raws_c, raws_p):
        nst = len(sc)
        for ga, gc, gb in zip(sm, sc, sp):
            dt_terms["mass"].append((gb["rho"] - ga["rho"]) / (2 * dt))
            dt_terms["mom"].append((gb["mom"] - ga["mom"]) / (2 * dt))
            dt_terms["energy"].append(
                (gb["energy"] - ga["energy"]) / (2 * dt))
            dv_terms["mass"].append(np.einsum("qcc->q", gc["grad_mom"]))
            dv_terms["mom"].append(np.einsum(
                "qccj->qj", gc["grad_kin"] - gc["grad_w"]))
            dv_terms["energy"].append(np.einsum(
                "qcc->q", gc["grad_t1"] + gc["grad_t2"]))
            wlist.append(wt / nst)
    w = np.asarray(wlist)
    return {key: np.sqrt(fields.weighted_mean_variance(w, dt_terms[key])
                         + fields.weighted_mean_variance(w, dv_terms[key]))
            for key in dt_terms}
