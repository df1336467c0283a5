"""Adiabatic surfaces and symplectic dynamics on one of them.

The Hamiltonian is H(x, p) = sum_n |p^n|^2 / (2 m_n) + lambda_bar_j(x); in
scaled units all masses are one.  Velocity Verlet with one force evaluation
per step keeps the energy drift bounded without secular growth.

One class models each kind of surface: ``AdiabaticSurface`` (bare, analytic)
and ``CorrectedSurface`` (mass-corrected, from the nonlinear eigen solve).
A surface is evaluated once per configuration: ``at(x, j)`` returns one
``SurfacePoint`` record (value, gradient, shares, share gradients) that
Verlet and the fields both read.  The Gibbs sampler reads ``shares``.
"""

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nonlinear_eigen, potential
from .errors import BlowUpError, InvalidParameterError

FD_STEP = 1e-5
BLOWUP_LIMIT = 1e9


@dataclass
class PhaseState:
    """Positions and momenta of N particles on surface ``surface``."""

    x: np.ndarray
    p: np.ndarray
    masses: np.ndarray
    surface: int = 0
    time: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.x.shape != self.p.shape or self.x.shape[1:] != (3,):
            raise InvalidParameterError("x and p must both be (N, 3)")
        if self.masses.shape != (self.x.shape[0],) or np.any(self.masses <= 0):
            raise InvalidParameterError("masses must be N positive reals")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.p))):
            raise InvalidParameterError("phase-space entries must be finite")


@dataclass
class Trajectory:
    """Uniform-step trajectory with per-state total energy."""

    times: np.ndarray
    positions: np.ndarray   # (S+1, N, 3)
    momenta: np.ndarray     # (S+1, N, 3)
    energies: np.ndarray
    masses: np.ndarray
    surface: int
    dt: float

    def state(self, i):
        return PhaseState(x=self.positions[i].copy(),
                          p=self.momenta[i].copy(),
                          masses=self.masses, surface=self.surface,
                          time=float(self.times[i]))

    @property
    def energy_oscillation(self):
        """Max relative deviation of the energy series from its start."""
        e0 = self.energies[0]
        scale = max(abs(e0), 1e-300)
        return float(np.max(np.abs(self.energies - e0)) / scale)

    @property
    def energy_drift(self):
        """Relative secular energy drift over the run.

        Verlet energy oscillates with bounded amplitude O(dt^2) but must not
        trend; the drift is the least-squares linear trend of the energy
        series times the run duration, which averages out the bounded
        oscillation.
        """
        if len(self.energies) < 2:
            return 0.0
        slope = np.polyfit(self.times, self.energies, 1)[0]
        span = self.times[-1] - self.times[0]
        return float(abs(slope * span) / max(abs(self.energies[0]), 1e-300))

    def to_csv(self, path):
        n = self.positions.shape[1]
        header = ["tau"]
        header += [f"x_{i + 1}" for i in range(3 * n)]
        header += [f"p_{i + 1}" for i in range(3 * n)]
        header += ["energy"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(len(self.times)):
                row = [f"{self.times[i]:.17g}"]
                row += [f"{v:.17g}" for v in self.positions[i].reshape(-1)]
                row += [f"{v:.17g}" for v in self.momenta[i].reshape(-1)]
                row += [f"{self.energies[i]:.17g}"]
                writer.writerow(row)


# ---------------------------------------------------------------------------
# surfaces

class SurfacePoint(NamedTuple):
    """Surface j at one configuration; ``point[:3]`` is the field data."""

    lam_n: np.ndarray   # shares lambda_j^n, (N,)
    grad: np.ndarray    # gradient of lambda_j, (N, 3)
    pp: np.ndarray      # share gradients grad_{x^m} lambda_j^n, [n, m, :]
    value: float        # lambda_j


def _central_difference(f, x):
    """Central differences of ``f`` along every coordinate of ``x``.

    ``f`` maps an (N, 3) configuration to a scalar or an array; the result
    has shape (N, 3) + f's shape, with
    out[n, a] = (f(x + h e_na) - f(x - h e_na)) / 2h and h = ``FD_STEP``.
    """
    x = np.asarray(x, dtype=float)
    diffs = []
    for n in range(x.shape[0]):
        for a in range(3):
            xp = x.copy(); xp[n, a] += FD_STEP
            xm = x.copy(); xm[n, a] -= FD_STEP
            diffs.append(np.asarray(f(xp)) - np.asarray(f(xm)))
    diffs = np.array(diffs) / (2.0 * FD_STEP)
    return diffs.reshape(x.shape + diffs.shape[1:])


class AdiabaticSurface:
    """Bare surfaces lambda_j of a matrix potential, analytic gradients."""

    def __init__(self, v_pot, gap_tol=potential.GAP_TOL):
        self.v_pot = v_pot
        self.d = v_pot.d
        self.gap_tol = gap_tol

    def at(self, x, j, fields=True):
        """Surface j at x from one ``evaluate_parts``, ``deriv`` and
        ``eigendecompose``; lam_n and pp are None unless ``fields``."""
        v, parts = self.v_pot.evaluate_parts(x)
        eig = potential.eigendecompose(v, self.gap_tol)
        dv = self.v_pot.deriv(x)
        lam_n = pp = None
        if fields:
            lam_n = potential.shares_from_parts(parts, eig.psi)[:, j]
            pp = potential.per_particle_gradients_all(self.v_pot, x, parts,
                                                      dv, eig, j)
        return SurfacePoint(lam_n, potential.surface_gradient(dv, eig, j), pp,
                            float(eig.lambdas[j]))

    def value(self, x, j):
        return self.at(x, j, fields=False).value

    def gradient(self, x, j):
        return self.at(x, j, fields=False).grad

    def shares(self, x):
        """Per-particle shares lambda_k^n of every surface, (N, d)."""
        v, parts = self.v_pot.evaluate_parts(x)
        eig = potential.eigendecompose(v, self.gap_tol)
        return potential.shares_from_parts(parts, eig.psi)

    def field_data(self, x, j):
        """(lam_n, grad, pp) of surface j: the shares lambda_j^n (N,), the
        gradient (N, 3) and the per-particle gradients [n, m, :] (N, N, 3)."""
        return self.at(x, j)[:3]


class CorrectedSurface:
    """Mass-corrected surfaces lambda_bar_j, from the nonlinear eigen solve.

    The gradient is the analytic Hellmann-Feynman gradient of the bare
    surface plus a central difference of the O(1/M) correction
    lambda_bar_j - lambda_j (6N solves); the correction is smooth and small,
    so the hybrid keeps full accuracy.  ``at`` takes the correction and the
    per-particle gradients of the shares from the same 6N solves.
    """

    # FD noise in the correction breaks exact rigid invariance of the
    # gradient at the 1e-10 scale; the lift check gets headroom for it
    lift_tol = 1e-8

    def __init__(self, v_pot, mass, gap_tol=potential.GAP_TOL):
        self.v_pot = v_pot
        self.d = v_pot.d
        self.mass = float(mass)
        self.gap_tol = gap_tol

    def _solve(self, x):
        return nonlinear_eigen.solve_nonlinear_eigen(
            self.v_pot, x, self.mass, gap_tol=self.gap_tol)

    @staticmethod
    def _correction(cs, j):
        return float(cs.lambdas_bar[j]) - float(cs.bare.lambdas[j])

    @classmethod
    def _value(cls, cs, j):
        return float(cs.bare.lambdas[j]) + cls._correction(cs, j)

    def _differences(self, x, j):
        """Central differences of the correction of surface j (entry 0)
        and of its shares (entries 1..N), (N, 3, 1 + N); 6N solves."""
        def correction_and_shares(xx):
            c = self._solve(xx)
            return np.concatenate(([self._correction(c, j)],
                                   c.per_particle_bar[:, j]))

        return _central_difference(correction_and_shares, x)

    def at(self, x, j, fields=True):
        """Surface j at x from 1 + 6N solves, ``fields`` or not."""
        x = np.asarray(x, dtype=float)
        cs = self._solve(x)
        diff = self._differences(x, j)
        grad = potential.surface_gradient(self.v_pot.deriv(x), cs.bare, j) \
            + diff[..., 0]
        return SurfacePoint(cs.per_particle_bar[:, j], grad,
                            np.moveaxis(diff[..., 1:], 2, 0),  # [n, m, a]
                            self._value(cs, j))

    def value(self, x, j):
        return self._value(self._solve(x), j)

    def gradient(self, x, j):
        """The gradient of ``at(x, j)``, bit for bit, from 6N solves."""
        x = np.asarray(x, dtype=float)
        eig = potential.eigendecompose(self.v_pot.evaluate(x), self.gap_tol)
        return potential.surface_gradient(self.v_pot.deriv(x), eig, j) \
            + self._differences(x, j)[..., 0]

    def shares(self, x):
        """Per-particle shares of every corrected surface, (N, d)."""
        return self._solve(x).per_particle_bar

    def field_data(self, x, j):
        """(lam_n, grad, pp), as ``AdiabaticSurface.field_data``."""
        return self.at(x, j)[:3]


class FiniteDifferenceSurface:
    """Black-box surface from a callable ``f(x, j) -> float``."""

    def __init__(self, f):
        self.f = f

    def value(self, x, j):
        return float(self.f(np.asarray(x, dtype=float), j))

    def gradient(self, x, j):
        return _central_difference(lambda xx: self.f(xx, j), x)

    def at(self, x, j, fields=False):
        """Value and gradient of surface j at x; a black box has no shares."""
        return SurfacePoint(None, self.gradient(x, j), None, self.value(x, j))


def force(surface_provider, x, j):
    """The force -grad lambda_bar_j(x), shape (N, 3)."""
    return -surface_provider.gradient(x, j)


def verlet_step(at, x, p, m, f, dt):
    """One velocity-Verlet step of size ``dt`` from (x, p).

    ``f`` is the force at x, ``m`` the masses shaped (N, 1) and ``at(x)``
    surface data whose entry 1 is the gradient.  Returns the new (x, p)
    and ``at`` of the new x, whose gradient closes the step.

    Raises
    ------
    BlowUpError
        When any new coordinate magnitude exceeds ``BLOWUP_LIMIT``.
    """
    p_half = p + 0.5 * dt * f
    x = x + dt * p_half / m
    if np.max(np.abs(x)) > BLOWUP_LIMIT:
        raise BlowUpError("coordinate overflow in a Verlet step")
    point = at(x)
    return x, p_half - 0.5 * dt * point[1], point


def integrate(initial, dt, steps, surface_provider):
    """Velocity-Verlet trajectory of ``steps`` uniform steps of size ``dt``.

    One ``surface_provider.at`` per step gives the energy and the force
    that closes the step and opens the next.

    Raises
    ------
    BlowUpError
        When any coordinate magnitude exceeds ``BLOWUP_LIMIT``.
    """
    if dt <= 0 or steps < 0:
        raise InvalidParameterError("need dt > 0 and steps >= 0")
    j = initial.surface
    m = initial.masses[:, None]
    x = initial.x.copy()
    p = initial.p.copy()
    times = initial.time + dt * np.arange(steps + 1)
    positions = np.empty((steps + 1,) + x.shape)
    momenta = np.empty_like(positions)
    energies = np.empty(steps + 1)
    positions[0], momenta[0] = x, p

    def at(xx):
        return surface_provider.at(xx, j, fields=False)

    point = at(x)
    energies[0] = 0.5 * np.sum(p ** 2 / m) + point.value
    for s in range(steps):
        x, p, point = verlet_step(at, x, p, m, -point.grad, dt)
        positions[s + 1], momenta[s + 1] = x, p
        energies[s + 1] = 0.5 * np.sum(p ** 2 / m) + point.value
    return Trajectory(times=times, positions=positions, momenta=momenta,
                      energies=energies, masses=initial.masses.copy(),
                      surface=j, dt=float(dt))
