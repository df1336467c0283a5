"""Adiabatic surfaces and symplectic dynamics on one of them.

The Hamiltonian is H(x, p) = sum_n |p^n|^2 / (2 m_n) + lambda_bar_j(x); in
scaled units all masses are one.  Velocity Verlet with one force evaluation
per step keeps the energy drift bounded without secular growth.

One class models each kind of surface: ``AdiabaticSurface`` (bare, analytic)
and ``CorrectedSurface`` (mass-corrected: one nonlinear eigen solve and the
exact derivatives of its fixed point).  A surface is evaluated once per
configuration: ``at(x, j)`` returns one ``SurfacePoint`` record (value,
gradient, shares, share gradients) that Verlet and the fields both read.
The Gibbs sampler reads ``values`` (every surface's energy) and, when
particles are weighted unequally, ``shares``.  ``at``, ``values``,
``shares`` and ``verlet_step`` also take a stack of configurations
(K, N, 3), item k equal to the single call on x[k] bit for bit; the
corrected surface solves a stack in lockstep.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nonlinear_eigen, potential
from .errors import BlowUpError, InvalidParameterError

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


# ---------------------------------------------------------------------------
# surfaces

class SurfacePoint(NamedTuple):
    """Surface j at one configuration; ``point[:3]`` is the field data.  At
    a stack of K configurations every entry gains a leading K axis, and
    ``value`` is (K,)."""

    lam_n: np.ndarray   # shares lambda_j^n, (N,)
    grad: np.ndarray    # gradient of lambda_j, (N, 3)
    pp: np.ndarray      # share gradients grad_{x^m} lambda_j^n, [n, m, :]
    value: float        # lambda_j


def _value(lam):
    """A surface value: a float at one configuration, (K,) at a stack."""
    return float(lam) if lam.ndim == 0 else lam


class AdiabaticSurface:
    """Bare surfaces lambda_j of a matrix potential, analytic gradients."""

    def __init__(self, v_pot, gap_tol=potential.GAP_TOL):
        self.v_pot = v_pot
        self.d = v_pot.d
        self.gap_tol = gap_tol

    def at(self, x, j, fields=True):
        """Surface j at x from one ``evaluate_parts``, ``deriv`` and
        ``eigendecompose``; pp is None unless ``fields``."""
        v, parts = self.v_pot.evaluate_parts(x)
        eig = potential.eigendecompose(v, self.gap_tol)
        dv = self.v_pot.deriv(x)
        pp = None
        if fields:
            pp = potential.per_particle_gradients_all(self.v_pot, x, parts,
                                                      dv, eig, j)
        return SurfacePoint(
            potential.shares_from_parts(parts, eig.psi)[..., j],
            potential.surface_gradient(dv, eig, j), pp,
            _value(eig.lambdas[..., j]))

    def value(self, x, j):
        """lambda_j from ``values``: ``eigvalsh``, so it may differ from
        ``at(x, j).value`` (``eigh``) by a few ulp."""
        return _value(self.values(x)[..., j])

    def gradient(self, x, j):
        return self.at(x, j, fields=False).grad

    def values(self, x):
        """Every surface's energy lambda_k, (d,), or (K, d) at a stack, from
        one ``evaluate`` and ``eigenvalues``: no parts, no eigenvectors.
        Within a few ulp of the ``eigh`` eigenvalues that ``at`` reads."""
        return potential.eigenvalues(self.v_pot.evaluate(x), self.gap_tol)

    def shares(self, x):
        """Per-particle shares lambda_k^n of every surface, (N, d), or
        (K, N, d) at a stack."""
        v, parts = self.v_pot.evaluate_parts(x)
        eig = potential.eigendecompose(v, self.gap_tol)
        return potential.shares_from_parts(parts, eig.psi)


class CorrectedSurface:
    """Mass-corrected surfaces lambda_bar_j, from the nonlinear eigen solve.

    ``at`` makes one solve and differentiates its fixed point exactly
    (``nonlinear_eigen.fixed_point_derivatives``) for the gradient and the
    share gradients; ``value``, ``values`` and ``shares`` read the solve
    alone.
    """

    def __init__(self, v_pot, mass, gap_tol=potential.GAP_TOL):
        self.v_pot = v_pot
        self.d = v_pot.d
        self.mass = float(mass)
        self.gap_tol = gap_tol

    def _solve(self, x):
        return nonlinear_eigen.solve_nonlinear_eigen(
            self.v_pot, x, self.mass, gap_tol=self.gap_tol)

    def at(self, x, j, fields=True):
        """Surface j at x from one solve; pp is None unless ``fields``."""
        cs = self._solve(x)
        grad, pp = nonlinear_eigen.fixed_point_derivatives(
            self.v_pot, x, cs, shares=fields)
        return SurfacePoint(cs.per_particle_bar[..., j], grad[..., j],
                            None if pp is None else pp[..., j],
                            _value(cs.lambdas_bar[..., j]))

    def value(self, x, j):
        return _value(self.values(x)[..., j])

    def gradient(self, x, j):
        return self.at(x, j, fields=False).grad

    def values(self, x):
        """Every corrected surface's energy, (d,), or (K, d) from one
        lockstep solve at a stack."""
        return self._solve(x).lambdas_bar

    def shares(self, x):
        """Per-particle shares of every corrected surface, (N, d), or
        (K, N, d) from one lockstep solve at a stack."""
        return self._solve(x).per_particle_bar


def verlet_step(at, x, p, m, f, dt):
    """One velocity-Verlet step of size ``dt`` from (x, p).

    ``f`` is the force at x, ``m`` the masses shaped (N, 1) and ``at(x)``
    surface data whose entry 1 is the gradient.  Returns the new (x, p)
    and ``at`` of the new x, whose gradient closes the step.  A stack of
    states (x, p and f (K, N, 3), m (K, N, 1)) takes one step together
    through one stacked ``at``.

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
