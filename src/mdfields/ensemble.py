"""Local grand-canonical Gibbs ensembles for initial conditions.

The Gibbs energy of a state on surface j is
``H(x, p, j; y) = sum_n w_n (|p^n|^2/2M_n + lambda_j^n(x) - M_n mu)`` with
weights w_n = 1 (uniform mode) or max(eta(y - x^n), eta_floor)
(local-mollified mode).  Positions are sampled by Metropolis random walks on
the exact x-marginal; momenta are exact Gaussian draws with mean M_n u0 and
per-coordinate variance M_n T / w_n.  Uniform mode supports grand-canonical
insert/delete moves tied to the chemical potential.

A surface set is any object with ``d`` and ``shares(x)`` -> (N, d); the
matrix-potential surfaces are the ``dynamics`` surface objects themselves.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AdiabaticSurface, PhaseState
from .errors import (InsufficientOverlapError, InvalidParameterError,
                     UnattainableTargetError)

BURN_IN_FACTOR = 10_000     # proposals discarded: factor * N
TUNE_INTERVAL = 200
ACCEPT_LO, ACCEPT_HI = 0.20, 0.50
WARN_LO, WARN_HI = 0.05, 0.80
ESS_MIN = 100.0


@dataclass
class GibbsSpec:
    """Thermodynamic parameters of a local Gibbs ensemble at one probe."""

    T: float
    mu: float = 0.0
    u0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    probe: np.ndarray = field(default_factory=lambda: np.zeros(3))
    eta_floor: float = None
    mode: str = "uniform"

    def __post_init__(self):
        self.u0 = np.asarray(self.u0, dtype=float)
        self.probe = np.asarray(self.probe, dtype=float)
        if self.T <= 0:
            raise InvalidParameterError("temperature must be positive")
        if self.mode not in ("uniform", "local-mollified"):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")


@dataclass
class SurfaceWeights:
    """Surface probabilities q_j* with standard errors."""

    q: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if np.any(self.q < 0) or abs(self.q.sum() - 1.0) > 1e-12:
            raise InvalidParameterError(
                "weights must be nonnegative and sum to one")


# ---------------------------------------------------------------------------
# containers and surface sets

class BoxContainer:
    """Periodic cubic box [lo, hi]^3; flat confining energy."""

    def __init__(self, lo, hi):
        if hi <= lo:
            raise InvalidParameterError("need hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        self.side = self.hi - self.lo

    @property
    def volume(self):
        return self.side ** 3

    def wrap(self, x):
        return self.lo + np.mod(x - self.lo, self.side)

    def particle_energy(self, x):
        return np.zeros(x.shape[0])

    def draw(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=(n, 3))

    def max_step(self):
        return self.side


class HarmonicContainer:
    """Isotropic harmonic confinement (kappa/2)|x - center|^2 per particle."""

    def __init__(self, kappa, center=(0.0, 0.0, 0.0)):
        if kappa <= 0:
            raise InvalidParameterError("container stiffness must be > 0")
        self.kappa = float(kappa)
        self.center = np.asarray(center, dtype=float)
        self.volume = None  # unbounded domain: no particle-number moves

    def wrap(self, x):
        return x

    def particle_energy(self, x):
        return 0.5 * self.kappa * np.sum((x - self.center) ** 2, axis=1)

    def draw(self, rng, n):
        return self.center + rng.normal(scale=1.0 / np.sqrt(self.kappa),
                                        size=(n, 3))

    def max_step(self):
        return np.inf


class ZeroSurfaces:
    """Free particles: d surfaces identically zero."""

    def __init__(self, d=1):
        self.d = int(d)

    def shares(self, x):
        return np.zeros((x.shape[0], self.d))


class ConstantShiftSurfaces:
    """Surface j adds a constant delta_j per particle (closed-form oracle)."""

    def __init__(self, deltas):
        self.deltas = np.asarray(deltas, dtype=float)
        self.d = len(self.deltas)

    def shares(self, x):
        return np.broadcast_to(self.deltas, (x.shape[0], self.d)).copy()


class HarmonicSurfaces:
    """Per-particle external harmonic wells, one stiffness per surface."""

    def __init__(self, kappas, center=(0.0, 0.0, 0.0)):
        self.kappas = np.asarray(kappas, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.d = len(self.kappas)

    def shares(self, x):
        r2 = np.sum((x - self.center) ** 2, axis=1)
        return 0.5 * r2[:, None] * self.kappas[None, :]


# the bare shares of a matrix potential: the surface object Verlet and the
# fields use (``dynamics.CorrectedSurface`` gives the corrected shares)
AdiabaticShares = AdiabaticSurface


# ---------------------------------------------------------------------------
# Gibbs energy and sampling

def particle_weights(spec, x, mol=None):
    """Per-particle weights w_n: ones, or the floored mollifier values."""
    if spec.mode == "uniform":
        return np.ones(x.shape[0])
    if mol is None:
        raise InvalidParameterError("local-mollified mode needs a mollifier")
    floor = spec.eta_floor
    if floor is None:
        floor = mol.eval(np.zeros(3)) * 1e-3
    if not 0.0 < floor <= mol.eval(np.zeros(3)):
        raise InvalidParameterError("eta_floor must lie in (0, eta(0)]")
    return np.maximum(mol.eval(spec.probe - x), floor)


def gibbs_energy(x, p, masses, shares_j, spec, mol=None):
    """The Gibbs energy H(x, p, j; y) of one state on surface j."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    masses = np.asarray(masses, dtype=float)
    w = particle_weights(spec, x, mol)
    h_n = 0.5 * np.sum(p ** 2, axis=1) / masses + np.asarray(shares_j)
    return float(np.sum(w * (h_n - masses * spec.mu)))


def metropolis_accept(log_ratio, rng):
    """Standard Metropolis acceptance on a log density ratio."""
    return log_ratio >= 0.0 or rng.random() < np.exp(log_ratio)


class GibbsSampler:
    """Metropolis sampler of the local Gibbs density at one probe.

    Momenta are integrated out analytically for the x-walk and drawn exactly
    per retained sample.  Grand-canonical insert/delete moves are available
    in uniform mode when the container has a finite volume.
    """

    def __init__(self, spec, surfaces, masses, container, mol=None,
                 gcmc=False):
        self.spec = spec
        self.surfaces = surfaces
        self.masses = np.asarray(masses, dtype=float)
        self.container = container
        self.mol = mol
        if gcmc:
            if spec.mode != "uniform":
                raise InvalidParameterError(
                    "particle-number moves require uniform mode")
            if container.volume is None:
                raise InvalidParameterError(
                    "particle-number moves require a finite volume")
            if np.ptp(self.masses) != 0.0:
                raise InvalidParameterError(
                    "particle-number moves require equal masses")
        self.gcmc = gcmc
        # uniform-mode constant per particle; exact when masses are equal
        # (enforced for particle-number moves) and cancels in fixed-N
        # acceptance ratios otherwise
        m0 = float(self.masses[0])
        self._per_particle_const = m0 * spec.mu / spec.T \
            + 1.5 * np.log(2.0 * np.pi * m0 * spec.T)

    def log_x_density(self, x, j):
        """Log of the x-marginal density (unnormalized) on surface j."""
        spec = self.spec
        if spec.mode == "uniform":
            # w = 1: the mu and thermal-wavelength terms are a constant
            # per particle, precomputed once
            e = float(np.sum(self.surfaces.shares(x)[:, j])
                      + np.sum(self.container.particle_energy(x)))
            return -e / spec.T + x.shape[0] * self._per_particle_const
        m = self._masses(x.shape[0])
        w = particle_weights(spec, x, self.mol)
        lam = self.surfaces.shares(x)[:, j] + self.container.particle_energy(x)
        val = -np.sum(w * (lam - m * spec.mu)) / spec.T
        # momentum marginal (2 pi M T / w)^{3/2} per particle
        val += 1.5 * np.sum(np.log(2.0 * np.pi * m * spec.T / w))
        return float(val)

    def _masses(self, n):
        """The masses of n particles: the first n given, or the first mass
        for all of them when particle-number moves have added particles."""
        return self.masses[:n] if n <= len(self.masses) \
            else np.full(n, self.masses[0])

    def draw_momenta(self, x, rng):
        m = self._masses(x.shape[0])
        w = particle_weights(self.spec, x, self.mol)
        scale = np.sqrt(m * self.spec.T / w)
        return m[:, None] * self.spec.u0[None, :] \
            + rng.normal(size=(x.shape[0], 3)) * scale[:, None]

    def _tune_step(self, x, j, rng, step):
        n_prop = BURN_IN_FACTOR * x.shape[0]
        logd = self.log_x_density(x, j)
        # the step is tuned on displacement proposals only
        moves = accepted = window_acc = 0
        cap = self.container.max_step()
        for _ in range(n_prop):
            x, logd, ok = self._move(x, j, rng, step, logd)
            if ok is None:
                continue
            moves += 1
            accepted += ok
            window_acc += ok
            if moves % TUNE_INTERVAL == 0:
                rate = window_acc / TUNE_INTERVAL
                if rate < ACCEPT_LO:
                    step *= 0.7
                elif rate > ACCEPT_HI:
                    step = min(step * 1.4, cap)
                window_acc = 0
        rate = accepted / moves
        # a high rate with the step at the container's cap is the size of
        # the container, not a badly tuned chain: there is no longer step
        at_cap = rate > WARN_HI and step >= cap
        if not (WARN_LO <= rate <= WARN_HI or at_cap):
            warnings.warn(f"acceptance rate {rate:.2f} outside "
                          f"[{WARN_LO}, {WARN_HI}] after tuning",
                          RuntimeWarning)
        return x, logd, step

    def _move(self, x, j, rng, step, logd):
        """One proposal of the sampling mix, used by burn-in and sampling.

        With gcmc a number move with probability 1/2, else a displacement;
        fixed-N chains draw no extra random number.  The flag is the
        displacement's acceptance, None after a number move.
        """
        if self.gcmc and rng.random() < 0.5:
            x, logd, _ = self._number_move(x, j, rng, logd)
            return x, logd, None
        return self._displace(x, j, rng, step, logd)

    def _displace(self, x, j, rng, step, logd):
        prop = self.container.wrap(x + rng.normal(scale=step, size=x.shape))
        logp = self.log_x_density(prop, j)
        if metropolis_accept(logp - logd, rng):
            return prop, logp, True
        return x, logd, False

    def _number_move(self, x, j, rng, logd):
        spec = self.spec
        m = float(self.masses[0])
        vol = self.container.volume
        lam_th = (2.0 * np.pi * m * spec.T) ** 1.5
        n = x.shape[0]
        if rng.random() < 0.5:
            xin = self.container.draw(rng, 1)
            prop = np.vstack([x, xin])
            logp = self.log_x_density(prop, j)
            log_ratio = logp - logd + np.log(vol / (n + 1.0))
            # the thermal factor and e^{M mu / T} are inside log_x_density
            # through the per-particle marginal and mu terms
            if metropolis_accept(log_ratio, rng):
                return prop, logp, True
            return x, logd, False
        if n == 0:
            return x, logd, False
        k = rng.integers(n)
        prop = np.delete(x, k, axis=0)
        logp = self.log_x_density(prop, j)
        log_ratio = logp - logd + np.log(n / vol)
        if metropolis_accept(log_ratio, rng):
            return prop, logp, True
        return x, logd, False

    def run_chain(self, j, n_samples, seed, thin=None, x0=None,
                  collect=None):
        """Retained x-samples on surface j after burn-in and tuning.

        ``collect`` may be a callable applied to every post-burn-in chain
        state (for scalar statistics cheaper than storing samples).
        """
        rng = np.random.default_rng(np.random.PCG64(seed))
        if x0 is None:
            x0 = self.container.draw(rng, len(self.masses))
        x = np.asarray(x0, dtype=float)
        step = 0.5
        x, logd, step = self._tune_step(x, j, rng, step)
        if thin is None:
            thin = max(5, x.shape[0])
        samples = []
        stats = []
        produced = 0
        while produced < n_samples:
            for _ in range(thin):
                x, logd, _ = self._move(x, j, rng, step, logd)
            if collect is not None:
                stats.append(collect(x))
            else:
                samples.append(x.copy())
            produced += 1
        return stats if collect is not None else samples

    def sample(self, n_samples, seed, weights=None, thin=None):
        """PhaseStates with surface labels drawn from ``weights``."""
        d = self.surfaces.d
        if weights is None:
            weights = SurfaceWeights(q=np.full(d, 1.0 / d),
                                     stderr=np.zeros(d))
        rng = np.random.default_rng(np.random.PCG64(seed))
        labels = rng.choice(d, size=n_samples, p=weights.q)
        counts = np.bincount(labels, minlength=d)
        out = []
        for j in range(d):
            if counts[j] == 0:
                continue
            xs = self.run_chain(j, int(counts[j]), seed ^ (j + 1),
                                thin=thin)
            for x in xs:
                p = self.draw_momenta(x, rng)
                out.append(PhaseState(x=x, p=p,
                                      masses=self._masses(x.shape[0]),
                                      surface=j))
        return out


# ---------------------------------------------------------------------------
# surface weights

def surface_weights(spec, surfaces, masses, container, method,
                    mol=None, n_samples=20_000, seed=0, n_quad=32):
    """Surface probabilities q_j* by quadrature or by reweighting.

    direct-quadrature integrates exp(-sum_n w_n lambda_j^n / T) on a tensor
    Gauss grid (N <= 2 only); free-energy-perturbation reweights samples of
    surface 1 by the exponentiated share differences.
    """
    d = surfaces.d
    if method == "direct-quadrature":
        n = len(masses)
        if n > 2:
            raise InvalidParameterError(
                "direct quadrature supports at most two particles")
        vals = _quadrature_weights(spec, surfaces, container, mol, n, n_quad)
        q = vals / vals.sum()
        return SurfaceWeights(q=q, stderr=np.zeros(d))
    if method == "reweighting":
        sampler = GibbsSampler(spec, surfaces, masses, container, mol)

        def collect(x):
            sh = surfaces.shares(x)
            w = particle_weights(spec, x, mol)
            delta = np.sum(w[:, None] * (sh - sh[:, :1]), axis=0)
            return np.exp(-delta / spec.T)

        ratios = np.stack(sampler.run_chain(0, n_samples, seed,
                                            collect=collect))
        ess = float(np.min(np.sum(ratios, axis=0) ** 2
                           / np.sum(ratios ** 2, axis=0)))
        if ess < ESS_MIN:
            raise InsufficientOverlapError(
                f"effective sample size {ess:.1f} below {ESS_MIN}")
        means = ratios.mean(axis=0)
        q = means / means.sum()
        # batch means over 20 blocks for the standard error of q
        nb = 20
        blocks = np.array_split(ratios, nb)
        qb = np.stack([b.mean(axis=0) / b.mean(axis=0).sum()
                       for b in blocks])
        stderr = qb.std(axis=0, ddof=1) / np.sqrt(nb)
        return SurfaceWeights(q=q, stderr=stderr)
    raise InvalidParameterError(f"unknown method {method!r}")


def _quadrature_weights(spec, surfaces, container, mol, n, n_quad):
    from numpy.polynomial.legendre import leggauss

    if isinstance(container, BoxContainer):
        nodes, wts = leggauss(n_quad)
        pts = container.lo + (nodes + 1.0) * 0.5 * container.side
        wts = wts * 0.5 * container.side
    else:
        if spec.mode != "uniform":
            raise InvalidParameterError(
                "quadrature with a harmonic container needs uniform mode")
        # Gauss-Hermite against exp(-kappa x^2 / (2T))
        nodes, wts = np.polynomial.hermite_e.hermegauss(n_quad)
        scale = np.sqrt(spec.T / container.kappa)
        pts = container.center[0] + nodes * scale
        wts = wts * scale
    dim = 3 * n
    mesh = np.meshgrid(*([pts] * dim), indexing="ij")
    coords = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    wmesh = np.meshgrid(*([wts] * dim), indexing="ij")
    wprod = np.prod(np.stack([w.reshape(-1) for w in wmesh]), axis=0)
    d = surfaces.d
    vals = np.zeros(d)
    for idx in range(coords.shape[0]):
        x = coords[idx].reshape(n, 3)
        w = particle_weights(spec, x, mol)
        sh = surfaces.shares(x)
        if isinstance(container, BoxContainer):
            pe = container.particle_energy(x)
        else:
            pe = np.zeros(n)  # the Gaussian weight carries the container
        boltz = np.exp(-np.sum(w[:, None] * (sh + pe[:, None]), axis=0)
                       / spec.T)
        vals += wprod[idx] * boltz
    return vals


# ---------------------------------------------------------------------------
# thermodynamic matching

def _estimate_rho_e(spec, surfaces, masses, container, mol, n_samples, seed):
    """GCMC estimates of mass density and internal energy density.

    Also returns the 2x2 Jacobian d(rho, e)/d(mu, T) from grand-canonical
    fluctuation identities, so the matcher can take Newton steps without
    extra chain evaluations.
    """
    sampler = GibbsSampler(spec, surfaces, masses, container, mol, gcmc=True)

    def collect(x):
        lam = np.sum(surfaces.shares(x)[:, 0]
                     + container.particle_energy(x))
        return (x.shape[0], lam)

    stats = sampler.run_chain(0, n_samples, seed, thin=1, collect=collect)
    counts = np.array([s[0] for s in stats], dtype=float)
    lams = np.array([s[1] for s in stats])
    vol = container.volume
    m = float(masses[0])
    t = spec.T
    rho = counts.mean() * m / vol
    # momenta integrate exactly: 3T/2 per particle about the bulk drift
    e_states = 1.5 * t * counts + lams
    e_int = e_states.mean() / vol
    # d log(weight)/d mu = m N / T; d log(weight)/d T collects the mu,
    # potential-energy, and thermal-wavelength contributions
    g_t = (lams - m * spec.mu * counts) / t ** 2 + 1.5 * counts / t

    def cov(a, b):
        return float(np.mean(a * b) - a.mean() * b.mean())

    jac = np.array([
        [m * m * cov(counts, counts) / (t * vol),
         m * cov(counts, g_t) / vol],
        [m * cov(e_states, counts) / (t * vol),
         (1.5 * counts.mean() + cov(e_states, g_t)) / vol],
    ])
    return rho, e_int, jac


def match_thermo(rho0, rho_u0, e0, spec_template, surfaces, masses,
                 container, mol=None, n_samples=100_000, seed=0,
                 rel_tol=0.02, max_iter=40):
    """Match (T, mu, u0) so the ensemble reproduces the target fields.

    Damped Newton steps on (mu, T) for the mass and internal energy
    densities, with the Jacobian from the chain's grand-canonical
    fluctuations, starting at T = spec_template.T and the ideal-gas mu of
    rho0 there; u0 is set directly from rho_u0 / rho0.  Every estimate runs
    n_samples with common random numbers (the same seed at every
    evaluation), which keeps the iteration stable against Monte Carlo noise.

    Raises
    ------
    UnattainableTargetError
        If the targets are not positive, the Jacobian is singular, a step
        leaves T in [1e-3, 1e3], or rho and e are not within rel_tol after
        max_iter steps.
    """
    if rho0 <= 0:
        raise UnattainableTargetError("target density must be positive")
    u0 = np.asarray(rho_u0, dtype=float) / rho0
    e_int_target = e0 - 0.5 * rho0 * float(u0 @ u0)
    if e_int_target <= 0:
        raise UnattainableTargetError("internal energy target must be > 0")
    m = float(masses[0])
    t = float(spec_template.T)
    # the ideal gas of log_x_density: rho / m = e^{m mu / T} (2 pi m T)^1.5
    mu = t / m * (np.log(rho0 / m) - 1.5 * np.log(2.0 * np.pi * m * t))
    target = np.array([rho0, e_int_target])
    for it in range(max_iter + 1):
        spec = GibbsSpec(T=t, mu=mu, u0=u0, probe=spec_template.probe,
                         eta_floor=spec_template.eta_floor,
                         mode=spec_template.mode)
        rho, e_int, jac = _estimate_rho_e(spec, surfaces, masses, container,
                                          mol, n_samples, seed)
        resid = np.array([rho, e_int]) - target
        if np.all(np.abs(resid) <= rel_tol * target):
            break
        if it == max_iter:
            raise UnattainableTargetError(
                f"rho and e not within {rel_tol} after {max_iter} steps")
        try:
            step = np.linalg.solve(jac, resid)
        except np.linalg.LinAlgError as exc:
            raise UnattainableTargetError(
                "singular fluctuation Jacobian") from exc
        mu -= 0.7 * step[0]
        t -= 0.7 * step[1]
        if not 1e-3 <= t <= 1e3:
            raise UnattainableTargetError(
                f"temperature step to {t:.3g} leaves [1e-3, 1e3]")
    achieved = {"rho": rho, "rho_u": list(rho * u0),
                "E": e_int + 0.5 * rho0 * float(u0 @ u0)}
    return spec, achieved


def matched_spec_to_json(spec, weights, achieved, stderr=None):
    """JSON record of a matched ensemble, deterministic key order."""
    rec = {
        "probe": [float(v) for v in spec.probe],
        "T": float(spec.T),
        "mu": float(spec.mu),
        "u0": [float(v) for v in spec.u0],
        "mode": spec.mode,
        "q_weights": [float(v) for v in weights.q],
        "achieved": {k: (list(map(float, v)) if np.ndim(v) else float(v))
                     for k, v in achieved.items()},
        "stderr": stderr or {},
    }
    return json.dumps(rec, sort_keys=True, indent=2)
