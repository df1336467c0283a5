"""Local grand-canonical Gibbs ensembles for initial conditions.

The Gibbs energy of a state on surface j is
``H(x, p, j; y) = sum_n w_n (|p^n|^2/2M_n + lambda_j^n(x) - M_n mu)`` with
weights w_n = 1 (uniform mode) or max(eta(y - x^n), eta_floor)
(local-mollified mode).  Positions are sampled by Metropolis random walks on
the exact x-marginal; momenta are exact Gaussian draws with mean M_n u0 and
per-coordinate variance M_n T / w_n.  Uniform mode supports grand-canonical
insert/delete moves tied to the chemical potential.

A fixed-N run advances ``CHAINS`` chains in lockstep (fewer when fewer
samples are asked for) on one generator, ``PCG64(seed)``: each proposal
step draws every chain's noise in one call, evaluates all proposals in one
stacked ``log_x_density`` call and accepts them by one array rule, which
draws a uniform, in chain order, only for each negative log ratio, so a
one-chain run consumes its stream as a single chain always has.  A run with
number moves changes N, so it is one chain through the same loop.  The
burn-in tunes one shared step on windows of displacement proposals pooled
over the chains, then stops at detected equilibration (Chodera's t0 on the
stacked scalar trace).  It tests first at ceil(``TUNE_INTERVAL`` / C) * N
proposals per chain for C chains, since a tuning window pools its proposals
over the chains and every proposal moves all N particles, then at twice as
many each time, with ``BURN_IN_FACTOR`` * N proposals per chain as a hard
cap.  Each run records its burn-in, with the split-R-hat of the chains'
log-density tails.

A surface set is any object with ``d``, ``values(x)`` and ``shares(x)``.
``values`` maps one configuration (N, 3) to the d surface energies
lambda_k (d,) and a stack (K, N, 3) to (K, d); ``shares`` maps them to the
per-particle shares lambda_k^n, (N, d) and (K, N, d), which sum over n to
lambda_k.  Item k of a stacked call equals the single call on item k;
containers' ``particle_energy`` takes stacks the same way.  The
matrix-potential surfaces are the ``dynamics`` surface objects themselves.

A chain carries the weighted surface energies E_k = sum_n w_n lambda_k^n
of its states, (d,) per state.  In uniform mode (w = 1) they are the
surface energies, read from ``values`` alone; local-mollified mode reads
``shares`` and weights them.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AdiabaticSurface, PhaseState
from .errors import (InsufficientOverlapError, InvalidParameterError,
                     UnattainableTargetError)

# the burn-in stops at detected equilibration, at most factor * N proposals
# per chain
BURN_IN_FACTOR = 10_000
# chains a fixed-N run advances in lockstep
CHAINS = 8
TUNE_INTERVAL = 200
ACCEPT_LO, ACCEPT_HI = 0.20, 0.50
WARN_LO, WARN_HI = 0.05, 0.80
ESS_MIN = 100.0
# configurations per stacked surface call of the quadrature
QUAD_CHUNK = 4096


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
class BurnIn:
    """The record of one run's burn-in (``GibbsSampler.burn_ins``).

    Proposals, t0, tau_int and ESS count per chain: the largest t0 and
    tau_int over the lockstep chains' traces, and the ESS of one chain, so
    the pooled ESS is ``chains * ess``.  ``rhat`` says how well the chains
    mixed; no stop rule reads it.
    """

    proposals: int      # proposals per chain, at most BURN_IN_FACTOR * N
    t0: int             # Chodera's equilibration time, in proposals
    tau_int: float      # integrated autocorrelation time of the tail after t0
    ess: float          # effective size of that tail, (proposals - t0) / tau
    chains: int         # lockstep chains C
    rhat: float         # split_rhat of the chains' log-density tails after t0
    accept: float       # displacement acceptance rate, pooled over chains
    step: float         # the tuned displacement step, shared by the chains
    step_at_cap: bool   # rate warning skipped: high rate, step at max_step
    hit_cap: bool       # ran to BURN_IN_FACTOR * N proposals

    @property
    def equilibrated(self):
        """t0 lies in the first half of the trace."""
        return 2 * self.t0 < self.proposals


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
        return np.zeros(x.shape[:-1])

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
        return 0.5 * self.kappa * np.sum((x - self.center) ** 2, axis=-1)

    def draw(self, rng, n):
        return self.center + rng.normal(scale=1.0 / np.sqrt(self.kappa),
                                        size=(n, 3))

    def max_step(self):
        return np.inf


class _ShareSums:
    """The energies of a surface set given by its shares: each surface's
    column summed as ``shares(x)[..., j].sum(axis=-1)`` sums it, so a log
    density from ``values`` equals one from the shares bit for bit."""

    def values(self, x):
        return np.ascontiguousarray(
            np.swapaxes(self.shares(x), -1, -2)).sum(axis=-1)


class ZeroSurfaces(_ShareSums):
    """Free particles: d surfaces identically zero."""

    def __init__(self, d=1):
        self.d = int(d)

    def shares(self, x):
        return np.zeros(x.shape[:-1] + (self.d,))


class ConstantShiftSurfaces(_ShareSums):
    """Surface j adds a constant delta_j per particle (closed-form oracle)."""

    def __init__(self, deltas):
        self.deltas = np.asarray(deltas, dtype=float)
        self.d = len(self.deltas)

    def shares(self, x):
        return np.broadcast_to(self.deltas, x.shape[:-1] + (self.d,)).copy()


class HarmonicSurfaces(_ShareSums):
    """Per-particle external harmonic wells, one stiffness per surface."""

    def __init__(self, kappas, center=(0.0, 0.0, 0.0)):
        self.kappas = np.asarray(kappas, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.d = len(self.kappas)

    def shares(self, x):
        r2 = np.sum((x - self.center) ** 2, axis=-1)
        return 0.5 * r2[..., None] * self.kappas


# the bare shares of a matrix potential: the surface object Verlet and the
# fields use (``dynamics.CorrectedSurface`` gives the corrected shares)
AdiabaticShares = AdiabaticSurface


# ---------------------------------------------------------------------------
# Gibbs energy and sampling

def particle_weights(spec, x, mol=None):
    """Per-particle weights w_n: ones, or the floored mollifier values;
    (N,) for one configuration, (K, N) for a stack."""
    if spec.mode == "uniform":
        return np.ones(x.shape[:-1])
    if mol is None:
        raise InvalidParameterError("local-mollified mode needs a mollifier")
    floor = spec.eta_floor
    if floor is None:
        floor = mol.eval(np.zeros(3)) * 1e-3
    if not 0.0 < floor <= mol.eval(np.zeros(3)):
        raise InvalidParameterError("eta_floor must lie in (0, eta(0)]")
    return np.maximum(mol.eval(spec.probe - x), floor)


def metropolis_accept(log_ratio, rng):
    """Standard Metropolis acceptance on one log density ratio."""
    return bool(metropolis_accept_array(np.array([log_ratio]), rng)[0])


def metropolis_accept_array(log_ratios, rng):
    """Metropolis acceptance of each log density ratio of an array, with a
    uniform drawn, in order, only for each negative ratio."""
    ok = log_ratios >= 0.0
    draw = ~ok
    ok[draw] = rng.random(np.count_nonzero(draw)) < np.exp(log_ratios[draw])
    return ok


def autocorrelation_time(y):
    """Integrated autocorrelation time of a scalar series, at least 1.

    Geyer's initial monotone sequence estimator (Stat. Sci. 7 (1992) 473):
    the sums of adjacent autocovariances are kept while positive and made
    non-increasing.  Lags are summed directly and only as far as that
    sequence runs.  A constant series has tau = 1.
    """
    n = len(y)
    if n < 2 or np.ptp(y) == 0.0:
        return 1.0
    y = y - y.mean()
    c0 = y @ y
    sigma2, pair = -c0, np.inf
    for t in range(0, n - 1, 2):
        pair = min(pair, y[:n - t] @ y[t:] + y[:n - t - 1] @ y[t + 1:])
        if pair <= 0.0:
            break
        sigma2 += 2.0 * pair
    return max(1.0, sigma2 / c0)


def equilibration(trace):
    """Equilibration time t0 of a (K, n) trace, and tau_int after it.

    Per row, t0 maximizes the effective size (n - t0) / g of the tail after
    it, g its integrated autocorrelation time (Chodera, J. Chem. Theory
    Comput. 12 (2016) 1799), over 64 evenly spaced starts.  The trace's t0
    is the largest of the rows', and tau_int the largest of their tails' g.
    """
    n = trace.shape[1]
    starts = np.array(sorted({k * n // 64 for k in range(64)}))
    t0, tau = 0, 1.0
    for row in trace:
        g = np.array([autocorrelation_time(row[s:]) for s in starts])
        best = int(np.argmax((n - starts) / g))
        t0, tau = max(t0, int(starts[best])), max(tau, float(g[best]))
    return t0, tau


def split_rhat(chains):
    """Split-R-hat of the rows of a (M, n) trace, each row split in halves.

    The 2M half-chains of length L = n // 2 (an odd row drops its middle
    draw) give the within-chain variance W and the between-chain variance
    B of their means; R-hat = sqrt(((L - 1) / L W + B / L) / W) (Vehtari,
    Gelman, Simpson, Carpenter & Buerkner, Bayesian Analysis 16 (2021) 667,
    without rank normalization).  It is 1 when every half is constant at
    one value, inf when the halves are constant at different values, and
    nan with fewer than two draws per half.
    """
    half = chains.shape[1] // 2
    if half < 2:
        return float("nan")
    halves = np.concatenate([chains[:, :half], chains[:, -half:]])
    within = halves.var(axis=1, ddof=1).mean()
    between = half * halves.mean(axis=1).var(ddof=1)
    pooled = (half - 1) / half * within + between / half
    if pooled == 0.0:
        return 1.0
    return float(np.sqrt(pooled / within)) if within > 0.0 else np.inf


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
        # one BurnIn record per chain run, in run order
        self.burn_ins = []

    def log_x_density(self, x, j):
        """Log of the x-marginal density (unnormalized) on surface j, and
        the weighted surface energies E_k = sum_n w_n lambda_k^n (d,).

        Uniform mode reads the surfaces' ``values`` alone, local-mollified
        mode their ``shares``.  A stack x (K, N, 3) gives (K,) log
        densities and (K, d) energies from one surface call; item k equals
        the single call on x[k] bit for bit.
        """
        spec = self.spec
        n = x.shape[-2]
        if spec.mode == "uniform":
            e = self.surfaces.values(x)
            # w = 1: the mu and thermal-wavelength terms are a constant
            # per particle, precomputed once
            lam = e[..., j] + self.container.particle_energy(x).sum(axis=-1)
            return -lam / spec.T + n * self._per_particle_const, e
        sh = self.surfaces.shares(x)
        m = self._masses(n)
        w = particle_weights(spec, x, self.mol)
        lam = sh[..., j] + self.container.particle_energy(x)
        val = -(w * (lam - m * spec.mu)).sum(axis=-1) / spec.T
        # momentum marginal (2 pi M T / w)^{3/2} per particle
        val = val + 1.5 * np.log(2.0 * np.pi * m * spec.T / w).sum(axis=-1)
        return val, np.sum(w[..., None] * sh, axis=-2)

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
        """Burn-in of lockstep chains x (C, N, 3) on one generator: tune
        the shared step, then run until the chains have equilibrated.

        The step is tuned in windows of ``TUNE_INTERVAL`` displacement
        proposals pooled over the chains until it settles: two windows in a
        row with a rate in [ACCEPT_LO, ACCEPT_HI], or with the step held at
        the container's cap.  The scalar trace (each chain's log density,
        and N with number moves) covers every proposal; once the step has
        settled, at ceil(TUNE_INTERVAL / C) * N proposals per chain times a
        power of two, C = x.shape[0], the burn-in stops when the stacked
        trace's equilibration time t0 lies in its first half; one chain
        keeps the tests at TUNE_INTERVAL * N times a power of two.  Chains
        that reach the cap of BURN_IN_FACTOR * N proposals each are judged
        once on their whole trace and warn if t0 still lies in the second
        half.  Appends a ``BurnIn`` record, with the split-R-hat of the
        log-density tails after t0, to ``burn_ins``; returns the chains'
        states, log densities and weighted surface energies, and the step.
        """
        chains = x.shape[0]
        limit = BURN_IN_FACTOR * x.shape[1]
        check = -(-TUNE_INTERVAL // chains) * x.shape[1]
        trace = []
        logd, e = self.log_x_density(x, j)
        # the step is tuned on displacement proposals only
        moves = accepted = window = window_acc = streak = 0
        cap = self.container.max_step()
        settled = hit_cap = False
        for n in range(1, limit + 1):
            x, logd, e, ok = self._move(x, j, rng, step, logd, e)
            trace.append((logd[0], x.shape[1]) if self.gcmc else logd)
            if ok is not None:
                moves += ok.size
                window += ok.size
                accepted += np.count_nonzero(ok)
                window_acc += np.count_nonzero(ok)
                if not settled and window >= TUNE_INTERVAL:
                    rate = window_acc / window
                    if rate < ACCEPT_LO:
                        step *= 0.7
                    elif rate > ACCEPT_HI:
                        step = min(step * 1.4, cap)
                    good = ACCEPT_LO <= rate <= ACCEPT_HI or step >= cap
                    streak = streak + 1 if good else 0
                    settled = streak == 2
                    window = window_acc = 0
            if n == check:
                check *= 2
                if settled:
                    t0, tau = equilibration(np.array(trace).T)
                    if 2 * t0 < n:
                        break
        else:
            hit_cap = True
            t0, tau = equilibration(np.array(trace).T)
            if 2 * t0 >= limit:
                warnings.warn(f"burn-in not equilibrated after {limit} "
                              f"proposals: t0 = {t0}", RuntimeWarning)
        rate = accepted / moves
        # a high rate with the step at the container's cap is the size of
        # the container, not a badly tuned chain: there is no longer step
        at_cap = rate > WARN_HI and step >= cap
        if not (WARN_LO <= rate <= WARN_HI or at_cap):
            warnings.warn(f"acceptance rate {rate:.2f} outside "
                          f"[{WARN_LO}, {WARN_HI}] after tuning",
                          RuntimeWarning)
        # the log-density rows: every chain's, or the one chain's with
        # number moves, whose trace also holds N
        logds = np.array(trace).T[:chains, t0:]
        self.burn_ins.append(BurnIn(
            proposals=n, t0=t0, tau_int=tau, ess=(n - t0) / tau,
            chains=chains, rhat=split_rhat(logds), accept=rate, step=step,
            step_at_cap=at_cap, hit_cap=hit_cap))
        return x, logd, e, step

    def _move(self, x, j, rng, step, logd, e):
        """One proposal per chain, used by burn-in and sampling.

        With gcmc (one chain) a number move with probability 1/2, else a
        displacement of every chain, evaluated in one stacked call; fixed-N
        chains draw no extra random number.  Returns the new states, log
        densities and weighted surface energies, and the array of the
        displacements' acceptances, None after a number move.
        """
        if self.gcmc and rng.random() < 0.5:
            return self._number_move(x, j, rng, logd, e) + (None,)
        prop = self.container.wrap(x + step * rng.standard_normal(x.shape))
        logp, ep = self.log_x_density(prop, j)
        ok = metropolis_accept_array(logp - logd, rng)
        return (np.where(ok[:, None, None], prop, x), np.where(ok, logp, logd),
                np.where(ok[:, None], ep, e), ok)

    def _number_move(self, x, j, rng, logd, e):
        """An insertion or a deletion on a one-chain stack x (1, N, 3)."""
        vol = self.container.volume
        n = x.shape[1]
        if rng.random() < 0.5:
            prop = np.concatenate([x, self.container.draw(rng, 1)[None]],
                                  axis=1)
            extra = np.log(vol / (n + 1.0))
        elif n == 0:
            return x, logd, e
        else:
            prop = np.delete(x, rng.integers(n), axis=1)
            extra = np.log(n / vol)
        logp, ep = self.log_x_density(prop, j)
        # the thermal factor and e^{M mu / T} are inside log_x_density
        # through the per-particle marginal and mu terms
        if metropolis_accept(logp[0] - logd[0] + extra, rng):
            return prop, logp, ep
        return x, logd, e

    def run_chain(self, j, n_samples, seed, thin=None, x0=None,
                  collect=None):
        """Retained x-samples on surface j after burn-in and tuning.

        A fixed-N run advances min(CHAINS, n_samples) chains in lockstep,
        each from ``x0`` or from one draw of the container for them all; a
        run with number moves is one chain.  Every chain retains
        ceil(n_samples / chains) states, one each ``thin`` proposals, and
        the first n_samples are returned chain by chain.  ``collect`` may be
        a callable ``collect(x, energies)`` applied to every retained state
        and its weighted surface energies (d,), which the chain already
        holds (for scalar statistics cheaper than storing samples).  A
        count below 1 raises ``InvalidParameterError`` before any draw.
        """
        if n_samples < 1:
            raise InvalidParameterError(f"n_samples = {n_samples} is below 1")
        n_chains = 1 if self.gcmc else min(CHAINS, n_samples)
        rng = np.random.default_rng(np.random.PCG64(seed))
        if x0 is None:
            n = len(self.masses)
            x = self.container.draw(rng, n_chains * n).reshape(n_chains, n, 3)
        else:
            x0 = np.asarray(x0, dtype=float)
            x = np.broadcast_to(x0, (n_chains,) + x0.shape).copy()
        x, logd, e, step = self._tune_step(x, j, rng, 0.5)
        if thin is None:
            thin = max(5, x.shape[1])
        kept = [[] for _ in range(n_chains)]
        for _ in range(-(-n_samples // n_chains)):
            for _ in range(thin):
                x, logd, e, _ = self._move(x, j, rng, step, logd, e)
            for c, out in enumerate(kept):
                out.append(x[c].copy() if collect is None
                           else collect(x[c], e[c]))
        return [s for out in kept for s in out][:n_samples]

    def sample(self, n_samples, seed, weights):
        """PhaseStates with surface labels drawn from ``weights.q``, the
        states of each surface from one ``run_chain`` at its own thinning."""
        d = self.surfaces.d
        rng = np.random.default_rng(np.random.PCG64(seed))
        labels = rng.choice(d, size=n_samples, p=weights.q)
        counts = np.bincount(labels, minlength=d)
        out = []
        for j in range(d):
            if counts[j] == 0:
                continue
            xs = self.run_chain(j, int(counts[j]), seed ^ (j + 1))
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
    surface 1 by exp(-(E_k - E_1) / T), E_k the weighted energy of surface
    k that the chain carries.
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

        def collect(x, e):
            return np.exp(-(e - e[0]) / spec.T)

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
    # the tensor-grid nodes in row-major order, built chunk by chunk
    shape = (n_quad,) * (3 * n)
    size = n_quad ** (3 * n)
    vals = np.zeros(surfaces.d)
    for lo in range(0, size, QUAD_CHUNK):
        idx = np.stack(np.unravel_index(
            np.arange(lo, min(lo + QUAD_CHUNK, size)), shape))
        x = pts[idx.T].reshape(-1, n, 3)
        w = particle_weights(spec, x, mol)
        sh = surfaces.shares(x)
        if isinstance(container, BoxContainer):
            # a harmonic container is carried by the Gauss-Hermite weights
            sh = sh + container.particle_energy(x)[..., None]
        boltz = np.exp(-np.sum(w[..., None] * sh, axis=1) / spec.T)
        vals += np.prod(wts[idx], axis=0) @ boltz
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

    def collect(x, e):
        return (x.shape[0], e[0] + np.sum(container.particle_energy(x)))

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
    rho0 there; u0 is set directly from rho_u0 / rho0.  Each chain starts
    from round(rho0 V / m) particles of mass masses[0].  Every estimate runs
    n_samples with common random numbers (the same seed at every
    evaluation), which keeps the iteration stable against Monte Carlo noise.

    Raises
    ------
    InvalidParameterError
        If the container has no finite volume, so no particle-number moves.
    UnattainableTargetError
        If the targets are not positive, the Jacobian is singular, a step
        leaves T in [1e-3, 1e3], or rho and e are not within rel_tol after
        max_iter steps.
    """
    if container.volume is None:
        raise InvalidParameterError(
            "particle-number moves require a finite volume")
    if rho0 <= 0:
        raise UnattainableTargetError("target density must be positive")
    u0 = np.asarray(rho_u0, dtype=float) / rho0
    e_int_target = e0 - 0.5 * rho0 * float(u0 @ u0)
    if e_int_target <= 0:
        raise UnattainableTargetError("internal energy target must be > 0")
    m = float(masses[0])
    # every chain starts from the target's particle count, a typical N
    n0 = max(1, round(rho0 * container.volume / m))
    masses = np.full(n0, m)
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
