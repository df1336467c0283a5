import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mdfields import dynamics, ensemble, potential
from mdfields.errors import (DegenerateSpectrumError,
                             InsufficientOverlapError, InvalidParameterError,
                             UnattainableTargetError)
from mdfields.mollifier import Mollifier

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestSpecValidation:
    def test_negative_temperature(self):
        with pytest.raises(InvalidParameterError):
            ensemble.GibbsSpec(T=-1.0)

    def test_bad_mode(self):
        with pytest.raises(InvalidParameterError):
            ensemble.GibbsSpec(T=1.0, mode="global")

    def test_weights_must_normalize(self):
        with pytest.raises(InvalidParameterError):
            ensemble.SurfaceWeights(q=np.array([0.6, 0.6]),
                                    stderr=np.zeros(2))


class TestGibbsEnergy:
    """The particle weights w_n of the Gibbs energy."""

    def test_local_mollified_weights(self):
        mol = Mollifier(1.0)
        x = np.array([[0.1, 0.0, 0.0], [5.0, 0.0, 0.0]])
        spec = ensemble.GibbsSpec(T=1.0, mu=0.0, mode="local-mollified")
        got = ensemble.particle_weights(spec, x, mol)
        w_far = mol.eval(np.zeros(3)) * 1e-3  # floor for the distant particle
        assert abs(got[0] - mol.eval(-x[0])) <= 1e-12
        assert got[1] == w_far

    def test_local_mode_needs_mollifier(self):
        spec = ensemble.GibbsSpec(T=1.0, mode="local-mollified")
        with pytest.raises(InvalidParameterError):
            ensemble.particle_weights(spec, np.zeros((1, 3)))


class TestDetailedBalance:
    def test_two_state_toy(self):
        # Metropolis on {0, 1} with pi1/pi0 = exp(-dE): occupation ratio
        # must converge to the Boltzmann ratio
        rng = np.random.default_rng(1)
        d_e = 0.9
        state = 0
        counts = np.zeros(2)
        for _ in range(200_000):
            log_ratio = -d_e if state == 0 else d_e
            if ensemble.metropolis_accept(log_ratio, rng):
                state = 1 - state
            counts[state] += 1
        ratio = counts[1] / counts[0]
        assert abs(ratio - np.exp(-d_e)) <= 0.01 * np.exp(-d_e)

    def test_two_state_toy_lockstep(self):
        # eight toys stepped together by the array rule, one generator
        rng = np.random.default_rng(1)
        d_e = 0.9
        state = np.zeros(8, dtype=int)
        counts = np.zeros(2)
        for _ in range(25_000):
            log_ratio = np.where(state == 0, -d_e, d_e)
            state = np.where(ensemble.metropolis_accept_array(log_ratio, rng),
                             1 - state, state)
            counts += np.bincount(state, minlength=2)
        ratio = counts[1] / counts[0]
        assert abs(ratio - np.exp(-d_e)) <= 0.01 * np.exp(-d_e)

    def test_array_rule_is_the_scalar_rule(self):
        # mixed signs, zero and -inf: the array rule and the scalar rule
        # element by element accept alike and leave their generators alike
        log_ratios = np.array([0.3, -0.2, -5.0, 0.0, -0.7, 2.0, -np.inf,
                               -1e-3, -0.05, 1.0])
        rng_a, rng_s = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(200):
            got = ensemble.metropolis_accept_array(log_ratios, rng_a)
            want = [ensemble.metropolis_accept(r, rng_s) for r in log_ratios]
            assert got.tolist() == want
        # one uniform per negative ratio, none for the others
        rng_n = np.random.default_rng(9)
        rng_n.random(200 * np.count_nonzero(log_ratios < 0.0))
        assert rng_a.random() == rng_s.random() == rng_n.random()
        assert type(ensemble.metropolis_accept(-0.2, rng_s)) is bool


class TestSampleCount:
    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_run_chain_rejects_below_one(self, n_samples):
        # no burn-in runs before the count is checked
        sampler = ensemble.GibbsSampler(ensemble.GibbsSpec(T=1.0),
                                        ensemble.ZeroSurfaces(), np.ones(2),
                                        ensemble.BoxContainer(0.0, 1.0))
        with pytest.raises(InvalidParameterError, match="below 1"):
            sampler.run_chain(0, n_samples, seed=1)
        assert sampler.burn_ins == []

    def test_reweighting_rejects_zero_samples(self):
        with pytest.raises(InvalidParameterError, match="below 1"):
            ensemble.surface_weights(
                ensemble.GibbsSpec(T=1.0), ensemble.ConstantShiftSurfaces(
                    [0.0, 0.1]), np.ones(2), ensemble.BoxContainer(0.0, 1.0),
                "reweighting", n_samples=0)


class TestSampling:
    def test_ideal_gas_positions_uniform(self):
        spec = ensemble.GibbsSpec(T=0.7)
        box = ensemble.BoxContainer(0.0, 2.0)
        sampler = ensemble.GibbsSampler(spec, ensemble.ZeroSurfaces(),
                                        np.ones(1), box)
        xs = sampler.run_chain(0, 4000, seed=7)
        coords = np.stack(xs).reshape(-1, 3)
        for c in range(3):
            _, p = stats.kstest(coords[:, c], "uniform", args=(0.0, 2.0))
            assert p > 0.01

    def test_momenta_maxwellian(self):
        spec = ensemble.GibbsSpec(T=0.7, u0=np.array([0.4, 0.0, -0.2]))
        box = ensemble.BoxContainer(0.0, 2.0)
        m = np.array([1.0, 3.0])
        sampler = ensemble.GibbsSampler(spec, ensemble.ZeroSurfaces(),
                                        m, box)
        rng = np.random.default_rng(3)
        x = box.draw(rng, 2)
        draws = np.stack([sampler.draw_momenta(x, rng)
                          for _ in range(40_000)])
        for n in range(2):
            mean = draws[:, n, :].mean(axis=0)
            var = draws[:, n, :].var(axis=0).mean()
            np.testing.assert_allclose(mean, m[n] * spec.u0, atol=0.02)
            assert abs(var - m[n] * spec.T) <= 0.02 * m[n] * spec.T

    def test_momenta_local_weights_variance(self):
        # var per coordinate is M T / w_n, inflated where eta is small
        mol = Mollifier(1.0)
        spec = ensemble.GibbsSpec(T=1.0, mode="local-mollified")
        box = ensemble.BoxContainer(-2.0, 2.0)
        sampler = ensemble.GibbsSampler(spec, ensemble.ZeroSurfaces(),
                                        np.ones(1), box, mol=mol)
        x = np.array([[0.5, 0.0, 0.0]])
        rng = np.random.default_rng(4)
        draws = np.stack([sampler.draw_momenta(x, rng)
                          for _ in range(40_000)])
        w = mol.eval(spec.probe - x[0])
        var = draws[:, 0, :].var(axis=0).mean()
        assert abs(var - 1.0 / w) <= 0.02 / w

    def test_harmonic_container_variance(self):
        kappa, temp = 2.0, 0.5
        spec = ensemble.GibbsSpec(T=temp)
        cont = ensemble.HarmonicContainer(kappa)
        sampler = ensemble.GibbsSampler(spec, ensemble.ZeroSurfaces(),
                                        np.ones(1), cont)
        xs = sampler.run_chain(0, 8000, seed=11, thin=5)
        coords = np.stack(xs).reshape(-1, 3)
        var = coords.var(axis=0).mean()
        assert abs(var - temp / kappa) <= 0.06 * temp / kappa

    def test_sample_labels_and_states(self):
        spec = ensemble.GibbsSpec(T=1.0)
        box = ensemble.BoxContainer(0.0, 1.5)
        sampler = ensemble.GibbsSampler(
            spec, ensemble.ZeroSurfaces(d=2), np.ones(2), box)
        w = ensemble.SurfaceWeights(q=np.array([0.8, 0.2]),
                                    stderr=np.zeros(2))
        states = sampler.sample(400, seed=5, weights=w)
        labels = np.array([s.surface for s in states])
        assert set(labels) == {0, 1}
        frac = (labels == 0).mean()
        assert abs(frac - 0.8) <= 0.07
        assert all(s.x.shape == (2, 3) for s in states)

    def test_gcmc_mean_count(self):
        # lambda = 0: <N>/V = exp(mu/T) (2 pi M T)^{3/2}
        temp, vol_side = 1.0, 2.0
        n_target = 2.5
        mu = temp * np.log(n_target * (2.0 * np.pi * temp) ** -1.5)
        spec = ensemble.GibbsSpec(T=temp, mu=mu)
        box = ensemble.BoxContainer(0.0, vol_side)
        sampler = ensemble.GibbsSampler(spec, ensemble.ZeroSurfaces(),
                                        np.ones(1), box, gcmc=True)
        counts = sampler.run_chain(0, 40_000, seed=13, thin=1,
                                   collect=lambda x, e: x.shape[0])
        mean_n = np.mean(counts)
        expected = n_target * box.volume
        assert abs(mean_n - expected) <= 0.04 * expected

    def test_gcmc_burn_in_equilibrates_count(self):
        # criterion 8's state point, <N> = 32.4, from a one-particle start:
        # the burn-in's number moves bring N to <N> before the first sample
        temp, n_target = 0.75, 1.2
        mu = temp * np.log(n_target * (2.0 * np.pi * temp) ** -1.5)
        box = ensemble.BoxContainer(0.0, 3.0)
        sampler = ensemble.GibbsSampler(ensemble.GibbsSpec(T=temp, mu=mu),
                                        ensemble.ZeroSurfaces(), np.ones(1),
                                        box, gcmc=True)
        expected = n_target * box.volume
        for seed in range(1, 6):
            first = sampler.run_chain(0, 1, seed,
                                      collect=lambda x, e: x.shape[0])[0]
            assert abs(first - expected) <= 5.0 * np.sqrt(expected), seed

    def test_gcmc_requires_uniform_mode(self):
        spec = ensemble.GibbsSpec(T=1.0, mode="local-mollified")
        box = ensemble.BoxContainer(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            ensemble.GibbsSampler(spec, ensemble.ZeroSurfaces(),
                                  np.ones(1), box, mol=Mollifier(0.5),
                                  gcmc=True)


class OnlyStart:
    """One surface that is flat at x0 and 1e6 everywhere else."""

    d = 1

    def __init__(self, x0):
        self.x0 = x0

    def shares(self, x):
        # per item of a stack: flat only where the whole item is x0
        flat = np.all(x == self.x0, axis=(-2, -1))
        return np.broadcast_to(np.where(flat, 0.0, 1e6)[..., None, None],
                               x.shape[:-1] + (1,)).copy()

    def values(self, x):
        return self.shares(x).sum(axis=-2)


class TestTuneWarning:
    def tune(self, surfaces, x0, box):
        sampler = ensemble.GibbsSampler(ensemble.GibbsSpec(T=2.0), surfaces,
                                        np.ones(x0.shape[0]), box)
        return sampler._tune_step(x0[None], 0, np.random.default_rng(1),
                                  0.5)[3]

    def test_high_rate_at_cap_is_silent(self):
        # the canonical-corrected box: side 1.8, T = 2, two-state N = 2
        v = potential.make_two_state_model(
            potential.Morse(1.0, 1.2, 1.0), 0.8,
            potential.GaussianCoupling(0.15, 1.3, 0.6), 2)
        box = ensemble.BoxContainer(0.0, 1.8)
        x0 = box.draw(np.random.default_rng(0), 2)
        step = self.tune(ensemble.AdiabaticShares(v), x0, box)
        assert step == box.max_step()

    def test_high_rate_below_cap_warns(self):
        # free particle in a huge box: every move is accepted, and 50
        # growth windows take the step to 0.5 * 1.4^50, far below the cap
        box = ensemble.BoxContainer(0.0, 1e9)
        with pytest.warns(RuntimeWarning, match="acceptance rate 1.00"):
            step = self.tune(ensemble.ZeroSurfaces(), np.zeros((1, 3)), box)
        assert step < box.max_step()

    def test_low_rate_warns(self):
        box = ensemble.BoxContainer(0.0, 1.8)
        x0 = np.full((1, 3), 0.9)
        with pytest.warns(RuntimeWarning, match="acceptance rate 0.00"):
            self.tune(OnlyStart(x0), x0, box)


# a bound on the split-R-hat of a canonical-corrected burn-in: the largest
# over the 1,800 burn-ins of 600 jobs of that benchmark workload (seed 1
# jobs 0-399, seed 13 jobs 0-199) was 1.022 with 8 chains; with 32 it is
# 1.061, one burn-in above this bound, stopped at 56 proposals with a tail
# of 29 draws per chain
RHAT_CANONICAL = 1.05


@pytest.fixture
def burn_in_records(monkeypatch):
    """Every BurnIn record appended by any sampler so far."""
    records = []
    tune_step = ensemble.GibbsSampler._tune_step

    def recorded(self, *args):
        out = tune_step(self, *args)
        records.append(self.burn_ins[-1])
        return out

    monkeypatch.setattr(ensemble.GibbsSampler, "_tune_step", recorded)
    return records


def scalar_equilibration(trace):
    """Chodera's t0 with autocorrelation_time tail by tail: the reference
    of ensemble.equilibration."""
    n = trace.shape[1]
    starts = np.array(sorted({k * n // 64 for k in range(64)}))
    t0, tau = 0, 1.0
    for row in trace:
        g = np.array([ensemble.autocorrelation_time(row[s:]) for s in starts])
        best = int(np.argmax((n - starts) / g))
        t0, tau = max(t0, int(starts[best])), max(tau, float(g[best]))
    return t0, tau


def corner_chain():
    """Four free particles in a harmonic well, started at one far corner:
    96 T of energy each, against 1.5 T typical."""
    sampler = ensemble.GibbsSampler(ensemble.GibbsSpec(T=1.0),
                                    ensemble.ZeroSurfaces(), np.ones(4),
                                    ensemble.HarmonicContainer(1.0))
    return sampler, np.full((4, 3), 8.0)


class TestBurnIn:
    def test_autocorrelation_time_ar1(self):
        # AR(1) with coefficient phi: tau_int = (1 + phi) / (1 - phi)
        rng = np.random.default_rng(2)
        for phi in (0.0, 0.5, 0.8):
            e = rng.normal(size=50_000)
            y = np.empty_like(e)
            y[0] = e[0]
            for i in range(1, len(e)):
                y[i] = phi * y[i - 1] + e[i]
            tau = (1.0 + phi) / (1.0 - phi)
            assert abs(ensemble.autocorrelation_time(y) - tau) <= 0.1 * tau
        assert ensemble.autocorrelation_time(np.full(100, 0.3)) == 1.0

    def test_equilibration_cuts_transient(self):
        # a decaying offset on white noise: t0 lands past the offset
        rng = np.random.default_rng(3)
        t = np.arange(4000)
        trace = (50.0 * np.exp(-t / 100.0) + rng.normal(size=t.size))[None]
        t0, tau = ensemble.equilibration(trace)
        assert 300 <= t0 <= 1000
        assert tau < 2.0
        assert ensemble.equilibration(trace[:, 1000:])[0] == 0

    def test_equilibration_matches_scalar(self):
        # the array pass against autocorrelation_time tail by tail: the
        # same t0, and tau within 1e-13 relative
        rng = np.random.default_rng(6)
        e = rng.normal(size=12_800)
        ar1 = np.empty_like(e)
        ar1[0] = e[0]
        for i in range(1, len(e)):
            ar1[i] = 0.98 * ar1[i - 1] + e[i]   # tau_int = 99
        tail_flat = rng.normal(size=(2, 300))
        tail_flat[:, 120:] = 0.5
        traces = [np.full((3, 200), 0.3), tail_flat,
                  rng.normal(size=(4, 40)),
                  rng.integers(20, 40, size=(2, 500)).astype(float),
                  ar1[None], rng.normal(size=(8, 200)).cumsum(axis=1)]
        for trace in traces:
            t0, tau = ensemble.equilibration(trace)
            ref_t0, ref_tau = scalar_equilibration(trace)
            assert t0 == ref_t0
            assert abs(tau - ref_tau) <= 1e-13 * ref_tau

    def test_equilibration_matches_scalar_on_chains(self, monkeypatch):
        # every trace the canonical-corrected sampling tests at seeds 1
        # and 13: the same t0 as the scalar reference, tau within 1e-13
        traces = []
        equilibration = ensemble.equilibration

        def recorded(trace):
            traces.append(trace)
            return equilibration(trace)

        monkeypatch.setattr(ensemble, "equilibration", recorded)
        surf, box = canonical_surfaces()
        spec, masses = ensemble.GibbsSpec(T=2.0), np.full(4, 1e3)
        for seed in (1, 13):
            qw = ensemble.surface_weights(spec, surf, masses, box,
                                          "reweighting", n_samples=2000,
                                          seed=seed)
            ensemble.GibbsSampler(spec, surf, masses, box).sample(
                96, seed=seed, weights=qw)
        assert len(traces) >= 6
        for trace in traces:
            t0, tau = equilibration(trace)
            ref_t0, ref_tau = scalar_equilibration(trace)
            assert t0 == ref_t0
            assert abs(tau - ref_tau) <= 1e-13 * ref_tau

    def test_equilibration_memory_bounded(self):
        # tails are padded in chunks of TAIL_BUDGET elements: all of a
        # (2, 12800) or (32, 400) trace's tails at once take 13 or 6.5 MB
        rng = np.random.default_rng(7)
        for shape in ((2, 12_800), (32, 400)):
            trace = rng.normal(size=shape).cumsum(axis=1)
            tracemalloc.start()
            try:
                ensemble.equilibration(trace)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6, shape

    def test_fast_chain_stops_early(self):
        # the canonical-corrected surfaces: two-state, N = 2, box 1.8, T = 2
        v = potential.make_two_state_model(
            potential.Morse(1.0, 1.2, 1.0), 0.8,
            potential.GaussianCoupling(0.15, 1.3, 0.6), 2)
        box = ensemble.BoxContainer(0.0, 1.8)
        sampler = ensemble.GibbsSampler(ensemble.GibbsSpec(T=2.0),
                                        ensemble.AdiabaticShares(v),
                                        np.full(2, 1e3), box)
        for seed in range(3):
            sampler.run_chain(seed % 2, 1, seed)
        assert len(sampler.burn_ins) == 3
        for rec in sampler.burn_ins:
            assert rec.proposals <= 0.1 * ensemble.BURN_IN_FACTOR * 2
            assert rec.equilibrated and not rec.hit_cap
            assert rec.step == box.max_step() and rec.tau_int < 3.0
            assert rec.ess == (rec.proposals - rec.t0) / rec.tau_int

    def test_far_start_is_cut(self):
        # negative control: a start far from typical gives t0 > 0, and the
        # first retained state is typical
        sampler, x0 = corner_chain()
        for seed in range(1, 6):
            x = sampler.run_chain(0, 1, seed, x0=x0)[0]
            rec = sampler.burn_ins[-1]
            assert rec.t0 > 0 and rec.equilibrated, seed
            assert 0.5 * np.sum(x ** 2) / 4 <= 6.0, seed

    def test_gcmc_one_particle_start(self):
        # negative control at criterion 8's state point, <N> = 32.4: from
        # one particle N relaxes over about one tau_int (~150 proposals),
        # so the detector cuts a transient on most seeds, and records the
        # slow chain's tau_int; the first retained N is typical
        temp, n_target = 0.75, 1.2
        mu = temp * np.log(n_target * (2.0 * np.pi * temp) ** -1.5)
        box = ensemble.BoxContainer(0.0, 3.0)
        sampler = ensemble.GibbsSampler(ensemble.GibbsSpec(T=temp, mu=mu),
                                        ensemble.ZeroSurfaces(), np.ones(1),
                                        box, gcmc=True)
        expected = n_target * box.volume
        for seed in range(1, 6):
            first = sampler.run_chain(0, 1, seed,
                                      collect=lambda x, e: x.shape[0])[0]
            assert abs(first - expected) <= 5.0 * np.sqrt(expected), seed
        recs = sampler.burn_ins
        assert sum(r.t0 > 0 for r in recs) >= 3
        assert all(r.tau_int >= 50.0 and r.equilibrated for r in recs)

    def test_cap_warns_and_is_recorded(self, monkeypatch):
        # a cap too short for the corner start's descent: the chain stops
        # at the cap, warns and records it
        monkeypatch.setattr(ensemble, "BURN_IN_FACTOR", 50)
        sampler, x0 = corner_chain()
        with pytest.warns(RuntimeWarning, match="not equilibrated"):
            sampler.run_chain(0, 1, 1, x0=x0)
        rec = sampler.burn_ins[-1]
        assert rec.proposals == 200 and rec.hit_cap
        assert not rec.equilibrated

    def test_unsettled_chain_runs_to_cap(self):
        # a step that never settles spends the whole cap, and no more
        box = ensemble.BoxContainer(0.0, 1.8)
        x0 = np.full((1, 3), 0.9)
        sampler = ensemble.GibbsSampler(ensemble.GibbsSpec(T=2.0),
                                        OnlyStart(x0), np.ones(1), box)
        with pytest.warns(RuntimeWarning, match="acceptance rate 0.00"):
            sampler.run_chain(0, 1, 1, x0=x0)
        rec = sampler.burn_ins[-1]
        assert rec.proposals == ensemble.BURN_IN_FACTOR and rec.hit_cap
        assert rec.accept == 0.0 and not rec.step_at_cap

    def test_split_rhat(self):
        rng = np.random.default_rng(4)
        iid = rng.normal(size=(8, 1000))
        assert abs(ensemble.split_rhat(iid) - 1.0) < 0.01
        # a drift that each chain's halves split, and chains that disagree
        drift = iid + np.linspace(0.0, 3.0, 1000)
        assert ensemble.split_rhat(drift) > 1.1
        assert ensemble.split_rhat(iid + np.arange(8)[:, None]) > 1.1
        assert ensemble.split_rhat(np.full((2, 10), 0.3)) == 1.0
        assert ensemble.split_rhat(np.repeat([[0.0], [1.0]], 10, 1)) \
            == np.inf
        assert np.isnan(ensemble.split_rhat(iid[:, :3]))

    def test_canonical_corrected_chains_mix(self, burn_in_records):
        # the canonical-corrected sampling (N = 4: 2,000 weight samples,
        # then 96 states): every burn-in's split-R-hat stays below
        # RHAT_CANONICAL
        surf, box = canonical_surfaces()
        spec, masses = ensemble.GibbsSpec(T=2.0), np.full(4, 1e3)
        for seed in range(1, 4):
            qw = ensemble.surface_weights(spec, surf, masses, box,
                                          "reweighting", n_samples=2000,
                                          seed=seed)
            ensemble.GibbsSampler(spec, surf, masses, box).sample(
                96, seed=seed, weights=qw)
        assert len(burn_in_records) >= 6
        for rec in burn_in_records:
            assert 1 <= rec.chains <= ensemble.CHAINS
            assert rec.rhat < RHAT_CANONICAL, rec

    def test_corner_chains_do_not_mix(self, monkeypatch):
        # negative control: eight chains from the corner start, stopped at
        # the cap before their descent ends, disagree
        monkeypatch.setattr(ensemble, "BURN_IN_FACTOR", 50)
        sampler, x0 = corner_chain()
        for seed in range(1, 4):
            with pytest.warns(RuntimeWarning, match="not equilibrated"):
                sampler.run_chain(0, 8, seed, x0=x0)
            rec = sampler.burn_ins[-1]
            assert rec.hit_cap and rec.chains == 8
            assert rec.rhat > 1.1, seed


class TestSurfaceWeights:
    def test_identical_surfaces_equal_weights(self):
        spec = ensemble.GibbsSpec(T=1.0)
        box = ensemble.BoxContainer(-1.0, 1.0)
        surf = ensemble.ConstantShiftSurfaces([0.3, 0.3, 0.3])
        for method in ("direct-quadrature", "reweighting"):
            w = ensemble.surface_weights(spec, surf, np.ones(1), box,
                                         method, n_samples=2000, n_quad=6)
            np.testing.assert_allclose(w.q, 1.0 / 3.0, atol=1e-12)

    def test_constant_gap_boltzmann_ratio(self):
        # per-particle shift delta on surface 2: q2/q1 = exp(-N delta / T)
        temp, delta, n = 0.8, 0.5, 2
        spec = ensemble.GibbsSpec(T=temp)
        box = ensemble.BoxContainer(0.0, 1.0)
        surf = ensemble.ConstantShiftSurfaces([0.0, delta])
        expected = np.exp(-n * delta / temp)
        wq = ensemble.surface_weights(spec, surf, np.ones(n), box,
                                      "direct-quadrature", n_quad=4)
        assert abs(wq.q[1] / wq.q[0] - expected) <= 0.02 * expected
        wr = ensemble.surface_weights(spec, surf, np.ones(n), box,
                                      "reweighting", n_samples=3000)
        assert abs(wr.q[1] / wr.q[0] - expected) <= 0.02 * expected

    def test_quadrature_memory_bounded(self):
        # the tensor grid is built one chunk of nodes at a time: at N = 2,
        # n_quad = 8 (262,144 nodes) the heap peak stays near 1 MB, while
        # the whole grid's nodes and weights at once take about 53 MB
        spec = ensemble.GibbsSpec(T=0.8)
        box = ensemble.BoxContainer(0.0, 1.0)
        surf = ensemble.ConstantShiftSurfaces([0.0, 0.5])
        tracemalloc.start()
        try:
            ensemble.surface_weights(spec, surf, np.ones(2), box,
                                     "direct-quadrature", n_quad=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_quadrature_vs_reweighting(self):
        spec = ensemble.GibbsSpec(T=1.0)
        box = ensemble.BoxContainer(-1.5, 1.5)
        surf = ensemble.HarmonicSurfaces([1.0, 2.0])
        wq = ensemble.surface_weights(spec, surf, np.ones(1), box,
                                      "direct-quadrature", n_quad=24)
        wr = ensemble.surface_weights(spec, surf, np.ones(1), box,
                                      "reweighting", n_samples=20_000,
                                      seed=17)
        sigma = np.maximum(wr.stderr, 1e-12)
        assert np.all(np.abs(wq.q - wr.q) <= 3.0 * sigma)

    def test_insufficient_overlap_raises(self):
        spec = ensemble.GibbsSpec(T=0.2)
        box = ensemble.BoxContainer(-2.0, 2.0)
        surf = ensemble.HarmonicSurfaces([0.5, 60.0])
        with pytest.raises(InsufficientOverlapError):
            ensemble.surface_weights(spec, surf, np.ones(1), box,
                                     "reweighting", n_samples=3000, seed=19)

    def test_quadrature_particle_limit(self):
        spec = ensemble.GibbsSpec(T=1.0)
        box = ensemble.BoxContainer(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            ensemble.surface_weights(spec, ensemble.ZeroSurfaces(),
                                     np.ones(3), box, "direct-quadrature")

    def test_unknown_method(self):
        spec = ensemble.GibbsSpec(T=1.0)
        box = ensemble.BoxContainer(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            ensemble.surface_weights(spec, ensemble.ZeroSurfaces(),
                                     np.ones(1), box, "guess")


def canonical_surfaces(n=4):
    """The canonical-corrected surfaces: two-state, box 1.8, T = 2."""
    v = potential.make_two_state_model(
        potential.Morse(1.0, 1.2, 1.0), 0.8,
        potential.GaussianCoupling(0.15, 1.3, 0.6), n)
    return ensemble.AdiabaticShares(v), ensemble.BoxContainer(0.0, 1.8)


class TestStack:
    """A stacked call equals the per-item calls bit for bit."""

    K = 1000

    def configs(self, seed, n=4):
        return np.random.default_rng(seed).uniform(0.0, 1.8,
                                                   size=(self.K, n, 3))

    def test_eigendecompose_and_shares(self):
        surf, _ = canonical_surfaces()
        x = self.configs(1)
        v, parts = surf.v_pot.evaluate_parts(x)
        eig = potential.eigendecompose(v)
        sh = surf.shares(x)
        assert sh.shape == (self.K, 4, 2)
        for k in range(self.K):
            vk, parts_k = surf.v_pot.evaluate_parts(x[k])
            one = potential.eigendecompose(vk)
            np.testing.assert_array_equal(v[k], vk)
            np.testing.assert_array_equal(parts[k], parts_k)
            np.testing.assert_array_equal(eig.lambdas[k], one.lambdas)
            np.testing.assert_array_equal(eig.psi[k], one.psi)
            assert eig.gap_min[k] == one.gap_min
            np.testing.assert_array_equal(sh[k], surf.shares(x[k]))

    @pytest.mark.parametrize("mode", ["uniform", "local-mollified"])
    def test_log_x_density(self, mode):
        surf, box = canonical_surfaces()
        spec = ensemble.GibbsSpec(T=2.0, mu=0.3, mode=mode,
                                  probe=np.full(3, 0.9))
        sampler = ensemble.GibbsSampler(spec, surf, np.full(4, 2.0), box,
                                        mol=Mollifier(0.9))
        x = self.configs(2)
        for j in range(2):
            logd, e = sampler.log_x_density(x, j)
            assert logd.shape == (self.K,) and e.shape == (self.K, 2)
            for k in range(self.K):
                one, e_k = sampler.log_x_density(x[k], j)
                assert logd[k] == one
                np.testing.assert_array_equal(e[k], e_k)

    @pytest.mark.parametrize("kind", ["bare", "corrected"])
    def test_values(self, kind):
        # the surface energies from eigenvalues alone (bare) or from the
        # solve (corrected), against the shares they partition: within 16
        # ulp of sum_n |lambda_k^n| (measured: at most 6, 3.6e-15 absolute)
        surf, _ = canonical_surfaces()
        if kind == "corrected":
            surf = dynamics.CorrectedSurface(surf.v_pot, 1e3)
        x = self.configs(4)
        val, sh = surf.values(x), surf.shares(x)
        assert val.shape == (self.K, 2)
        for k in range(self.K):
            np.testing.assert_array_equal(val[k], surf.values(x[k]))
        bound = 16.0 * np.spacing(np.abs(sh).sum(axis=-2))
        assert np.all(np.abs(val - sh.sum(axis=-2)) <= bound)

    @pytest.mark.parametrize("kind", ["bare", "corrected"])
    def test_value_matches_at(self, kind):
        # ``value`` reads ``values``: the bare one runs ``eigvalsh``, not
        # ``at``'s ``eigh``, so the two may differ by a few ulp (measured:
        # none here); the corrected one reads the same solve as ``at``
        surf, _ = canonical_surfaces()
        n_items = self.K
        if kind == "corrected":
            surf, n_items = dynamics.CorrectedSurface(surf.v_pot, 1e3), 50
        x = self.configs(4)[:n_items]
        for k in range(n_items):
            for j in range(2):
                val, ref = surf.value(x[k], j), surf.at(x[k], j,
                                                        fields=False).value
                if kind == "corrected":
                    assert val == ref
                else:
                    assert abs(val - ref) <= 16.0 * np.spacing(abs(ref))

    def test_degenerate_item_named(self):
        # eigenvalues and eigendecompose share one gap check
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 2, 2))
        v = a + a.transpose(0, 2, 1)
        v[4] = np.eye(2)
        for fn in (potential.eigendecompose, potential.eigenvalues):
            with pytest.raises(DegenerateSpectrumError, match="^item 4: "):
                fn(v)
            with pytest.raises(DegenerateSpectrumError, match="^adjacent"):
                fn(v[4])


class CountingShares:
    """A surface set that counts its values and shares calls."""

    def __init__(self, surfaces):
        self.surfaces = surfaces
        self.d = surfaces.d
        self.calls = 0

    def values(self, x):
        self.calls += 1
        return self.surfaces.values(x)

    def shares(self, x):
        self.calls += 1
        return self.surfaces.shares(x)


class ShareSums:
    """A surface set whose energies are its shares summed over particles:
    the arithmetic the chain used before it read ``values``."""

    def __init__(self, surfaces):
        self.surfaces = surfaces
        self.d = surfaces.d

    def values(self, x):
        return self.surfaces.shares(x).sum(axis=-2)

    def shares(self, x):
        return self.surfaces.shares(x)


def test_eigenvalue_energies_keep_streams():
    # the golden canonical config (N = 2, 500 weight samples at seed 11, 16
    # states at seed 12): the eigenvalue energies retain the states the
    # share sums retain, bit for bit, and move q by rounding alone
    surf, box = canonical_surfaces(2)
    spec, masses = ensemble.GibbsSpec(T=2.0), np.full(2, 1e3)
    runs = []
    for s in (surf, ShareSums(surf)):
        qw = ensemble.surface_weights(spec, s, masses, box, "reweighting",
                                      n_samples=500, seed=11)
        states = ensemble.GibbsSampler(spec, s, masses, box).sample(
            16, seed=12, weights=qw)
        runs.append((qw.q, states))
    (q, states), (q_sums, states_sums) = runs
    assert np.all(np.abs(q - q_sums) <= 1e-15)
    assert len(states) == len(states_sums) == 16
    for a, b in zip(states, states_sums):
        assert a.surface == b.surface
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.p, b.p)


@pytest.fixture
def density_calls(monkeypatch):
    """The number of GibbsSampler.log_x_density calls so far."""
    calls = [0]
    log_x_density = ensemble.GibbsSampler.log_x_density

    def counted(self, *args):
        calls[0] += 1
        return log_x_density(self, *args)

    monkeypatch.setattr(ensemble.GibbsSampler, "log_x_density", counted)
    return calls


class TestLockstepCalls:
    def test_surface_weights_reads_only_proposals(self, density_calls):
        # the reweighting collects the energies its chain already holds
        surf, box = canonical_surfaces()
        counting = CountingShares(surf)
        ensemble.surface_weights(ensemble.GibbsSpec(T=2.0), counting,
                                 np.full(4, 1e3), box, "reweighting",
                                 n_samples=2000, seed=2)
        assert counting.calls == density_calls[0] > 0

    def test_fixed_n_chain_calls(self, density_calls, monkeypatch):
        # one chain is the single-chain loop; the lockstep run of 2,000
        # samples makes at most a quarter of its log_x_density calls
        surf, box = canonical_surfaces()
        sampler = ensemble.GibbsSampler(ensemble.GibbsSpec(T=2.0), surf,
                                        np.full(4, 1e3), box)
        sampler.run_chain(0, 2000, 2)
        lockstep = density_calls[0]
        monkeypatch.setattr(ensemble, "CHAINS", 1)
        density_calls[0] = 0
        samples = sampler.run_chain(0, 2000, 2)
        assert len(samples) == 2000
        assert 4 * lockstep <= density_calls[0]
        assert [r.proposals for r in sampler.burn_ins] == [56, 1600]

    def test_chains_retained_chain_by_chain(self):
        # 85 samples over 32 chains: 3 per chain, the last eleven dropped;
        # every state is a copy, not a view of the chains' stack
        surf, box = canonical_surfaces(2)
        sampler = ensemble.GibbsSampler(ensemble.GibbsSpec(T=2.0), surf,
                                        np.full(2, 1e3), box)
        xs = sampler.run_chain(1, 85, 4, thin=1)
        assert len(xs) == 85
        assert all(x.shape == (2, 3) and x.base is None for x in xs)
        assert sampler.burn_ins[-1].proposals == 56

    @pytest.mark.parametrize("chains, first, proposals", [
        pytest.param(c, f, p, id=f"{c}-{f}")
        for c, f, p in [(1, 800, 800), (3, 268, 268), (8, 100, 100),
                        (32, 28, 56)]])
    def test_first_test_pools_the_chains(self, equilibration_tests, chains,
                                         first, proposals):
        # ceil(TUNE_INTERVAL / C) * N proposals per chain at N = 4: the
        # tuning windows pool their proposals over the C chains; 32 chains
        # stop at the second test
        sampler = settled_chains()
        sampler.run_chain(0, chains, 5)
        assert equilibration_tests[0] == first
        rec = sampler.burn_ins[-1]
        assert rec.chains == chains and rec.proposals == proposals

    def test_one_chain_keeps_its_stream(self, equilibration_tests):
        # one chain tests first at TUNE_INTERVAL * N, and retains the state
        # that the floor of TUNE_INTERVAL * N per chain retained
        x = settled_chains().run_chain(0, 1, 5)[0]
        assert equilibration_tests == [ensemble.TUNE_INTERVAL * 4]
        assert [float.hex(float(a)) for a in x.ravel()] == ONE_CHAIN_STATE


def settled_chains():
    """Four particles in a harmonic well in a box of side 0.5, shorter than
    the first step of 0.5: the step is at the box's cap from the first
    window on, so it settles after two windows."""
    return ensemble.GibbsSampler(
        ensemble.GibbsSpec(T=1.0),
        ensemble.HarmonicSurfaces([1.0], center=(0.25, 0.25, 0.25)),
        np.ones(4), ensemble.BoxContainer(0.0, 0.5))


# run_chain(0, 1, 5) of settled_chains() with the first equilibration test
# at TUNE_INTERVAL * N proposals for every chain count
ONE_CHAIN_STATE = [
    "0x1.b76b245ecb988p-2", "0x1.9a26a8653ea1cp-2", "0x1.cc908613eb3d0p-4",
    "0x1.3cdbe6bf5961ap-2", "0x1.6f7ebaf919790p-3", "0x1.2b587c60ff577p-2",
    "0x1.7efcc68eead90p-5", "0x1.db993ad5bc648p-2", "0x1.bbb6bdeb7b17fp-2",
    "0x1.ed74671b28c58p-3", "0x1.912b62e50332cp-2", "0x1.a48d738912886p-2"]


@pytest.fixture
def equilibration_tests(monkeypatch):
    """The trace length of every ensemble.equilibration call so far."""
    lengths = []
    equilibration = ensemble.equilibration

    def counted(trace):
        lengths.append(trace.shape[1])
        return equilibration(trace)

    monkeypatch.setattr(ensemble, "equilibration", counted)
    return lengths


@pytest.fixture
def chain_runs(monkeypatch):
    """One entry per GibbsSampler.run_chain call: its arguments."""
    calls = []
    run_chain = ensemble.GibbsSampler.run_chain

    def counted(self, *args, **kwargs):
        calls.append(args)
        return run_chain(self, *args, **kwargs)

    monkeypatch.setattr(ensemble.GibbsSampler, "run_chain", counted)
    return calls


class TestMatchThermo:
    def test_ideal_gas_targets(self, chain_runs):
        # closed forms: mu = T ln(n (2 pi T M)^{-3/2}), E = (3/2) n T
        n0, t0 = 1.2, 0.8
        u0 = np.array([0.3, 0.0, 0.0])
        rho0 = n0  # unit masses
        e0 = 1.5 * n0 * t0 + 0.5 * rho0 * float(u0 @ u0)
        template = ensemble.GibbsSpec(T=1.0)
        box = ensemble.BoxContainer(0.0, 3.0)
        spec, achieved = ensemble.match_thermo(
            rho0, rho0 * u0, e0, template, ensemble.ZeroSurfaces(),
            np.ones(1), box, n_samples=30_000, seed=23)
        assert abs(achieved["rho"] - rho0) <= 0.02 * rho0
        assert abs(achieved["E"] - e0) <= 0.02 * e0
        np.testing.assert_allclose(spec.u0, u0, atol=1e-12)
        assert abs(spec.T - t0) <= 0.05 * t0
        mu_exact = t0 * np.log(n0 * (2.0 * np.pi * t0) ** -1.5)
        assert abs(spec.mu - mu_exact) <= 0.08 * abs(mu_exact)
        assert len(chain_runs) <= 10

    def test_temperature_out_of_range(self, chain_runs):
        # e0 = 1.5e4 rho0 needs T near 1e4, beyond the [1e-3, 1e3] range
        rho0 = 1.2
        box = ensemble.BoxContainer(0.0, 3.0)
        with pytest.raises(UnattainableTargetError, match="leaves"):
            ensemble.match_thermo(rho0, np.zeros(3), 1.5e4 * rho0,
                                  ensemble.GibbsSpec(T=1.0),
                                  ensemble.ZeroSurfaces(), np.ones(1), box,
                                  n_samples=30_000, seed=23)
        assert 1 <= len(chain_runs) <= 2

    def test_step_budget(self, chain_runs):
        # T = 1 gives E = 1.5 n, 25 % above the T = 0.8 target; no steps
        box = ensemble.BoxContainer(0.0, 3.0)
        with pytest.raises(UnattainableTargetError, match="after 0 steps"):
            ensemble.match_thermo(1.2, np.zeros(3), 1.5 * 1.2 * 0.8,
                                  ensemble.GibbsSpec(T=1.0),
                                  ensemble.ZeroSurfaces(), np.ones(1), box,
                                  n_samples=2000, seed=23, max_iter=0)
        assert len(chain_runs) == 1

    def test_unattainable_target(self):
        template = ensemble.GibbsSpec(T=1.0)
        box = ensemble.BoxContainer(0.0, 1.0)
        with pytest.raises(UnattainableTargetError):
            ensemble.match_thermo(-1.0, np.zeros(3), 1.0, template,
                                  ensemble.ZeroSurfaces(), np.ones(1), box)

    def test_unbounded_container(self):
        # an unbounded container has no volume for particle-number moves
        template = ensemble.GibbsSpec(T=1.0)
        well = ensemble.HarmonicContainer(1.0)
        with pytest.raises(InvalidParameterError, match="finite volume"):
            ensemble.match_thermo(1.0, np.zeros(3), 1.5, template,
                                  ensemble.ZeroSurfaces(), np.ones(1), well)
