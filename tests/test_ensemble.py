import numpy as np
import pytest
from scipy import stats

from mdfields import ensemble, potential
from mdfields.errors import (InsufficientOverlapError, InvalidParameterError,
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
    def test_uniform_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 3))
        p = rng.normal(size=(3, 3))
        m = np.array([1.0, 2.0, 0.5])
        lam = np.array([0.3, -0.1, 0.7])
        spec = ensemble.GibbsSpec(T=1.0, mu=0.4)
        expected = np.sum(0.5 * np.sum(p ** 2, axis=1) / m + lam - m * 0.4)
        got = ensemble.gibbs_energy(x, p, m, lam, spec)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_local_mollified_weights(self):
        mol = Mollifier(1.0)
        x = np.array([[0.1, 0.0, 0.0], [5.0, 0.0, 0.0]])
        p = np.zeros((2, 3))
        m = np.ones(2)
        lam = np.array([1.0, 1.0])
        spec = ensemble.GibbsSpec(T=1.0, mu=0.0, mode="local-mollified")
        got = ensemble.gibbs_energy(x, p, m, lam, spec, mol)
        w_far = mol.eval(np.zeros(3)) * 1e-3  # floor for the distant particle
        expected = mol.eval(-x[0]) * 1.0 + w_far * 1.0
        assert abs(got - expected) <= 1e-12

    def test_local_mode_needs_mollifier(self):
        spec = ensemble.GibbsSpec(T=1.0, mode="local-mollified")
        with pytest.raises(InvalidParameterError):
            ensemble.gibbs_energy(np.zeros((1, 3)), np.zeros((1, 3)),
                                  np.ones(1), np.zeros(1), spec)


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
                                   collect=lambda x: x.shape[0])
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
                                      collect=lambda x: x.shape[0])[0]
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
        return np.full((x.shape[0], 1),
                       0.0 if np.array_equal(x, self.x0) else 1e6)


class TestTuneWarning:
    def tune(self, surfaces, x0, box):
        sampler = ensemble.GibbsSampler(ensemble.GibbsSpec(T=2.0), surfaces,
                                        np.ones(x0.shape[0]), box)
        return sampler._tune_step(x0, 0, np.random.default_rng(1), 0.5)[2]

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


class TestJsonExport:
    def test_record_roundtrip(self):
        import json
        spec = ensemble.GibbsSpec(T=0.9, mu=-1.1, u0=np.array([0.1, 0, 0]))
        w = ensemble.SurfaceWeights(q=np.array([0.7, 0.3]),
                                    stderr=np.array([0.01, 0.01]))
        txt = ensemble.matched_spec_to_json(spec, w, {"rho": 1.0})
        rec = json.loads(txt)
        assert rec["T"] == 0.9
        assert rec["q_weights"] == [0.7, 0.3]
        assert rec["achieved"]["rho"] == 1.0
