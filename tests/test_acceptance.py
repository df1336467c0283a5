"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
verdict lines.  Criteria 1-3 deposit every configuration they evaluate into
a shared record list; criterion 4 replays the partition identities over it.
"""

import json
import time

import numpy as np
import pytest

from mdfields import (cli, conservation, dynamics, ensemble, fields,
                      geometry, nonlinear_eigen, potential, quantum)
from mdfields.mollifier import Mollifier

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

L = 4.0 * np.pi

# (v_pot, x, mass-or-None) for every configuration whose partition was used
RECORDS = []


def _report(label, ok):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {label} failed"


def _two_state_model(n):
    return potential.make_two_state_model(
        potential.Morse(1.0, 1.2, 1.0), 0.8,
        potential.GaussianCoupling(0.15, 1.3, 0.6), n)


def _coupling_active_config(rng, n, scale=0.7, lo=0.5, hi=2.5):
    while True:
        x = rng.normal(scale=scale, size=(n, 3))
        r = geometry.pair_distances(x)
        if r.min() > lo and r.max() < hi:
            return x


def test_criterion_1_per_trajectory_conservation():
    t0 = time.time()
    rng = np.random.default_rng(41)
    n = 8
    v_pot = potential.make_scalar_pair_model(
        potential.Harmonic(1.0, 1.0), n)
    provider = dynamics.AdiabaticSurface(v_pot, gap_tol=0.0)
    model = fields.AdiabaticFieldModel(v_pot, 0, gap_tol=0.0)
    # perturbed 2 x 2 x 2 lattice, spacing 1: a ball of radius 1.2 around a
    # particle covers about three of them
    grid = np.mgrid[0:2, 0:2, 0:2].reshape(3, -1).T.astype(float)
    x0 = grid + rng.normal(scale=0.05, size=(n, 3))
    p0 = rng.normal(scale=0.3, size=(n, 3))
    initial = dynamics.PhaseState(x=x0, p=p0, masses=np.ones(n))
    traj = dynamics.integrate(initial, 1e-3, 200, provider)
    st = traj.state(-1)
    RECORDS.append((v_pot, st.x, None))
    mol = Mollifier(1.2)
    lo = st.x.min(axis=0) - 0.3
    hi = st.x.max(axis=0) + 0.3
    probes = rng.uniform(lo, hi, size=(200, 3))
    rep = conservation.per_trajectory_residuals(
        st, provider, model, mol, probes, 1e-4, richardson=True)
    rel = rep.relative_max()
    elapsed = time.time() - t0
    ok = all(rel[law] <= 1e-6 for law in ("mass", "mom", "energy"))
    for law in ("mass", "mom", "energy"):
        ratio = 2.0 ** rep.richardson_order[law]
        ok = ok and 3.5 <= ratio <= 4.5
    ok = ok and elapsed <= 60.0
    _report("1 (per-trajectory conservation)", ok)


def test_criterion_2_canonical_conservation():
    t0 = time.time()
    n, mass = 4, 1.0e3
    v_pot = _two_state_model(n)
    box = ensemble.BoxContainer(0.0, 1.8)
    spec = ensemble.GibbsSpec(T=2.0)
    shares = ensemble.AdiabaticShares(v_pot)
    masses = np.full(n, mass)
    qw = ensemble.surface_weights(spec, shares, masses, box, "reweighting",
                                  n_samples=2000, seed=2)
    sampler = ensemble.GibbsSampler(spec, shares, masses, box)
    states = sampler.sample(256, seed=9, weights=qw)
    for s in states:
        RECORDS.append((v_pot, s.x, mass))
    provider = dynamics.CorrectedSurface(v_pot, mass)
    models = [fields.CorrectedFieldModel(v_pot, j, mass) for j in range(2)]
    groups = []
    for j in range(2):
        sj = [s for s in states if s.surface == j]
        if sj:
            groups.append((float(qw.q[j]), sj, provider, models[j]))
    mol = Mollifier(0.9)
    probes = np.mgrid[0.3:1.5:3j, 0.3:1.5:3j, 0.3:1.5:3j].reshape(3, -1).T
    rep = conservation.canonical_residuals(groups, mol, probes, 1e-4,
                                           richardson=False)
    keep = ~rep.masked
    elapsed = time.time() - t0
    ok = len(groups) == 2 and np.any(keep)
    ok = ok and np.all(np.abs(rep.r_mass[keep])
                       <= 5.0 * rep.stderr_mass[keep])
    ok = ok and np.all(np.abs(rep.r_mom[keep])
                       <= 5.0 * rep.stderr_mom[keep])
    ok = ok and np.all(np.abs(rep.r_energy[keep])
                       <= 5.0 * rep.stderr_energy[keep])
    ok = ok and elapsed <= 600.0
    _report("2 (canonical two-state conservation)", ok)


def test_criterion_3_nonlinear_eigenproblem():
    rng = np.random.default_rng(43)
    v_pot = _two_state_model(3)
    ok = True
    configs = [_coupling_active_config(rng, 3) for _ in range(100)]
    for x in configs:
        cs = nonlinear_eigen.solve_nonlinear_eigen(v_pot, x, 1.0e3)
        bound = 1e-10 * np.linalg.norm(v_pot.evaluate(x))
        ok = ok and cs.residual_norm <= bound
        RECORDS.append((v_pot, x, 1.0e3))
    # the correction is O(1/M): doubling M halves it, and the two solver
    # modes stay within rounding of each other
    for x in configs[:5]:
        bare = potential.eigendecompose(v_pot.evaluate(x)).lambdas
        for m in (1.0e2, 1.0e3, 1.0e4):
            err = np.linalg.norm(
                nonlinear_eigen.solve_nonlinear_eigen(
                    v_pot, x, m).lambdas_bar - bare)
            err2 = np.linalg.norm(
                nonlinear_eigen.solve_nonlinear_eigen(
                    v_pot, x, 2.0 * m).lambdas_bar - bare)
            ok = ok and 1.8 <= err / err2 <= 2.2
            fp = nonlinear_eigen.solve_nonlinear_eigen(v_pot, x, m)
            ct = nonlinear_eigen.solve_nonlinear_eigen(
                v_pot, x, m, method="continuation")
            ok = ok and np.max(np.abs(fp.lambdas_bar
                                      - ct.lambdas_bar)) <= 1e-9
    _report("3 (nonlinear eigenproblem)", ok)


def test_criterion_4_partition_identities():
    records = RECORDS
    if not records:
        # standalone run: rebuild the cheap criterion-3 configurations
        rng = np.random.default_rng(43)
        v_pot = _two_state_model(3)
        records = [(v_pot, _coupling_active_config(rng, 3), 1.0e3)
                   for _ in range(100)]
    ok = bool(records)
    for v_pot, x, mass in records:
        eig = potential.eigendecompose(v_pot.evaluate(x))
        shares = potential.surface_partition(v_pot, x, eig)
        tol = 1e-10 * max(1.0, np.linalg.norm(eig.lambdas))
        ok = ok and np.max(np.abs(shares.sum(axis=0) - eig.lambdas)) <= tol
        if mass is not None:
            cs = nonlinear_eigen.solve_nonlinear_eigen(v_pot, x, mass)
            tol = 1e-10 * max(1.0, np.linalg.norm(cs.lambdas_bar))
            ok = ok and np.max(np.abs(cs.per_particle_bar.sum(axis=0)
                                      - cs.lambdas_bar)) <= tol
    _report("4 (partition identities)", ok)


def test_criterion_5_gradient_lift():
    rng = np.random.default_rng(47)
    pair = potential.Morse(1.0, 1.2, 1.0)
    ok = True
    # where the distance Jacobian has full column rank (N <= 4, generic)
    # the minimal-norm lift recovers the pair derivative itself
    for n in (2, 3, 4):
        v_pot = potential.make_scalar_pair_model(pair, n)
        model = fields.AdiabaticFieldModel(v_pot, 0, gap_tol=0.0)
        x = _coupling_active_config(rng, n, scale=0.9)
        _, grad, _ = model.surface_data(x)
        v = geometry.lift_gradient_to_distances(x, grad)
        ok = ok and np.max(np.abs(
            v - pair.deriv(geometry.pair_distances(x)))) <= 1e-8
    # chain-rule reconstruction holds for all N, including degenerate
    # geometries where the lift is no longer unique
    for n in range(2, 9):
        v_pot = potential.make_scalar_pair_model(pair, n)
        model = fields.AdiabaticFieldModel(v_pot, 0, gap_tol=0.0)
        shapes = {"generic": _coupling_active_config(rng, n, scale=0.9,
                                                     hi=np.inf)}
        line = np.zeros((n, 3))
        line[:, 0] = np.arange(n) * 1.1
        shapes["collinear"] = line
        planar = _coupling_active_config(rng, n, scale=0.9, hi=np.inf)
        planar[:, 2] = 0.0
        if geometry.pair_distances(planar).min() > 0.5:
            shapes["planar"] = planar
        for x in shapes.values():
            _, grad, _ = model.surface_data(x)
            v = geometry.lift_gradient_to_distances(x, grad)
            jac = geometry.distance_jacobian(x)
            resid = np.linalg.norm(jac.T @ v - grad.reshape(-1))
            tol = 1e-10 * max(1.0, np.linalg.norm(grad))
            ok = ok and resid <= tol
    _report("5 (gradient lift)", ok)


def test_criterion_6_commutator_reduction():
    t0 = time.time()
    g = quantum.QuantumGrid(-L / 2.0, L, 256)
    hbar = quantum.hbar_eff(1000.0)
    v = quantum.trig_coeff(L, a0=1.0, cos_terms=[(1, -1.0)])
    h = quantum.kinetic_plus_potential(v)
    c = quantum.trig_coeff(L, a0=0.3, cos_terms=[(1, 0.4)],
                           sin_terms=[(2, 0.2)])
    ok = True
    for deg in (0, 1, 2):
        coeffs = [quantum.const_coeff(0.0)] * deg + [c]
        rep = quantum.commutator_check(h, quantum.Symbol(coeffs), g, hbar)
        ok = ok and rep["rel_op_norm"] <= 1e-8
    # degree-3 negative control against a mode-2 well, measured at the
    # packet scale where the O(hbar^2) Moyal remainder lives
    v2 = quantum.trig_coeff(L, a0=1.0, cos_terms=[(2, -1.0)])
    h2 = quantum.kinetic_plus_potential(v2)
    a3 = quantum.Symbol([quantum.const_coeff(0.0)] * 3
                        + [quantum.const_coeff(1.0)])
    rep = quantum.commutator_check(h2, a3, g, hbar)
    ok = ok and rep["rel_packet_norm"] >= 1e-3
    ok = ok and (time.time() - t0) <= 30.0
    _report("6 (commutator reduction)", ok)


def test_criterion_7_classical_limit():
    t0 = time.time()
    masses = [100.0, 1000.0, 10_000.0]
    v = quantum.trig_coeff(L, a0=1.0, cos_terms=[(1, -1.0)])
    a = quantum.Symbol([quantum.trig_coeff(L, cos_terms=[(1, 0.5)]),
                        quantum.const_coeff(0.3),
                        quantum.const_coeff(1.0)])
    rep = quantum.egorov_test(v, a, masses, x0_packet=0.4, p0_packet=0.5,
                              t_final=1.0, grid_x0=-L / 2.0, grid_length=L)
    ok = rep["slope"] <= -0.8
    omega = 1.0
    vh = quantum.Coefficient(lambda x: 0.5 * omega ** 2 * x ** 2,
                             lambda x: omega ** 2 * x)
    ah = quantum.Symbol([quantum.Coefficient(lambda x: x,
                                             lambda x: np.ones_like(x))])
    for m in masses:
        err, _, _, _ = quantum.egorov_error(
            vh, ah, mass=m, x0_packet=0.5, p0_packet=0.3, t_final=1.0,
            grid_x0=-L / 2.0, grid_length=L)
        ok = ok and err <= 1e-6
    ok = ok and (time.time() - t0) <= 300.0
    _report("7 (classical limit)", ok)


def test_criterion_8_gibbs_matching():
    # ideal gas: mu(rho) = T ln(rho (2 pi T)^{-3/2}) and E = (3/2) n T
    n0, t0 = 1.2, 0.75
    e0 = 1.5 * n0 * t0
    mu_exact = t0 * np.log(n0 * (2.0 * np.pi * t0) ** -1.5)
    template = ensemble.GibbsSpec(T=1.0)
    box = ensemble.BoxContainer(0.0, 3.0)
    spec, achieved = ensemble.match_thermo(
        n0, np.zeros(3), e0, template, ensemble.ZeroSurfaces(), np.ones(1),
        box, n_samples=100_000, seed=23, rel_tol=0.01)
    ok = abs(spec.mu - mu_exact) <= 0.02 * abs(mu_exact)
    ok = ok and abs(achieved["E"] - e0) <= 0.02 * e0
    ok = ok and abs(achieved["rho"] - n0) <= 0.02 * n0
    # constant-gap two-state model: q2 / q1 = exp(-N delta / T)
    temp, delta, n = 0.8, 0.5, 2
    gap_spec = ensemble.GibbsSpec(T=temp)
    unit_box = ensemble.BoxContainer(0.0, 1.0)
    surf = ensemble.ConstantShiftSurfaces([0.0, delta])
    expected = np.exp(-n * delta / temp)
    wr = ensemble.surface_weights(gap_spec, surf, np.ones(n), unit_box,
                                  "reweighting", n_samples=5000, seed=29)
    ok = ok and abs(wr.q[1] / wr.q[0] - expected) <= 0.02 * expected
    # N = 1 cross-check of the two weight constructions
    h_spec = ensemble.GibbsSpec(T=1.0)
    h_box = ensemble.BoxContainer(-1.5, 1.5)
    h_surf = ensemble.HarmonicSurfaces([1.0, 2.0])
    wq = ensemble.surface_weights(h_spec, h_surf, np.ones(1), h_box,
                                  "direct-quadrature", n_quad=24)
    wr1 = ensemble.surface_weights(h_spec, h_surf, np.ones(1), h_box,
                                   "reweighting", n_samples=20_000, seed=17)
    sigma = np.maximum(wr1.stderr, 1e-12)
    ok = ok and np.all(np.abs(wq.q - wr1.q) <= 3.0 * sigma)
    _report("8 (Gibbs matching)", ok)


def test_criterion_9_cli_determinism(tmp_path):
    def run_twice(subcommand, cfg, outputs):
        out = tmp_path / subcommand
        cfg["output_dir"] = str(out)
        path = tmp_path / f"{subcommand}.json"
        path.write_text(json.dumps(cfg, indent=2))
        if cli.main([subcommand, str(path)]) != 0:
            return False
        first = {name: (out / name).read_bytes() for name in outputs}
        if cli.main([subcommand, str(path)]) != 0:
            return False
        return all((out / name).read_bytes() == first[name]
                   for name in outputs)

    particles = {
        "positions": [[0.0, 0.0, 0.0], [1.1, 0.1, 0.0],
                      [0.2, 1.0, 0.2], [1.0, 1.1, 0.9]],
        "momenta": [[0.05, -0.02, 0.01], [-0.03, 0.04, 0.0],
                    [0.02, 0.01, -0.05], [-0.04, -0.03, 0.04]],
        "masses": 1.0,
    }
    two_state = {
        "kind": "two_state",
        "pair": {"kind": "morse", "d_e": 1.0, "a": 1.2, "r0": 1.0},
        "gap": 0.8,
        "coupling": {"c0": 0.15, "rc": 1.3, "w": 0.6},
    }
    probes = {"origin": [0.1, 0.1, 0.0], "spacing": [0.45, 0.5, 0.45],
              "shape": [3, 3, 2]}
    ok = run_twice("run-md", {
        "model": {"kind": "scalar",
                  "pair": {"kind": "harmonic", "kappa": 1.0, "r0": 1.0}},
        "particles": {"positions": [[0.0, 0.0, 0.0], [1.2, 0.0, 0.0]],
                      "momenta": [[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]],
                      "masses": 1.0},
        "dynamics": {"dt": 1e-3, "steps": 50, "surface": 0},
        "seed": 3,
    }, ["trajectory.csv"])
    ok = ok and run_twice("fields", {
        "model": two_state, "particles": particles,
        "mollifier": {"epsilon": 0.8}, "probes": probes,
        "surface": 0, "seed": 7,
    }, ["fields.csv"])
    ok = ok and run_twice("conserve-check", {
        "model": two_state, "particles": particles,
        "mollifier": {"epsilon": 0.8}, "probes": probes,
        "dt_check": 1e-4, "surface": 0, "tolerance": 1e-5, "seed": 7,
    }, ["residuals.json", "residuals.csv"])
    ok = ok and run_twice("gibbs-fit", {
        "container": {"lo": 0.0, "hi": 3.0},
        "targets": {"rho": 1.0, "rho_u": [0.0, 0.0, 0.0], "E": 1.2},
        "temperature_guess": 1.0, "mass": 1.0,
        "n_samples": 20_000, "seed": 5,
    }, ["gibbs.json"])
    ok = ok and run_twice("egorov", {
        "grid": {"x0": -L / 2.0, "length": L},
        "potential": {"a0": 1.0, "cos": [[1, -1.0]]},
        "observable": [{"cos": [[1, 0.5]]}, {"const": 0.3},
                       {"const": 1.0}],
        "masses": [100.0, 1000.0, 10000.0],
        "t_final": 1.0, "packet": {"x0": 0.4, "p0": 0.5}, "seed": 0,
    }, ["egorov.json"])
    ok = ok and run_twice("commutator-check", {
        "grid": {"x0": -L / 2.0, "length": L, "n": 256},
        "potential": {"a0": 1.0, "cos": [[1, -1.0]]},
        "observable": [{"a0": 0.3, "cos": [[1, 0.4]]}, {"const": 0.2}],
        "mass": 1000.0, "seed": 0,
    }, ["commutator.json"])
    _report("9 (CLI determinism)", ok)
