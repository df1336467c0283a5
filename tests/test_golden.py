"""Golden outputs: the field pipeline against files frozen from a good run.

The files under ``tests/golden/`` hold:

- ``traj_conserve.json``: the three field grids (tau - dt_check, tau,
  tau + dt_check) and the Richardson residual report of one bare N = 8
  harmonic trajectory;
- ``fields_bare.csv`` and ``fields_mass.csv``: the ``fields`` CLI output on
  a four-particle two-state model, bare and with ``mass_parameter``;
- ``run_md_mass.csv``: a 20-step mass-corrected ``run-md`` trajectory;
- ``canonical.json``: a tiny canonical report (N = 2, 16 states,
  mass-corrected) with its ensemble field grids at tau (with stderr) and
  at tau - dt_check and tau + dt_check;
- ``egorov.json`` and ``commutator.json``: the ``egorov`` and
  ``commutator-check`` CLI outputs on the configs of the cli-md-quantum
  benchmark workload (``QUANTUM``);
- ``gibbs.json``: the ``gibbs-fit`` CLI output on the ideal-gas config of
  acceptance criterion 9 (``GIBBS``).

Tolerances:

- field values match at rtol 1e-12, taken normwise per column:
  |new - golden| <= 1e-12 * max |golden column|;
- every number of the quantum and gibbs-fit JSON outputs matches at rtol
  1e-12, normwise per list.  The commutator's ``abs_op_norm``, ``rel_op_norm`` and
  ``rel_packet_norm`` are roundoff, so a change that reorders the
  split-step arithmetic regenerates them;
- residuals are central differences over 2 dt_check, so they amplify the
  roundoff of the fields.  They match within
  C_ULP * (ulp(max |F|) / (2 dt_check) + ulp(max |div F|)) per law, with F
  the law's field (rho, mom or E) and C_ULP = 1024;
- the ``run-md`` trajectory CSV matches byte for byte.

After an intended change, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and report the before/after differences.
"""

import csv
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest

from mdfields import (cli, conservation, dynamics, ensemble, fields,
                      mollifier, potential)
from mdfields.mollifier import Mollifier

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RTOL = 1e-12
C_ULP = 1024.0
FIELD_KEYS = ("rho", "mom", "energy", "sigma", "q", "div_mom",
              "div_mom_flux", "div_energy_flux")
# the field each conservation law differentiates in time, and its flux
# divergence
LAW_FIELDS = {"mass": ("rho", "div_mom"), "mom": ("mom", "div_mom_flux"),
              "energy": ("energy", "div_energy_flux")}
MASS = 1.0e3

TWO_STATE = {
    "kind": "two_state",
    "pair": {"kind": "morse", "d_e": 1.0, "a": 1.2, "r0": 1.0},
    "gap": 0.8,
    "coupling": {"c0": 0.15, "rc": 1.3, "w": 0.6},
}
PARTICLES = {
    "positions": [[0.0, 0.0, 0.0], [1.1, 0.1, 0.0],
                  [0.2, 1.0, 0.2], [1.0, 1.1, 0.9]],
    "momenta": [[0.05, -0.1, 0.02], [-0.03, 0.04, 0.1],
                [0.1, 0.0, -0.05], [-0.12, 0.06, -0.07]],
    "masses": 1.0,
}
PARTICLE_CFG = {"model": TWO_STATE, "particles": PARTICLES, "seed": 5}
# the egorov and commutator-check configs of the cli-md-quantum workload,
# with the commutator observable's random coefficients fixed
BOX = {"x0": -2.0 * np.pi, "length": 4.0 * np.pi}
QUANTUM = {
    "egorov": ("egorov.json", {
        "grid": BOX, "potential": {"a0": 1.0, "cos": [[1, -1.0]]},
        "observable": [{"cos": [[1, 0.5]]}, {"const": 0.3}, {"const": 1.0}],
        "masses": [100.0, 1000.0, 10000.0], "t_final": 1.0,
        "packet": {"x0": 0.4, "p0": 0.5}, "seed": 5}),
    "commutator-check": ("commutator.json", {
        "grid": dict(BOX, n=256),
        "potential": {"a0": 1.0, "cos": [[1, -1.0]]},
        "observable": [{"a0": 0.3, "cos": [[1, 0.4]]}, {"const": 0.2}],
        "mass": 1000.0, "seed": 5}),
}
GIBBS = {"container": {"lo": 0.0, "hi": 3.0},
         "targets": {"rho": 1.0, "rho_u": [0.0, 0.0, 0.0], "E": 1.2},
         "temperature_guess": 1.0, "mass": 1.0, "n_samples": 20_000,
         "seed": 5}


# ---------------------------------------------------------------------------
# the golden computations

def _grid_dict(grid):
    return {k: getattr(grid, k).tolist() for k in FIELD_KEYS}


def traj_conserve():
    """Bare N = 8 harmonic lattice: field grids and residual report."""
    n, dt_check = 8, 1e-4
    rng = np.random.default_rng(20261018)
    v_pot = potential.make_scalar_pair_model(potential.Harmonic(1.0, 1.0), n)
    provider = dynamics.AdiabaticSurface(v_pot, gap_tol=0.0)
    model = fields.AdiabaticFieldModel(v_pot, 0, gap_tol=0.0)
    mol = Mollifier(1.2)
    lattice = np.mgrid[0:2, 0:2, 0:2].reshape(3, -1).T.astype(float)
    x0 = lattice + rng.normal(scale=0.05, size=(n, 3))
    p0 = rng.normal(scale=0.3, size=(n, 3))
    initial = dynamics.PhaseState(x=x0, p=p0, masses=np.ones(n))
    st = dynamics.integrate(initial, 1e-3, 20, provider).state(-1)
    probes = rng.uniform(st.x.min(axis=0) - 0.3, st.x.max(axis=0) + 0.3,
                         size=(24, 3))
    rep = conservation.per_trajectory_residuals(
        st, provider, model, mol, probes, dt_check, richardson=True)
    sc, f = conservation._central(st, provider, model)
    sm, sp = conservation._neighbours(st, model, f, dt_check)
    grids = [_grid_dict(fields.field_grid(s, mol, probes))
             for s in (sm, sc, sp)]
    return {"dt_check": dt_check, "grids": grids,
            "report": _report_dict(rep)}


def canonical():
    """Tiny mass-corrected canonical check: N = 2, 16 states."""
    n, dt_check = 2, 1e-4
    v_pot = potential.make_two_state_model(
        potential.Morse(1.0, 1.2, 1.0), 0.8,
        potential.GaussianCoupling(0.15, 1.3, 0.6), n)
    box = ensemble.BoxContainer(0.0, 1.8)
    spec = ensemble.GibbsSpec(T=2.0)
    shares = ensemble.AdiabaticShares(v_pot)
    masses = np.full(n, MASS)
    provider = dynamics.CorrectedSurface(v_pot, MASS)
    models = [fields.CorrectedFieldModel(v_pot, j, MASS) for j in range(2)]
    mol = Mollifier(0.9)
    probes = np.mgrid[0.3:1.5:3j, 0.3:1.5:3j, 0.3:1.5:3j].reshape(3, -1).T
    qw = ensemble.surface_weights(spec, shares, masses, box, "reweighting",
                                  n_samples=500, seed=11)
    states = ensemble.GibbsSampler(spec, shares, masses, box).sample(
        16, seed=12, weights=qw)
    groups = [(float(qw.q[j]), [s for s in states if s.surface == j],
               provider, models[j]) for j in range(2)]
    groups = [g for g in groups if g[1]]
    rep = conservation.canonical_residuals(groups, mol, probes, dt_check,
                                           richardson=False)
    minus, plus = [], []
    for wt, sts, provider, model in groups:
        pairs = [conservation._neighbours(
            s, model, dynamics.force(provider, s.x, s.surface), dt_check)
            for s in sts]
        minus.append((wt, [sm for sm, _ in pairs]))
        plus.append((wt, [sp for _, sp in pairs]))
    central = fields.field_grid(
        [(wt, [fields.prepare_state(s.x, s.p, s.masses, model)
               for s in sts]) for wt, sts, _, model in groups],
        mol, probes, mode="ensemble")
    grid = _grid_dict(central)
    grid["stderr"] = {k: central.stderr[k].tolist()
                      for k in ("rho", "mom", "energy", "sigma", "q")}
    out = _report_dict(rep)
    out.update({"stderr_mass": rep.stderr_mass.tolist(),
                "stderr_mom": rep.stderr_mom.tolist(),
                "stderr_energy": rep.stderr_energy.tolist(),
                "masked": rep.masked.tolist()})
    neighbours = [_grid_dict(fields.field_grid(ens, mol, probes,
                                               mode="ensemble"))
                  for ens in (minus, plus)]
    return {"dt_check": dt_check, "q_weights": qw.q.tolist(),
            "grid": grid, "neighbours": neighbours, "report": out}


def _report_dict(rep):
    out = {"r_mass": rep.r_mass.tolist(), "r_mom": rep.r_mom.tolist(),
           "r_energy": rep.r_energy.tolist(), "scales": rep.scales}
    if rep.richardson_order is not None:
        out["richardson_order"] = rep.richardson_order
    return out


def _run_cli(tmp_dir, sub, output, cfg):
    """Run a CLI subcommand on ``cfg``; the output file.

    The output directory goes through the environment, so the config, and
    with it the hash stamped on the output, does not depend on ``tmp_dir``.
    """
    path = os.path.join(str(tmp_dir), "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    with mock.patch.dict(os.environ, {"MDFIELDS_OUTPUT_DIR": str(tmp_dir)}):
        assert cli.main([sub, path]) == 0
    with open(os.path.join(str(tmp_dir), output), "rb") as fh:
        return fh.read()


def fields_csv(tmp_dir, mass_parameter=None):
    extra = {"mollifier": {"epsilon": 0.8},
             "probes": {"origin": [0.1, 0.1, 0.0],
                        "spacing": [0.45, 0.5, 0.45], "shape": [3, 3, 2]}}
    if mass_parameter is not None:
        extra["mass_parameter"] = mass_parameter
    return _run_cli(tmp_dir, "fields", "fields.csv",
                    dict(PARTICLE_CFG, **extra)).decode()


def run_md_csv(tmp_dir):
    return _run_cli(tmp_dir, "run-md", "trajectory.csv",
                    dict(PARTICLE_CFG,
                         dynamics={"dt": 1e-3, "steps": 20, "surface": 0,
                                   "mass_parameter": MASS}))


def quantum_json(tmp_dir, sub):
    """``egorov.json`` or ``commutator.json`` of a QUANTUM config."""
    return _run_cli(tmp_dir, sub, QUANTUM[sub][0], QUANTUM[sub][1]).decode()


def gibbs_json(tmp_dir):
    return _run_cli(tmp_dir, "gibbs-fit", "gibbs.json", GIBBS).decode()


# ---------------------------------------------------------------------------
# comparisons

def _golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


def _golden_json(name):
    return json.loads(_golden(name))


def assert_field_close(new, old, what):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape, what
    # normwise per column: the last axes index the field's components
    cols = old.reshape(old.shape[0], -1)
    scale = np.max(np.abs(cols), axis=0)
    err = np.abs(new.reshape(cols.shape) - cols)
    bad = err > RTOL * scale
    assert not np.any(bad), (
        f"{what}: max normwise difference "
        f"{float(np.max(err / np.where(scale > 0, scale, 1.0))):.3e}")


def _ulp(v):
    return float(np.spacing(np.max(np.abs(np.asarray(v, dtype=float)))))


def residual_atol(grids, dt_check, law):
    """C_ULP ulps of the field over 2 dt_check, plus of the divergence."""
    field_key, div_key = LAW_FIELDS[law]
    f = max(_ulp(g[field_key]) for g in grids)
    div = max(_ulp(g[div_key]) for g in grids)
    return C_ULP * (f / (2.0 * dt_check) + div)


def assert_report_close(new, old, grids, dt_check):
    for law in LAW_FIELDS:
        atol = residual_atol(grids, dt_check, law)
        key = f"r_{law}"
        err = np.max(np.abs(np.asarray(new[key]) - np.asarray(old[key])))
        assert err <= atol, f"{key}: difference {err:.3e} above {atol:.3e}"
        err = abs(new["scales"][law] - old["scales"][law])
        assert err <= atol, f"scale {law}: difference {err:.3e}"
    if "richardson_order" in old:
        # order = log2(a / b) of the max residuals at dt_check and
        # dt_check / 2; with b about a / 4 and twice the tolerance at the
        # half step, first-order propagation gives 9 atol / (a ln 2)
        for law in LAW_FIELDS:
            atol = residual_atol(grids, dt_check, law)
            a = np.max(np.abs(old[f"r_{law}"]))
            tol = 9.0 * atol / (a * np.log(2.0))
            err = abs(new["richardson_order"][law]
                      - old["richardson_order"][law])
            assert err <= tol, f"order {law}: difference {err:.3e}"


def assert_numbers_close(new, old, what):
    """Equal keys, strings and flags; numbers within assert_field_close."""
    if isinstance(old, dict):
        assert sorted(new) == sorted(old), what
        for k in old:
            assert_numbers_close(new[k], old[k], f"{what} {k}")
    elif isinstance(old, (str, bool)):
        assert new == old, what
    else:
        assert_field_close(np.atleast_1d(new), np.atleast_1d(old), what)


def _parse_csv(text):
    lines = text.splitlines()
    rows = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
    return lines[0], lines[1], np.array(rows, dtype=float)


def assert_csv_close(new, old, what):
    stamp_n, head_n, vals_n = _parse_csv(new)
    stamp_o, head_o, vals_o = _parse_csv(old)
    assert (stamp_n, head_n) == (stamp_o, head_o), what
    assert_field_close(vals_n, vals_o, what)


def compare_traj(got, want):
    for new, old, when in zip(got["grids"], want["grids"],
                              ("minus", "central", "plus")):
        for k in FIELD_KEYS:
            assert_field_close(new[k], old[k], f"{when} {k}")
    assert_report_close(got["report"], want["report"], want["grids"],
                        want["dt_check"])


# ---------------------------------------------------------------------------
# tests

def test_traj_conserve():
    compare_traj(traj_conserve(), _golden_json("traj_conserve.json"))


def test_negative_control_bond_tol(monkeypatch):
    # a looser bond quadrature moves the fields by far more than the golden
    # tolerance, so the comparison must catch it
    monkeypatch.setattr(mollifier, "BOND_TOL", 1e-4)
    with pytest.raises(AssertionError):
        compare_traj(traj_conserve(), _golden_json("traj_conserve.json"))


def test_fields_cli_bare(tmp_path):
    assert_csv_close(fields_csv(tmp_path), _golden("fields_bare.csv"),
                     "fields bare")


def test_fields_cli_mass(tmp_path):
    assert_csv_close(fields_csv(tmp_path, MASS), _golden("fields_mass.csv"),
                     "fields mass_parameter")


def test_run_md_mass_bytes(tmp_path):
    with open(os.path.join(GOLDEN, "run_md_mass.csv"), "rb") as fh:
        assert run_md_csv(tmp_path) == fh.read()


def test_canonical_corrected():
    got, want = canonical(), _golden_json("canonical.json")
    assert got["q_weights"] == want["q_weights"]
    for k in FIELD_KEYS:
        assert_field_close(got["grid"][k], want["grid"][k], f"central {k}")
    for k, v in want["grid"]["stderr"].items():
        assert_field_close(got["grid"]["stderr"][k], v, f"stderr {k}")
    new, old = got["report"], want["report"]
    assert new["masked"] == old["masked"]
    for law in LAW_FIELDS:
        assert_field_close(new[f"stderr_{law}"], old[f"stderr_{law}"],
                           f"stderr_{law}")
    assert_report_close(new, old, [want["grid"]], want["dt_check"])
    for got_grid, want_grid, when in zip(got["neighbours"],
                                         want["neighbours"],
                                         ("minus", "plus")):
        for k in FIELD_KEYS:
            assert_field_close(got_grid[k], want_grid[k], f"{when} {k}")


@pytest.mark.parametrize("sub", sorted(QUANTUM))
def test_quantum_cli(tmp_path, sub):
    name = QUANTUM[sub][0]
    assert_numbers_close(json.loads(quantum_json(tmp_path, sub)),
                         _golden_json(name), name)


def test_gibbs_fit(tmp_path):
    assert_numbers_close(json.loads(gibbs_json(tmp_path)),
                         _golden_json("gibbs.json"), "gibbs.json")


# ---------------------------------------------------------------------------
# regeneration

def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)

    def dump(name, payload):
        with open(os.path.join(GOLDEN, name), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")

    dump("traj_conserve.json", traj_conserve())
    dump("canonical.json", canonical())
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("fields_bare.csv", fields_csv(tmp)),
                           ("fields_mass.csv", fields_csv(tmp, MASS))):
            with open(os.path.join(GOLDEN, name), "w") as fh:
                fh.write(text)
        for sub, (name, _) in QUANTUM.items():
            with open(os.path.join(GOLDEN, name), "w") as fh:
                fh.write(quantum_json(tmp, sub))
        with open(os.path.join(GOLDEN, "gibbs.json"), "w") as fh:
            fh.write(gibbs_json(tmp))
        with open(os.path.join(GOLDEN, "run_md_mass.csv"), "wb") as fh:
            fh.write(run_md_csv(tmp))


if __name__ == "__main__":
    regenerate()
