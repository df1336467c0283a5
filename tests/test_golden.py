"""Golden outputs: the field pipeline against files frozen from a good run.

The files under ``tests/golden/`` hold:

- ``traj_conserve.json``: the three field grids (tau - dt_check, tau,
  tau + dt_check) and the Richardson residual report of one bare N = 8
  harmonic trajectory;
- ``fields_bare.csv`` and ``fields_mass.csv``: the ``fields`` CLI output on
  a four-particle two-state model, bare and with ``mass_parameter``;
- ``run_md_mass.csv``: a 20-step mass-corrected ``run-md`` trajectory;
- ``conserve_check.json`` and ``conserve_check.csv``: the
  ``conserve-check`` CLI outputs ``residuals.json`` and ``residuals.csv``
  on the bare two-state model of the ``fields`` goldens;
- ``canonical.json``: a tiny canonical report (N = 2, 16 states,
  mass-corrected) with its surface weights q and their standard errors,
  its ensemble field grids at tau (with stderr) and at tau - dt_check and
  tau + dt_check;
- ``egorov.json`` and ``commutator.json``: the ``egorov`` and
  ``commutator-check`` CLI outputs on the configs of the cli-md-quantum
  benchmark workload (``QUANTUM``);
- ``gibbs.json``: the ``gibbs-fit`` CLI output on the ideal-gas config of
  acceptance criterion 9 (``GIBBS``).

Tolerances:

- field values match at rtol 1e-12, taken normwise per column:
  |new - golden| <= 1e-12 * max |golden column|;
- every number of the quantum and gibbs-fit JSON outputs matches at rtol
  1e-12, normwise per list.  The commutator's ``abs_op_norm``,
  ``rel_op_norm`` and ``rel_packet_norm`` are roundoff, so a change that
  reorders the operator arithmetic regenerates them;
- residuals are central differences over 2 dt_check, so they amplify the
  roundoff of the fields.  They match within
  c * (ulp(max |F|) / (2 dt_check) + ulp(max |div F|)) per law, with F
  the law's field (rho, mom or E), c = C_ULP = 32 and, for
  ``canonical.json``, c = C_ULP_CANONICAL = 4.  Each c is at least 10
  times the largest move of its goldens' residuals when the particles,
  the states and the probes are permuted (2 and 0.4 units of the bracket),
  so a 1 % change of a law's residuals or a 1e-9 shift at one probe fails
  the per-trajectory goldens.  The conserve-check goldens hold no fields,
  so their bound reads the fields recomputed from the config; their
  provenance lines, headers, JSON keys, flags, counts and probe columns
  match exactly;
- the ``run-md`` trajectory CSV matches byte for byte.

After an intended change, regenerate with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose new payload fails its test's comparison
with the stored one, and prints, for each file, the largest normwise move
against the stored file (per column, as the comparisons measure it); for
``canonical.json`` it also prints each central field's largest move in
combined standard errors, from the stored and new ``grid.stderr``, and the
move of the surface weights q in combined standard errors from the stored
and new ``q_stderr``.  Report those before/after differences.
"""

import copy
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
C_ULP = 32.0
C_ULP_CANONICAL = 4.0
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
# the mollifier and probes of the fields and conserve-check goldens
PROBED = {"mollifier": {"epsilon": 0.8},
          "probes": {"origin": [0.1, 0.1, 0.0],
                     "spacing": [0.45, 0.5, 0.45], "shape": [3, 3, 2]}}
CONSERVE = dict(PARTICLE_CFG, dt_check=1e-4, **PROBED)
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


def _neighbour_states(st, model, dt_check):
    """Full states at tau - dt_check and tau + dt_check, stepped as the
    conservation check steps them: one Verlet step each way, opened by the
    model's force at tau and closed by the model's surface data, whose
    gradient is that of the check's ``at(x, j, fields=False)``; the
    backward step runs forward from the reversed momenta."""
    f = -model.gradient(st.x, model.j)
    m = st.masses[:, None]
    xm, pm, dm = dynamics.verlet_step(model.surface_data, st.x, -st.p, m, f,
                                      dt_check)
    xp, pp, dp = dynamics.verlet_step(model.surface_data, st.x, st.p, m, f,
                                      dt_check)
    return (fields.state_data(xm, -pm, st.masses, dm),
            fields.state_data(xp, pp, st.masses, dp))


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
    (sc,), _ = conservation._central([st], model)
    sm, sp = _neighbour_states(st, model, dt_check)
    grids = [_grid_dict(fields.field_grid([(1.0, [s])], mol, probes))
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
    for wt, sts, _, model in groups:
        pairs = [_neighbour_states(s, model, dt_check) for s in sts]
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
            "q_stderr": qw.stderr.tolist(), "grid": grid,
            "neighbours": neighbours, "report": out}


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
    extra = dict(PROBED)
    if mass_parameter is not None:
        extra["mass_parameter"] = mass_parameter
    return _run_cli(tmp_dir, "fields", "fields.csv",
                    dict(PARTICLE_CFG, **extra)).decode()


def conserve_check(tmp_dir):
    """``residuals.json`` and ``residuals.csv`` of ``conserve-check`` on
    ``CONSERVE``."""
    rep = _run_cli(tmp_dir, "conserve-check", "residuals.json", CONSERVE)
    with open(os.path.join(str(tmp_dir), "residuals.csv"), "rb") as fh:
        return rep, fh.read()


def conserve_grids():
    """The field grids at tau and tau +/- dt_check of ``CONSERVE``, which
    size the tolerance of its residuals."""
    st, model = cli._build_system(CONSERVE, CONSERVE)
    mol = Mollifier(CONSERVE["mollifier"]["epsilon"])
    probes = cli._build_probes(CONSERVE["probes"])
    (sc,), _ = conservation._central([st], model)
    sm, sp = _neighbour_states(st, model, CONSERVE["dt_check"])
    return [_grid_dict(fields.field_grid([(1.0, [s])], mol, probes))
            for s in (sm, sc, sp)]


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


def _column_errors(new, old):
    """|new - old| and max |old| per column, the last axes indexing the
    field's components."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    cols = old.reshape(old.shape[0], -1)
    return (np.abs(new.reshape(cols.shape) - cols),
            np.max(np.abs(cols), axis=0))


def normwise_move(new, old):
    """max |new - old| / max |old column| (a zero column scales by 1)."""
    err, scale = _column_errors(new, old)
    return float(np.max(err / np.where(scale > 0, scale, 1.0)))


def assert_field_close(new, old, what):
    assert np.shape(new) == np.shape(old), what
    err, scale = _column_errors(new, old)
    bad = err > RTOL * scale
    assert not np.any(bad), (
        f"{what}: max normwise difference {normwise_move(new, old):.3e}")


def _ulp(v):
    return float(np.spacing(np.max(np.abs(np.asarray(v, dtype=float)))))


def residual_atol(grids, dt_check, law, c_ulp=C_ULP):
    """``c_ulp`` ulps of the field over 2 dt_check, plus of the
    divergence."""
    field_key, div_key = LAW_FIELDS[law]
    f = max(_ulp(g[field_key]) for g in grids)
    div = max(_ulp(g[div_key]) for g in grids)
    return c_ulp * (f / (2.0 * dt_check) + div)


def assert_report_close(new, old, grids, dt_check, c_ulp=C_ULP):
    for law in LAW_FIELDS:
        atol = residual_atol(grids, dt_check, law, c_ulp)
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
            atol = residual_atol(grids, dt_check, law, c_ulp)
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


def compare_residuals_csv(new, old, grids):
    """``residuals.csv`` texts: provenance line, header, probes and mask
    exact, each law's residual columns within its C_ULP bound."""
    stamp_n, head_n, vals_n = _parse_csv(new)
    stamp_o, head_o, vals_o = _parse_csv(old)
    assert (stamp_n, head_n) == (stamp_o, head_o), "residuals.csv header"
    compare_residual_columns(vals_n, vals_o, head_o, grids)


def _law_columns(head, law):
    return [c.startswith(f"r_{law}") for c in head.split(",")]


def compare_residual_columns(vals_n, vals_o, head, grids):
    """Parsed ``residuals.csv`` rows: probes and mask exact, each law's
    residual columns within its C_ULP bound."""
    assert np.array_equal(vals_n[:, :4], vals_o[:, :4]), "probes and mask"
    for law in LAW_FIELDS:
        atol = residual_atol(grids, CONSERVE["dt_check"], law)
        keep = _law_columns(head, law)
        err = np.max(np.abs(vals_n[:, keep] - vals_o[:, keep]))
        assert err <= atol, f"r_{law}: difference {err:.3e} above {atol:.3e}"


def compare_residuals_json(new, old, grids):
    """Parsed ``residuals.json``: keys, flags, counts and provenance
    exact; norms and scales within the C_ULP bound of their law, the
    relative maxima and Richardson orders within its propagation."""
    assert sorted(new) == sorted(old), "residuals.json keys"
    for key, value in old.items():
        if isinstance(value, dict):
            assert sorted(new[key]) == sorted(value), key
        else:
            assert new[key] == value, key
    for law in LAW_FIELDS:
        atol = residual_atol(grids, old["dt_check"], law)
        scale, top = old["scales"][law], old["max_norms"][law]
        bounds = {"max_norms": atol, "rms_norms": atol, "scales": atol,
                  # first-order propagation of max_norms / scales
                  "relative_max": atol / scale * (1.0 + top / scale),
                  # as in assert_report_close, a the max residual
                  "richardson_order": 9.0 * atol / (top * np.log(2.0))}
        for key, bound in bounds.items():
            err = abs(new[key][law] - old[key][law])
            assert err <= bound, f"{key} {law}: difference {err:.3e}"


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


def perturbed(values, change):
    """A law's residuals times 1.01 ("scale"), or shifted by 1e-9 at the
    probe of the largest one ("shift")."""
    values = np.array(values, dtype=float)
    if change == "scale":
        return values * 1.01
    at = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    values[at] += 1e-9
    return values


NEGATIVE = pytest.mark.parametrize("law,change", [
    (law, change) for law in LAW_FIELDS for change in ("scale", "shift")])


@NEGATIVE
def test_negative_control_traj_residuals(law, change):
    # a 1 % or a 1e-9 change of one law's residuals exceeds the bound
    want = _golden_json("traj_conserve.json")
    got = copy.deepcopy(want)
    got["report"][f"r_{law}"] = perturbed(want["report"][f"r_{law}"],
                                          change).tolist()
    with pytest.raises(AssertionError):
        compare_traj(got, want)


def test_fields_cli_bare(tmp_path):
    assert_csv_close(fields_csv(tmp_path), _golden("fields_bare.csv"),
                     "fields bare")


def test_fields_cli_mass(tmp_path):
    assert_csv_close(fields_csv(tmp_path, MASS), _golden("fields_mass.csv"),
                     "fields mass_parameter")


def test_run_md_mass_bytes(tmp_path):
    with open(os.path.join(GOLDEN, "run_md_mass.csv"), "rb") as fh:
        assert run_md_csv(tmp_path) == fh.read()


def test_conserve_check_cli(tmp_path):
    rep, csv_bytes = conserve_check(tmp_path)
    grids = conserve_grids()
    compare_residuals_json(json.loads(rep),
                           _golden_json("conserve_check.json"), grids)
    compare_residuals_csv(csv_bytes.decode(), _golden("conserve_check.csv"),
                          grids)


@NEGATIVE
def test_negative_control_conserve_check(law, change):
    # as for traj_conserve.json, on the residual columns of the CSV and,
    # scaled, on the norms of the JSON
    grids = conserve_grids()
    _, head, vals = _parse_csv(_golden("conserve_check.csv"))
    moved = vals.copy()
    keep = _law_columns(head, law)
    moved[:, keep] = perturbed(vals[:, keep], change)
    with pytest.raises(AssertionError):
        compare_residual_columns(moved, vals, head, grids)
    if change == "scale":
        old = _golden_json("conserve_check.json")
        new = copy.deepcopy(old)
        for key in ("max_norms", "rms_norms", "relative_max"):
            new[key][law] *= 1.01
        with pytest.raises(AssertionError):
            compare_residuals_json(new, old, grids)


def compare_canonical(got, want):
    assert got["q_weights"] == want["q_weights"]
    assert_field_close(got["q_stderr"], want["q_stderr"], "q_stderr")
    for k in FIELD_KEYS:
        assert_field_close(got["grid"][k], want["grid"][k], f"central {k}")
    for k, v in want["grid"]["stderr"].items():
        assert_field_close(got["grid"]["stderr"][k], v, f"stderr {k}")
    new, old = got["report"], want["report"]
    assert new["masked"] == old["masked"]
    for law in LAW_FIELDS:
        assert_field_close(new[f"stderr_{law}"], old[f"stderr_{law}"],
                           f"stderr_{law}")
    assert_report_close(new, old, [want["grid"]], want["dt_check"],
                        C_ULP_CANONICAL)
    for got_grid, want_grid, when in zip(got["neighbours"],
                                         want["neighbours"],
                                         ("minus", "plus")):
        for k in FIELD_KEYS:
            assert_field_close(got_grid[k], want_grid[k], f"{when} {k}")


def test_canonical_corrected():
    compare_canonical(canonical(), _golden_json("canonical.json"))


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

def _moves(new, old, scale=None):
    """Normwise moves of every number list of two parsed JSON goldens.

    A report's residual r_<law> cancels two terms of the size of its law's
    scale, so, as in ``assert_report_close``, its move is measured against
    that scale rather than against the residual itself.
    """
    if isinstance(old, dict):
        scales = old.get("scales", {})
        return [m for k in old for m in _moves(
            new[k], old[k], scales.get(k[2:]) if k.startswith("r_") else None)]
    if isinstance(old, list) and old and isinstance(old[0], dict):
        return [m for n, o in zip(new, old) for m in _moves(n, o)]
    if isinstance(old, str):
        return []
    if scale is not None:
        return [float(np.max(np.abs(np.subtract(new, old)))) / scale]
    return [normwise_move(np.atleast_1d(new), np.atleast_1d(old))]


def largest_move(name, new, old):
    """Largest normwise move of golden ``name`` from bytes ``old`` to
    ``new``."""
    if name.endswith(".json"):
        moves = _moves(json.loads(new), json.loads(old))
    else:
        moves = [normwise_move(_parse_csv(new.decode())[2],
                               _parse_csv(old.decode())[2])]
    return max(moves, default=0.0)


def stderr_moves(new, old):
    """Largest move of each central field of two canonical goldens, and of
    their surface weights q ("q_weights"), in combined standard errors
    sqrt(se_new^2 + se_old^2) per value."""

    def move(new_v, old_v, new_se, old_se):
        diff = np.abs(np.subtract(new_v, old_v))
        se = np.hypot(new_se, old_se)
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.max(np.where(diff > 0, diff / se, 0.0)))

    out = {k: move(new["grid"][k], old["grid"][k],
                   new["grid"]["stderr"][k], se_old)
           for k, se_old in old["grid"]["stderr"].items()}
    out["q_weights"] = move(new["q_weights"], old["q_weights"],
                            new["q_stderr"], old["q_stderr"])
    return out


def _parsed(compare, parse=json.loads):
    """``compare`` applied to two golden payloads (bytes) after ``parse``."""
    return lambda new, old: compare(parse(new), parse(old))


def _passes(compare, new, old):
    try:
        compare(new, old)
    except AssertionError:
        return False
    return True


def regenerate():
    """Rewrite every golden whose new payload fails its test's comparison
    with the stored one; print each file's fate and move."""
    os.makedirs(GOLDEN, exist_ok=True)

    def write(name, payload, compare=None):
        """Write ``payload`` unless it passes ``compare`` (None: only equal
        bytes pass) against the stored file."""
        path = os.path.join(GOLDEN, name)
        old = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                old = fh.read()
        if old == payload:
            print(f"{name}: byte-identical")
            return
        if old is not None:
            move = largest_move(name, payload, old)
            if compare is not None and _passes(compare, payload, old):
                print(f"{name}: kept, the new payload passes its "
                      f"comparison (largest normwise move {move:.3e})")
                return
        with open(path, "wb") as fh:
            fh.write(payload)
        if old is None:
            print(f"{name}: new file")
            return
        print(f"{name}: largest normwise move {move:.3e}")
        if name == "canonical.json":
            moves = stderr_moves(json.loads(payload), json.loads(old))
            print(f"{name}: largest central move in combined standard "
                  "errors: " + ", ".join(f"{k} {v:.2f}"
                                         for k, v in moves.items()))

    def dump(name, data, compare):
        write(name, (json.dumps(data, indent=1, sort_keys=True)
                     + "\n").encode(), _parsed(compare))

    def numbers(name):
        return _parsed(lambda new, old: assert_numbers_close(new, old, name))

    dump("traj_conserve.json", traj_conserve(), compare_traj)
    dump("canonical.json", canonical(), compare_canonical)
    with tempfile.TemporaryDirectory() as tmp:
        for name, mass in (("fields_bare.csv", None),
                           ("fields_mass.csv", MASS)):
            write(name, fields_csv(tmp, mass).encode(), _parsed(
                lambda new, old, name=name: assert_csv_close(new, old, name),
                bytes.decode))
        for sub, (name, _) in QUANTUM.items():
            write(name, quantum_json(tmp, sub).encode(), numbers(name))
        write("gibbs.json", gibbs_json(tmp).encode(), numbers("gibbs.json"))
        write("run_md_mass.csv", run_md_csv(tmp))
        grids = conserve_grids()
        rep, csv_bytes = conserve_check(tmp)
        write("conserve_check.json", rep, _parsed(
            lambda new, old: compare_residuals_json(new, old, grids)))
        write("conserve_check.csv", csv_bytes, _parsed(
            lambda new, old: compare_residuals_csv(new, old, grids),
            bytes.decode))


if __name__ == "__main__":
    regenerate()
