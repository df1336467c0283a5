import json

import numpy as np
import pytest

from mdfields import cli, conservation, dynamics, fields
from mdfields.mollifier import Mollifier


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def two_state_particles():
    # pair distances near the coupling range so corrections are active
    rng = np.random.default_rng(11)
    x = np.array([
        [0.0, 0.0, 0.0],
        [1.1, 0.1, 0.0],
        [0.2, 1.0, 0.2],
        [1.0, 1.1, 0.9],
    ])
    p = rng.normal(scale=0.2, size=(4, 3))
    return {"positions": x.tolist(), "momenta": p.tolist(), "masses": 1.0}


def conserve_config(out_dir):
    return {
        "model": {
            "kind": "two_state",
            "pair": {"kind": "morse", "d_e": 1.0, "a": 1.2, "r0": 1.0},
            "gap": 0.8,
            "coupling": {"c0": 0.15, "rc": 1.3, "w": 0.6},
        },
        "particles": two_state_particles(),
        "mollifier": {"epsilon": 0.8},
        "probes": {"origin": [0.1, 0.1, 0.0], "spacing": [0.45, 0.5, 0.45],
                   "shape": [3, 3, 2]},
        "dt_check": 1e-4,
        "surface": 0,
        "tolerance": 1e-5,
        "seed": 7,
        "output_dir": out_dir,
    }


def run_md_config(out_dir):
    return {
        "model": {
            "kind": "scalar",
            "pair": {"kind": "harmonic", "kappa": 1.0, "r0": 1.0},
        },
        "particles": {
            "positions": [[0.0, 0.0, 0.0], [1.2, 0.0, 0.0]],
            "momenta": [[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]],
            "masses": 1.0,
        },
        "dynamics": {"dt": 1e-3, "steps": 50, "surface": 0},
        "seed": 3,
        "output_dir": out_dir,
    }


def fields_config(out_dir):
    cfg = conserve_config(out_dir)
    del cfg["dt_check"], cfg["tolerance"]
    return cfg


def run(tmp_path, sub, cfg):
    """Run subcommand ``sub`` on ``cfg``; its exit code."""
    return cli.main([sub, write_config(tmp_path, cfg)])


def read_csv(path):
    """The named columns of a CSV output, below its provenance line."""
    return np.genfromtxt(path, delimiter=",", names=True, skip_header=1)


# config, CSV output, first header column and row count per subcommand
CSV_OUTPUTS = {
    "run-md": (run_md_config, "trajectory.csv", "tau", 51),
    "fields": (fields_config, "fields.csv", "y_1", 18),
    "conserve-check": (conserve_config, "residuals.csv", "y_1", 18),
}


@pytest.mark.parametrize("sub", list(CSV_OUTPUTS))
def test_csv_written_with_stamp(tmp_path, sub):
    config, name, first, rows = CSV_OUTPUTS[sub]
    cfg = config(str(tmp_path))
    assert run(tmp_path, sub, cfg) == 0
    out = (tmp_path / name).read_bytes()
    lines = out.split(b"\n")
    # provenance line, header, then one line per row, each ending in \n
    assert lines[0].startswith(b"# config_sha256=")
    assert f"seed={cfg['seed']}".encode() in lines[0]
    assert lines[1].split(b",")[0] == first.encode()
    assert b"\r" not in out
    assert lines[-1] == b"" and len(lines) == 2 + rows + 1


class TestConfigValidation:
    def test_negative_epsilon_exit_2(self, tmp_path, capsys):
        cfg = conserve_config(str(tmp_path))
        cfg["mollifier"]["epsilon"] = -0.5
        code = cli.main(["conserve-check", write_config(tmp_path, cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "epsilon" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = run_md_config(str(tmp_path))
        cfg["typo_key"] = 1
        code = cli.main(["run-md", write_config(tmp_path, cfg)])
        assert code == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["run-md", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["run-md", str(tmp_path / "absent.json")]) == 2


class TestRunMd:
    def test_csv_roundtrip(self, tmp_path):
        cfg = run_md_config(str(tmp_path))
        assert run(tmp_path, "run-md", cfg) == 0
        state, surf = cli._build_system(cfg, cfg["dynamics"])
        dyn = cfg["dynamics"]
        tr = dynamics.integrate(state, dyn["dt"], dyn["steps"], surf)
        data = read_csv(tmp_path / "trajectory.csv")
        assert data.dtype.names[0] == "tau"
        assert data.dtype.names[-1] == "energy"
        np.testing.assert_allclose(data["energy"], tr.energies, rtol=1e-15)
        np.testing.assert_allclose(data["x_4"], tr.positions[:, 1, 0],
                                   rtol=1e-15)

    def test_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            cfg = run_md_config(str(d))
            assert cli.main(["run-md",
                             write_config(tmp_path, cfg,
                                          name=f"{d.name}.json")]) == 0
        # output bytes depend only on the physics content of the config
        t1 = (d1 / "trajectory.csv").read_bytes().split(b"\n", 1)[1]
        t2 = (d2 / "trajectory.csv").read_bytes().split(b"\n", 1)[1]
        assert t1 == t2

    def test_identical_config_identical_bytes(self, tmp_path):
        cfg = run_md_config(str(tmp_path))
        path = write_config(tmp_path, cfg)
        assert cli.main(["run-md", path]) == 0
        first = (tmp_path / "trajectory.csv").read_bytes()
        assert cli.main(["run-md", path]) == 0
        assert (tmp_path / "trajectory.csv").read_bytes() == first


class TestFields:
    def test_fields_csv(self, tmp_path):
        cfg = fields_config(str(tmp_path))
        code = cli.main(["fields", write_config(tmp_path, cfg)])
        assert code == 0
        lines = (tmp_path / "fields.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1].split(",")[:4] == ["y_1", "y_2", "y_3", "rho"]
        assert len(lines) == 2 + 3 * 3 * 2

    def test_csv_export(self, tmp_path):
        cfg = fields_config(str(tmp_path))
        assert run(tmp_path, "fields", cfg) == 0
        state, surf = cli._build_system(cfg, cfg)
        mol = Mollifier(cfg["mollifier"]["epsilon"])
        probes = cli._build_probes(cfg["probes"])
        sd = fields.prepare_state(state.x, state.p, state.masses, surf)
        grid = fields.field_grid([(1.0, sd)], mol, probes)
        data = read_csv(tmp_path / "fields.csv")
        assert "sigma_12" in data.dtype.names
        np.testing.assert_allclose(data["rho"], grid.rho, rtol=1e-15)


class TestConserveCheck:
    def test_two_state_end_to_end(self, tmp_path):
        cfg = conserve_config(str(tmp_path))
        code = cli.main(["conserve-check", write_config(tmp_path, cfg)])
        assert code == 0
        rep = json.loads((tmp_path / "residuals.json").read_text())
        assert rep["passed"] is True
        assert rep["config_sha256"]
        assert max(rep["relative_max"].values()) <= 1e-5
        assert (tmp_path / "residuals.csv").exists()

    def test_tolerance_failure_exit_1(self, tmp_path):
        cfg = conserve_config(str(tmp_path))
        cfg["tolerance"] = 1e-16
        code = cli.main(["conserve-check", write_config(tmp_path, cfg)])
        assert code == 1

    def test_all_vacuum_probes_exit_2(self, tmp_path):
        # probes outside every particle's mollifier support check nothing:
        # a config error before any output, not a pass on zero residuals
        cfg = conserve_config(str(tmp_path))
        cfg["probes"] = {"origin": [50.0, 50.0, 50.0],
                         "spacing": [0.5, 0.5, 0.5], "shape": [2, 2, 2]}
        assert run(tmp_path, "conserve-check", cfg) == 2
        assert not (tmp_path / "residuals.json").exists()
        assert not (tmp_path / "residuals.csv").exists()

    def test_json_and_csv(self, tmp_path):
        cfg = conserve_config(str(tmp_path))
        assert run(tmp_path, "conserve-check", cfg) == 0
        state, surf = cli._build_system(cfg, cfg)
        mol = Mollifier(cfg["mollifier"]["epsilon"])
        probes = cli._build_probes(cfg["probes"])
        rep = conservation.per_trajectory_residuals(
            state, surf, surf, mol, probes, cfg["dt_check"])
        data = json.loads((tmp_path / "residuals.json").read_text())
        assert data["mode"] == "per-trajectory"
        assert data["n_probes"] == 18
        rows = read_csv(tmp_path / "residuals.csv")
        np.testing.assert_allclose(rows["r_mass"], rep.r_mass, rtol=1e-15)


@pytest.fixture(scope="class")
def gibbs_record(tmp_path_factory):
    """Exit code and ``gibbs.json`` of one ideal-gas gibbs-fit."""
    tmp_path = tmp_path_factory.mktemp("gibbs")
    cfg = {
        "container": {"lo": 0.0, "hi": 3.0},
        "targets": {"rho": 1.0, "rho_u": [0.0, 0.0, 0.0], "E": 1.2},
        "temperature_guess": 1.0,
        "mass": 1.0,
        "n_samples": 20000,
        "seed": 5,
        "output_dir": str(tmp_path),
    }
    code = cli.main(["gibbs-fit", write_config(tmp_path, cfg)])
    return code, json.loads((tmp_path / "gibbs.json").read_text())


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGibbsFit:
    def test_ideal_gas_fit(self, gibbs_record):
        code, rec = gibbs_record
        assert code == 0
        assert abs(rec["achieved"]["rho"] - 1.0) <= 0.02
        assert abs(rec["achieved"]["E"] - 1.2) <= 0.024
        assert rec["q_weights"] == [1.0]

    def test_record_keys(self, gibbs_record):
        _, rec = gibbs_record
        assert sorted(rec) == ["T", "achieved", "config_sha256", "mode",
                               "mu", "probe", "q_weights", "seed", "stderr",
                               "u0"]
        assert sorted(rec["achieved"]) == ["E", "rho", "rho_u"]
        assert rec["stderr"] == {}


class TestQuantumCommands:
    def egorov_config(self, out_dir):
        L = 4.0 * np.pi
        return {
            "grid": {"x0": -L / 2.0, "length": L},
            "potential": {"a0": 1.0, "cos": [[1, -1.0]]},
            "observable": [{"cos": [[1, 0.5]]}, {"const": 0.3},
                           {"const": 1.0}],
            "masses": [100.0, 1000.0, 10000.0],
            "t_final": 1.0,
            "packet": {"x0": 0.4, "p0": 0.5},
            "seed": 0,
            "output_dir": out_dir,
        }

    def test_egorov(self, tmp_path):
        code = cli.main(["egorov",
                         write_config(tmp_path,
                                      self.egorov_config(str(tmp_path)))])
        assert code == 0
        rep = json.loads((tmp_path / "egorov.json").read_text())
        assert rep["passed"] is True
        assert rep["slope"] <= -0.8

    def test_egorov_equal_masses_exit_2(self, tmp_path):
        cfg = dict(self.egorov_config(str(tmp_path)), masses=[100.0, 100.0])
        code = cli.main(["egorov", write_config(tmp_path, cfg)])
        assert code == 2
        assert not (tmp_path / "egorov.json").exists()

    def test_commutator(self, tmp_path):
        L = 4.0 * np.pi
        cfg = {
            "grid": {"x0": -L / 2.0, "length": L, "n": 256},
            "potential": {"a0": 1.0, "cos": [[1, -1.0]]},
            "observable": [{"a0": 0.3, "cos": [[1, 0.4]]}, {"const": 0.2}],
            "mass": 1000.0,
            "seed": 0,
            "output_dir": str(tmp_path),
        }
        code = cli.main(["commutator-check", write_config(tmp_path, cfg)])
        assert code == 0
        rep = json.loads((tmp_path / "commutator.json").read_text())
        assert rep["rel_op_norm"] <= 1e-8

    def test_grid_limit_exit_3(self, tmp_path):
        L = 4.0 * np.pi
        cfg = {
            "grid": {"x0": -L / 2.0, "length": L, "n": 4096},
            "potential": {"a0": 1.0, "cos": [[1, -1.0]]},
            "observable": [{"const": 1.0}],
            "mass": 1000.0,
            "output_dir": str(tmp_path),
        }
        code = cli.main(["commutator-check", write_config(tmp_path, cfg)])
        assert code == 3

    def test_json_determinism(self, tmp_path):
        cfg = self.egorov_config(str(tmp_path))
        path = write_config(tmp_path, cfg)
        assert cli.main(["egorov", path]) == 0
        first = (tmp_path / "egorov.json").read_bytes()
        assert cli.main(["egorov", path]) == 0
        assert (tmp_path / "egorov.json").read_bytes() == first
