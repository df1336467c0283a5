import json

import numpy as np
import pytest

from mdfields import cli


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
    def test_trajectory_written_with_stamp(self, tmp_path):
        cfg = run_md_config(str(tmp_path))
        code = cli.main(["run-md", write_config(tmp_path, cfg)])
        assert code == 0
        out = (tmp_path / "trajectory.csv").read_text()
        first, second = out.splitlines()[:2]
        assert first.startswith("# config_sha256=")
        assert "seed=3" in first
        assert second.split(",")[0] == "tau"
        # 50 steps -> 51 rows after the comment and header
        assert len(out.splitlines()) == 53

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
        cfg = conserve_config(str(tmp_path))
        del cfg["dt_check"], cfg["tolerance"]
        code = cli.main(["fields", write_config(tmp_path, cfg)])
        assert code == 0
        lines = (tmp_path / "fields.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1].split(",")[:4] == ["y_1", "y_2", "y_3", "rho"]
        assert len(lines) == 2 + 3 * 3 * 2


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


class TestGibbsFit:
    def test_ideal_gas_fit(self, tmp_path):
        import warnings
        cfg = {
            "container": {"lo": 0.0, "hi": 3.0},
            "targets": {"rho": 1.0, "rho_u": [0.0, 0.0, 0.0], "E": 1.2},
            "temperature_guess": 1.0,
            "mass": 1.0,
            "n_samples": 20000,
            "seed": 5,
            "output_dir": str(tmp_path),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(["gibbs-fit", write_config(tmp_path, cfg)])
        assert code == 0
        rec = json.loads((tmp_path / "gibbs.json").read_text())
        assert abs(rec["achieved"]["rho"] - 1.0) <= 0.02
        assert abs(rec["achieved"]["E"] - 1.2) <= 0.024
        assert rec["q_weights"] == [1.0]


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
