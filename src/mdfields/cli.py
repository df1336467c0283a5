"""Configuration-driven command line front end.

Subcommands: run-md, fields, conserve-check, gibbs-fit, egorov,
commutator-check.  Configs are single JSON documents validated against
strict schemas (unknown keys rejected).  Every output embeds the SHA-256
hash of the config and the seed, and outputs are byte-identical across
reruns with the same config.

Exit codes: 0 success, 1 tolerance failure, 2 config error, 3 physics
error.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np
from jsonschema import Draft202012Validator

from . import conservation, dynamics, ensemble, fields, potential, quantum
from .errors import InvalidParameterError, MDFieldsError, PhysicsError
from .mollifier import Mollifier

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_PHYSICS = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# schemas

_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_NUM = {"type": "number"}
_VEC3 = {"type": "array", "items": _NUM, "minItems": 3, "maxItems": 3}

_PAIR = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["harmonic", "morse", "lennard_jones", "constant"]},
        "kappa": _POS_NUM,
        "r0": _POS_NUM,
        "d_e": _POS_NUM,
        "a": _POS_NUM,
        "epsilon": _POS_NUM,
        "sigma": _POS_NUM,
        "value": _NUM,
    },
}

_MODEL = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "pair"],
    "properties": {
        "kind": {"enum": ["scalar", "two_state"]},
        "pair": _PAIR,
        "gap": _POS_NUM,
        "coupling": {
            "type": "object",
            "additionalProperties": False,
            "required": ["c0", "rc", "w"],
            "properties": {"c0": _NUM, "rc": _POS_NUM, "w": _POS_NUM},
        },
    },
}

_PARTICLES = {
    "type": "object",
    "additionalProperties": False,
    "required": ["positions", "masses"],
    "properties": {
        "positions": {"type": "array", "items": _VEC3, "minItems": 1},
        "momenta": {"type": "array", "items": _VEC3, "minItems": 1},
        "masses": {
            "anyOf": [_POS_NUM,
                      {"type": "array", "items": _POS_NUM, "minItems": 1}],
        },
    },
}

_DYNAMICS = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dt", "steps"],
    "properties": {
        "dt": _POS_NUM,
        "steps": {"type": "integer", "minimum": 1},
        "surface": {"type": "integer", "minimum": 0},
        "mass_parameter": _POS_NUM,
    },
}

_MOLLIFIER = {
    "type": "object",
    "additionalProperties": False,
    "required": ["epsilon"],
    "properties": {"epsilon": _POS_NUM},
}

_PROBES = {
    "type": "object",
    "additionalProperties": False,
    "required": ["origin", "spacing", "shape"],
    "properties": {
        "origin": _VEC3,
        "spacing": {"type": "array", "items": _POS_NUM,
                    "minItems": 3, "maxItems": 3},
        "shape": {"type": "array",
                  "items": {"type": "integer", "minimum": 1},
                  "minItems": 3, "maxItems": 3},
    },
}

_MODE_AMP = {
    "type": "array",
    "prefixItems": [{"type": "integer", "minimum": 1}, _NUM],
    "items": False,
    "minItems": 2,
}

_TRIG = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "a0": _NUM,
        "const": _NUM,
        "cos": {"type": "array", "items": _MODE_AMP},
        "sin": {"type": "array", "items": _MODE_AMP},
    },
}

_COMMON = {
    "seed": {"type": "integer", "minimum": 0},
    "output_dir": {"type": "string"},
}

SCHEMAS = {
    "run-md": {
        "type": "object",
        "additionalProperties": False,
        "required": ["model", "particles", "dynamics"],
        "properties": {"model": _MODEL, "particles": _PARTICLES,
                       "dynamics": _DYNAMICS, **_COMMON},
    },
    "fields": {
        "type": "object",
        "additionalProperties": False,
        "required": ["model", "particles", "mollifier", "probes"],
        "properties": {"model": _MODEL, "particles": _PARTICLES,
                       "mollifier": _MOLLIFIER, "probes": _PROBES,
                       "surface": {"type": "integer", "minimum": 0},
                       "mass_parameter": _POS_NUM, **_COMMON},
    },
    "conserve-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["model", "particles", "mollifier", "probes",
                     "dt_check"],
        "properties": {"model": _MODEL, "particles": _PARTICLES,
                       "mollifier": _MOLLIFIER, "probes": _PROBES,
                       "dt_check": _POS_NUM,
                       "surface": {"type": "integer", "minimum": 0},
                       "mass_parameter": _POS_NUM,
                       "tolerance": _POS_NUM, **_COMMON},
    },
    "gibbs-fit": {
        "type": "object",
        "additionalProperties": False,
        "required": ["container", "targets", "temperature_guess", "mass"],
        "properties": {
            "container": {
                "type": "object",
                "additionalProperties": False,
                "required": ["lo", "hi"],
                "properties": {"lo": _NUM, "hi": _NUM},
            },
            "targets": {
                "type": "object",
                "additionalProperties": False,
                "required": ["rho", "rho_u", "E"],
                "properties": {"rho": _POS_NUM, "rho_u": _VEC3,
                               "E": _POS_NUM},
            },
            "temperature_guess": _POS_NUM,
            "mass": _POS_NUM,
            "n_samples": {"type": "integer", "minimum": 100},
            **_COMMON,
        },
    },
    "egorov": {
        "type": "object",
        "additionalProperties": False,
        "required": ["grid", "potential", "observable", "masses",
                     "t_final", "packet"],
        "properties": {
            "grid": {
                "type": "object",
                "additionalProperties": False,
                "required": ["x0", "length"],
                "properties": {"x0": _NUM, "length": _POS_NUM},
            },
            "potential": _TRIG,
            "observable": {"type": "array", "items": _TRIG, "minItems": 1},
            "masses": {"type": "array", "items": _POS_NUM, "minItems": 2},
            "t_final": _POS_NUM,
            "packet": {
                "type": "object",
                "additionalProperties": False,
                "required": ["x0", "p0"],
                "properties": {"x0": _NUM, "p0": _NUM},
            },
            "slope_tolerance": _NUM,
            **_COMMON,
        },
    },
    "commutator-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["grid", "potential", "observable", "mass"],
        "properties": {
            "grid": {
                "type": "object",
                "additionalProperties": False,
                "required": ["x0", "length", "n"],
                "properties": {"x0": _NUM, "length": _POS_NUM,
                               "n": {"type": "integer", "minimum": 4}},
            },
            "potential": _TRIG,
            "observable": {"type": "array", "items": _TRIG, "minItems": 1},
            "mass": _POS_NUM,
            "tolerance": _POS_NUM,
            **_COMMON,
        },
    },
}


# ---------------------------------------------------------------------------
# builders

def _build_pair(cfg):
    kind = cfg["kind"]
    try:
        if kind == "harmonic":
            return potential.Harmonic(cfg["kappa"], cfg["r0"])
        if kind == "morse":
            return potential.Morse(cfg["d_e"], cfg["a"], cfg["r0"])
        if kind == "lennard_jones":
            return potential.LennardJones(cfg["epsilon"], cfg["sigma"])
        return potential.Constant(cfg["value"])
    except KeyError as exc:
        raise ConfigError(f"pair kind {kind!r} needs parameter {exc}") \
            from exc


def _build_model(cfg, n):
    pair = _build_pair(cfg["pair"])
    if cfg["kind"] == "scalar":
        return potential.make_scalar_pair_model(pair, n)
    try:
        cp = cfg["coupling"]
        coupling = potential.GaussianCoupling(cp["c0"], cp["rc"], cp["w"])
        return potential.make_two_state_model(pair, cfg["gap"], coupling, n)
    except KeyError as exc:
        raise ConfigError(f"two_state model needs key {exc}") from exc


def _build_state(cfg):
    x = np.asarray(cfg["positions"], dtype=float)
    n = x.shape[0]
    m = cfg["masses"]
    masses = np.full(n, float(m)) if np.isscalar(m) \
        else np.asarray(m, dtype=float)
    if masses.shape != (n,):
        raise ConfigError("masses must match the number of particles")
    p = np.asarray(cfg.get("momenta", np.zeros((n, 3))), dtype=float)
    if p.shape != (n, 3):
        raise ConfigError("momenta must match positions")
    return dynamics.PhaseState(x=x, p=p, masses=masses)


def _build_probes(cfg):
    origin = np.asarray(cfg["origin"], dtype=float)
    spacing = np.asarray(cfg["spacing"], dtype=float)
    shape = cfg["shape"]
    axes = [origin[c] + spacing[c] * np.arange(shape[c]) for c in range(3)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _build_surface(model_cfg, n, surface, mass_parameter):
    """Surface ``surface`` of the model, bare or mass-corrected.

    The field model serves both Verlet (``at``) and the fields
    (``surface_data``).
    """
    v_pot = _build_model(model_cfg, n)
    if surface >= v_pot.d:
        raise ConfigError(f"surface {surface} out of range for a "
                          f"{v_pot.d}-state model")
    if mass_parameter is None:
        return fields.AdiabaticFieldModel(v_pot, surface)
    return fields.CorrectedFieldModel(v_pot, surface, mass_parameter)


def _build_coeff(cfg, length):
    if "const" in cfg:
        if any(k in cfg for k in ("a0", "cos", "sin")):
            raise ConfigError("coefficient cannot mix const with trig terms")
        return quantum.const_coeff(cfg["const"])
    return quantum.trig_coeff(length, a0=cfg.get("a0", 0.0),
                              cos_terms=cfg.get("cos", ()),
                              sin_terms=cfg.get("sin", ()))


def _build_symbol(coeff_list, length):
    return quantum.Symbol([_build_coeff(c, length) for c in coeff_list])


# ---------------------------------------------------------------------------
# output helpers

def _config_hash(raw_text):
    return hashlib.sha256(raw_text.encode("utf-8")).hexdigest()


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _stamp_csv(path, cfg_hash, seed):
    # prepend the provenance/units comment line required on numeric outputs
    with open(path) as fh:
        body = fh.read()
    with open(path, "w") as fh:
        fh.write(f"# config_sha256={cfg_hash} seed={seed} units=reduced\n")
        fh.write(body)


def _out(cfg, args, name):
    out_dir = os.environ.get("MDFIELDS_OUTPUT_DIR",
                             cfg.get("output_dir", "."))
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# ---------------------------------------------------------------------------
# subcommand handlers (return process exit code)

def _cmd_run_md(cfg, cfg_hash, args):
    state = _build_state(cfg["particles"])
    dyn = cfg["dynamics"]
    surf = _build_surface(cfg["model"], state.x.shape[0],
                          dyn.get("surface", 0), dyn.get("mass_parameter"))
    state.surface = dyn.get("surface", 0)
    traj = dynamics.integrate(state, dyn["dt"], dyn["steps"], surf)
    path = _out(cfg, args, "trajectory.csv")
    traj.to_csv(path)
    _stamp_csv(path, cfg_hash, cfg.get("seed", 0))
    return EXIT_OK


def _cmd_fields(cfg, cfg_hash, args):
    state = _build_state(cfg["particles"])
    surf = _build_surface(cfg["model"], state.x.shape[0],
                          cfg.get("surface", 0), cfg.get("mass_parameter"))
    mol = Mollifier(cfg["mollifier"]["epsilon"])
    probes = _build_probes(cfg["probes"])
    sd = fields.prepare_state(state.x, state.p, state.masses, surf)
    grid = fields.field_grid([(1.0, [sd])], mol, probes,
                             mode="per-trajectory")
    path = _out(cfg, args, "fields.csv")
    grid.to_csv(path)
    _stamp_csv(path, cfg_hash, cfg.get("seed", 0))
    return EXIT_OK


def _cmd_conserve_check(cfg, cfg_hash, args):
    state = _build_state(cfg["particles"])
    surf = _build_surface(cfg["model"], state.x.shape[0],
                          cfg.get("surface", 0), cfg.get("mass_parameter"))
    state.surface = cfg.get("surface", 0)
    mol = Mollifier(cfg["mollifier"]["epsilon"])
    probes = _build_probes(cfg["probes"])
    rep = conservation.per_trajectory_residuals(
        state, surf, surf, mol, probes, cfg["dt_check"])
    jpath = _out(cfg, args, "residuals.json")
    cpath = _out(cfg, args, "residuals.csv")
    payload = rep.to_json_dict()
    payload["config_sha256"] = cfg_hash
    payload["seed"] = cfg.get("seed", 0)
    tol = cfg.get("tolerance", 1e-6)
    rel = rep.relative_max()
    payload["tolerance"] = tol
    payload["passed"] = bool(all(v <= tol for v in rel.values()))
    _write_json(jpath, payload)
    rep.to_csv(cpath)
    _stamp_csv(cpath, cfg_hash, cfg.get("seed", 0))
    return EXIT_OK if payload["passed"] else EXIT_TOLERANCE


def _cmd_gibbs_fit(cfg, cfg_hash, args):
    cont = ensemble.BoxContainer(cfg["container"]["lo"],
                                 cfg["container"]["hi"])
    targets = cfg["targets"]
    template = ensemble.GibbsSpec(T=cfg["temperature_guess"])
    surfaces = ensemble.ZeroSurfaces()
    masses = np.array([cfg["mass"]])
    n_samples = cfg.get("n_samples", 100_000)
    spec, achieved = ensemble.match_thermo(
        targets["rho"], np.asarray(targets["rho_u"], dtype=float),
        targets["E"], template, surfaces, masses, cont,
        n_samples=n_samples, seed=cfg.get("seed", 0))
    weights = ensemble.SurfaceWeights(q=np.ones(1), stderr=np.zeros(1))
    rec = json.loads(ensemble.matched_spec_to_json(spec, weights, achieved))
    rec["config_sha256"] = cfg_hash
    rec["seed"] = cfg.get("seed", 0)
    _write_json(_out(cfg, args, "gibbs.json"), rec)
    return EXIT_OK


def _cmd_egorov(cfg, cfg_hash, args):
    length = cfg["grid"]["length"]
    v = _build_coeff(cfg["potential"], length)
    sym = _build_symbol(cfg["observable"], length)
    rep = quantum.egorov_test(
        v, sym, cfg["masses"], cfg["packet"]["x0"], cfg["packet"]["p0"],
        cfg["t_final"], cfg["grid"]["x0"], length)
    tol = cfg.get("slope_tolerance", -0.8)
    rep["slope_tolerance"] = tol
    rep["passed"] = bool(rep["slope"] <= tol)
    rep["config_sha256"] = cfg_hash
    rep["seed"] = cfg.get("seed", 0)
    _write_json(_out(cfg, args, "egorov.json"), rep)
    return EXIT_OK if rep["passed"] else EXIT_TOLERANCE


def _cmd_commutator_check(cfg, cfg_hash, args):
    gc = cfg["grid"]
    grid = quantum.QuantumGrid(gc["x0"], gc["length"], gc["n"])
    v = _build_coeff(cfg["potential"], gc["length"])
    h = quantum.kinetic_plus_potential(v)
    a = _build_symbol(cfg["observable"], gc["length"])
    hbar = quantum.hbar_eff(cfg["mass"])
    rep = quantum.commutator_check(h, a, grid, hbar)
    tol = cfg.get("tolerance", 1e-8)
    rep["tolerance"] = tol
    rep["passed"] = bool(rep["rel_op_norm"] <= tol)
    rep["config_sha256"] = cfg_hash
    rep["seed"] = cfg.get("seed", 0)
    _write_json(_out(cfg, args, "commutator.json"), rep)
    return EXIT_OK if rep["passed"] else EXIT_TOLERANCE


_HANDLERS = {
    "run-md": _cmd_run_md,
    "fields": _cmd_fields,
    "conserve-check": _cmd_conserve_check,
    "gibbs-fit": _cmd_gibbs_fit,
    "egorov": _cmd_egorov,
    "commutator-check": _cmd_commutator_check,
}


def _validate(subcommand, cfg):
    validator = Draft202012Validator(SCHEMAS[subcommand])
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.absolute_path) or "(root)"
        raise ConfigError(f"config error at {where}: {e.message}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mdfields",
        description="continuum fields and classical-limit checks for "
                    "matrix-potential particle systems")
    parser.add_argument("subcommand", choices=sorted(_HANDLERS))
    parser.add_argument("config", help="path to a JSON config file")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = fh.read()
        cfg = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        _validate(args.subcommand, cfg)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _HANDLERS[args.subcommand](cfg, _config_hash(raw), args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except MDFieldsError as exc:
        # remaining package errors (grid/symbol limits) are model problems
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
