"""Spans and counters around mdfields entry points, installed from outside.

``Tracer.install`` replaces each entry point in ``ENTRIES`` with a wrapper
that times it while a job is open (``Tracer.job`` is not ``None``).  Every
call is folded into an aggregate keyed by (name, parent name): count, total
time and self time, where self time is the call's duration minus the time
its wrapped children cover.  Entries marked ``span`` also keep a span
record (job, id, parent id, name, start, end); the hot entries, called up to
millions of times a job, keep only the aggregate so the trace stays small.
"""

import functools
import importlib
import json
import time

import numpy as np

CALLS, SELF = ".calls", ".self_s"
BOTH = (CALLS, SELF)

# (module, attribute path, keep span records, per-layer metrics per job)
ENTRIES = [
    ("mollifier", "Mollifier.bond_integral", False, BOTH),
    ("mollifier", "Mollifier.bond_integral_grad", False, (SELF,)),
    ("fields", "prepare_state", True, BOTH),
    ("fields", "field_grid", True, (SELF,)),
    # private, but conservation calls it across the module boundary
    ("fields", "_raw_fields", True, BOTH),
    ("conservation", "per_trajectory_residuals", True, (SELF,)),
    ("conservation", "canonical_residuals", True, (SELF,)),
    ("potential", "eigendecompose", False, BOTH),
    ("potential", "surface_partition", False, BOTH),
    ("potential", "PairSumPotential.part", False, BOTH),
    ("potential", "PairSumPotential.evaluate", False, BOTH),
    ("potential", "PairSumPotential.deriv", False, (SELF,)),
    ("potential", "per_particle_gradients_all", False, (SELF,)),
    ("geometry", "pair_distances", False, BOTH),
    ("geometry", "lift_gradient_to_distances", False, (SELF,)),
    ("dynamics", "integrate", True, BOTH),
    ("dynamics", "CorrectedSurface.gradient", True, BOTH),
    ("dynamics", "AdiabaticSurface.gradient", True, (SELF,)),
    ("nonlinear_eigen", "solve_nonlinear_eigen", True, BOTH),
    ("ensemble", "GibbsSampler.log_x_density", False, BOTH),
    # reported only through its accept ratio
    ("ensemble", "metropolis_accept", False, ()),
    ("ensemble", "GibbsSampler.run_chain", True, BOTH),
    ("ensemble", "surface_weights", True, (SELF,)),
    ("ensemble", "GibbsSampler.sample", True, (SELF,)),
    ("ensemble", "match_thermo", True, (SELF,)),
    ("ensemble", "AdiabaticShares.shares", False, (SELF,)),
    ("quantum", "propagate", True, BOTH),
    ("quantum", "egorov_test", True, (SELF,)),
    ("quantum", "commutator_check", True, (SELF,)),
    ("cli", "main", True, BOTH),
]


def _owner(module, path):
    obj = module
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    return obj, parts[-1]


class Tracer:
    """Aggregates, span records and argument-derived counters of one run."""

    def __init__(self):
        # a frame is [name, child time, span id]; the root stands for the job
        self.stack = [[None, 0.0, None]]
        self.agg = {}
        self.spans = []
        self.job = None
        self._next_id = 0
        self._patched = []
        self.bond_pairs = 0
        self.bond_hits = 0
        self.integrate_steps = 0
        self.accepts = 0

    # -- argument and result hooks -------------------------------------

    def _bond_hits(self, args, kwargs):
        # the segment a-b meets the support ball of radius eps around y:
        # the test Mollifier._bond makes before any quadrature
        mol, y, a, b = args[:4]
        y = np.atleast_2d(np.asarray(y, dtype=float))
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = a - b
        seg2 = float(d @ d)
        w = y - b
        if seg2 == 0.0:
            hit = np.sum(w * w, axis=1) < mol.epsilon ** 2
        else:
            beta = (w @ d) / seg2
            hit = beta ** 2 - (np.sum(w * w, axis=1)
                               - mol.epsilon ** 2) / seg2 > 0.0
        self.bond_pairs += y.shape[0]
        self.bond_hits += int(np.count_nonzero(hit))

    def _integrate_steps(self, args, kwargs):
        self.integrate_steps += int(kwargs.get("steps", args[2]
                                               if len(args) > 2 else 0))

    def _accepted(self, out):
        self.accepts += bool(out)

    # -- installation --------------------------------------------------

    def install(self):
        hooks = {
            "mollifier.Mollifier.bond_integral": (self._bond_hits, None),
            "dynamics.integrate": (self._integrate_steps, None),
            "ensemble.metropolis_accept": (None, self._accepted),
        }
        for mod_name, path, span, _ in ENTRIES:
            module = importlib.import_module(f"mdfields.{mod_name}")
            owner, attr = _owner(module, path)
            fn = owner.__dict__[attr]
            name = f"{mod_name}.{path}"
            before, after = hooks.get(name, (None, None))
            setattr(owner, attr, self._wrap(name, fn, span, before, after))
            self._patched.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn, span, before, after):
        tracer = self
        stack = self.stack
        agg = self.agg
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            parent = stack[-1]
            if span:
                tracer._next_id += 1
                frame = [name, 0.0, tracer._next_id]
            else:
                frame = [name, 0.0, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                key = (name, parent[0])
                rec = agg.get(key)
                if rec is None:
                    agg[key] = [1, dur, dur - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]
                if span:
                    tracer.spans.append((tracer.job, frame[2], parent[2],
                                         name, t0, t1))
            if after is not None:
                after(out)
            return out

        return wrapper

    # -- results -------------------------------------------------------

    def totals(self, name):
        """(calls, self seconds) of ``name`` summed over its parents."""
        calls = self_s = 0
        for (n, _), (c, _, s) in self.agg.items():
            if n == name:
                calls += c
                self_s += s
        return calls, self_s

    def metrics(self, jobs):
        """Per-layer metrics, counts and times per job."""
        out = {}
        for mod_name, path, _, kinds in ENTRIES:
            name = f"{mod_name}.{path}"
            calls, self_s = self.totals(name)
            if CALLS in kinds:
                out[name + CALLS] = (calls / jobs, "count")
            if SELF in kinds:
                out[name + SELF] = (self_s / jobs, "s")
        out["mollifier.bond.probe_pairs"] = (self.bond_pairs / jobs, "count")
        out["mollifier.bond.hit_frac"] = (
            self.bond_hits / self.bond_pairs if self.bond_pairs else 0.0,
            "ratio")
        out["dynamics.integrate.steps"] = (self.integrate_steps / jobs,
                                           "count")
        solves, _ = self.totals("nonlinear_eigen.solve_nonlinear_eigen")
        nested = self.agg.get(("potential.eigendecompose",
                               "nonlinear_eigen.solve_nonlinear_eigen"),
                              [0])[0]
        out["nonlinear_eigen.eig_per_solve"] = (
            nested / solves if solves else 0.0, "1/solve")
        tries, _ = self.totals("ensemble.metropolis_accept")
        out["ensemble.metropolis_accept.accept_ratio"] = (
            self.accepts / tries if tries else 0.0, "ratio")
        return out

    def write(self, path):
        """Aggregates and span records as one JSON document."""
        doc = {
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t,
                 "self_s": s}
                for (n, p), (c, t, s) in sorted(
                    self.agg.items(), key=lambda kv: (kv[0][0],
                                                      kv[0][1] or ""))],
            "spans": [
                {"job": j, "id": i, "parent": pid, "name": n, "start": a,
                 "end": b}
                for j, i, pid, n, a, b in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
