"""Span tracer installed from the benchmark's side of coopt's boundaries.

Wrappers replace the names coopt's callers look up, so coopt itself is
unchanged.  Each span records name, start, end, parent and job.  Hot calls
(matvec, rk4_step, normalize_policy, effective_hamiltonian) are aggregated
per parent as a count plus total time, so the oscillator's 1.6 million
matvecs take a few nodes of memory, not a span each.  Self time is a node's
duration minus the time its children cover.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, job, info]
        self.hot = {}  # (parent, name) -> [id, calls, total_s, work]
        self.job = None
        self._stack = [0]  # 0 is the root outside every job
        self._next_id = 1

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def span(self, name, fn, info=None):
        """Wrap fn so each call records a span; info(result, args, kwargs)
        returns counts derived from the call's own result."""

        def wrapper(*args, **kwargs):
            sid = self._new_id()
            parent = self._stack[-1]
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            self.spans.append([sid, name, start, end, parent, self.job,
                               info(result, args, kwargs) if info else None])
            return result

        return wrapper

    def aggregate(self, name, fn, work=None):
        """Wrap a hot fn: calls under one parent share one counting node;
        work(*args) adds to the node's work total."""

        def wrapper(*args, **kwargs):
            parent = self._stack[-1]
            node = self.hot.get((parent, name))
            if node is None:
                node = self.hot[(parent, name)] = [self._new_id(), 0, 0.0, 0]
            self._stack.append(node[0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                node[2] += perf_counter() - start
                node[1] += 1
                if work is not None:
                    node[3] += work(*args)
                self._stack.pop()

        return wrapper

    def summary(self) -> "Summary":
        return Summary(self)

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
                 "job": s[5], "info": s[6]}
                for s in self.spans
            ],
            "aggregated": [
                {"id": node[0], "name": name, "parent": parent, "calls": node[1],
                 "total_s": node[2], "work": node[3]}
                for (parent, name), node in self.hot.items()
            ],
        }


class Summary:
    """Per-name totals of one traced pass."""

    def __init__(self, tracer: Tracer):
        self.name_of, self.parent_of = {}, {}
        duration, child = {}, defaultdict(float)
        self._calls, self._total, self._work = defaultdict(int), defaultdict(float), defaultdict(int)
        self._info = defaultdict(lambda: defaultdict(int))
        for sid, name, start, end, parent, _, info in tracer.spans:
            self.name_of[sid], self.parent_of[sid] = name, parent
            duration[sid] = end - start
            child[parent] += end - start
            self._calls[name] += 1
            self._total[name] += end - start
            for key, value in (info or {}).items():
                self._info[name][key] += value
        for (parent, name), (nid, calls, total, work) in tracer.hot.items():
            self.name_of[nid], self.parent_of[nid] = name, parent
            duration[nid] = total
            child[parent] += total
            self._calls[name] += calls
            self._total[name] += total
            self._work[name] += work
        self._self = defaultdict(float)
        for nid, d in duration.items():
            self._self[self.name_of[nid]] += d - child[nid]
        self._hot = tracer.hot

    def calls(self, name) -> int:
        return self._calls[name]

    def total(self, name) -> float:
        return self._total[name]

    def self_s(self, name) -> float:
        return self._self[name]

    def work(self, name) -> int:
        return self._work[name]

    def info(self, name, key) -> int:
        return self._info[name][key]

    def us_per_call(self, name) -> float:
        return self.total(name) / self.calls(name) * 1e6 if self.calls(name) else 0.0

    def calls_in(self, name, parent) -> int:
        """Calls of a hot name made directly by a span of the parent name."""
        return sum(node[1] for (pid, node_name), node in self._hot.items()
                   if node_name == name and self.name_of.get(pid) == parent)

    def calls_under(self, name, ancestor) -> int:
        """Calls of a hot name with a span of the ancestor name above them."""
        count = 0
        for (parent, node_name), node in self._hot.items():
            if node_name != name:
                continue
            while parent and self.name_of.get(parent) != ancestor:
                parent = self.parent_of.get(parent, 0)
            count += node[1] if parent else 0
        return count


def _evolve_coupled_steps(result, args, kwargs):
    # The benchmark records every step, so each step adds one point after t = 0.
    points, _ = result
    return {"steps": len(points) - 1}


def _sweep_info(result, args, kwargs):
    max_iter = kwargs.get("max_iter", 10000)
    rows = result.rows
    return {
        "cells": len(rows),
        "converged": sum(r.converged for r in rows),
        "at_max_iter": sum((not r.converged) and r.iterations == max_iter for r in rows),
    }


def _written_bytes(path_index):
    def info(result, args, kwargs):
        path = args[path_index] if len(args) > path_index else kwargs.get("path")
        return {"bytes": os.path.getsize(path) if path is not None else 0}

    return info


def install(tracer: Tracer, coopt) -> list:
    """Replace coopt's names with traced wrappers; returns what restore()
    needs to put the originals back."""
    cli, continuous, discrete, equilibrium, fileio, model, numerics = (
        coopt.cli, coopt.continuous, coopt.discrete, coopt.equilibrium,
        coopt.fileio, coopt.model, coopt.numerics,
    )
    span, aggregate = tracer.span, tracer.aggregate
    square = lambda op, v: op.matrix.shape[0] ** 2  # noqa: E731
    targets = [
        # (namespaces the callers look the name up in, attribute, wrapper factory)
        ((cli,), "main", lambda f: span("cli.main", f)),
        ((continuous,), "rk4_step", lambda f: aggregate("numerics.rk4_step", f)),
        ((continuous,), "effective_hamiltonian",
         lambda f: aggregate("continuous.effective_hamiltonian", f)),
        ((continuous,), "evolve_linear",
         lambda f: span("continuous.evolve_linear", f)),
        ((continuous,), "evolve_coupled",
         lambda f: span("continuous.evolve_coupled", f, _evolve_coupled_steps)),
        ((continuous,), "write_trajectory_csv", lambda f: span("fileio.trace_csv", f, _written_bytes(0))),
        ((discrete.IterationTrace,), "write_csv", lambda f: span("fileio.trace_csv", f, _written_bytes(1))),
        ((discrete,), "normalize_policy", lambda f: aggregate("discrete.normalize_policy", f)),
        ((discrete, equilibrium), "iterate_to_fixed_point",
         lambda f: span("discrete.iterate_to_fixed_point", f)),
        ((equilibrium,), "alpha_sweep", lambda f: span("equilibrium.alpha_sweep", f, _sweep_info)),
        ((equilibrium,), "epsilon_of_profile", lambda f: span("equilibrium.epsilon_of_profile", f)),
        ((equilibrium,), "social_welfare", lambda f: span("equilibrium.social_welfare", f)),
        ((equilibrium,), "enumerate_pure_nash", lambda f: span("equilibrium.enumerate_pure_nash", f)),
        ((fileio,), "load_problem", lambda f: span("fileio.load_problem", f)),
        ((fileio,), "load_hamiltonian", lambda f: span("fileio.load_hamiltonian", f)),
        ((fileio,), "load_profile", lambda f: span("fileio.load_profile", f)),
        ((fileio,), "write_document", lambda f: span("fileio.write_document", f, _written_bytes(1))),
        ((model, fileio, cli, equilibrium), "validate", lambda f: span("model.validate", f)),
        ((model, cli, equilibrium), "to_utility_model", lambda f: span("model.to_utility_model", f)),
        ((numerics.DenseSymmetric,), "matvec",
         lambda f: aggregate("numerics.DenseSymmetric.matvec", f, square)),
        ((numerics.Diagonal,), "matvec", lambda f: aggregate("numerics.Diagonal.matvec", f)),
        ((numerics,), "jacobi_eigen", lambda f: span("numerics.jacobi_eigen", f)),
    ]
    saved = []
    for namespaces, attr, make in targets:
        original = getattr(namespaces[0], attr)
        wrapper = make(original)
        for ns in namespaces:
            saved.append((ns, attr, ns.__dict__[attr]))
            setattr(ns, attr, wrapper)
    return saved


def restore(saved: list) -> None:
    for ns, attr, original in reversed(saved):
        setattr(ns, attr, original)


def layer_metrics(s: Summary, evolve_s: float) -> dict:
    """Per-layer metrics of one traced pass; evolve_s is the traced wall
    time of the pass's evolve jobs."""
    dense = "numerics.DenseSymmetric.matvec"
    fixed_point = "discrete.iterate_to_fixed_point"
    sweep = "equilibrium.alpha_sweep"
    # Counted from observed calls, not read from coopt's results, so the
    # consistency checks compare the trace with coopt's outputs.  The map
    # normalizes once per iteration; each pass of evolve_linear's loop takes
    # one residual matvec, and the last pass takes no step.
    iterations = s.calls_in("discrete.normalize_policy", fixed_point)
    linear_steps = sum(s.calls_in(m, "continuous.evolve_linear")
                       for m in (dense, "numerics.Diagonal.matvec"))
    linear_steps -= s.calls("continuous.evolve_linear")
    cells = s.info(sweep, "cells")
    matvec_s = s.total(dense) + s.total("numerics.Diagonal.matvec")
    return {
        "numerics.rk4_step.calls": s.calls("numerics.rk4_step"),
        "numerics.rk4_step.us_per_call": s.us_per_call("numerics.rk4_step"),
        "numerics.rk4_step.self_share_of_evolve":
            s.self_s("numerics.rk4_step") / evolve_s if evolve_s else 0.0,
        "numerics.matvec.share_of_evolve": matvec_s / evolve_s if evolve_s else 0.0,
        "continuous.evolve_linear.steps": linear_steps,
        "continuous.evolve_linear.self_s": s.self_s("continuous.evolve_linear"),
        f"{dense}.calls": s.calls(dense),
        f"{dense}.us_per_call": s.us_per_call(dense),
        f"{dense}.flops_computed": 2 * s.work(dense),
        f"{dense}.bytes_computed": 8 * s.work(dense),
        "numerics.jacobi_eigen.s": s.total("numerics.jacobi_eigen"),
        f"{fixed_point}.calls": s.calls(fixed_point),
        f"{fixed_point}.iterations": iterations,
        f"{fixed_point}.self_us_per_iter":
            s.self_s(fixed_point) / iterations * 1e6 if iterations else 0.0,
        "discrete.normalize_policy.calls": s.calls("discrete.normalize_policy"),
        "discrete.normalize_policy.us_per_call": s.us_per_call("discrete.normalize_policy"),
        f"{sweep}.cells": cells,
        f"{sweep}.cells_at_max_iter": s.info(sweep, "at_max_iter"),
        f"{sweep}.converged_ratio": s.info(sweep, "converged") / cells if cells else 0.0,
        f"{sweep}.self_s": s.self_s(sweep),
        "equilibrium.epsilon_of_profile.us_per_call": s.us_per_call("equilibrium.epsilon_of_profile"),
        "equilibrium.social_welfare.us_per_call": s.us_per_call("equilibrium.social_welfare"),
        "equilibrium.enumerate_pure_nash.us_per_call":
            s.us_per_call("equilibrium.enumerate_pure_nash"),
        "continuous.evolve_coupled.steps": s.info("continuous.evolve_coupled", "steps"),
        "continuous.evolve_coupled.self_s": s.self_s("continuous.evolve_coupled"),
        "continuous.effective_hamiltonian.calls": s.calls("continuous.effective_hamiltonian"),
        "continuous.effective_hamiltonian.us_per_call":
            s.us_per_call("continuous.effective_hamiltonian"),
        "numerics.Diagonal.matvec.calls": s.calls("numerics.Diagonal.matvec"),
        "fileio.load_problem.s": s.total("fileio.load_problem"),
        "fileio.load_hamiltonian.s": s.total("fileio.load_hamiltonian"),
        "fileio.load_profile.s": s.total("fileio.load_profile"),
        "fileio.write_document.s": s.total("fileio.write_document"),
        "fileio.out.bytes": s.info("fileio.write_document", "bytes"),
        "fileio.trace_csv.s": s.total("fileio.trace_csv"),
        "fileio.trace_csv.bytes": s.info("fileio.trace_csv", "bytes"),
        "model.validate.s": s.total("model.validate"),
        "model.to_utility_model.s": s.total("model.to_utility_model"),
        "cli.main.self_s": s.self_s("cli.main"),
        "trace.unattributed_s": s.self_s("job"),
    }


def write_spans(path, tracers) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump([t.dump() for t in tracers], f)
