"""Span tracer that wraps opgraph's public functions from outside the program.

Each wrapper records a span (name, start, end, parent) around one call.  Every
span is folded into per-name totals at once: call count, total seconds and
self seconds, where self time is the span's duration minus the time its child
spans cover.  The fine-grained spans (tensor construction, primitive and graph
hops, the TV prox) number in the millions on the calibration workload, so only
the coarser spans are kept as records and written out when the run ends.

A function is wrapped where it is looked up: ``graph.prim_forward`` is the
name ``GraphOperator.forward`` calls, ``calibration.reconstruct`` the name the
calibration objective calls, and so on.  ``Tracer.uninstall`` puts every
original back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

PRIMITIVE_KINDS = (
    "Modulate", "Disperse", "Accumulate", "Detect", "Project", "Encode", "Sample", "Convolve",
)

# spans under these prefixes are only aggregated, never kept as records
_FINE = ("tensor.", "primitives.", "graph.forward", "graph.adjoint", "solvers.tv_prox")

# calibration stage functions -> stage_trace stage their objective evals count for
_STAGES = {
    "calibration.sweep_1d": "sweep",
    "calibration.beam_search": "beam",
    "calibration.coordinate_descent": "cd",
    "calibration.refine": "refine",
    # alg2 scores its seed grid and warm start inline, before any refinement
    "calibration.calibrate_alg2": "seeds",
}
STAGE_NAMES = ("sweep", "beam", "cd", "seeds", "refine")


class Tracer:
    def __init__(self):
        self.stack = []           # open frames: [name, span_id, child_seconds]
        self.n = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.records = []         # kept spans: (id, parent_id, name, start, end)
        self.span_count = 0
        self.extra = defaultdict(float)   # tensor bytes, iterations, hashed bytes
        self.stage_evals = defaultdict(int)
        self.thetas = set()
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self.span_count += 1
        frame = [name, self.span_count, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self.stack.pop()
        name = frame[0]
        dur = end - start
        self.n[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if not name.startswith(_FINE):
            self.records.append((frame[1], parent[1] if parent else 0, name, start, end))

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(result, args) runs inside it for counters.

        ``name`` is a string, or a function of the call's arguments.
        """
        clock = time.perf_counter
        name_of = name if callable(name) else (lambda _args: name)

        def wrapper(*args, **kwargs):
            frame = self._enter(name_of(args))
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                self._exit(frame, start, clock())

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- installation --------------------------------------------------------

    def install(self):
        from opgraph import calibration, cli, graph, metrics, primitives, protocol
        from opgraph import runbundle, solvers, templates, triad
        from opgraph.tensor import Tensor

        extra = self.extra

        def tensor_bytes(_result, args):
            extra["tensor.bytes_copied"] += args[0].data.nbytes

        self.patch(Tensor, "__post_init__",
                   lambda f: self.span("tensor.construct", f, after=tensor_bytes))

        def kind(direction):
            return lambda args: f"primitives.{direction}.{args[0].kind.value}"

        for owner in (graph, primitives):
            self.patch(owner, "prim_forward", lambda f: self.span(kind("fwd"), f))
        for owner in (graph, solvers, primitives):
            self.patch(owner, "prim_adjoint", lambda f: self.span(kind("adj"), f))

        for owner in (graph, templates):
            self.patch(owner, "compile_graph", lambda f: self.span("graph.compile", f))
        self.patch(graph.GraphOperator, "forward", lambda f: self.span("graph.forward", f))
        self.patch(graph.GraphOperator, "adjoint", lambda f: self.span("graph.adjoint", f))
        self.patch(templates.Template, "operator", lambda f: self.span("templates.operator", f))

        def iters(result, _args):
            extra["solvers.iters"] += result.iters_run

        for owner in (solvers, calibration, protocol, triad):
            self.patch(owner, "reconstruct",
                       lambda f: self.span("solvers.reconstruct", f, after=iters))
        self.patch(solvers, "tv_prox", lambda f: self.span("solvers.tv_prox", f))
        for owner in (solvers, calibration, protocol):
            self.patch(owner, "power_iteration", lambda f: self.span("solvers.power_iteration", f))

        for owner in (metrics, calibration, triad):
            self.patch(owner, "psnr", lambda f: self.span("metrics.psnr", f))
        self.patch(metrics, "ssim", lambda f: self.span("metrics.ssim", f))
        for owner in (metrics, triad):
            self.patch(owner, "bootstrap_ci", lambda f: self.span("metrics.bootstrap", f))
        # the scenario protocol bootstraps rho with its own resampling loop
        self.patch(protocol, "_rho_ci", lambda f: self.span("metrics.bootstrap", f))

        self.patch(calibration._Objective, "__call__", self._eval_span)
        for name in ("sweep_1d", "beam_search", "coordinate_descent"):
            self.patch(calibration, name,
                       lambda f, n=name: self.span(f"calibration.{n}", f))
        self.patch(calibration, "_refine", lambda f: self.span("calibration.refine", f))
        for owner in (calibration, protocol):
            for name in ("calibrate_alg1", "calibrate_alg2"):
                self.patch(owner, name, lambda f, n=name: self.span(f"calibration.{n}", f))

        self.patch(protocol, "run_scenarios", lambda f: self.span("protocol.run_scenarios", f))
        self.patch(triad, "materialize", lambda f: self.span("triad.materialize", f))
        self.patch(triad, "score_recoverability",
                   lambda f: self.span("triad.recoverability", f))
        self.patch(triad, "sensitivity", lambda f: self.span("triad.sensitivity", f))
        self.patch(triad, "diagnose", lambda f: self.span("triad.diagnose", f))

        def hashed(_result, args):
            extra["runbundle.bytes_hashed"] += args[0].stat().st_size

        self.patch(runbundle, "_sha256", lambda f: self.span("runbundle.sha256", f, after=hashed))
        self.patch(runbundle, "write_runbundle", lambda f: self.span("runbundle.write", f))
        self.patch(runbundle, "verify_runbundle", lambda f: self.span("runbundle.verify", f))
        self.patch(cli, "main", lambda f: self.span("cli.main", f))

    def _eval_span(self, fn):
        inner = self.span("calibration.eval", fn)

        def call(obj, theta):
            stage = next(
                (_STAGES[f[0]] for f in reversed(self.stack) if f[0] in _STAGES), "other"
            )
            self.stage_evals[stage] += 1
            self.thetas.add((id(obj), tuple(theta)))
            return inner(obj, theta)

        return call

    # -- results -------------------------------------------------------------

    def per_layer(self, rounds: int) -> dict:
        """Per-round layer metrics as {name: (value, unit)}."""
        def per(v):
            return v / rounds

        out = {
            "tensor.construct_n": (per(self.n["tensor.construct"]), "count"),
            "tensor.construct_s": (per(self.self_s["tensor.construct"]), "s"),
            "tensor.bytes_copied": (per(self.extra["tensor.bytes_copied"]), "B"),
        }
        for direction in ("fwd", "adj"):
            for kind in PRIMITIVE_KINDS:
                name = f"primitives.{direction}.{kind}"
                out[f"{name}_n"] = (per(self.n[name]), "count")
                out[f"{name}_s"] = (per(self.self_s[name]), "s")
        for name in ("graph.compile", "graph.forward", "graph.adjoint", "templates.operator",
                     "solvers.reconstruct"):
            out[f"{name}_n"] = (per(self.n[name]), "count")
            out[f"{name}_s"] = (per(self.self_s[name]), "s")
        out["solvers.iters"] = (per(self.extra["solvers.iters"]), "count")
        for name in ("solvers.tv_prox", "solvers.power_iteration", "metrics.psnr",
                     "metrics.ssim"):
            out[f"{name}_n"] = (per(self.n[name]), "count")
            out[f"{name}_s"] = (per(self.self_s[name]), "s")
        out["metrics.bootstrap_s"] = (per(self.self_s["metrics.bootstrap"]), "s")

        evals = self.n["calibration.eval"]
        out["calibration.evals"] = (per(evals), "count")
        out["calibration.eval_s"] = (
            self.total["calibration.eval"] / evals if evals else 0.0, "s")
        out["calibration.distinct_theta_ratio"] = (
            len(self.thetas) / evals if evals else 0.0, "ratio")
        for stage in STAGE_NAMES:
            out[f"calibration.evals_{stage}"] = (per(self.stage_evals[stage]), "count")

        out["protocol.run_scenarios_n"] = (per(self.n["protocol.run_scenarios"]), "count")
        out["protocol.run_scenarios_s"] = (per(self.self_s["protocol.run_scenarios"]), "s")
        out["triad.materialize_n"] = (per(self.n["triad.materialize"]), "count")
        out["triad.materialize_s"] = (per(self.self_s["triad.materialize"]), "s")
        out["triad.recoverability_s"] = (per(self.self_s["triad.recoverability"]), "s")
        out["triad.sensitivity_n"] = (per(self.n["triad.sensitivity"]), "count")
        out["triad.sensitivity_s"] = (per(self.self_s["triad.sensitivity"]), "s")
        # hashing is part of writing or verifying a bundle
        out["runbundle.write_s"] = (per(self.total["runbundle.write"]), "s")
        out["runbundle.verify_s"] = (per(self.total["runbundle.verify"]), "s")
        out["runbundle.bytes_hashed"] = (per(self.extra["runbundle.bytes_hashed"]), "B")
        out["cli.main_n"] = (per(self.n["cli.main"]), "count")
        out["cli.main_s"] = (per(self.self_s["cli.main"]), "s")
        return out

    def write(self, path) -> None:
        """Kept spans as JSON lines, then one line of per-name totals."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.records:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            totals = {name: {"n": self.n[name], "total_s": self.total[name],
                             "self_s": self.self_s[name]} for name in sorted(self.n)}
            fh.write(json.dumps({"totals": totals, "spans": self.span_count}) + "\n")


def span_cost(samples: int = 20000) -> float:
    """Seconds one wrapper adds to a call, from timing a wrapped no-op."""
    def noop():
        return None

    clock = time.perf_counter
    start = clock()
    for _ in range(samples):
        noop()
    bare = clock() - start
    wrapped = Tracer().span("probe", noop)
    start = clock()
    for _ in range(samples):
        wrapped()
    return max(0.0, (clock() - start - bare) / samples)
