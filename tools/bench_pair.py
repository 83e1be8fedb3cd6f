"""Benchmark two commits side by side and write a BENCH json.

    python3 tools/bench_pair.py --base 24c63e7 --head HEAD --out BENCH_6.json

Both commits are exported with ``git archive``.  The head's ``perfbench/`` and
``BENCHMARK.json`` are laid over the base's export, so one harness measures
both programs, and each export's ``src/`` is byte-compiled before anything
runs.  Standard library only.  What each key holds:

``nproc``, ``platform``, ``revisions``, ``harness``: the machine, each commit
and its source tree, and the commit and ``perfbench`` tree both exports run.

``seconds``, ``seeds``, ``order``, ``workloads``: perfbench in one process per
run and export, ten pairs per workload at seeds 11-20, 5 s per run, even pairs
base first: each end-to-end metric's runs, median, quartiles and head wins
(ties count for neither), each run's rounds, and the ``breakdown`` figures,
equal to perfbench's 6 significant digits or not, with their largest drift.
From BENCH_39 on ``setup_s`` times importing bytecode, not compiling source,
so it no longer grows with the source size as perfbench's own runs do.

``trace``: per workload and export, the median of three traced one-round
perfbench runs at seeds 11-13; ``trace.meaning`` says what some figures count.

``power_iterations``: in one child process per export (perfbench's workloads
import ``opgraph`` by that name), the spectral-norm estimates of rounds 1 and 2
of each workload at seed 11.

``src_lines``: each export's ``wc -l src/opgraph/*.py``.

The next five come from ``PROBE``, one process that imports both exports'
``src`` as ``opgraph_base`` and ``opgraph_head``.  ``fista_forwards``: per tree,
the forwards and restarts of one FISTA-TV solve per modality at size 16.
``solve_psnr``: per tree, the PSNR of one noisy solve per TV-solved template at
sizes 16 and 32, seeds 0-2, and the head's drift.  ``block_kernels``: on the
head, each node kind's block kernel against its K solo calls (best of 5) at
K = 1, 2, 8 and 32, and whether their bytes agree.  ``radon_kernels``: per
tree, the ct Radon table's bytes and the tracemalloc peak and output hash of
one forward, one adjoint and one table build plus adjoint at sizes 16 and 48,
and the ct adjoint certificates at sizes 8, 16 and 64; under ``rows``, the
ABBA rows of those six calls (up to BENCH_38, times from ten process pairs).
``solve_ab``: the ABBA rows of one solve per TV-solved template at size 48 and
one K = 8 cassi-16 calibration block.  All ABBA rows share one loop: each
repeat times every row base, head, head, base or the reverse, alternately, in
a row order that rotates.  A row gives ``process_time`` and ``perf_counter``
seconds, whether the trees' outputs agree byte for byte, and the median
head/base ``process_time`` ratio with its percentile-bootstrap interval, which
holds at 95 % for all rows together (Bonferroni); only a row whose interval
excludes 1 is a gain or a loss.

``cli_outputs``: ``scenario``, ``diagnose`` and ``calibrate`` runs, one child
process each per export: whether their result files are byte-identical, wall
seconds (process start included) and peak RSS (``os.wait4``'s ``ru_maxrss``),
and where files differ, the largest numeric drift overall, over PSNR fields and
per top-level key (the eval counts go under ``counts``), with every field that
differs otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 11
SECONDS = 5.0
WORKLOADS = ("calib16", "recon48", "protocol16")
TRACE_WORKLOADS = WORKLOADS
TRACE_RUNS = 3
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
# breakdown figures of a deterministic program: equal seeds, equal values
# (compared as perfbench prints them, to 6 significant digits)
REPEATABLE = ("calib_evals", "calib_psnr_db", "recon_psnr_db", "scenario_psnr_db")
TRACED = ("tensor.construct_n", "tensor.construct_s", "tensor.bytes_copied",
          "solvers.tv_prox_n", "solvers.tv_prox_s", "solvers.reconstruct_n",
          "solvers.reconstruct_s", "solvers.power_iteration_n", "solvers.power_iteration_s",
          "solvers.iters",
          "graph.forward_n", "graph.forward_s", "graph.adjoint_n", "graph.adjoint_s",
          *(f"primitives.{d}.{k}_{u}" for d in ("fwd", "adj")
            for k in ("Project", "Modulate", "Accumulate", "Disperse") for u in ("n", "s")),
          "graph.compile_n", "graph.compile_s", "templates.operator_s",
          "calibration.evals", "calibration.eval_s", "calibration.evals_seeds",
          "calibration.evals_refine", "calibration.distinct_theta_ratio", "calib_evals",
          "calibrate_s",
          "triad.materialize_n", "triad.materialize_s", "triad.recoverability_s",
          "triad.sensitivity_n", "scenario_s", "diagnose_s", "trace.wall_s")
# What traced figures whose meaning depends on how the program calls its kernels
# count; written with the figures so that a BENCH says which fields changed meaning.
TRACE_MEANING = {
    "primitives.{fwd,adj}.<kind>_n": (
        "kernel calls: on a program with block operators (graph.compile_block), one "
        "per node per block forward or adjoint, however many candidates the block "
        "stacks, and one per lone-operator call (its block of one); on a program "
        "without them, one per candidate"),
    "primitives.{fwd,adj}.<kind>_s": "self seconds of those kernel calls",
    "graph.forward_n, graph.adjoint_n": (
        "Tensor-level GraphOperator.forward/adjoint calls; solver iterations and "
        "block runners do not pass through them"),
    "tensor.bytes_copied": (
        "bytes copied into Tensors; a program with block operators builds spc's "
        "pattern tensor once per template, not once per operator"),
    "solvers.power_iteration_n": (
        "spectral-norm estimates made in one traced run, which is one round, the "
        "first; a program that keeps each operator's estimate saves only where a "
        "round estimates one operator twice (protocol16: 12 at a program that "
        "re-estimates on every pin, 10 at one that keeps them), not where later "
        "rounds reuse an earlier round's operators (recon48); ``power_iterations`` "
        "counts rounds 1 and 2"),
}
# result-file counts that ``cli_outputs`` reports under ``counts``, so ``drift``
# leaves them out
COUNT_FIELDS = ("evals", "distinct_evals")
# CLI runs whose result files must not change; flags after the subcommand
CLI_CASES = (
    ("scenario", ["--modality", "spc", "--size", "16", "--theta-true", "0.012"],
     ("scenario_result.json", "triad_report.json")),
    ("scenario", ["--modality", "ct", "--size", "16", "--theta-true", "3.0"],
     ("scenario_result.json", "triad_report.json")),
    # the cacti builder, with its template's FISTA-TV solves and alg1 calibration
    ("scenario", ["--modality", "cacti", "--size", "16", "--theta-true", "1.0", "-0.5"],
     ("scenario_result.json", "triad_report.json")),
    # Encode, Sample, Convolve and the noise path
    ("scenario", ["--modality", "mri", "--size", "16", "--theta-true", "0.05", "--noisy"],
     ("scenario_result.json", "triad_report.json")),
    ("scenario", ["--modality", "lensless", "--size", "16", "--theta-true", "1.0", "--noisy"],
     ("scenario_result.json", "triad_report.json")),
    # an odd size: the TV prox's band-axis last-index slots sit at odd,
    # unaligned flat strides
    ("scenario", ["--modality", "cassi", "--size", "17", "--theta-true",
                  "0.5", "0.3", "0.1", "2.02", "0.15", "--calib", "none"],
     ("scenario_result.json", "triad_report.json")),
    # FISTA-TV past 4096 input elements: every scenario and diagnose solve runs alone
    ("scenario", ["--modality", "cacti", "--size", "33", "--theta-true", "1.0", "-0.5",
                  "--calib", "none", "--scenes", "2"],
     ("scenario_result.json", "triad_report.json")),
    # the only case that runs the adjoint-map solver and its real projection
    ("scenario", ["--modality", "mri", "--size", "16", "--theta-true", "0.05",
                  "--solver", "adjoint"],
     ("scenario_result.json", "triad_report.json")),
    # names the template's own solver, so it should equal the run without --solver
    ("scenario", ["--modality", "spc", "--size", "16", "--theta-true", "0.012",
                  "--solver", "fista_tv", "--calib", "none"],
     ("scenario_result.json", "triad_report.json")),
    ("calibrate", ["--modality", "spc", "--size", "16", "--theta-true", "0.012",
                   "--calib", "alg1"],
     ("calib_result.json",)),
    ("calibrate", ["--modality", "cassi", "--size", "16", "--theta-true",
                   "0.5", "0.3", "0.1", "2.02", "0.15", "--calib", "alg1"],
     ("calib_result.json",)),
    # alg2 with FBP solves
    ("calibrate", ["--modality", "ct", "--size", "16", "--theta-true", "3.0",
                   "--calib", "alg1+2"],
     ("calib_result.json",)),
    # the only case whose 567-point alg2 grid and LM runs go through FISTA blocks
    ("calibrate", ["--modality", "cassi", "--size", "16", "--theta-true",
                   "0.5", "0.3", "0.1", "2.02", "0.15", "--calib", "alg1+2"],
     ("calib_result.json",)),
    # the only case that draws calibrate's noise or uses a nonzero seed
    ("calibrate", ["--modality", "mri", "--size", "16", "--seed", "2", "--theta-true", "0.05",
                   "--noisy", "--calib", "alg1"],
     ("calib_result.json",)),
    ("diagnose", ["--modality", "cassi", "--size", "16", "--theta-true",
                  "0.5", "0.3", "0.1", "2.02", "0.15"],
     ("triad_report.json",)),
    # theta_true is nominal, so the matched (I) and mismatched (II) solves coincide
    ("diagnose", ["--modality", "spc", "--size", "16", "--theta-true", "0.0"],
     ("triad_report.json",)),
    # the only diagnose case with noise at a nonzero seed; its sensitivity
    # probe is scene 0 of the one draw of the scenes
    ("diagnose", ["--modality", "mri", "--size", "16", "--seed", "4", "--theta-true", "0.05",
                  "--noisy"],
     ("triad_report.json",)),
    # 4096 input elements: diagnose's solves run in blocks of 2
    ("diagnose", ["--modality", "lensless", "--size", "64", "--theta-true", "1.0",
                  "--scenes", "2"],
     ("triad_report.json",)),
    # the largest pattern stack: spc's full-sampling one, 128 MiB at size 64
    ("diagnose", ["--modality", "spc", "--size", "64", "--theta-true", "0.012",
                  "--scenes", "1"],
     ("triad_report.json",)),
)


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> dict:
    """Write ``rev``'s tree to ``dest``; return its commit and source-tree ids."""
    commit = git("rev-parse", rev)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    tar_path = dest.parent / f"{dest.name}.tar"
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()
    return {"rev": rev, "commit": commit, "src_tree": git("rev-parse", f"{commit}:src")}


def python(args, cwd: Path) -> tuple:
    """Run ``python args`` in ``cwd`` to completion; return its stdout and peak RSS in MB."""
    with tempfile.TemporaryFile("w+") as err, subprocess.Popen(
            [sys.executable, *args], cwd=cwd, stdout=subprocess.PIPE, stderr=err,
            text=True) as proc:
        out = proc.stdout.read()
        # wait4 reports the child's own ru_maxrss (KiB on Linux), as perfbench does
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            shown = " ".join(a for a in args if "\n" not in a)  # leaves a script's text out
            raise RuntimeError(f"python {shown} in {cwd} exited {proc.returncode}: "
                               f"{err.read()[-2000:]}")
    return out, usage.ru_maxrss / 1024.0


def perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    # a traced run is one round: per-round averages over however many rounds
    # fit would spread a one-time cost unevenly between two equal programs
    seconds = 0 if trace else SECONDS
    lines = python(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", f"{seconds:g}", "--trace", str(trace)],
                   checkout)[0].strip().splitlines()
    result = json.loads(lines[-1])
    breakdown = next((ln for ln in lines if ln.startswith("breakdown ")), "breakdown")
    figures = {}
    for item in breakdown.split()[1:]:
        if "=" in item:
            name, value = item.split("=", 1)
            figures[name] = float(value)
    header = next(ln for ln in lines if ln.startswith("workload ")).split()
    return {
        "rounds": int(header[header.index("rounds") + 1]),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "breakdown": figures,
        "checks": [ln for ln in lines if ln.startswith(("check:", "failed:"))],
    }


def spread(values) -> dict:
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def trace_median(values):
    """Median of one traced figure over the runs that report it; None if none do."""
    present = [v for v in values if v is not None]
    return median(present) if present else None


def summarize(runs) -> dict:
    out = {}
    for name in END_TO_END:
        base = [r["base"]["metrics"][name] for r in runs]
        head = [r["head"]["metrics"][name] for r in runs]
        out[name] = {
            "base": spread(base),
            "head": spread(head),
            "head_wins": sum(h < b for b, h in zip(base, head)),
            "pairs": len(runs),
        }
    out["all_correct"] = all(r[s]["correct"] for r in runs for s in ("base", "head"))
    out["failed_ops"] = {s: sum(r[s]["failed"] for r in runs) for s in ("base", "head")}
    # perfbench keeps every round's output, so peak_rss_mb grows with the rounds a run fits
    out["rounds"] = {s: [r[s]["rounds"] for r in runs] for s in ("base", "head")}
    out["breakdown_equal_6sig"] = all(
        r["base"]["breakdown"].get(k) == r["head"]["breakdown"].get(k)
        for r in runs for k in REPEATABLE
    )
    # each figure's largest pair-by-pair drift; None where a run does not report it
    out["breakdown_max_abs_diff"] = {
        k: max((abs(r["head"]["breakdown"][k] - r["base"]["breakdown"][k]) for r in runs
                if k in r["base"]["breakdown"] and k in r["head"]["breakdown"]), default=None)
        for k in REPEATABLE
    }
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def field_diffs(base, head, path=""):
    """Yield ``(|head - base|, field)`` for every number that differs between the payloads,
    and ``(None, field)`` where they differ otherwise: a key on one side only, lists of
    different lengths, or unequal values that are not both numbers."""
    if isinstance(base, dict) and isinstance(head, dict):
        for k in sorted(base.keys() | head.keys()):
            sub = f"{path}.{k}" if path else k
            if k in base and k in head:
                yield from field_diffs(base[k], head[k], sub)
            else:
                yield None, f"{sub} (only in {'base' if k in base else 'head'})"
    elif isinstance(base, list) and isinstance(head, list):
        if len(base) != len(head):
            yield None, f"{path} (length {len(base)} -> {len(head)})"
            return
        for i, (b, h) in enumerate(zip(base, head)):
            yield from field_diffs(b, h, f"{path}[{i}]")
    elif (isinstance(base, (int, float)) and isinstance(head, (int, float))
          and not isinstance(base, bool) and not isinstance(head, bool)):
        if base != head:
            yield abs(head - base), path
    elif base != head or type(base) is not type(head):
        yield None, path


def drift(base, head) -> dict:
    """Largest absolute numeric drift of one result file, overall, over PSNR fields and
    under each top-level key, and the fields that differ in structure or in a
    non-numeric value.  The top-level ``COUNT_FIELDS`` are left out: they are
    reported under ``counts``, and a change in them is not numeric drift."""
    diffs = list(field_diffs({k: v for k, v in base.items() if k not in COUNT_FIELDS},
                             {k: v for k, v in head.items() if k not in COUNT_FIELDS}))
    numeric = sorted((d for d in diffs if d[0] is not None), key=lambda d: (d[0], d[1]))
    psnr = [d for d in numeric if "psnr" in d[1]]
    top = numeric[-1] if numeric else (0.0, None)
    top_psnr = psnr[-1] if psnr else (0.0, None)
    by_key = {}
    for value, field in numeric:
        key = field.split(".")[0].split("[")[0]
        by_key[key] = max(by_key.get(key, 0.0), value)
    return {"max_abs": top[0], "field": top[1], "fields_differing": len(numeric),
            "max_abs_psnr": top_psnr[0], "psnr_field": top_psnr[1],
            "max_abs_by_key": by_key,
            "other_differences": [f for v, f in diffs if v is None]}


# Runs in one process with both trees' ``opgraph`` imported under two package
# names (the source uses relative imports only), each building its own
# templates, operators and inputs from the same seeds; argv is the base's and
# the head's ``src`` and the ABBA repeats.  It prints one JSON object of raw
# figures, which ``probe`` turns into the BENCH records.
PROBE = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS
import hashlib, importlib, importlib.util, json, sys, time, tracemalloc
from dataclasses import asdict
from types import SimpleNamespace
import numpy as np

MODALITIES = ("cassi", "cacti", "spc", "mri", "lensless")

def load(name, src):
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/opgraph/__init__.py", submodule_search_locations=[f"{src}/opgraph"])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    modules = ("graph", "metrics", "primitives", "solvers", "templates", "tensor")
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})

def calls(fn):
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start > 0.02 or n >= 4096:
            return n
        n *= 2

def best(fn):
    n = calls(fn)
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        runs.append((time.perf_counter() - start) / n)
    return min(runs)

def digest(out):
    arrays = [out] if isinstance(out, np.ndarray) else [
        a for r in out for a in (r.x_hat.numpy(), np.array(r.objective_trace))]
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()

def fista_forwards(lib):
    graph, solvers, templates = lib.graph, lib.solvers, lib.templates
    counts = {"forwards": 0, "prox_candidates": 0}
    fwd, prox = graph.BlockOperator.forward, solvers._prox
    def forward(self, x):
        counts["forwards"] += len(x)
        return fwd(self, x)
    def counted_prox(stack, lam):
        counts["prox_candidates"] += len(stack)
        return prox(stack, lam)
    graph.BlockOperator.forward, solvers._prox = forward, counted_prox
    try:
        out = {}
        for modality in MODALITIES:
            t = templates.instantiate(modality, 16)
            g = t.operator()
            y = g.forward(templates.make_phantoms(t, 1, seed=0)[0].data)
            cfg = solvers.pin_step(g, t.solver)
            counts.update(forwards=0, prox_candidates=0)
            solvers.reconstruct(g, y, cfg)
            out[modality] = {"iters": cfg["iters"], "forwards": counts["forwards"],
                             "restarts": counts["prox_candidates"] - cfg["iters"]}
        return out
    finally:
        graph.BlockOperator.forward, solvers._prox = fwd, prox

def solve_psnr(lib):
    solvers, templates = lib.solvers, lib.templates
    out = {}
    for modality in MODALITIES:
        for size in (16, 32):
            t = templates.instantiate(modality, size)
            g = t.operator()
            cfg = solvers.pin_step(g, t.solver)
            for seed in (0, 1, 2):
                x = templates.make_phantoms(t, 1, seed=seed)[0].data
                y = templates.apply_noise(g.forward(x), t.noise, lib.tensor.Rng(seed, 1))
                out[f"{modality}/{size}/{seed}"] = lib.metrics.psnr(
                    solvers.reconstruct(g, y, cfg).x_hat, x)
    return out

def peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()

def radon_kernels(lib):
    prims, out, rows = lib.primitives, {}, {}
    for size in (16, 48):
        p = lib.templates.instantiate("ct", size).operator()._prims["proj"].params
        shape = (size, size)
        key = (tuple(p["angles_deg"]), p["n_det"], p["cor_offset"], shape)
        x = lib.tensor.Rng(3).uniform(shape)
        y = lib.tensor.Rng(4).standard_normal((len(p["angles_deg"]), p["n_det"]))

        def build_adjoint(p=p, y=y, shape=shape):
            prims._radon_geometry.cache_clear()
            return prims._radon_adjoint(p, y, shape)

        fns = {"forward": lambda p=p, x=x: prims._radon_forward(p, x),
               "adjoint": lambda p=p, y=y, shape=shape: prims._radon_adjoint(p, y, shape),
               "build_adjoint": build_adjoint}
        out[f"ct{size}"] = {"table_bytes": sum(a.nbytes for a in prims._radon_geometry(*key))}
        for name, fn in fns.items():
            fn()
            if name != "build_adjoint":
                prims._radon_geometry(*key)  # the cached table, outside the traced call
            else:
                prims._radon_geometry.cache_clear()
            nbytes, result = peak(fn)
            out[f"ct{size}"][name] = {"peak_bytes": nbytes, "sha256": digest(result)}
            rows[f"ct{size}.{name}"] = fn
    out["adjoint_reports"] = {
        str(size): asdict(lib.graph.adjoint_check_graph(
            lib.templates.instantiate("ct", size).operator(), n_trials=5, seed=0))
        for size in (8, 16, 64)}
    return out, rows

def solve_rows(lib):
    solvers, templates = lib.solvers, lib.templates
    out = {}
    for modality in MODALITIES:
        t = templates.instantiate(modality, 48)
        g = t.operator()
        cfg = solvers.pin_step(g, t.solver)
        x = templates.make_phantoms(t, 1, seed=0)[0].data
        y = templates.apply_noise(g.forward(x), t.noise, lib.tensor.Rng(0, 1))
        out[f"{modality}48"] = lambda g=g, y=y, cfg=cfg: [solvers.reconstruct(g, y, cfg)]
    t = templates.instantiate("cassi", 16)
    cfg = solvers.pin_step(t.operator(), t.calib_solver)
    lo, hi = np.array(t.family.theta_range).T
    rng = np.random.default_rng(8)
    gs = [t.operator(tuple(lo + (hi - lo) * rng.random(len(lo)))) for _ in range(8)]
    y = gs[0].forward(templates.make_phantoms(t, 1, seed=0)[0].data)
    out["cassi16_block8"] = lambda: solvers.reconstruct_block(gs, [y] * len(gs), cfg)
    return out

def draw(shape, dtype, rng):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if dtype == "complex128" else a

def kernel_row(kind, template, node, direction, k, block_fn, solo_fns):
    block = block_fn()
    equal = all(block[i].tobytes() == np.ascontiguousarray(fn()).tobytes()
                for i, fn in enumerate(solo_fns))
    b, s = best(block_fn), best(lambda: [fn() for fn in solo_fns])
    return {"kind": kind, "template": template, "node": node, "direction": direction, "K": k,
            "block_us": b * 1e6, "solo_us": s * 1e6, "speedup": s / b, "bytes_equal": equal}

def block_kernels(lib):
    prim_forward, prim_adjoint = lib.primitives.prim_forward, lib.primitives.prim_adjoint
    rows = []
    KINDS = {"cassi": ("mask", "disperse", "sum", "det"), "mri": ("fourier", "keep"),
             "lensless": ("psf",), "ct": ("proj",), "spc": ()}
    for template, nodes in KINDS.items():
        t = lib.templates.instantiate(template, 16)
        lo, hi = np.array(t.family.theta_range).T
        for k in (1, 2, 8, 32):
            rng = np.random.default_rng(k)
            gs = [t.operator(tuple(lo + (hi - lo) * rng.random(len(lo)))) for _ in range(k)]
            g0 = gs[0]
            shapes = {nid: g0._node_in_shapes[nid] for nid in g0.plan_forward}
            for nid in nodes:
                prims = [g._prims[nid] for g in gs]
                block = lib.primitives.PrimitiveBlock(prims)
                solos = [lib.primitives.PrimitiveBlock([p]) for p in prims]
                x = draw((k,) + shapes[nid], "real64" if nid in ("mask", "proj", "psf", "coil")
                         else "complex128", rng)
                y = np.stack([prim_forward(b, xi[None])[0] for b, xi in zip(solos, x)])
                y = draw(y.shape, "complex128" if np.iscomplexobj(y) else "real64", rng)
                kind = prims[0].kind.value
                rows.append(kernel_row(kind, template, nid, "forward", k,
                                       lambda: prim_forward(block, x),
                                       [lambda b=b, xi=xi: prim_forward(b, xi[None])[0]
                                        for b, xi in zip(solos, x)]))
                if prims[0].is_linear:
                    rows.append(kernel_row(
                        kind, template, nid, "adjoint", k,
                        lambda: prim_adjoint(block, y, input_shape=shapes[nid]),
                        [lambda b=b, yi=yi: prim_adjoint(b, yi[None], input_shape=shapes[nid])[0]
                         for b, yi in zip(solos, y)]))
            A = lib.graph.compile_block(gs)
            x = draw((k,) + A.input_shape, g0.input_dtype, rng)
            y = draw((k,) + A.output_shape, g0.output_dtype, rng)
            rows.append(kernel_row("operator", template, "", "forward", k, lambda: A.forward(x),
                                   [lambda g=g, xi=xi: g.forward_array(xi)
                                    for g, xi in zip(gs, x)]))
            rows.append(kernel_row("operator", template, "", "adjoint", k, lambda: A.adjoint(y),
                                   [lambda g=g, yi=yi: g.adjoint_array(yi)
                                    for g, yi in zip(gs, y)]))
    return rows

def timed(fn, n):
    fn()  # untimed: caches and lazily built tables are warm, as in a repeated call
    cpu, wall = time.process_time(), time.perf_counter()
    for _ in range(n):
        fn()
    return time.process_time() - cpu, time.perf_counter() - wall

def abba(rows, repeats):
    report = {}
    for name, fns in rows.items():
        report[name] = {"calls": calls(fns["base"]),
                        "bytes_equal": digest(fns["base"]()) == digest(fns["head"]()),
                        "cpu_s": {"base": [], "head": []}, "wall_s": {"base": [], "head": []}}
    names = list(rows)
    for r in range(repeats):
        first, second = ("base", "head") if r % 2 == 0 else ("head", "base")
        for name in names[r % len(names):] + names[:r % len(names)]:
            row, seconds = report[name], {"base": [0.0, 0.0], "head": [0.0, 0.0]}
            for side in (first, second, second, first):
                cpu, wall = timed(rows[name][side], row["calls"])
                seconds[side][0] += cpu
                seconds[side][1] += wall
            for side, (cpu, wall) in seconds.items():
                row["cpu_s"][side].append(cpu / (2 * row["calls"]))
                row["wall_s"][side].append(wall / (2 * row["calls"]))
    return report

trees = {"base": load("opgraph_base", sys.argv[1]), "head": load("opgraph_head", sys.argv[2])}
out, rows = {"radon_kernels": {}}, {}
for side, lib in trees.items():
    out["radon_kernels"][side], rows[side] = radon_kernels(lib)
radon_rows = list(rows["base"])
out["fista_forwards"] = {side: fista_forwards(lib) for side, lib in trees.items()}
out["solve_psnr"] = {side: solve_psnr(lib) for side, lib in trees.items()}
out["block_kernels"] = block_kernels(trees["head"])
for side, lib in trees.items():
    rows[side] = {**solve_rows(lib), **rows[side]}
timings = abba({name: {side: rows[side][name] for side in trees} for name in rows["base"]},
               int(sys.argv[3]))
out["ab_rows"] = list(timings)
out["radon_ab"] = {name: timings.pop(name) for name in radon_rows}
out["solve_ab"] = timings
print(json.dumps(out))
"""
AB_REPEATS = 12
AB_ORDER = ("repeat r runs each row base, head, head, base when r is even and head, base, "
            "base, head when r is odd, the rows in row_order from its row r on, wrapping "
            "round; a timing is one untimed call then `calls` timed ones; a ratio is head "
            "seconds / base seconds")
# resamples of the percentile bootstrap behind each ABBA row's interval
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def median_ci(ratios, rows: int) -> list:
    """Percentile-bootstrap interval of the median of ``ratios`` that holds at
    95 % for all ``rows`` rows of a BENCH together: the 0.05 / (2 rows) and
    1 - 0.05 / (2 rows) quantiles of the resampled medians (Bonferroni)."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = [median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP_RESAMPLES)]
    cuts = quantiles(medians, n=40 * rows, method="inclusive")
    return [cuts[0], cuts[-1]]


def ab_summary(row: dict, rows: int) -> dict:
    """One ABBA row's head/base ratios, their median and its interval, from the raw seconds."""
    cpu, wall = row["cpu_s"], row["wall_s"]
    ratios = [h / b for b, h in zip(cpu["base"], cpu["head"])]
    lo, hi = median_ci(ratios, rows)
    return {"median_ratio": median(ratios), "ratio_ci95": [lo, hi],
            # a gain or a loss only when the interval excludes 1
            "verdict": "gain" if hi < 1.0 else "loss" if lo > 1.0 else "unresolved",
            "head_wins": sum(q < 1.0 for q in ratios), "repeats": len(ratios), "ratios": ratios,
            "wall_ratios": [h / b for b, h in zip(wall["base"], wall["head"])],
            "calls": row["calls"], "bytes_equal": row["bytes_equal"],
            "base_median_s": median(cpu["base"]), "head_median_s": median(cpu["head"]),
            "base_median_wall_s": median(wall["base"]), "head_median_wall_s": median(wall["head"])}


def probe(checkouts: dict) -> dict:
    """The BENCH records that the two-tree process measures."""
    raw = json.loads(python(["-c", PROBE, str(checkouts["base"] / "src"),
                             str(checkouts["head"] / "src"), str(AB_REPEATS)], ROOT)[0])
    psnrs = raw["solve_psnr"]
    rows = len(raw["ab_rows"])
    drift_db = {case: psnrs["head"][case] - psnrs["base"][case] for case in psnrs["base"]}
    return {
        "fista_forwards": raw["fista_forwards"],
        "solve_psnr": {**psnrs, "drift_db": drift_db,
                       "max_abs_drift_db": max(abs(d) for d in drift_db.values())},
        "block_kernels": raw["block_kernels"],
        "radon_kernels": {**raw["radon_kernels"], "order": AB_ORDER, "row_order": raw["ab_rows"],
                          "rows": {k: ab_summary(v, rows) for k, v in raw["radon_ab"].items()}},
        "solve_ab": {"order": AB_ORDER, "row_order": raw["ab_rows"],
                     "rows": {k: ab_summary(v, rows) for k, v in raw["solve_ab"].items()}},
    }


# Counts, in one process, the spectral-norm estimates (``solvers.power_iteration``
# calls) of rounds 1 and 2 of each workload after one set-up, at the seed given
# as its argument: the traced count sees round 1 only.  It runs in the checkout,
# because perfbench's workloads import ``opgraph`` under its own name.
POWER_ITERATIONS = """
import json, shutil, sys, time
sys.path[:0] = ["perfbench", "src"]
import run
from opgraph import solvers
from workloads import WORKLOADS, Ops
SEED = int(sys.argv[1])
count = [0]
estimate = solvers.power_iteration
def counted(g):
    count[0] += 1
    return estimate(g)
solvers.power_iteration = counted
out = {}
for name in sorted(WORKLOADS):
    ctx = run.context(name, SEED)
    workload = WORKLOADS[name](SEED, ctx)
    workload.setup()
    out[name] = []
    for _ in range(2):
        count[0] = 0
        workload.round(Ops(time.perf_counter))
        out[name].append(count[0])
    shutil.rmtree(ctx.scratch, ignore_errors=True)
print(json.dumps(out))
"""


def power_iterations(checkout: Path) -> dict:
    """Spectral-norm estimates of rounds 1 and 2 of each workload, at the first seed."""
    return json.loads(python(["-c", POWER_ITERATIONS, str(FIRST_SEED)],
                             checkout)[0].strip().splitlines()[-1])


def src_lines(checkout: Path) -> int:
    """Lines of ``src/opgraph/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in sorted((checkout / "src" / "opgraph").glob("*.py")))


def cli_outputs(checkouts: dict, scratch: Path) -> list:
    cases = []
    for i, (command, flags, files) in enumerate(CLI_CASES):
        hashes, payloads, seconds, peak_rss_mb = {}, {}, {}, {}
        for side, checkout in checkouts.items():
            run_dir = scratch / f"cli-{side}-{i}"
            start = time.perf_counter()
            # from src/, ``-m`` imports this export's opgraph
            _, peak_rss_mb[side] = python(
                ["-m", "opgraph.cli", command, *flags, "--out", str(run_dir)], checkout / "src")
            seconds[side] = time.perf_counter() - start
            hashes[side] = {f: sha256(run_dir / f) for f in files}
            payloads[side] = {f: json.loads((run_dir / f).read_text()) for f in files}
        # a field the head adds is allowed; every field the base writes must be equal
        base_fields_equal = all(
            payloads["head"][f].get(k) == v
            for f in files for k, v in payloads["base"][f].items()
        )
        counts = {side: {k: payloads[side][f][k] for f in files
                         for k in COUNT_FIELDS if k in payloads[side][f]}
                  for side in payloads}
        case = {"argv": [command, *flags], "sha256": hashes,
                "byte_identical": hashes["base"] == hashes["head"],
                "base_fields_identical": base_fields_equal, "counts": counts,
                "seconds": seconds, "peak_rss_mb": peak_rss_mb}
        if not case["byte_identical"]:
            case["drift"] = {f: drift(payloads["base"][f], payloads["head"][f]) for f in files}
        cases.append(case)
    return cases


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision of the parent")
    p.add_argument("--head", default="HEAD", help="git revision of the change")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="bench_pair-"))
    try:
        checkouts = {"base": scratch / "base", "head": scratch / "head"}
        revs = {side: export(rev, checkouts[side])
                for side, rev in (("base", args.base), ("head", args.head))}
        # one harness for both programs: the head's
        shutil.rmtree(checkouts["base"] / "perfbench")
        shutil.copytree(checkouts["head"] / "perfbench", checkouts["base"] / "perfbench")
        shutil.copy2(checkouts["head"] / "BENCHMARK.json", checkouts["base"])
        # the environment may forbid writing bytecode on import, and then
        # every run would time the compiler
        for checkout in checkouts.values():
            python(["-m", "compileall", "-q", "src"], checkout)
        head = revs["head"]["commit"]
        report = {
            "nproc": os.cpu_count(),
            "platform": {"python": platform.python_version(), "machine": platform.machine()},
            "revisions": revs,
            "harness": {"commit": head, "perfbench_tree": git("rev-parse", f"{head}:perfbench"),
                        "setup_s": "import of src/ byte-compiled before the runs; up to "
                                   "BENCH_38 it included compiling the source, as a bare "
                                   "perfbench run still does, so a cost that grows with "
                                   "the source size no longer shows here"},
            "seconds": SECONDS,
            "seeds": [FIRST_SEED + i for i in range(PAIRS)],
            "order": "pair i runs base first when i is even, head first when i is odd",
            "workloads": {},
        }
        for w in WORKLOADS:
            runs = []
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                run = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = perfbench(checkouts[side], w, seed, 0)
                    print(f"{w} seed {seed} {side} pass_s "
                          f"{run[side]['metrics']['pass_s']:.3f}", flush=True)
                runs.append(run)
            report["workloads"][w] = {"summary": summarize(runs), "runs": runs}
        trace_seeds = [FIRST_SEED + i for i in range(TRACE_RUNS)]
        report["trace"] = {"seeds": trace_seeds, "statistic": "median", "seconds": 0,
                           "rounds_per_run": 1, "meaning": TRACE_MEANING}
        for w in TRACE_WORKLOADS:
            runs = {"base": [], "head": []}
            for i, seed in enumerate(trace_seeds):
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    res = perfbench(checkouts[side], w, seed, 1)
                    runs[side].append({**res["metrics"], **res["breakdown"]})
            report["trace"][w] = {
                side: {k: trace_median([run.get(k) for run in side_runs]) for k in TRACED}
                for side, side_runs in runs.items()
            }
        report["power_iterations"] = {side: power_iterations(checkout)
                                      for side, checkout in checkouts.items()}
        report["src_lines"] = {side: src_lines(checkout) for side, checkout in checkouts.items()}
        report.update(probe(checkouts))
        report["cli_outputs"] = cli_outputs(checkouts, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
