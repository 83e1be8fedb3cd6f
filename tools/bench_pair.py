"""Benchmark two commits side by side with perfbench and write a BENCH json.

    python3 tools/bench_pair.py --base 24c63e7 --head HEAD --out BENCH_6.json

Both commits are exported with ``git archive`` into a scratch directory, so
each runs ``perfbench/run.py`` from its own committed files.  The protocol is
fixed: ten pairs per workload at seeds 11-20 and 5 s per run; pair ``i`` runs
every workload at seed ``11 + i`` on both commits, even pairs base first and
odd pairs head first.  The output records the core count, each end-to-end
metric's per-run values with their median and quartiles, how many pairs the
head won, the rounds each run fitted, the ``breakdown`` figures with whether
``calib_evals`` and the PSNRs are equal pair by pair (``breakdown_equal_6sig``:
perfbench prints them to 6 significant digits, so this reads true under
rounding drift and cannot show byte identity) and each one's largest
pair-by-pair absolute difference (``breakdown_max_abs_diff``), the median of three traced runs
of each workload per commit at seeds 11-13 (layer times, call counts and solver
iterations; one traced run cannot tell a small change from noise), and
whether a few ``scenario``, ``diagnose`` and ``calibrate`` CLI runs write
byte-identical result files on both commits, with each run's wall seconds
(one run each, process start included); only these ``cli_outputs`` show
byte identity.  ``trace.meaning`` says what the traced figures that depend
on how the program calls its kernels count.  ``fista_forwards`` counts, in
process, the operator forwards and restarts of one full FISTA-TV solve per
modality on each commit, ``solve_psnr`` the PSNR of one full noisy solve per
TV-solved template at sizes 16 and 32, seeds 0-2, on each commit, with the
head's drift from the base, ``src_lines`` the line count of
``src/opgraph/*.py`` of each commit, and ``block_kernels`` times, on the
head, each node kind's block kernel against its K solo calls at
K = 1, 2, 8 and 32, with whether their bytes agree.
Where a case's files differ, each file's largest absolute numeric drift is
recorded with the field it occurs in, over all fields but the eval counts
that ``counts`` holds, over the PSNR fields and under each top-level key, with every field that differs otherwise
(present on one side only, lists of different lengths, unequal non-numeric
values).  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
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
    # the only case that runs GAP-TV and the cacti builder
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
    # GAP-TV past 4096 input elements: every scenario and diagnose solve runs alone
    ("scenario", ["--modality", "cacti", "--size", "33", "--theta-true", "1.0", "-0.5",
                  "--calib", "none", "--scenes", "2"],
     ("scenario_result.json", "triad_report.json")),
    # the only case that runs the adjoint-map solver and its real projection
    ("scenario", ["--modality", "mri", "--size", "16", "--theta-true", "0.05",
                  "--solver", "adjoint"],
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


def perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{SECONDS:g}", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
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


# Counts, in one process, the operator forwards and restarts of one full template
# FISTA-TV solve per modality (size 16, scene 0, the template's solver at its
# pinned step).  perfbench's tracer cannot see the array runners the solvers call.
# A block forward counts each candidate of its stack.
FORWARD_COUNT = """
import json
from opgraph import graph, solvers
from opgraph.templates import instantiate, make_phantoms
counts = {"forwards": 0, "prox_candidates": 0}
fwd, prox = graph.BlockOperator.forward, solvers._prox
def forward(self, x):
    counts["forwards"] += len(x)
    return fwd(self, x)
def counted_prox(stack, lam):
    counts["prox_candidates"] += len(stack)
    return prox(stack, lam)
graph.BlockOperator.forward = forward
solvers._prox = counted_prox
out = {}
for modality in ("cassi", "spc", "mri", "lensless"):
    t = instantiate(modality, 16)
    g = t.operator()
    y = g.forward(make_phantoms(t, 1, seed=0)[0].data)
    cfg = solvers.pin_step(g, t.solver)
    counts.update(forwards=0, prox_candidates=0)
    solvers.reconstruct(g, y, cfg)
    out[modality] = {"iters": cfg["iters"], "forwards": counts["forwards"],
                     "restarts": counts["prox_candidates"] - cfg["iters"]}
print(json.dumps(out))
"""

# Times, on the head only, each node kind's block kernel over K operators of its
# size-16 template at K distinct thetas (drawn from the mismatch ranges) against
# K solo calls, each through its operator's own block of one as
# ``GraphOperator.forward_array`` runs it; ``bytes_equal`` says whether every row
# of the block result is its solo call's bytes.  Rows named ``operator`` time
# the whole graph: ``compile_block``'s runner against K ``forward_array`` or
# ``adjoint_array`` calls, which covers spc's contracted pattern pair.  Seconds
# are the best of 5 repeats of enough calls to fill about 20 ms.
BLOCK_KERNELS = """
import json, time
import numpy as np
from opgraph.graph import compile_block
from opgraph.primitives import PrimitiveBlock, prim_adjoint, prim_forward
from opgraph.templates import instantiate

def best(fn):
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start > 0.02 or n >= 4096:
            break
        n *= 2
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        runs.append((time.perf_counter() - start) / n)
    return min(runs)

def draw(shape, dtype, rng):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if dtype == "complex128" else a

def row(kind, template, node, direction, k, block_fn, solo_fns):
    block = block_fn()
    equal = all(block[i].tobytes() == np.ascontiguousarray(fn()).tobytes()
                for i, fn in enumerate(solo_fns))
    b, s = best(block_fn), best(lambda: [fn() for fn in solo_fns])
    return {"kind": kind, "template": template, "node": node, "direction": direction, "K": k,
            "block_us": b * 1e6, "solo_us": s * 1e6, "speedup": s / b, "bytes_equal": equal}

rows = []
KINDS = {"cassi": ("mask", "disperse", "sum", "det"), "mri": ("fourier", "keep"),
         "lensless": ("psf",), "ct": ("proj",), "spc": ()}
for template, nodes in KINDS.items():
    t = instantiate(template, 16)
    lo, hi = np.array(t.family.theta_range).T
    for k in (1, 2, 8, 32):
        rng = np.random.default_rng(k)
        gs = [t.operator(tuple(lo + (hi - lo) * rng.random(len(lo)))) for _ in range(k)]
        g0 = gs[0]
        shapes = {nid: g0._node_in_shapes[nid] for nid in g0.plan_forward}
        for nid in nodes:
            prims = [g._prims[nid] for g in gs]
            block, solos = PrimitiveBlock(prims), [PrimitiveBlock([p]) for p in prims]
            x = draw((k,) + shapes[nid], "real64" if nid in ("mask", "proj", "psf", "coil") else
                     "complex128", rng)
            y = np.stack([prim_forward(b, xi[None])[0] for b, xi in zip(solos, x)])
            y = draw(y.shape, "complex128" if np.iscomplexobj(y) else "real64", rng)
            kind = prims[0].kind.value
            rows.append(row(kind, template, nid, "forward", k, lambda: prim_forward(block, x),
                            [lambda b=b, xi=xi: prim_forward(b, xi[None])[0]
                             for b, xi in zip(solos, x)]))
            if prims[0].is_linear:
                rows.append(row(kind, template, nid, "adjoint", k,
                                lambda: prim_adjoint(block, y, input_shape=shapes[nid]),
                                [lambda b=b, yi=yi: prim_adjoint(b, yi[None],
                                                                 input_shape=shapes[nid])[0]
                                 for b, yi in zip(solos, y)]))
        A = compile_block(gs)
        x = draw((k,) + A.input_shape, g0.input_dtype, rng)
        y = draw((k,) + A.output_shape, g0.output_dtype, rng)
        rows.append(row("operator", template, "", "forward", k, lambda: A.forward(x),
                        [lambda g=g, xi=xi: g.forward_array(xi) for g, xi in zip(gs, x)]))
        rows.append(row("operator", template, "", "adjoint", k, lambda: A.adjoint(y),
                        [lambda g=g, yi=yi: g.adjoint_array(yi) for g, yi in zip(gs, y)]))
print(json.dumps(rows))
"""


# Scores, in one process, one full solve of each TV-solved template at sizes 16
# and 32 for scenes of seeds 0-2: the template's solver at its pinned step on
# the noisy measurement of the nominal operator, PSNR against the scene.
SOLVE_PSNR = """
import json
from opgraph import solvers
from opgraph.metrics import psnr
from opgraph.templates import apply_noise, instantiate, make_phantoms
from opgraph.tensor import Rng
out = {}
for modality in ("cassi", "cacti", "spc", "mri", "lensless"):
    for size in (16, 32):
        t = instantiate(modality, size)
        g = t.operator()
        cfg = solvers.pin_step(g, t.solver)
        for seed in (0, 1, 2):
            x = make_phantoms(t, 1, seed=seed)[0].data
            y = apply_noise(g.forward(x), t.noise, Rng(seed, 1))
            out[f"{modality}/{size}/{seed}"] = psnr(solvers.reconstruct(g, y, cfg).x_hat, x)
print(json.dumps(out))
"""


def solve_psnr(checkouts: dict) -> dict:
    """Each commit's full-solve PSNR per template, size and scene, and their drift."""
    psnrs = {}
    for side, checkout in checkouts.items():
        proc = subprocess.run([sys.executable, "-c", SOLVE_PSNR], cwd=checkout, check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(checkout / "src")})
        psnrs[side] = json.loads(proc.stdout)
    drift_db = {case: psnrs["head"][case] - psnrs["base"][case] for case in psnrs["base"]}
    return {**psnrs, "drift_db": drift_db,
            "max_abs_drift_db": max(abs(d) for d in drift_db.values())}


def block_kernels(checkout: Path) -> list:
    """The per-K table of block kernels against solo calls, on one checkout."""
    proc = subprocess.run([sys.executable, "-c", BLOCK_KERNELS], cwd=checkout, check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(checkout / "src"),
                               "OPENBLAS_NUM_THREADS": "1"})
    return json.loads(proc.stdout)


def fista_forwards(checkout: Path) -> dict:
    """Forwards and restarts of one full FISTA-TV solve per modality."""
    proc = subprocess.run([sys.executable, "-c", FORWARD_COUNT], cwd=checkout, check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(checkout / "src")})
    return json.loads(proc.stdout)


def src_lines(checkout: Path) -> int:
    """Lines of ``src/opgraph/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in sorted((checkout / "src" / "opgraph").glob("*.py")))


def cli_outputs(checkouts: dict, scratch: Path) -> list:
    cases = []
    for i, (command, flags, files) in enumerate(CLI_CASES):
        hashes, payloads, seconds = {}, {}, {}
        for side, checkout in checkouts.items():
            run_dir = scratch / f"cli-{side}-{i}"
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "opgraph.cli", command, *flags, "--out", str(run_dir)],
                cwd=checkout, check=True, capture_output=True,
                env={**os.environ, "PYTHONPATH": str(checkout / "src")},
            )
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
                "seconds": seconds}
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
        report = {
            "nproc": os.cpu_count(),
            "platform": {"python": platform.python_version(), "machine": platform.machine()},
            "revisions": revs,
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
        report["trace"] = {"seeds": trace_seeds, "statistic": "median",
                           "meaning": TRACE_MEANING}
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
        report["fista_forwards"] = {side: fista_forwards(checkout)
                                    for side, checkout in checkouts.items()}
        report["solve_psnr"] = solve_psnr(checkouts)
        report["src_lines"] = {side: src_lines(checkout) for side, checkout in checkouts.items()}
        report["block_kernels"] = block_kernels(checkouts["head"])
        report["cli_outputs"] = cli_outputs(checkouts, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
