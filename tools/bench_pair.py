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
rounding drift and cannot show byte identity), the median of three traced runs
of each workload per commit at seeds 11-13 (layer times, call counts and solver
iterations; one traced run cannot tell a small change from noise), and
whether a few ``scenario``, ``diagnose`` and ``calibrate`` CLI runs write
byte-identical result files on both commits, with each run's wall seconds
(one run each, process start included); only these ``cli_outputs`` show
byte identity.
Where a case's files differ, each file's largest absolute numeric drift is
recorded with the field it occurs in, over all fields, over the PSNR fields
and under each top-level key, with every field that differs otherwise
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
    non-numeric value."""
    diffs = list(field_diffs(base, head))
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
                         for k in ("evals", "distinct_evals") if k in payloads[side][f]}
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
        report["trace"] = {"seeds": trace_seeds, "statistic": "median"}
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
        report["cli_outputs"] = cli_outputs(checkouts, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
