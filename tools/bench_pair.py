"""Benchmark two commits side by side with perfbench and write a BENCH json.

    python3 tools/bench_pair.py --base 24c63e7 --head HEAD --out BENCH_6.json

Both commits are exported with ``git archive`` into a scratch directory, so
each runs ``perfbench/run.py`` from its own committed files.  The protocol is
fixed: ten pairs per workload at seeds 11-20 and 5 s per run; pair ``i`` runs
every workload at seed ``11 + i`` on both commits, even pairs base first and
odd pairs head first.  The output records the core count,
each end-to-end metric's per-run values with their median and quartiles,
how many pairs the head won, the ``breakdown`` figures (``calib_evals`` and
the PSNRs must repeat exactly at equal seeds when outputs are unchanged),
one traced calib16 run per commit at seed 11, and whether a few CLI
runs write byte-identical result files on both commits.  Standard library
only.
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
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 11
SECONDS = 5.0
WORKLOADS = ("calib16", "recon48", "protocol16")
TRACE_WORKLOAD = "calib16"
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
# breakdown figures of a deterministic program: equal seeds, equal values
REPEATABLE = ("calib_evals", "calib_psnr_db", "recon_psnr_db", "scenario_psnr_db")
TRACED = ("solvers.tv_prox_n", "solvers.tv_prox_s", "solvers.reconstruct_n",
          "solvers.reconstruct_s", "calibration.evals", "calibration.eval_s",
          "calibration.distinct_theta_ratio", "calib_evals", "calibrate_s", "trace.wall_s")
# CLI runs whose result files must not change; flags after the subcommand
CLI_CASES = (
    ("scenario", ["--modality", "spc", "--size", "16", "--theta-true", "0.012"],
     ("scenario_result.json", "triad_report.json")),
    ("scenario", ["--modality", "ct", "--size", "16", "--theta-true", "3.0"],
     ("scenario_result.json", "triad_report.json")),
    ("calibrate", ["--modality", "cassi", "--size", "16", "--theta-true",
                   "0.5", "0.3", "0.1", "2.02", "0.15", "--calib", "alg1"],
     ("calib_result.json",)),
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
    return {
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
    out["repeatable_identical"] = all(
        r["base"]["breakdown"].get(k) == r["head"]["breakdown"].get(k)
        for r in runs for k in REPEATABLE
    )
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_outputs(checkouts: dict, scratch: Path) -> list:
    cases = []
    for i, (command, flags, files) in enumerate(CLI_CASES):
        hashes, payloads = {}, {}
        for side, checkout in checkouts.items():
            run_dir = scratch / f"cli-{side}-{i}"
            subprocess.run(
                [sys.executable, "-m", "opgraph.cli", command, *flags, "--out", str(run_dir)],
                cwd=checkout, check=True, capture_output=True,
                env={**os.environ, "PYTHONPATH": str(checkout / "src")},
            )
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
        cases.append({"argv": [command, *flags], "sha256": hashes,
                      "byte_identical": hashes["base"] == hashes["head"],
                      "base_fields_identical": base_fields_equal, "counts": counts})
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
        traced = {}
        for side in ("base", "head"):
            res = perfbench(checkouts[side], TRACE_WORKLOAD, FIRST_SEED, 1)
            merged = {**res["metrics"], **res["breakdown"]}
            traced[side] = {k: merged.get(k) for k in TRACED}
        report["trace"] = {"workload": TRACE_WORKLOAD, "seed": FIRST_SEED, **traced}
        report["cli_outputs"] = cli_outputs(checkouts, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
