"""Run one opgraph benchmark workload and print its metrics.

    python3 perfbench/run.py --workload calib16 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
The run sets up the workload three times (reporting the median set-up time),
then repeats whole rounds until --seconds have passed, checks every round's
outputs and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the program's public functions in
spans and reports the per-layer metrics instead.  Exit code 0 on a completed
run, 2 when the program or the arguments are missing.
"""

import os
import time

# one BLAS thread: the single-threaded baseline, and no pool competes with
# the benchmark's only process for the machine's cores
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# workload-level figures, each measured on the workloads that make such calls
BREAKDOWN = (
    ("calibrate_s", "s"), ("reconstruct_s", "s"), ("scenario_s", "s"), ("diagnose_s", "s"),
    ("calib_evals", "count"), ("calib_psnr_db", "dB"), ("recon_psnr_db", "dB"),
    ("scenario_psnr_db", "dB"),
)
# figures of a deterministic program that must repeat exactly round to round
REPEATABLE = ("calib_evals", "calib_psnr_db", "recon_psnr_db", "scenario_psnr_db")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("calib16", "recon48", "protocol16"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import opgraph from the checkout; False if it is absent."""
    if not (SRC / "opgraph" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import opgraph
    from opgraph import calibration, cli, protocol, registry, triad  # noqa: F401

    registry.default_registry()
    return Path(opgraph.__file__).resolve().parent == (SRC / "opgraph").resolve()


def context(workload: str, seed: int):
    import checks

    registries = SRC / "opgraph" / "registries"
    mismatch = checks.load_yaml(registries, "mismatch")
    return SimpleNamespace(
        thresholds=checks.load_yaml(registries, "thresholds"),
        templates=checks.load_yaml(registries, "templates"),
        ranges={m: [(p["lo"], p["hi"]) for p in fam["params"]] for m, fam in mismatch.items()},
        scratch=OUT / f"{workload}-s{seed}-p{os.getpid()}",
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    seed = args.seed % 2**32
    # numpy is the benchmark's own dependency; the program's import is timed
    import numpy as np

    import speed

    # traced runs time spans on the plain clock; the speed samples would land in them
    clock = None if args.trace else speed.SpeedClock()
    now = clock.now if clock else time.perf_counter
    if clock:
        clock.start()
    start = now()
    if not import_program():
        if clock:
            clock.stop()
        print(f"error: no opgraph sources under {SRC}", file=sys.stderr)
        return 2
    import_s = now() - start

    import spans
    from workloads import WORKLOADS, Ops

    ctx = context(args.workload, seed)
    workload = WORKLOADS[args.workload](seed, ctx)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = now()
        workload.setup()
        setups.append(now() - start)

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rounds = []
    try:
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < args.seconds:
            ops = Ops(now)
            start, wall, cpu = now(), time.perf_counter(), time.process_time()
            out = workload.round(ops)
            rounds.append(SimpleNamespace(out=out, ops=ops, seconds=now() - start,
                                          wall=time.perf_counter() - wall,
                                          cpu=time.process_time() - cpu))
    finally:
        if tracer:
            tracer.uninstall()
        if clock:
            clock.stop()

    try:
        errors, figures = [], []
        for r in rounds:
            errors += workload.check(r.out)
            figures.append(workload.metrics(r.out, r.ops))
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    for key in REPEATABLE:
        if len({f.get(key) for f in figures}) > 1:
            errors.append(f"rounds on the same inputs gave different {key}")

    def figure(name):
        return median(f.get(name, 0.0) for f in figures)

    wall = median(r.wall for r in rounds)
    if tracer:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-s{seed}.jsonl"
        tracer.write(trace_file)
        metrics = tracer.per_layer(len(rounds))
        metrics.update({name: (figure(name), unit) for name, unit in BREAKDOWN})
        span_count = tracer.span_count / len(rounds)
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.spans"] = (span_count, "count")
        metrics["trace.overhead_est_s"] = (span_count * spans.span_cost(), "s")
    else:
        metrics = {
            "setup_s": (import_s + median(setups), "s"),
            "pass_s": (median(r.seconds for r in rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    print(f"workload {args.workload} seed {seed} rounds {len(rounds)} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"platform python {platform.python_version()} numpy {np.__version__} "
          f"nproc {os.cpu_count()} blas_threads {BLAS_THREADS}")
    print(f"raw wall_s={wall:.4f} cpu_s={median(r.cpu for r in rounds):.4f} "
          f"speed_samples={clock.samples if clock else 0}")
    print("setup " + " ".join(f"{s:.4f}" for s in setups) + f" import {import_s:.4f}")
    print("breakdown " + " ".join(f"{name}={figure(name):.6g} {unit}"
                                  for name, unit in BREAKDOWN if name in figures[0]))
    if tracer:
        print(f"trace {trace_file.relative_to(HERE.parent)}")
    for note in dict.fromkeys(workload.observed):
        print(f"observed: {note}")
    for r in rounds:
        for note in r.ops.notes:
            print(f"failed: {note}")
    for err in errors:
        print(f"check: {err}")
    result = {
        "correct": not errors,
        "attempted": sum(r.ops.attempted for r in rounds),
        "failed": sum(r.ops.failed for r in rounds),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
