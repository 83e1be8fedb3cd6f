"""Batch command line binding compile, simulate, calibrate, and verify runs.

Human-readable summaries go to stdout; machine output is JSON (or CSV) files
in the run directory, each covered by a provenance manifest.  Exit codes:
0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit(label: str, value) -> None:
    # a label of 18 characters or more still gets one space before its value
    print(f"{label:<17} {value}")


def _fmt_db(value) -> str:
    if value is None:
        return "n/a"
    if math.isinf(value):
        return "inf"
    return f"{value:.2f} dB"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_run(args, started: str, files: dict, seeds: dict, metrics: dict) -> Path:
    """Write ``files`` and then their ``runbundle.json`` into the run directory.

    The directory is ``--out``, or runs/<command>_<modality>_<size>_s<seed>.
    A ``.json`` file's payload is a dict, any other file's a Tensor.
    """
    from .runbundle import write_runbundle
    from .tensor import save_tensor

    name = f"{args.command}_{args.modality}_{args.size}_s{args.seed}"
    run_dir = Path(args.out) if args.out else Path("runs") / name
    run_dir.mkdir(parents=True, exist_ok=True)
    for fname, payload in files.items():
        if fname.endswith(".json"):
            _write_json(run_dir / fname, payload)
        else:
            save_tensor(payload, run_dir / fname)
    write_runbundle(run_dir, seeds=seeds, metrics=metrics, outputs=list(files),
                    commit=args.commit, started=started, finished=_now())
    return run_dir


def _parse_theta(values):
    return tuple(float(v) for v in values) if values else None


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_compile(args) -> int:
    from .graph import compile_graph, graph_hash, parse_spec

    spec = parse_spec(Path(args.spec).read_text())
    g = compile_graph(spec)
    _emit("nodes", " -> ".join(g.plan_forward))
    _emit("all_linear", str(g.all_linear).lower())
    _emit("input_shape", list(g.input_shape))
    _emit("output_shape", list(g.output_shape))
    _emit("graph_hash", graph_hash(g))
    return EXIT_OK


def _cmd_adjoint_check(args) -> int:
    from .graph import adjoint_check_graph, compile_graph, parse_spec

    g = compile_graph(parse_spec(Path(args.spec).read_text()))
    report = adjoint_check_graph(g, n_trials=args.trials, seed=args.seed)
    _emit("n_trials", report.n_trials)
    _emit("delta_max", f"{report.delta_max:.3e}")
    _emit("tolerance", f"{report.tolerance:.3e}")
    _emit("passed", str(report.passed).lower())
    return EXIT_OK if report.passed else EXIT_NUMERIC


def _cmd_simulate(args) -> int:
    from .protocol import _STREAM_NOISE, measure
    from .templates import instantiate, make_phantoms

    started = _now()
    template = instantiate(args.modality, args.size, fidelity_level=args.level,
                           seed=args.seed)
    theta = _parse_theta(args.theta)
    theta = template.family.check(theta) if theta else template.family.theta_nom
    phantom = make_phantoms(template, 1, seed=args.seed)[0]
    (y,) = measure(template.operator(theta), template.noise, [phantom], args.noisy,
                   args.seed)
    seeds = {"master": args.seed}
    if args.noisy:
        seeds["noise_stream"] = _STREAM_NOISE

    run_dir = _write_run(args, started, {"x_gt.opt": phantom.data, "y.opt": y}, seeds,
                         {"theta": list(theta), "phantom": phantom.name})
    _emit("modality", args.modality)
    _emit("phantom", phantom.name)
    _emit("theta", ", ".join(f"{v:g}" for v in theta))
    _emit("y_shape", list(y.shape))
    _emit("run_dir", run_dir)
    return EXIT_OK


def _cmd_scenario(args) -> int:
    from .protocol import _STREAM_BOOT, _STREAM_NOISE, run_scenarios
    from .templates import instantiate
    from .triad import diagnose

    started = _now()
    template = instantiate(args.modality, args.size, seed=args.seed)
    if args.solver:
        # the template's other solver settings (iterations, TV weight) are kept
        template = replace(template, solver={**template.solver, "name": args.solver})
    theta_true = _parse_theta(args.theta_true)
    result = run_scenarios(template, theta_true, seed=args.seed, calib=args.calib,
                           noisy=args.noisy, n_scenes=args.scenes,
                           n_resamples=args.resamples)
    report = diagnose(template, theta_true, noisy=args.noisy, n_scenes=args.scenes,
                      seed=args.seed)

    run_dir = _write_run(args, started, {"scenario_result.json": result.as_dict(),
                                         "triad_report.json": report.as_dict()},
                         {"master": args.seed, "noise_stream": _STREAM_NOISE,
                          "bootstrap_stream": _STREAM_BOOT},
                         {"means": result.means, "rho": result.rho})

    _emit("modality", args.modality)
    _emit("calib", args.calib)
    for sc in ("I", "II", "III", "IV"):
        _emit(f"psnr_{sc}", _fmt_db(result.means[sc]["psnr_db"]))
    _emit("rho", "n/a" if result.rho is None else f"{result.rho:.4f}")
    _emit("binding_gate", report.dominant_gate)
    _emit("run_dir", run_dir)
    if any(math.isnan(result.means[sc]["psnr_db"]) for sc in ("I", "II", "IV")):
        print("error: non-finite reconstruction metric", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    from .templates import instantiate
    from .triad import diagnose

    started = _now()
    template = instantiate(args.modality, args.size, seed=args.seed)
    report = diagnose(template, _parse_theta(args.theta_true), noisy=args.noisy,
                      n_scenes=args.scenes, seed=args.seed)

    payload = report.as_dict()
    run_dir = _write_run(args, started, {"triad_report.json": payload}, {"master": args.seed},
                         {"binding": report.dominant_gate,
                          "scores": list(report.evidence_scores)})

    for gate, score in payload["evidence_scores"].items():
        _emit(gate, f"{score:.3f}")
    _emit("binding_gate", report.dominant_gate)
    _emit("action", report.recommended_action)
    _emit("run_dir", run_dir)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    from .metrics import param_rmse
    from .protocol import calibrate, measure
    from .templates import instantiate, make_phantoms

    started = _now()
    template = instantiate(args.modality, args.size, seed=args.seed)
    theta_true = template.family.check(_parse_theta(args.theta_true))
    phantom = make_phantoms(template, 1, seed=args.seed)[0]
    (y,) = measure(template.operator(theta_true), template.noise, [phantom], args.noisy,
                   args.seed)
    result = calibrate(template, y, phantom.data, args.calib)

    errors = param_rmse([result.theta_hat], theta_true).tolist()
    payload = {**result.as_dict(), "theta_true": list(theta_true), "param_errors": errors}
    run_dir = _write_run(args, started, {"calib_result.json": payload}, {"master": args.seed},
                         {"objective_value": result.objective_value,
                          "param_errors": errors, "evals": result.evals,
                          "distinct_evals": result.distinct_evals})

    _emit("modality", args.modality)
    _emit("route", args.calib)
    _emit("theta_true", ", ".join(f"{v:g}" for v in theta_true))
    _emit("theta_hat", ", ".join(f"{v:g}" for v in result.theta_hat))
    _emit("max_param_error", f"{max(errors):.4g}")
    _emit("evals", result.evals)
    _emit("distinct_evals", result.distinct_evals)
    _emit("run_dir", run_dir)
    return EXIT_OK


def _cmd_basis_growth(args) -> int:
    from .registry import basis_growth, default_registry, load_registry

    reg = load_registry(args.registry) if args.registry else default_registry()
    rows = basis_growth(reg, list(reg.templates))
    lines = ["N,K"] + [f"{n},{k}" for n, k in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
        _emit("templates", len(rows))
        _emit("k_final", rows[-1][1] if rows else 0)
        _emit("csv", args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .runbundle import verify_runbundle

    report = verify_runbundle(args.run_dir)
    for name, verdict in sorted(report["files"].items()):
        _emit(name, verdict)
    _emit("vcs_commit", report["vcs_commit"])
    _emit("passed", str(report["passed"]).lower())
    return EXIT_OK if report["passed"] else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser


def _add_run_flags(p, theta_flag: str, theta_required: bool) -> None:
    p.add_argument("--modality", required=True)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(theta_flag, nargs="+", type=float, metavar="V",
                   required=theta_required)
    p.add_argument("--noisy", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--commit", default=None)


def build_parser() -> argparse.ArgumentParser:
    from .solvers import SOLVERS

    parser = argparse.ArgumentParser(
        prog="opgraph",
        description="Forward-model compilation, simulation, calibration, and "
                    "run verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a graph spec and print its plan")
    p.add_argument("spec")

    p = sub.add_parser("adjoint-check", help="randomized adjoint certification")
    p.add_argument("spec")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="forward-simulate one scene")
    _add_run_flags(p, "--theta", theta_required=False)
    # solvers need an all-linear graph, so only simulate takes level 2
    p.add_argument("--level", type=int, default=1)

    p = sub.add_parser("scenario", help="run the four-scenario protocol")
    _add_run_flags(p, "--theta-true", theta_required=True)
    p.add_argument("--calib", choices=("none", "alg1", "alg2", "alg1+2"),
                   default="alg1")
    p.add_argument("--solver", choices=SOLVERS, default=None)
    p.add_argument("--scenes", type=int, default=3)
    p.add_argument("--resamples", type=int, default=1000)

    p = sub.add_parser("diagnose", help="score the three gates and bind one")
    _add_run_flags(p, "--theta-true", theta_required=True)
    p.add_argument("--scenes", type=int, default=3)

    p = sub.add_parser("calibrate", help="recover drift parameters from data")
    _add_run_flags(p, "--theta-true", theta_required=True)
    p.add_argument("--calib", choices=("alg1", "alg2", "alg1+2"), default="alg1")

    p = sub.add_parser("basis-growth", help="cumulative primitive count CSV")
    p.add_argument("--registry", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="recheck a run directory's manifest")
    p.add_argument("run_dir")

    return parser


_HANDLERS = {
    "compile": _cmd_compile,
    "adjoint-check": _cmd_adjoint_check,
    "simulate": _cmd_simulate,
    "scenario": _cmd_scenario,
    "diagnose": _cmd_diagnose,
    "calibrate": _cmd_calibrate,
    "basis-growth": _cmd_basis_growth,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage itself; bad flags exit 2, --help exits 0
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a non-finite array means the computation failed, not the request
        return EXIT_NUMERIC if getattr(exc, "code", None) == "NON_FINITE" else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
