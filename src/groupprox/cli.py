"""Command-line front end.

Subcommands: prox, solve, path, synth, bench, demo-fixed-point, ber.
All tabular output is plain CSV so any plotting tool can consume it.
Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .experiments import (
    ExperimentConfig,
    balanced_error_rate,
    bench_prox,
    default_ratios,
    metrics_to_csv,
    run_path_experiment,
    synth_generate,
)
from .grouped import GroupedVector
from .losses import Dataset, LossKind, row_group_offsets
from .oracle import fixed_point_trace
from .prox import ProjectionError, prox_grouped, prox_lq_general
from .solver import NumericalFailure, Problem, SolverConfig, solve

__all__ = ["main"]


def _parse_q(text):
    q = float(text)
    if not q >= 1:
        raise ValueError(f"q must be at least 1, got {text}")
    return q


def _parse_sizes(text):
    """Comma-separated positive integers, also in float notation such as 1e3."""
    sizes = [float(part) for part in text.split(",")]
    if not all(n.is_integer() and n >= 1 for n in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be positive integers, got {text}")
    return [int(n) for n in sizes]


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return n


def _read_vector(path):
    if path == "-":
        raw = sys.stdin.read()
    else:
        raw = Path(path).read_text()
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty input vector")
    return np.array([float(p) for p in parts])


def _read_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _write_matrix(path, m):
    np.savetxt(path, np.asarray(m), delimiter=",", fmt="%.17g")


@contextmanager
def _output(path):
    """The file at path opened for writing, or stdout for None or '-'."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _cmd_prox(args):
    v = _read_vector(args.input)
    if args.groups:
        offsets = np.array(json.loads(args.groups), dtype=np.intp)
    elif args.group_size is not None:
        if v.size % args.group_size:
            raise ValueError("group size must divide the vector length")
        offsets = np.arange(0, v.size + 1, args.group_size, dtype=np.intp)
    else:
        offsets = np.array([0, v.size], dtype=np.intp)
    out = prox_grouped(GroupedVector(v, offsets), args.lam, args.q)
    with _output(args.out) as fh:
        for x in out.values:
            fh.write(f"{float(x)!r}\n")
    return 0


def _cmd_solve(args):
    spec = json.loads(Path(args.spec).read_text())
    data = Dataset(_read_matrix(args.design), _read_matrix(args.targets))
    kind = LossKind(spec["loss"])
    q = _parse_q(str(spec["q"]))
    lam = float(spec["lambda"])
    offsets = spec.get("offsets")
    if offsets is None:
        offsets = row_group_offsets(data.n_features, data.n_tasks)
    problem = Problem(data, kind, np.asarray(offsets, dtype=np.intp), lam, q)
    cfg = SolverConfig(max_iter=args.max_iter, rel_tol=args.rel_tol)
    res = solve(problem, cfg)
    with _output(args.out) as fh:
        _write_matrix(fh, problem.matrix(res.W))
    print(
        f"iterations={res.iterations} trials={res.trials} "
        f"objective={float(res.objective_history.min())!r} converged={res.converged}",
        file=sys.stderr,
    )
    return 0


def _experiment_config(args):
    return ExperimentConfig(
        m=args.m, d=args.d, d_sparse=args.dsparse, k=args.k, sigma=args.sigma,
        nonzero_dist="uniform01" if args.dist == "uniform" else "standard_normal",
        seed=args.seed, q=args.q, ratios=default_ratios(args.n_ratios),
    )


def _cmd_path(args):
    cfg = _experiment_config(args)
    solver_cfg = SolverConfig(max_iter=args.max_iter, rel_tol=args.rel_tol)
    rows = run_path_experiment(cfg, solver_cfg,
                               threshold_ratio=args.support_threshold)
    with _output(args.out) as fh:
        metrics_to_csv(rows, fh)
    return 0


def _cmd_synth(args):
    cfg = _experiment_config(args)
    data, x_true = synth_generate(cfg)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_matrix(out_dir / "design.csv", data.design)
    _write_matrix(out_dir / "targets.csv", data.targets)
    _write_matrix(out_dir / "ground_truth.csv", x_true)
    sidecar = {
        "loss": "least_squares",
        "q": "inf" if math.isinf(cfg.q) else cfg.q,
        "lambda": 0.0,
        "offsets": [int(o) for o in row_group_offsets(cfg.d, cfg.k)],
    }
    (out_dir / "problem.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return 0


def _cmd_bench(args):
    rows = bench_prox(args.sizes, args.q, args.ratio, args.seed, args.runs)
    with _output(args.out) as fh:
        fh.write("n,median_ns,outer_iters,inner_sweeps\n")
        for n, med, outer, inner in rows:
            fh.write(f"{n},{med!r},{outer},{inner}\n")
    return 0


def _cmd_demo_fixed_point(args):
    v = np.array([float(t) for t in args.v.split(",")])
    start = np.array([float(t) for t in args.start.split(",")]) if args.start else v.copy()
    trace = fixed_point_trace(v, args.lam, args.q, start, args.iters)
    x_star, diag = prox_lq_general(v, args.lam, args.q)
    with _output(args.out) as fh:
        fh.write("iter," + ",".join(f"x{i}" for i in range(v.size)) + "\n")
        for t, x in enumerate(trace.iterates):
            fh.write(f"{t}," + ",".join(repr(float(c)) for c in x) + "\n")
    steps = [float(np.abs(b - a).max())
             for a, b in zip(trace.iterates, trace.iterates[1:])]
    converged = bool(steps and steps[-1] <= 1e-6)
    print(
        f"fixed_point_converged={converged} truncated={trace.truncated} "
        f"projection_residual={diag.residual!r}",
        file=sys.stderr,
    )
    return 0


def _cmd_ber(args):
    preds = _read_vector(args.predictions)
    labels = _read_vector(args.labels)
    print(repr(balanced_error_rate(np.sign(preds), labels)))
    return 0


def _add_synth_flags(p):
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--d", type=int, default=200)
    p.add_argument("--dsparse", type=int, default=50)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--dist", choices=("uniform", "normal"), default="normal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=_parse_q, default=2.0)
    p.add_argument("--n-ratios", type=_positive_int, default=100)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="groupprox",
        description="Group-sparse l1/lq projection and solver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prox", help="project a vector (file or stdin)")
    p.add_argument("input", nargs="?", default="-",
                   help="vector file, or '-' for stdin")
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--groups", help="JSON offsets array, e.g. [0,2,4]")
    p.add_argument("--group-size", type=_positive_int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_prox)

    p = sub.add_parser("solve", help="solve a problem from CSV data + JSON sidecar")
    p.add_argument("--design", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--spec", required=True,
                   help="JSON with loss, q, lambda and optional offsets")
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("path", help="synthetic warm-started regularization path")
    _add_synth_flags(p)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--support-threshold", type=float, default=1e-3,
                   help="row-norm threshold as a fraction of the max row norm")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("synth", help="write synthetic design/targets/truth CSVs")
    _add_synth_flags(p)
    p.add_argument("--out", help="output directory (default: cwd)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="time the general-q projection")
    p.add_argument("--sizes", type=_parse_sizes, default="1000,10000,100000",
                   help="comma-separated vector sizes, such as 1e3,1e4")
    p.add_argument("--q", type=_parse_q, default=3.0)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=21)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("demo-fixed-point",
                       help="trace the naive fixed-point iteration")
    p.add_argument("--v", default="1,3")
    p.add_argument("--start", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--q", type=_parse_q, default=3.0)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_demo_fixed_point)

    p = sub.add_parser("ber", help="balanced error rate of +-1 predictions")
    p.add_argument("--predictions", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_ber)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalFailure, ProjectionError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
