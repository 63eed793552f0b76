"""Seeded benchmark of groupprox: warm-started paths and single-group projections.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. BLAS is limited to one
thread, so the numbers describe one core.

Workloads (the BENCHMARK.json file next to this directory says why each
exists):

- ``path_q2``, ``path_q3``, ``path_qinf``: a warm-started multi-task
  least-squares path with ``run_path_experiment`` semantics (the solver
  settings it uses, the ``ExperimentConfig`` default shape m=100, d=200,
  d_sparse=50, k=50, sigma=0.1, and a decreasing prefix of
  ``default_ratios()``) at q = 2, 3 and inf. One operation is one full
  path; every path point is checked.
- ``prox_single``: ``prox_lq_general`` on one group of 1e5 coordinates
  at q = 1.5, 3 and 5, with a fresh signed Gaussian v per call and
  lam = 0.5*||v||_qbar. One operation is one projection at each of the
  three q, so its time is their sum and a slowdown at any one q shows.

Every input comes from ``--seed``: set-up draws a pool of inputs (datasets
or vectors) from it and the run visits the pool in order, wrapping round,
while another operation fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics, measured with nothing
wrapped. The path workloads' times are scaled to a fixed speed of the
machine: the plain-numpy workload in ``reference.py`` runs between
operations, and each time is multiplied by its nominal time over its
median time in the run. The unscaled times are printed on the line
before the result. ``prox_single`` is not scaled: over five seeds no
part of the reference, alone or combined, narrowed its spread, and the
streaming part moved its median between runs more than the kernel moved.
``setup_s`` is not scaled either: it is mostly interpreter start and
imports, which the reference does not mirror.

``--trace 1`` alternates an untraced and a traced pass over the first few
inputs of the pool and reports the per-layer metrics, which the tracer in
``tracing.py`` collects around the package's public functions.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
import reference
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Number of set-ups timed for setup_s, each in a fresh interpreter.
SETUP_REPEATS = 5

# Share of a run spent timing the reference workload (see measure()).
REFERENCE_SHARE = 0.05


@dataclass(frozen=True)
class PathWorkload:
    q: float
    n_points: int   # prefix length of default_ratios()
    pool: int       # datasets drawn at set-up
    traced: int     # datasets in each pass of a traced run


@dataclass(frozen=True)
class ProxWorkload:
    n: int
    qs: tuple
    lam_ratio: float
    pool: int       # input sets drawn at set-up, one vector per q each
    traced: int     # input sets in each pass of a traced run


# A pool holds more inputs than a run of 27 s visits on one core, so each
# operation of a run has its own input and the median spans many draws of
# the seed: the cost of a path varies by about 20% between datasets.
WORKLOADS = {
    "path_q2": PathWorkload(q=2.0, n_points=30, pool=96, traced=4),
    "path_q3": PathWorkload(q=3.0, n_points=2, pool=64, traced=4),
    "path_qinf": PathWorkload(q=math.inf, n_points=20, pool=20, traced=2),
    "prox_single": ProxWorkload(n=100_000, qs=(1.5, 3.0, 5.0), lam_ratio=0.5,
                                pool=4, traced=1),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "op_s_tail": "s",
    "cert_digits": "digits",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "solver.iterations": "count",
    "solver.backtracks": "count",
    "solver.prox_calls": "count",
    "solver.self_s": "s",
    "losses.value.calls": "count",
    "losses.value.s": "s",
    "losses.gradient.calls": "count",
    "losses.gradient.s": "s",
    "grouped.norms.calls": "count",
    "grouped.norms.s": "s",
    "grouped.vectors_built": "count",
    "prox.grouped.calls": "count",
    "prox.grouped.s": "s",
    "prox.grouped.ms_p50": "ms",
    "prox.linf.calls": "count",
    "rootfind.l1_threshold.calls": "count",
    "rootfind.l1_threshold.s": "s",
    "prox.single.s": "s",
    "prox.single.outer_iters": "count",
    "prox.single.inner_sweeps": "count",
    "prox.single.coord_evals": "count",
    "experiments.synth_s": "s",
    "solver.lambda_max_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer metrics read from a tracer metric: (tracer metric, field).
# Values are per operation (per path).
_SPAN_METRICS = {
    "solver.prox_calls": ("prox.grouped", "calls"),
    "solver.self_s": ("solver.solve", "self_s"),
    "losses.value.calls": ("losses.value", "calls"),
    "losses.value.s": ("losses.value", "total_s"),
    "losses.gradient.calls": ("losses.gradient", "calls"),
    "losses.gradient.s": ("losses.gradient", "total_s"),
    "grouped.norms.calls": ("grouped.norms", "calls"),
    "grouped.norms.s": ("grouped.norms", "total_s"),
    "grouped.vectors_built": ("grouped.vectors_built", "calls"),
    "prox.grouped.calls": ("prox.grouped", "calls"),
    "prox.grouped.s": ("prox.grouped", "total_s"),
    "prox.linf.calls": ("prox.linf", "calls"),
    "rootfind.l1_threshold.calls": ("rootfind.l1_threshold", "calls"),
    "rootfind.l1_threshold.s": ("rootfind.l1_threshold", "total_s"),
}

def load_groupprox():
    """Import the package from this checkout's src directory."""
    if not os.path.isfile(os.path.join(SRC, "groupprox", "__init__.py")):
        raise SystemExit(f"perfbench: no groupprox sources under {SRC}")
    sys.path.insert(0, SRC)
    import groupprox
    return groupprox


def tail(samples):
    """The highest percentile the sample count supports.

    That is the highest percentile with ten samples beyond it, but never
    below the median: p90 at 100 samples, p75 at 41, the median below 21.
    """
    s = sorted(samples)
    return s[len(s) - 1 - min(10, (len(s) - 1) // 2)]


# ---------------------------------------------------------------- inputs

@dataclass
class PathCase:
    data: object        # groupprox Dataset
    offsets: np.ndarray
    lam_max: float
    ratios: np.ndarray
    q: float


@dataclass
class ProxCase:
    v: np.ndarray
    lam: float
    q: float


@dataclass
class Setup:
    cases: list
    synth_s: list
    lambda_max_s: list


def setup_path(gp, wl, seed):
    cases, synth_s, lam_s = [], [], []
    seeds = np.random.SeedSequence(seed).generate_state(wl.pool)
    for s in seeds:
        cfg = gp.experiments.ExperimentConfig(
            seed=int(s), q=wl.q,
            ratios=gp.experiments.default_ratios()[:wl.n_points])
        t0 = time.perf_counter()
        data, _ = gp.experiments.synth_generate(cfg)
        t1 = time.perf_counter()
        offsets = gp.losses.row_group_offsets(cfg.d, cfg.k)
        lam_max = gp.solver.lambda_max(data, gp.losses.LossKind.LEAST_SQUARES,
                                       offsets, wl.q)
        t2 = time.perf_counter()
        synth_s.append(t1 - t0)
        lam_s.append(t2 - t1)
        cases.append(PathCase(data, offsets, lam_max, cfg.ratios, wl.q))
    # Warm-up: the first path point (ratio 1, whose solution is zero).
    run_path(gp, cases[0], n_points=1)
    return Setup(cases, synth_s, lam_s)


def setup_prox(gp, wl, seed):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(wl.pool):
        group = []
        for q in wl.qs:
            v = rng.standard_normal(wl.n)
            lam = wl.lam_ratio * float(np.linalg.norm(
                v, ord=checks.dual_exponent(q)))
            group.append(ProxCase(v, lam, q))
        cases.append(tuple(group))
    # Warm-up: one small projection per q.
    small = rng.standard_normal(1000)
    for q in wl.qs:
        gp.prox.prox_lq_general(small, 0.5 * float(np.linalg.norm(
            small, ord=checks.dual_exponent(q))), q)
    return Setup(cases, [], [])


def setup(gp, wl, seed):
    if isinstance(wl, PathWorkload):
        return setup_path(gp, wl, seed)
    return setup_prox(gp, wl, seed)


# ------------------------------------------------------------ operations

@dataclass
class OpResult:
    seconds: float
    attempted: int
    failed: int
    cert: float          # worst relative error of the operation
    iterations: int = 0
    backtracks: int = 0
    outer_iters: int = 0
    inner_sweeps: int = 0


def run_path(gp, case, n_points=None):
    """Warm-started path as run_path_experiment runs it.

    Returns ([(lam, SolverResult or None, error or None)], SolverConfig).
    Module attributes are looked up at call time, so a tracer sees the
    calls.
    """
    solver = gp.solver
    cfg = solver.SolverConfig(max_iter=2000, rel_tol=1e-9)
    points, w = [], None
    for r in case.ratios[:n_points]:
        lam = float(r) * case.lam_max
        problem = solver.Problem(case.data, gp.losses.LossKind.LEAST_SQUARES,
                                 case.offsets, lam, case.q)
        try:
            res = solver.solve(problem, cfg, x0=w)
        except (solver.NumericalFailure, gp.prox.ProjectionError) as exc:
            points.append((lam, None, str(exc)))
            continue
        w = res.W
        points.append((lam, res, None))
    return points, cfg


def path_op(gp, case):
    t0 = time.perf_counter()
    points, cfg = run_path(gp, case)
    seconds = time.perf_counter() - t0
    data = case.data
    shape = (data.n_features, data.n_tasks)
    failed, worst, iterations, backtracks = 0, 0.0, 0, 0
    for lam, res, error in points:
        w = None if res is None else res.W.values.reshape(shape)
        ok, gap = checks.check_path_point(data.design, data.targets, w, lam,
                                          case.q, error)
        failed += not ok
        worst = max(worst, gap)
        if res is not None:
            iterations += res.iterations
            backtracks += round(math.log(res.L_history[-1] / cfg.L0)
                                / math.log(cfg.growth))
    return OpResult(seconds, len(points), failed, worst,
                    iterations=iterations, backtracks=backtracks)


def prox_op(gp, cases):
    """One projection per case (one per q); times and counts add up."""
    op = OpResult(0.0, len(cases), 0, 0.0)
    for case in cases:
        t0 = time.perf_counter()
        try:
            x, diag = gp.prox.prox_lq_general(case.v, case.lam, case.q)
        except gp.prox.ProjectionError:
            x, diag = None, None
        op.seconds += time.perf_counter() - t0
        ok, res = checks.check_prox(x, case.v, case.lam, case.q)
        op.failed += not ok
        op.cert = max(op.cert, res)
        if diag is not None:
            op.outer_iters += diag.outer_iters
            op.inner_sweeps += diag.inner_iters_total
    return op


def run_op(gp, wl, case):
    if isinstance(wl, PathWorkload):
        return path_op(gp, case)
    return prox_op(gp, case)


# ------------------------------------------------------------ reporting

def _time_setups(workload, seed):
    """Median wall time of SETUP_REPEATS set-ups, each in a new interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fits(t_start, last, seconds):
    """Whether work as long as the ``last`` operations ends within seconds."""
    elapsed = time.perf_counter() - t_start
    return elapsed + sum(r.seconds for r in last) <= seconds


def measure(gp, wl, seed, seconds):
    """Untraced run: end-to-end metrics, except setup_s.

    Path times are reported raw and scaled to the reference speed. Before
    each path the reference runs at least once and until it has taken
    REFERENCE_SHARE of the previous path's time, so long paths sample the
    machine's speed as often as short ones.
    """
    st = setup(gp, wl, seed)
    ref = reference.Reference() if isinstance(wl, PathWorkload) else None
    results, refs = [], []
    t_start = time.perf_counter()
    while not results or _fits(t_start, results[-1:], seconds):
        case = st.cases[len(results) % len(st.cases)]
        budget = REFERENCE_SHARE * results[-1].seconds if results else 0.0
        spent = 0.0
        while ref is not None and (not spent or spent < budget):
            refs.append(ref.seconds())
            spent += refs[-1]
        results.append(run_op(gp, wl, case))
    op_s = [r.seconds for r in results]
    raw = {"op_s": statistics.median(op_s), "op_s_tail": tail(op_s)}
    scale = 1.0
    if refs:
        raw["reference_s"] = statistics.median(refs)
        scale = raw["scale"] = ref.nominal_s / raw["reference_s"]
    metrics = {
        "op_s": raw["op_s"] * scale,
        "op_s_tail": raw["op_s_tail"] * scale,
        "cert_digits": statistics.median(checks.cert_digits(r.cert) for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return results, metrics, raw


def traced(gp, wl, seed, seconds, tracer=None):
    """Traced run: per-layer metrics, per operation.

    Alternates an untraced and a traced pass over the first wl.traced
    inputs while another pair of passes fits in ``seconds``. Counters come
    from the traced passes, which repeat identical work, so they do not
    depend on how many passes fit.
    """
    st = setup(gp, wl, seed)
    cases = st.cases[:wl.traced]
    tracer = tracer or Tracer()
    plain, spans = [], []
    t_start = time.perf_counter()
    while not spans or _fits(t_start, plain[-len(cases):] + spans[-len(cases):],
                             seconds):
        plain += [run_op(gp, wl, c) for c in cases]
        with tracer:
            spans += [run_op(gp, wl, c) for c in cases]
    n = len(spans)

    def per_op(total):
        return total / n

    m = {name: 0.0 for name in PER_LAYER_UNITS}
    m["trace.overhead_s"] = (statistics.median(r.seconds for r in spans)
                             - statistics.median(r.seconds for r in plain))
    if isinstance(wl, PathWorkload):
        m["solver.iterations"] = per_op(sum(r.iterations for r in spans))
        m["solver.backtracks"] = per_op(sum(r.backtracks for r in spans))
        for name, (span, field) in _SPAN_METRICS.items():
            stats = tracer.get(span)
            m[name] = None if stats is None else per_op(getattr(stats, field))
        grouped = tracer.get("prox.grouped")
        if grouped is None:
            m["prox.grouped.ms_p50"] = None
        elif grouped.durations:
            m["prox.grouped.ms_p50"] = 1e3 * statistics.median(grouped.durations)
        m["experiments.synth_s"] = statistics.median(st.synth_s)
        m["solver.lambda_max_s"] = statistics.median(st.lambda_max_s)
    else:
        m["prox.single.s"] = statistics.median(r.seconds for r in spans)
        m["prox.single.outer_iters"] = per_op(sum(r.outer_iters for r in spans))
        m["prox.single.inner_sweeps"] = per_op(sum(r.inner_sweeps for r in spans))
        m["prox.single.coord_evals"] = m["prox.single.inner_sweeps"] * wl.n
    for name in sorted(tracer.missing):
        print(f"perfbench: traced name for {name} not found; "
              "its metrics are not reported", file=sys.stderr)
    return plain + spans, {k: v for k, v in m.items() if v is not None}, \
        layer_shares(tracer)


def layer_shares(tracer):
    """Share of traced solve time spent in each layer's own code.

    A tracer metric's layer is the first part of its name.
    """
    selfs = {}
    for metric, stats in tracer.stats.items():
        layer = metric.split(".")[0]
        selfs[layer] = selfs.get(layer, 0.0) + stats.self_s
    total = sum(selfs.values())
    return {k: v / total for k, v in selfs.items()} if total > 0 else {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and set up, then exit (times setup_s)")
    args = ap.parse_args(argv)

    gp = load_groupprox()
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        setup(gp, wl, args.seed)
        return 0
    if args.trace:
        results, metrics, shares = traced(gp, wl, args.seed, args.seconds)
        print(json.dumps({"layer_shares": shares}))
        units = PER_LAYER_UNITS
    else:
        results, metrics, raw = measure(gp, wl, args.seed, args.seconds)
        metrics["setup_s"] = _time_setups(args.workload, args.seed)
        print(json.dumps({"raw": raw}))
        units = END_TO_END_UNITS
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
