"""Synthetic reconstruction experiments, metrics, and the prox benchmark.

Data generation is fully determined by the seed through numpy's default
PCG64 generator, so runs reproduce byte-for-byte across platforms.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grouped import dual_exponent, q_norm
from .losses import Dataset, LossKind, row_group_offsets
from .prox import prox_lq_general
from .solver import SolverConfig, _checked_ratios, _warm_path, lambda_max

__all__ = [
    "ExperimentConfig",
    "MetricsRow",
    "default_ratios",
    "synth_generate",
    "run_path_experiment",
    "support_f1",
    "balanced_error_rate",
    "bench_prox",
    "METRICS_HEADER",
    "metrics_to_csv",
]


def default_ratios(n=100):
    """The standard ratio schedule 0.9**0, 0.9**1, ..., 0.9**(n-1)."""
    return 0.9 ** np.arange(n)


@dataclass
class ExperimentConfig:
    m: int = 100
    d: int = 200
    d_sparse: int = 50
    k: int = 50
    sigma: float = 0.1
    nonzero_dist: str = "standard_normal"  # or "uniform01"
    seed: int = 0
    q: float = 2.0
    ratios: np.ndarray = field(default_factory=default_ratios)

    def __post_init__(self):
        if min(self.m, self.d, self.d_sparse, self.k) < 1:
            raise ValueError("m, d, d_sparse and k must be positive")
        if self.d_sparse > self.d:
            raise ValueError("d_sparse must not exceed d")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.nonzero_dist not in ("uniform01", "standard_normal"):
            raise ValueError(f"unknown nonzero_dist {self.nonzero_dist!r}")
        self.ratios = _checked_ratios(self.ratios)


@dataclass
class MetricsRow:
    ratio: float
    lam: float
    frobenius_error: float
    support_f1: float
    row_l2_norms: np.ndarray
    objective: float
    iterations: int
    wall_time_ms: float
    error: Optional[str] = None


def synth_generate(cfg: ExperimentConfig):
    """Draw (Dataset, ground_truth) for the jointly row-sparse model.

    A has i.i.d. standard normal entries; the first d_sparse rows of the
    ground truth are drawn from the configured distribution, the rest are
    exactly zero; Y = A @ X + noise with noise sd sigma.
    """
    rng = np.random.default_rng(cfg.seed)
    a = rng.standard_normal((cfg.m, cfg.d))
    x_true = np.zeros((cfg.d, cfg.k))
    if cfg.nonzero_dist == "uniform01":
        x_true[: cfg.d_sparse] = rng.uniform(0.0, 1.0, size=(cfg.d_sparse, cfg.k))
    else:
        x_true[: cfg.d_sparse] = rng.standard_normal((cfg.d_sparse, cfg.k))
    y = a @ x_true
    if cfg.sigma > 0:
        y = y + cfg.sigma * rng.standard_normal((cfg.m, cfg.k))
    return Dataset(a, y), x_true


def support_f1(row_norms, true_support, threshold):
    """F1 score of {row norm > threshold} against the true nonzero rows."""
    predicted = np.asarray(row_norms) > threshold
    true_support = np.asarray(true_support, dtype=bool)
    tp = int(np.sum(predicted & true_support))
    if tp == 0:
        return 0.0
    precision = tp / int(predicted.sum())
    recall = tp / int(true_support.sum())
    return 2.0 * precision * recall / (precision + recall)


def run_path_experiment(cfg: ExperimentConfig, solver_cfg: SolverConfig = None,
                        threshold_ratio=1e-3):
    """Warm-started regularization path on synthetic data, with metrics.

    The support threshold is threshold_ratio times the largest row norm of
    the current solution. Solver failures are recorded on their row and
    the path continues.
    """
    if solver_cfg is None:
        solver_cfg = SolverConfig(max_iter=2000, rel_tol=1e-9)
    data, x_true = synth_generate(cfg)
    offsets = row_group_offsets(cfg.d, cfg.k)
    lam_max = lambda_max(data, LossKind.LEAST_SQUARES, offsets, cfg.q)
    true_support = np.any(x_true != 0.0, axis=1)

    rows = []
    points = _warm_path(data, LossKind.LEAST_SQUARES, offsets, cfg.q,
                        [float(r) * lam_max for r in cfg.ratios], solver_cfg)
    for r, (problem, res, seconds) in zip(cfg.ratios, points):
        elapsed_ms = seconds * 1e3
        if isinstance(res, Exception):
            rows.append(MetricsRow(float(r), problem.lam, math.nan, math.nan,
                                   np.full(cfg.d, math.nan), math.nan, 0,
                                   elapsed_ms, str(res)))
            continue
        x_hat = problem.matrix(res.W)
        row_norms = np.sqrt(np.square(x_hat).sum(axis=1))
        max_norm = float(row_norms.max())
        thr = threshold_ratio * max_norm if max_norm > 0 else 0.0
        rows.append(MetricsRow(
            ratio=float(r),
            lam=problem.lam,
            frobenius_error=float(np.linalg.norm(x_hat - x_true)),
            support_f1=support_f1(row_norms, true_support, thr),
            row_l2_norms=row_norms,
            objective=float(res.objective_history.min()),
            iterations=res.iterations,
            wall_time_ms=elapsed_ms,
        ))
    return rows


def balanced_error_rate(predictions, labels):
    """Mean of the per-class error rates for +-1 predictions and labels."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    pos = labels > 0
    neg = labels < 0
    if not (pos.any() and neg.any()):
        raise ValueError("both classes must be present in labels")
    err_pos = float(np.mean(predictions[pos] <= 0))
    err_neg = float(np.mean(predictions[neg] > 0))
    return 0.5 * (err_pos + err_neg)


def bench_prox(n_values, q, lambda_ratio=0.5, seed=0, runs=21):
    """Median projection times over random positive vectors of each size.

    Returns a list of (n, median_ns, outer_iters, inner_sweeps) tuples,
    inner_sweeps counting the passes over the vector; the counts are those of
    the last run at each size. At n = 1, and at every n when q = 2, the
    bracket of c* is a point and the projection is a closed form: 0 steps
    and 0 passes.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    rng = np.random.default_rng(seed)
    out = []
    for n in n_values:
        n = int(n)
        if n < 1:
            raise ValueError("sizes must be positive")
        times = []
        for _ in range(runs):
            v = np.abs(rng.standard_normal(n)) + 0.01
            lam = lambda_ratio * q_norm(v, dual_exponent(q))
            t0 = time.perf_counter_ns()
            _, diag = prox_lq_general(v, lam, q)
            times.append(time.perf_counter_ns() - t0)
        out.append((n, float(np.median(times)), diag.outer_iters,
                    diag.inner_iters_total))
    return out


METRICS_HEADER = [
    "ratio", "lambda", "frobenius_error", "support_f1", "objective",
    "iterations", "wall_time_ms", "error", "row_l2_norms",
]


def metrics_to_csv(rows, fh):
    """Write metrics rows as CSV with a fixed header order.

    row_l2_norms is serialized as a single semicolon-joined column so the
    file stays one row per path point.
    """
    fh.write(",".join(METRICS_HEADER) + "\n")
    for r in rows:
        norms = ";".join(repr(float(x)) for x in np.asarray(r.row_l2_norms))
        fields = [
            repr(r.ratio), repr(r.lam), repr(r.frobenius_error),
            repr(r.support_f1), repr(r.objective), str(r.iterations),
            repr(r.wall_time_ms), r.error or "", norms,
        ]
        fh.write(",".join(fields) + "\n")
