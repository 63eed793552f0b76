"""Accelerated proximal-gradient solver for group-sparse problems.

Each iteration forms a search point as an affine combination of the last
two iterates, takes a proximal step from it, and doubles the smoothness
estimate L until the quadratic model upper-bounds the objective at the
candidate (Armijo-Goldstein style line search). L never shrinks. The
momentum weights follow alpha_{i+1} = (1 + sqrt(1 + 4*alpha_i**2))/2 with
alpha_{-1} = 0, alpha_0 = 1, giving the O(1/k**2) objective-gap rate
F(x_k) - F* <= 2 * L_k * ||x_0 - x*||**2 / (k + 1)**2 for the k-th accepted
iterate x_k, its smoothness estimate L_k and any minimizer x* (Beck &
Teboulle 2009, Thm. 4.4). The rate is an upper bound only: on strongly
convex problems the gap may fall faster, even linearly.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grouped import GroupedVector, dual_exponent, group_norms, mixed_norm
from .losses import Dataset, LossKind, loss_gradient, loss_value
from .prox import prox_grouped
from .rootfind import RootConfig

__all__ = [
    "Problem",
    "SolverConfig",
    "SolverResult",
    "NumericalFailure",
    "model_value",
    "prox_step",
    "solve",
    "lambda_max",
    "reg_path",
]


class NumericalFailure(RuntimeError):
    """Objective became non-finite; carries the iteration index."""

    def __init__(self, msg, iteration):
        super().__init__(f"{msg} (iteration {iteration})")
        self.iteration = iteration


@dataclass
class Problem:
    """A grouped, regularized smooth-loss minimization instance."""

    data: Dataset
    kind: LossKind
    offsets: np.ndarray
    lam: float
    q: float

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        if self.offsets[-1] != self.data.n_features * self.data.n_tasks:
            raise ValueError(
                "offsets must partition the flattened d x k coefficient vector"
            )
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if not self.q >= 1:
            raise ValueError("q must be at least 1")

    def matrix(self, w: GroupedVector):
        return w.values.reshape(self.data.n_features, self.data.n_tasks)

    def smooth(self, w: GroupedVector):
        return loss_value(self.matrix(w), self.data, self.kind)

    def smooth_gradient(self, w: GroupedVector):
        g = loss_gradient(self.matrix(w), self.data, self.kind)
        return w.with_values(g.reshape(-1))

    def objective(self, w: GroupedVector):
        return self.smooth(w) + self.lam * mixed_norm(w, self.q)

    def zero(self):
        n = self.data.n_features * self.data.n_tasks
        return GroupedVector(np.zeros(n), self.offsets)


@dataclass
class SolverConfig:
    L0: float = 1.0
    max_iter: int = 1000
    rel_tol: float = 1e-10
    growth: float = 2.0

    def __post_init__(self):
        if not (self.L0 > 0 and self.max_iter >= 1 and self.rel_tol > 0):
            raise ValueError("L0, max_iter and rel_tol must be positive")
        if not self.growth > 1:
            raise ValueError("growth must exceed 1")


@dataclass
class SolverResult:
    W: GroupedVector
    objective_history: np.ndarray
    L_history: np.ndarray
    iterations: int
    converged: bool
    # f(X_{i+1}) - M_{L,S}(X_{i+1}) at each accepted step; nonpositive up
    # to float noise when the line-search certificate holds
    cert_gaps: np.ndarray = field(default=None)


def model_value(y: GroupedVector, x: GroupedVector, L, problem: Problem):
    """Quadratic upper model at x: Taylor term + penalty + (L/2)||y - x||**2."""
    if not L > 0:
        raise ValueError("L must be positive")
    g = problem.smooth_gradient(x)
    diff = y.values - x.values
    return (
        problem.smooth(x)
        + float(g.values @ diff)
        + problem.lam * mixed_norm(y, problem.q)
        + 0.5 * L * float(diff @ diff)
    )


def prox_step(s: GroupedVector, L, problem: Problem, cfg: RootConfig = None):
    """Minimizer of the model at s: prox of s - grad(s)/L at level lam/L."""
    if not L > 0:
        raise ValueError("L must be positive")
    g = problem.smooth_gradient(s)
    v = s.with_values(s.values - g.values / L)
    return prox_grouped(v, problem.lam / L, problem.q, cfg)


def solve(problem: Problem, cfg: SolverConfig = None, x0: GroupedVector = None,
          root_cfg: RootConfig = None) -> SolverResult:
    """Run the accelerated proximal-gradient iteration.

    Stops at max_iter or when the relative objective change drops below
    rel_tol; returns the best-objective iterate seen (the accelerated
    sequence is not monotone).
    """
    if cfg is None:
        cfg = SolverConfig()
    if root_cfg is None:
        root_cfg = RootConfig()
    x_prev = problem.zero() if x0 is None else x0.copy()
    x = x_prev.copy()
    alpha_mm, alpha_m = 0.0, 1.0  # alpha_{i-2}, alpha_{i-1}
    L = cfg.L0
    obj_hist, L_hist, gaps = [], [], []
    best_f = math.inf
    best_x = x.copy()
    prev_f = None
    converged = False
    iterations = 0

    for i in range(1, cfg.max_iter + 1):
        beta = (alpha_mm - 1.0) / alpha_m
        s = x.with_values(x.values + beta * (x.values - x_prev.values))
        g = problem.smooth_gradient(s)
        loss_s = problem.smooth(s)
        while True:
            y = prox_grouped(
                s.with_values(s.values - g.values / L), problem.lam / L,
                problem.q, root_cfg,
            )
            penalty = problem.lam * mixed_norm(y, problem.q)
            f_y = problem.smooth(y) + penalty
            diff = y.values - s.values
            model = (
                loss_s + float(g.values @ diff) + penalty
                + 0.5 * L * float(diff @ diff)
            )
            if f_y <= model + 1e-12 * max(1.0, abs(model)):
                break
            if not math.isfinite(L) or L > 1e300:
                raise NumericalFailure("line search diverged", i)
            L *= cfg.growth
        if not math.isfinite(f_y):
            raise NumericalFailure("objective became non-finite", i)

        x_prev, x = x, y
        alpha_mm, alpha_m = alpha_m, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha_m**2))
        obj_hist.append(f_y)
        L_hist.append(L)
        gaps.append(f_y - model)
        iterations = i
        if f_y < best_f:
            best_f = f_y
            best_x = x.copy()
        if prev_f is not None and abs(f_y - prev_f) <= cfg.rel_tol * max(1.0, abs(prev_f)):
            converged = True
            break
        prev_f = f_y

    return SolverResult(
        W=best_x,
        objective_history=np.array(obj_hist),
        L_history=np.array(L_hist),
        iterations=iterations,
        converged=converged,
        cert_gaps=np.array(gaps),
    )


def lambda_max(data: Dataset, kind: LossKind, offsets, q):
    """Smallest lambda at which the all-zero model is optimal.

    This is the largest group-wise dual norm of the loss gradient at zero:
    for any lambda at or above it, the first proximal step from zero
    returns zero, which is then a fixed point.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    w0 = np.zeros((data.n_features, data.n_tasks))
    g = loss_gradient(w0, data, kind).reshape(-1)
    return float(group_norms(g, offsets, dual_exponent(q)).max())


def reg_path(data: Dataset, kind: LossKind, offsets, q, ratios,
             cfg: SolverConfig = None, root_cfg: RootConfig = None):
    """Warm-started solves at lambda = ratio * lambda_max, decreasing ratios."""
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios <= 0) or np.any(ratios > 1) or np.any(np.diff(ratios) >= 0):
        raise ValueError("ratios must be strictly decreasing within (0, 1]")
    lam_max = lambda_max(data, kind, offsets, q)
    results = []
    w = None
    for j, r in enumerate(ratios):
        problem = Problem(data, kind, offsets, r * lam_max, q)
        try:
            res = solve(problem, cfg, x0=w, root_cfg=root_cfg)
        except NumericalFailure as exc:
            raise NumericalFailure(f"path point {j}: {exc}", exc.iteration) from exc
        results.append(res)
        w = res.W
    return results
