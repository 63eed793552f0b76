"""Accelerated proximal-gradient solver for group-sparse problems.

Each iteration forms a search point as an affine combination of the last
two iterates, takes a proximal step from it, and raises the smoothness
estimate L until the quadratic model upper-bounds the objective at the
candidate (Armijo-Goldstein style line search). A rejected trial y from
the search point s has the secant curvature
need = 2*(f(y) - f(s) - g.(y - s))/||y - s||**2, the least L whose model
would have accepted y itself, so L rises straight to the least
L*growth**k, k >= 1, that reaches need, where doubling would have tried
each level below it. A trial that is not finite, y = s, or a need that is
not finite raises L by one factor. L so stays L0 times a power of 2, and
never shrinks. The
momentum weights follow alpha_{i+1} = (1 + sqrt(1 + 4*alpha_i**2))/2 with
alpha_{-1} = 0, alpha_0 = 1, giving the O(1/k**2) objective-gap rate
F(x_k) - F* <= 2 * L_k * ||x_0 - x*||**2 / (k + 1)**2 for the k-th accepted
iterate x_k, its smoothness estimate L_k and any minimizer x* (Beck &
Teboulle 2009, Thm. 4.4). The rate is an upper bound only: on strongly
convex problems the gap may fall faster, even linearly.

The loop keeps the products A x and A x_prev with the iterates. The search
point is affine in them, so its product A s costs nothing, and the loss and
gradient at s share it. An accepted iteration costs one A^T r (the
gradient). Each line-search trial costs one grouped prox call, which also
reports the group norms of its output and so the trial's penalty, and one
A y (the trial's loss), which becomes the next A x when the trial is
accepted. The model and the curvature share g.(y - s) and ||y - s||**2.
"""

import math
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .grouped import (GroupedVector, _check_q, _partition, dual_exponent, group_norms,
                      mixed_norm)
from .losses import Dataset, LossKind, _loss_at_product, loss_gradient, loss_value
from .prox import ProjectionError, prox_grouped

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


# the line search raises L at most once past this; a trial rejected there
# ends the solve
_L_MAX = 1e300


class NumericalFailure(RuntimeError):
    """Objective became non-finite; carries the iteration index."""

    def __init__(self, msg, iteration):
        super().__init__(f"{msg} (iteration {iteration})")
        self.iteration = iteration


@dataclass
class Problem:
    """A grouped, regularized smooth-loss minimization instance.

    Everything is checked here, once: the partition, a finite lam >= 0,
    q >= 1, the loss kind, and +-1 targets for the logistic loss.
    """

    data: Dataset
    kind: LossKind
    offsets: np.ndarray
    lam: float
    q: float

    def __post_init__(self):
        p = self.data.n_features * self.data.n_tasks
        self._zero = GroupedVector(np.zeros(p), self.offsets)
        self.offsets = self._zero.offsets
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must be finite and nonnegative, got {self.lam!r}")
        _check_q(self.q)
        if not isinstance(self.kind, LossKind):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind is LossKind.LOGISTIC:
            self.data.check_logistic_targets()

    def _view(self, x):
        return x.reshape(self.data.n_features, self.data.n_tasks)

    def _loss(self, x):
        return loss_value(self._view(x), self.data, self.kind)

    def _gradient(self, x):
        return loss_gradient(self._view(x), self.data, self.kind).reshape(-1)

    def _values(self, w: GroupedVector):
        """w's coefficients, once w is known to have this problem's groups."""
        if not np.array_equal(w.offsets, self.offsets):
            raise ValueError("vector's group offsets differ from the problem's")
        return w.values

    def matrix(self, w: GroupedVector):
        return self._view(w.values)

    def objective(self, w: GroupedVector):
        return self._loss(w.values) + self.lam * mixed_norm(w, self.q)

    def zero(self):
        return self._zero.copy()


@dataclass
class SolverConfig:
    L0: float = 1.0
    max_iter: int = 1000
    rel_tol: float = 1e-10
    # the line search's factor on L: L only takes values L0 * growth**j;
    # a constant, not a field
    growth: ClassVar[float] = 2.0

    def __post_init__(self):
        if not (0 < self.L0 < math.inf and self.max_iter >= 1 and self.rel_tol > 0):
            raise ValueError("L0 must be finite and positive, max_iter and rel_tol positive")


@dataclass
class SolverResult:
    W: GroupedVector
    objective_history: np.ndarray
    L_history: np.ndarray
    iterations: int
    converged: bool
    # f(X_{i+1}) - M_{L,S}(X_{i+1}) at each accepted step; nonpositive up
    # to float noise when the line-search certificate holds
    cert_gaps: np.ndarray
    # line-search trials, accepted and rejected: one per L tried, each one
    # grouped prox call (none for a trial whose gradient step is not finite)
    trials: int


def _step(s, g, L, problem: Problem, norms=None):
    """Gradient step from s (gradient g) then prox at level lam/L.

    ``norms``, if given, receives the lq-norm of each group of the result.
    Returns None when the gradient step is not finite (L is too small for
    the gradient), for the line search to reject.
    """
    try:
        z = problem._zero.with_values(s - g / L)
    except ValueError:  # the length is the problem's, so the values are not finite
        return None
    return prox_grouped(z, problem.lam / L, problem.q, norms)


def _secant(y, s, g):
    """g.(y - s) and ||y - s||**2: the parts of the model at s that depend on y."""
    diff = y - s
    return float(g @ diff), float(diff @ diff)


def _model(loss_s, slope, sq_dist, penalty, L):
    """Quadratic model at s, evaluated at y, from its parts at s and y."""
    return loss_s + slope + penalty + 0.5 * L * sq_dist


def _raised(L, need, growth):
    """L times the least power growth**k, k >= 1, that reaches need.

    A need that is not finite asks for one factor. The power stops at the
    first L past _L_MAX, so that the line search's divergence check fires
    where one factor at a time would have made it fire, and L never
    overflows. Multiplying by one factor at a time keeps L exactly
    L0 * growth**j, as repeated rejections would leave it.
    """
    if not math.isfinite(need):
        need = 0.0
    L *= growth
    while L < need and L <= _L_MAX:
        L *= growth
    return L


def model_value(y: GroupedVector, x: GroupedVector, L, problem: Problem):
    """Quadratic upper model at x: Taylor term + penalty + (L/2)||y - x||**2."""
    if not L > 0:
        raise ValueError("L must be positive")
    xv = problem._values(x)
    slope, sq_dist = _secant(problem._values(y), xv, problem._gradient(xv))
    return _model(problem._loss(xv), slope, sq_dist, problem.lam * mixed_norm(y, problem.q), L)


def prox_step(s: GroupedVector, L, problem: Problem):
    """Minimizer of the model at s: prox of s - grad(s)/L at level lam/L."""
    if not L > 0:
        raise ValueError("L must be positive")
    sv = problem._values(s)
    y = _step(sv, problem._gradient(sv), L, problem)
    if y is None:
        raise ValueError("the gradient step s - grad(s)/L is not finite")
    return y


def solve(problem: Problem, cfg: SolverConfig = None,
          x0: GroupedVector = None) -> SolverResult:
    """Run the accelerated proximal-gradient iteration.

    Starts from x0 (which must have the problem's groups) or zero. Stops at
    max_iter or when the relative objective change drops below rel_tol;
    returns the best-objective iterate seen (the accelerated sequence is
    not monotone). A rejected trial raises L by the least power of growth
    (at least one factor) that reaches the trial's secant curvature
    2*(f(y) - f(s) - g.(y - s))/||y - s||**2; a trial with a non-finite
    gradient step or objective, y = s, or a non-finite curvature raises it
    by one factor. So L stays L0 times a power of 2. Raises
    NumericalFailure on a non-finite loss at a search point, or when L
    passes 1e300 before the line search accepts a point.
    """
    if cfg is None:
        cfg = SolverConfig()
    data, kind, design = problem.data, problem.kind, problem.data.design
    x = x_prev = np.zeros(problem.offsets[-1]) if x0 is None else problem._values(x0)
    ax = ax_prev = design @ problem._view(x)
    alpha_mm, alpha_m = 0.0, 1.0  # alpha_{i-2}, alpha_{i-1}
    L = cfg.L0
    obj_hist, L_hist, gaps = [], [], []
    best_f, best = math.inf, None
    prev_f = None
    trials = 0
    converged = False
    norms = np.empty(problem.offsets.size - 1)  # group norms of each trial

    for i in range(1, cfg.max_iter + 1):
        beta = (alpha_mm - 1.0) / alpha_m
        s = x + beta * (x - x_prev)
        loss_s, g = _loss_at_product(ax + beta * (ax - ax_prev), data, kind, gradient=True)
        g = g.reshape(-1)
        if not math.isfinite(loss_s):
            raise NumericalFailure("loss at the search point is not finite", i)
        while True:
            trials += 1
            y = _step(s, g, L, problem, norms)
            need = math.nan  # the trial's secant curvature, where it has one
            if y is not None:
                penalty = problem.lam * float(norms.sum())
                ay = design @ problem._view(y.values)
                loss_y = _loss_at_product(ay, data, kind)[0]
                f_y = loss_y + penalty
                slope, sq_dist = _secant(y.values, s, g)
                model = _model(loss_s, slope, sq_dist, penalty, L)
                if math.isfinite(f_y):
                    if f_y <= model + 1e-12 * max(1.0, abs(model)):
                        break
                    if sq_dist > 0:
                        need = 2.0 * (loss_y - loss_s - slope) / sq_dist
            if L > _L_MAX:
                raise NumericalFailure("line search diverged", i)
            L = _raised(L, need, cfg.growth)

        x_prev, x = x, y.values
        ax_prev, ax = ax, ay
        alpha_mm, alpha_m = alpha_m, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha_m**2))
        obj_hist.append(f_y)
        L_hist.append(L)
        gaps.append(f_y - model)
        if f_y < best_f:
            best_f, best = f_y, y
        if prev_f is not None and abs(f_y - prev_f) <= cfg.rel_tol * max(1.0, abs(prev_f)):
            converged = True
            break
        prev_f = f_y

    return SolverResult(
        W=best,
        objective_history=np.array(obj_hist),
        L_history=np.array(L_hist),
        iterations=len(obj_hist),
        converged=converged,
        cert_gaps=np.array(gaps),
        trials=trials,
    )


def lambda_max(data: Dataset, kind: LossKind, offsets, q):
    """Smallest lambda at which the all-zero model is optimal.

    This is the largest group-wise dual norm of the loss gradient at zero:
    for any lambda at or above it, the first proximal step from zero
    returns zero, which is then a fixed point.
    """
    offsets = _partition(offsets, data.n_features * data.n_tasks)
    w0 = np.zeros((data.n_features, data.n_tasks))
    g = loss_gradient(w0, data, kind).reshape(-1)
    return float(group_norms(g, offsets, dual_exponent(q)).max())


def _checked_ratios(ratios):
    """ratios as a float array, checked to be a nonempty one-dimensional
    schedule that decreases strictly within (0, 1]."""
    ratios = np.asarray(ratios, dtype=float)
    if ratios.ndim != 1 or ratios.size == 0:
        raise ValueError("ratios must be a nonempty one-dimensional schedule, "
                         f"got shape {ratios.shape}")
    if np.any(ratios <= 0) or np.any(ratios > 1) or np.any(np.diff(ratios) >= 0):
        raise ValueError("ratios must be strictly decreasing within (0, 1]")
    return ratios


def _warm_path(data: Dataset, kind: LossKind, offsets, q, lams,
               cfg: SolverConfig = None):
    """Solve at each lam in turn, each solve starting from the last solution.

    ``solve`` is looked up in this module at each point, so a test replaces
    it by patching ``groupprox.solver.solve``. Yields (problem, outcome,
    seconds) per point: ``outcome`` is the SolverResult, or the
    NumericalFailure or ProjectionError that ended the solve, after which
    the next point starts from the last solution found.
    """
    w = None
    for lam in lams:
        problem = Problem(data, kind, offsets, lam, q)
        t0 = time.perf_counter()
        try:
            outcome = solve(problem, cfg, x0=w)
        except (NumericalFailure, ProjectionError) as exc:
            outcome = exc
        else:
            w = outcome.W
        yield problem, outcome, time.perf_counter() - t0


def reg_path(data: Dataset, kind: LossKind, offsets, q, ratios,
             cfg: SolverConfig = None):
    """Warm-started solves at lambda = ratio * lambda_max, decreasing ratios."""
    ratios = _checked_ratios(ratios)
    lam_max = lambda_max(data, kind, offsets, q)
    results = []
    points = _warm_path(data, kind, offsets, q, ratios * lam_max, cfg)
    for j, (_, res, _) in enumerate(points):
        if isinstance(res, NumericalFailure):
            raise NumericalFailure(f"path point {j}: {res}", res.iteration) from res
        if isinstance(res, ProjectionError):
            raise res
        results.append(res)
    return results
