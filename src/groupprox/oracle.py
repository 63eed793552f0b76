"""Slow-but-sure reference implementations used to validate the fast paths.

``brute_prox`` minimizes the projected objective by plain backtracked
gradient descent restricted to the orthant of sgn(v), where the objective
is smooth; it shares no code with the general-q kernel's Newton iteration
and certifies its answer with a Fenchel duality gap rather than trusting
the iteration.
``fixed_point_trace`` reproduces the naive fixed-point iteration whose
failure motivates the zero-finding approach.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grouped import dual_exponent, q_norm

__all__ = [
    "OracleConfig",
    "OracleFailure",
    "FixedPointTrace",
    "brute_prox",
    "fixed_point_trace",
]


class OracleFailure(RuntimeError):
    """The oracle did not converge; tests must skip, never silently pass."""


@dataclass
class OracleConfig:
    tol: float = 1e-6
    max_iter: int = 200_000
    step: float = 0.1

    def __post_init__(self):
        if not (self.tol > 0 and self.max_iter > 0 and self.step > 0):
            raise ValueError("tol, max_iter and step must all be positive")


def _penalty_gradient(x, lam, q):
    # grad of lam*||x||_q at x >= 0, x != 0: lam * ||x||_q**(1-q) * x**(q-1);
    # zero entries contribute zero (q > 1 keeps the exponent positive)
    g = np.zeros_like(x)
    p = x > 0.0
    if not np.any(p):
        return g
    nrm = q_norm(x, q)
    g[p] = lam * np.exp((q - 1.0) * np.log(x[p]) + (1.0 - q) * math.log(nrm))
    return g


def _penalty_curvature(x, lam, q):
    # diagonal of the penalty Hessian at x >= 0, x != 0:
    # lam*(q-1)*x**(q-2)*||x||**(1-q) * (1 - (x/||x||)**q); nonnegative,
    # diverging to inf at zero entries when q < 2 (handled by the caller
    # through division, where inf simply freezes that coordinate)
    c = np.zeros_like(x)
    p = x > 0.0
    if not np.any(p):
        return c
    nrm = q_norm(x, q)
    lx = np.log(x[p])
    with np.errstate(over="ignore"):
        lead = lam * (q - 1.0) * np.exp(
            (q - 2.0) * lx + (1.0 - q) * math.log(nrm)
        )
        c[p] = lead * (1.0 - np.exp(q * (lx - math.log(nrm))))
    if q < 2.0:
        c[~p] = math.inf
    return c


def _certified_gap(x, pos, lam, q):
    """Objective value and a rigorous bound on its distance to the optimum.

    For any u in the scaled dual-norm ball (||u||_qbar <= lam), Fenchel
    duality gives the lower bound <u, pos> - ||u||^2/2 on the minimum of
    0.5*||x - pos||^2 + lam*||x||_q. Two candidates: u = pos - x rescaled
    into the ball (exact at the zero solution), and the penalty gradient at
    x, which sits exactly on the ball and makes the gap quadratic in the
    distance to a nonzero solution. Strong convexity (modulus one) turns
    the gap into the error bound ||x - x*|| <= sqrt(2*gap).
    """
    f = 0.5 * float(np.square(x - pos).sum()) + lam * q_norm(x, q)
    u = pos - x
    nrm = q_norm(u, dual_exponent(q))
    if nrm > lam:
        u = u * (lam / nrm)
    d = float(u @ pos) - 0.5 * float(u @ u)
    if np.any(x > 0.0):
        w = _penalty_gradient(x, lam, q)
        d = max(d, float(w @ pos) - 0.5 * float(w @ w))
    return f, max(0.0, f - d)


def brute_prox(v, lam, q, cfg: OracleConfig = None):
    """Gradient-descent oracle for the single-group projection, 1 < q < inf.

    Works on the magnitudes over the support of v (the solution shares the
    sign pattern of v and vanishes off its support), taking backtracked
    gradient steps projected onto the box [0, |v|] until the duality-gap
    certificate bounds the solution error by cfg.tol. A step rescaled by
    the diagonal curvature accompanies each plain step; it resolves the
    coordinates pinned against the steep penalty wall (x**(q-2) diverges
    for q < 2) that plain descent approaches too slowly.
    """
    if cfg is None:
        cfg = OracleConfig()
    if not 1.0 < q < math.inf:
        raise ValueError(f"brute_prox needs 1 < q < inf, got {q}")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    nz = v != 0.0
    pos = np.abs(v[nz])
    if pos.size == 0:
        return out
    gap_tol = 0.5 * cfg.tol**2

    _, zero_gap = _certified_gap(np.zeros_like(pos), pos, lam, q)
    if zero_gap <= gap_tol:
        return out  # zero is certified optimal (lambda at/over the boundary)

    x = 0.5 * pos
    f, gap = _certified_gap(x, pos, lam, q)
    best_x, best_gap = x, gap
    eta = cfg.step
    for _ in range(cfg.max_iter):
        if best_gap <= gap_tol:
            break
        grad = x - pos + _penalty_gradient(x, lam, q)
        with np.errstate(invalid="ignore"):
            scaled = grad / (1.0 + _penalty_curvature(x, lam, q))
        scaled[~np.isfinite(scaled)] = 0.0
        improved = False
        for cand in (x - eta * grad, x - scaled):
            # project onto the box, flooring at a small multiple of the
            # current iterate: the solution is strictly positive on the
            # support (zero was ruled out above), and an iterate pinned at
            # exact zero blinds the penalty gradient to the descent valley
            cand = np.clip(cand, 1e-3 * x, pos)
            f_cand, gap_cand = _certified_gap(cand, pos, lam, q)
            if f_cand < f:
                improved = True
                x, f = cand, f_cand
                if gap_cand < best_gap:
                    best_x, best_gap = cand, gap_cand
        if improved:
            eta = min(2.0 * eta, 1e3)
        else:
            eta *= 0.5
            if eta < 1e-17:
                raise OracleFailure("step size exhausted before convergence")
    else:
        raise OracleFailure(f"no convergence within {cfg.max_iter} iterations")

    out[nz] = np.sign(v[nz]) * best_x
    return out


@dataclass
class FixedPointTrace:
    iterates: list
    truncated: bool


def fixed_point_trace(v, lam, q, start, iters):
    """Iterate x <- v - lam*||x||_q**(1-q) * sgn(x)|x|**(q-1) and record
    the path; the power term is the penalty gradient that brute_prox
    descends along (_penalty_gradient at |x|).

    No convergence is promised; the trace demonstrates the oscillation or
    divergence of this map. Hitting zero or non-finite values truncates the
    trace (flagged, not an error). ``iters`` = 0 traces the start alone.
    """
    if not 1.0 < q < math.inf:
        raise ValueError(f"fixed_point_trace needs 1 < q < inf, got {q}")
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    v = np.asarray(v, dtype=float)
    x = np.asarray(start, dtype=float).copy()
    if not np.any(x != 0.0):
        raise ValueError("start must be nonzero")
    trace = [x.copy()]
    truncated = False
    for _ in range(iters):
        if not (np.any(x) and np.all(np.isfinite(x))):
            truncated = True
            break
        x = v - np.sign(x) * _penalty_gradient(np.abs(x), lam, q)
        trace.append(x.copy())
        if not np.all(np.isfinite(x)):
            truncated = True
            break
    return FixedPointTrace(trace, truncated)
