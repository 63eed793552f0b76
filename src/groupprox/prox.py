"""The lq-regularized Euclidean projection and its grouped form.

For a single block the projection solves

    argmin_x  0.5*||x - v||_2**2 + lam*||x||_q.

q = 1, 2, inf admit closed or semi-closed forms. For general q in (1, inf)
the solution is recovered from two nested zero-finding problems: an outer
scalar root c* of phi(c) = lam*psi(c) - c, and, per evaluation of phi, the
per-coordinate roots of x + c*x**(q-1) = v_i. The outer search runs over
u = log(c), because the bracket endpoints can span hundreds of orders of
magnitude for large q, with Illinois-type regula falsi steps safeguarded
by bisection. Each inner root comes from Newton's method on a logarithm,
started from an upper bound or from the chord between the roots at the
bracket's ends; for q < 2 it runs on z = c*x**(q-1), which turns the
equation into the same convex form. Each group is solved scaled to unit
max-magnitude: the projection commutes with scaling (v, lam) ->
(s*v, s*lam), which shifts u by (2-q)*log(s), so nothing in the solve
overflows and the result is scale-equivariant up to rounding.

No loop has a cap or a sweep tolerance. A Newton coordinate stops once its
step no longer shrinks, which it reaches at the rounding of the equation:
over varied inputs, q from 1 + 1e-6 to 64, each inner solve took at most
14 passes over the vector, and a projection takes one solve per outer step
plus two for the ends of the bracket. The outer bracket stops at width
1e-10 in u, which is scale-free, or where no float lies inside it (past
|u| = 2**19, which large q reach); the safeguard halves every bracket at
least every four steps until then, so the outer loop ends too, and over
the same inputs took at most 21 steps. Every entry point rejects inf and
nan, so the kernels only see finite magnitudes.

Each form is one kernel batched over all groups of a flat vector, given as
(values, offsets); the single-vector projections are its one-group case.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grouped import GroupedVector, _finite, dual_exponent, group_norms, q_norm
from .rootfind import _l1_ball_thresholds
# kept importable from here: perfbench's tracer hooks it by this module's name
from .rootfind import l1_ball_threshold  # noqa: F401

__all__ = [
    "ProxDiagnostics",
    "ProjectionError",
    "is_zero_solution",
    "prox_l1",
    "prox_l2",
    "prox_linf",
    "c_interval",
    "phi",
    "prox_lq_general",
    "prox_grouped",
    "optimality_residual",
    "prox_objective",
]

# Relative closeness of lam to ||v||_qbar below which the projection is
# snapped to zero: epsilon underflows and the c bounds blow up there, while
# the true solution is within tolerance of zero by continuity.
_BOUNDARY_RTOL = 1e-12

# Outer bracket tolerance in u = log(c).
_OUTER_TOL = 1e-10


class ProjectionError(RuntimeError):
    """Internal consistency failure of the nested zero-finding."""

    def __init__(self, msg, *, epsilon=None, c_low=None, c_high=None,
                 phi_low=None, phi_high=None, group=None):
        if group is not None:
            msg = f"group {group}: {msg}"
        super().__init__(msg)
        self.epsilon = epsilon
        self.c_low = c_low
        self.c_high = c_high
        self.phi_low = phi_low
        self.phi_high = phi_high
        self.group = group


@dataclass
class ProxDiagnostics:
    c_star: Optional[float]
    epsilon: float
    outer_iters: int
    inner_iters_total: int
    residual: float


def is_zero_solution(v, lam, q):
    """True iff the projection of v is exactly zero, i.e. lam >= ||v||_qbar."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return lam >= q_norm(v, dual_exponent(q))


def prox_l1(v, lam):
    """Soft threshold: sgn(v) * max(|v| - lam, 0)."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def _one_group(v):
    return np.array([0, v.size], dtype=np.intp)


def prox_l2(v, lam):
    """Closed form for q = 2: scale v by max(0, (||v||_2 - lam)/||v||_2)."""
    v = _finite(np.asarray(v, dtype=float))
    return v.copy() if v.size == 0 else _prox_l2_groups(v, _one_group(v), lam)[0]


def prox_linf(v, lam):
    """Semi-closed form for q = inf: clip |v| at the l1-ball threshold t*."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    v = _finite(np.asarray(v, dtype=float))
    return v.copy() if v.size == 0 else _prox_linf_groups(v, _one_group(v), lam)[0]


def _prox_l2_groups(vals, offsets, lam):
    """Batched q = 2 projection: each group scaled by max(0, 1 - lam/||v_g||).

    Returns (x, norms), norms the l2-norm of each group of x.
    """
    norms = group_norms(vals, offsets, 2.0)
    factor = np.maximum(0.0, 1.0 - lam / np.where(norms > 0.0, norms, 1.0))
    # snap groups within rounding error of the boundary to exact zero
    factor[norms - lam <= _BOUNDARY_RTOL * norms] = 0.0
    return vals * np.repeat(factor, np.diff(offsets)), factor * norms


def _prox_linf_groups(vals, offsets, lam):
    """Batched q = inf projection: clip each group at its l1-ball threshold.

    Groups inside the l1 ball, or within rounding error of its boundary,
    project to zero; only the others are sorted for a threshold. Returns
    (x, t): a group's threshold t, 0 for a zero group, is its max-norm in x.
    """
    a = np.abs(vals)
    sizes = np.diff(offsets)
    l1 = np.add.reduceat(a, offsets[:-1])
    outside = l1 - lam > _BOUNDARY_RTOL * l1
    t = np.zeros(sizes.size)
    t[outside] = _l1_ball_thresholds(a[np.repeat(outside, sizes)],
                                     sizes[outside], lam)
    return np.sign(vals) * np.minimum(a, np.repeat(t, sizes)), t


def _log_c_candidates(log_v, log_eps, log_keep, q):
    """log of c_i = (v_i - v_i*eps) / (v_i*eps)**(q-1), per coordinate.

    Takes log(eps) and log(1 - eps) = log(lam/||v||_qbar), so that an eps
    within rounding of 1 (lam tiny beside the dual norm) keeps its digits.
    """
    return log_keep + log_v - (q - 1.0) * (log_v + log_eps)


def c_interval(v_abs, epsilon, q):
    """Interval [c_low, c_high] bracketing the outer root c*.

    The candidates are c_i evaluated at the per-coordinate upper bounds
    v_i*epsilon; the extremes over i bracket the root for any q in (1, inf).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 1.0 < q < math.inf:
        raise ValueError(f"c_interval needs 1 < q < inf, got {q}")
    v_abs = _finite(np.asarray(v_abs, dtype=float))
    if np.any(v_abs <= 0.0):
        raise ValueError("c_interval needs strictly positive entries")
    log_c = _log_c_candidates(np.log(v_abs), math.log(epsilon),
                              math.log1p(-epsilon), q)
    return float(np.exp(log_c.min())), float(np.exp(log_c.max()))


def _newton_step(t, log_v, a, e):
    """F/F' for F(t) = log(w + p) - log(v), w = exp(t), p = exp(a + e*t).

    Both terms are taken relative to v: from the cold bound down to the
    root neither exceeds about 1, and at the root they sum to 1, so they
    neither overflow nor lose F to cancellation. F' = (w + e*p)/(w + p).
    Written in place, since this runs on the whole vector in every pass.
    """
    w = t - log_v
    np.exp(w, out=w)
    p = e * t
    p += a
    p -= log_v
    np.exp(p, out=p)
    s = w + p
    p *= e
    p += w
    np.log(s, out=w)
    w *= s
    w /= p
    return w


def _newton_roots(log_v, a, e, hint=None):
    """Roots t = log(w) of w + exp(a)*w**e = v, elementwise, for e >= 1.

    Newton runs on t: F(t) = logaddexp(t, a + e*t) - log(v) is convex and
    increasing, so iterates from an upper bound of the root decrease
    monotonically towards it, and in log space the iterate resolves no
    finer than F can be evaluated. A coordinate stops at the first step
    that would not move it down or is no shorter than its previous step:
    steps shrink until they reach the rounding of F, where they stop
    shrinking, change sign or vanish. A decreasing sequence of floats gets
    there without a cap or a tolerance, and the loop ends when every
    coordinate has stopped.

    ``a`` is per coordinate. The start is the cold bound
    min(log v, (log v - a)/e), an upper bound of the root, or ``hint``
    where that is smaller. A hint may lie below the root, so the first step
    is taken in either direction: from below, convexity puts it above the
    root, and it is clipped to the cold bound. Returns (t, passes);
    ``passes`` counts the evaluations of F, each a pass over the vector.
    """
    cold = np.minimum(log_v, (log_v - a) / e)
    t = cold.copy() if hint is None else np.minimum(hint, cold)
    # a start at -inf (a zero hint) steps to nan, which fmin replaces
    with np.errstate(divide="ignore", invalid="ignore"):
        t -= _newton_step(t, log_v, a, e)
    np.fmin(t, cold, out=t)
    del cold
    last, passes = np.inf, 1
    while True:
        d = _newton_step(t, log_v, a, e)
        passes += 1
        move = t - d < t
        move &= d < last
        if not move.any():
            return t, passes
        d[~move] = 0.0  # stopped stays stopped
        t -= d
        last = d


def _roots(log_v, u, q, hint=None):
    """log of the Newton variable for the inner roots of x + exp(u)*x**(q-1) = v.

    For q >= 2 Newton runs on log x. For q < 2 the left side is concave in
    x, so Newton runs on log z, z = c*x**(q-1), instead; z solves
    z + c'*z**(1/(q-1)) = v with log c' = -u/(q-1), the same convex form
    (_log_x recovers x). ``hint`` is a start for the Newton variable, used
    where it is below the cold bound. Returns (t, passes).
    """
    if q >= 2.0:
        return _newton_roots(log_v, u, q - 1.0, hint)
    e = 1.0 / (q - 1.0)
    return _newton_roots(log_v, -e * u, e, hint)


def _log_x(t, log_v, u, q):
    """log x from the Newton variable t of _roots at u.

    For q < 2, t = log z: where z <= v/2, x = v - z is exact to rounding;
    elsewhere x is the power term (z/c)**(1/(q-1)) of the z-equation, which
    keeps its relative accuracy as x vanishes.
    """
    if q >= 2.0:
        return t
    log_x = t - log_v
    with np.errstate(divide="ignore", invalid="ignore"):
        np.exp(log_x, out=log_x)
        np.negative(log_x, out=log_x)
        np.log1p(log_x, out=log_x)
    log_x += log_v                   # log(v - z)
    power = t - u
    power /= q - 1.0
    np.copyto(log_x, power, where=t > log_v - math.log(2.0))
    return log_x


def _newton_polish(x, v, log_c, q):
    """One Newton step on h(x) = x + c*x**(q-1) - v, for 1 < q < 2.

    h'(x) = 1 + c*(q-1)*x**(q-2) >= 1 on (0, v), so the step from a root
    accurate to a few digits squares its relative error. The step is formed
    from a = c*x**(q-2) or from 1/a, whichever is at most one, so it stays
    finite where a overflows. At x = 0, a is +inf, h' is infinite and the
    step is 0.
    """
    e = q - 1.0
    with np.errstate(divide="ignore"):
        log_a = log_c + (e - 1.0) * np.log(x)
    r = np.exp(-np.abs(log_a))
    # h/h' = (x - v + x*a)/(1 + e*a), divided through by a where a > 1
    step = np.where(log_a > 0.0, ((x - v) * r + x) / (r + e),
                    (x - v + x * r) / (1.0 + e * r))
    return np.clip(x - step, 0.0, v)


def _log_psi_groups(log_x, starts, sizes, q):
    """log psi(c) per group, psi = (sum_i x_i**q)**((1-q)/q), from log x."""
    top = np.maximum.reduceat(log_x, starts)
    s = np.add.reduceat(np.exp(q * (log_x - np.repeat(top, sizes))), starts)
    return (1.0 - q) * top + ((1.0 - q) / q) * np.log(s)


def phi(c, v_abs, lam, q):
    """phi(c) = lam*psi(c) - c, where psi aggregates the inner roots at c.

    At c = 0 the inner roots are the v_i themselves, so
    phi(0) = lam*||v||_q**(1-q) > 0. The roots are found for v scaled to
    unit max-magnitude, which shifts log(c) by (q-2)*log(max v).
    """
    if c < 0:
        raise ValueError("c must be nonnegative")
    v_abs = _finite(np.asarray(v_abs, dtype=float))
    if np.any(v_abs <= 0.0):
        raise ValueError("phi needs strictly positive entries")
    if c == 0.0:
        return lam * math.exp((1.0 - q) * math.log(q_norm(v_abs, q)))
    log_s = math.log(v_abs.max())
    log_v = np.log(v_abs) - log_s
    u = np.full(v_abs.size, math.log(c) + (q - 2.0) * log_s)
    log_x = _log_x(_roots(log_v, u, q)[0], log_v, u, q)
    one = np.array([0], dtype=np.intp)
    log_psi = _log_psi_groups(log_x, one, np.array([v_abs.size]), q)[0]
    return lam * math.exp(float(log_psi) + (1.0 - q) * log_s) - c


def _solve_positive_groups(log_v, starts, sizes, gid, lam, q, dual,
                           log_scale, groups):
    """Outer root of every group: regula falsi in u = log(c) over Newton roots.

    ``log_v`` holds the log-magnitudes of the nonzero entries of all active
    groups back to back, each less its group's ``log_scale`` (the log of
    its largest magnitude). The projection commutes with that scaling,
    which shifts u by (q-2)*log_scale and divides lam by the scale. ``gid``
    maps coordinates to group index, ``dual`` is the per-group dual norm
    ||v||_qbar and ``groups`` the caller's index of each group, for errors.

    Each step tries the regula falsi point of the bracket. An end kept twice
    running has its weight scaled by the Anderson-Bjorck factor
    1 - g_new/g_old, or halved as in the Illinois method where that factor
    is not positive. A step bisects instead where the trial point is not
    finite or the bracket did not halve over the previous three steps, so
    every bracket at least halves every four steps. A group leaves the
    working set once its bracket is at most _OUTER_TOL wide or has no float
    inside. Returns (x, u_star, outer_iters, inner_passes) in the caller's
    units.
    """
    log_lam = math.log(lam) - log_scale
    log_dual = np.log(dual)
    # c_i is log-linear in v_i, so the extremes of log v (the largest is 0)
    # give those of the candidates
    log_c = _log_c_candidates(
        np.stack((np.minimum.reduceat(log_v, starts), np.zeros(sizes.size))),
        np.log(dual - lam) - log_dual, math.log(lam) - log_dual, q)
    u = np.sort(log_c, axis=0)
    # Newton variables at both ends
    t = np.empty((2, log_v.size))
    t[0], passes = _roots(log_v, u[0][gid], q)
    t[1], n = _roots(log_v, u[1][gid], q)
    passes += n

    def g_at(t, u):  # phi in log units at roots t, positive left of the root
        log_x = _log_x(t, log_v, u[gid], q)
        return log_lam + _log_psi_groups(log_x, starts, sizes, q) - u

    g = np.stack([g_at(t[i], u[i]) for i in (0, 1)])
    # Theory guarantees phi(c_low) >= 0 >= phi(c_high); allow a small
    # numerical margin (log-scale units) before declaring inconsistency.
    margin = 1e-6
    bad = np.nonzero((g[0] < -margin) | (g[1] > margin))[0]
    if bad.size:
        b = int(bad[0])
        shift = (2.0 - q) * log_scale[b]
        raise ProjectionError(
            "phi endpoint signs inconsistent",
            epsilon=float((dual[b] - lam) / dual[b]),
            c_low=math.exp(u[0, b] + shift),
            c_high=math.exp(u[1, b] + shift), phi_low=float(g[0, b]),
            phi_high=float(g[1, b]), group=int(groups[b]),
        )

    x_out, u_out = np.empty(log_v.size), np.empty(sizes.size)
    idx, cols = np.arange(sizes.size), np.arange(log_v.size)
    live_c, live_g = cols, idx
    f = g.copy()                      # regula falsi weights of the ends
    kept = np.full(sizes.size, -1)    # end kept by the last step
    w1 = w2 = w3 = np.full(sizes.size, np.inf)  # widths 1, 2, 3 steps ago
    outer = 0
    while True:
        # an endpoint root (phi within the margin of 0) also ends a bracket
        done = (u[1] - u[0] <= _OUTER_TOL) | (g[0] <= 0.0) | (g[1] >= 0.0)
        # past |u| = 2**19 floats are more than _OUTER_TOL apart: a bracket
        # with no float strictly inside cannot shrink further
        done |= np.nextafter(u[0], np.inf) >= u[1]
        if done.any():
            # the root by linear interpolation between the ends: exact to
            # rounding in a bracket this narrow, and the end itself where
            # the bracket closed on an endpoint root
            with np.errstate(invalid="ignore", divide="ignore"):
                r = g[0] / (g[0] - g[1])
            r = np.where(g[0] <= 0.0, 0.0, np.where(g[1] >= 0.0, 1.0, r))
            fin = np.flatnonzero(done[gid])
            gf = gid[fin]
            lx = _log_x(t[1, fin], log_v[fin], u[1, gf], q)
            lx0 = _log_x(t[0, fin], log_v[fin], u[0, gf], q)
            lx -= lx0
            lx *= r[gf]
            lx += lx0
            del lx0
            uf = u[0] + r * (u[1] - u[0])
            if q < 2.0:
                # below half of v, x is the power term of the z-equation,
                # which loses digits as q nears 1; one Newton step on x
                # itself restores them
                v = log_v[fin]
                x = _newton_polish(np.exp(lx, out=lx), np.exp(v, out=v),
                                   uf[gf], q)
                x_out[live_c[fin]] = x * np.exp(log_scale[gf])
                passes += 1
            else:
                lx += log_scale[gf]
                x_out[live_c[fin]] = np.exp(lx)
            u_out[live_g[done]] = uf[done] + (2.0 - q) * log_scale[done]
            keep, keep_c = ~done, ~done[gid]
            u, g, f = u[:, keep], g[:, keep], f[:, keep]
            kept, w1, w2, w3, log_lam, log_scale, sizes, live_g = (
                a[keep] for a in (kept, w1, w2, w3, log_lam, log_scale, sizes,
                                  live_g))
            t, log_v, live_c = t[:, keep_c], log_v[keep_c], live_c[keep_c]
            if not sizes.size:
                return x_out, u_out, outer, passes
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            gid = np.repeat(np.arange(sizes.size), sizes)
            idx, cols = np.arange(sizes.size), np.arange(log_v.size)
        outer += 1
        width = u[1] - u[0]
        ut = u[1] - f[1] * width / (f[1] - f[0])
        # a step of at least half the tolerance lets a bracket whose end
        # has converged close on the far side of the root
        ut = np.minimum(np.maximum(ut, u[0] + 0.5 * _OUTER_TOL),
                        u[1] - 0.5 * _OUTER_TOL)
        bisect = np.isnan(ut) | (width > 0.5 * w3)
        ut = np.where(bisect, u[0] + 0.5 * width, ut)
        w1, w2, w3 = width, w1, w2
        # start Newton on the chord between the roots at the ends
        chord = t[1] - t[0]
        chord *= ((ut - u[0]) / width)[gid]
        chord += t[0]
        tt, n = _roots(log_v, ut[gid], q, chord)
        del chord
        passes += n
        gt = g_at(tt, ut)
        # replace the end on the root's far side of ut; nan counts as >= 0
        end = (gt < 0.0).astype(np.intp)
        other = 1 - end
        # weight of an end kept twice running: Anderson-Bjorck, else halved
        m = 1.0 - gt / g[end, idx]
        f[other, idx] *= np.where(kept == other, np.where(m > 0.0, m, 0.5), 1.0)
        kept = other
        u[end, idx], g[end, idx], f[end, idx] = ut, gt, gt
        t[end[gid], cols] = tt


def _prox_lq_groups(vals, offsets, lam, q):
    """Batched general-q projection over all groups of a flat vector, lam > 0.

    Groups at or within rounding error of the dual-norm boundary project to
    exact zero; a group with one nonzero coordinate is soft-thresholded,
    since every q-norm of a scalar is its magnitude; the rest go through
    the nested zero-finding together, with their zero coordinates dropped.
    Returns (x, c_star, eps, outer_iters, inner_passes), where c_star and
    eps are per group: c_star is nan where no outer solve ran, eps is 0
    where the projection is zero.
    """
    sizes = np.diff(offsets)
    dual = group_norms(vals, offsets, dual_exponent(q))
    active = dual - lam > _BOUNDARY_RTOL * dual
    eps = np.zeros_like(dual)
    eps[active] = (dual[active] - lam) / dual[active]
    nonzero = vals != 0.0
    nnz = np.add.reduceat(nonzero.astype(np.intp), offsets[:-1])
    out = np.zeros_like(vals)
    c_star = np.full(dual.size, np.nan)

    single = np.repeat(active & (nnz == 1), sizes) & nonzero
    out[single] = np.sign(vals[single]) * (np.abs(vals[single]) - lam)

    nested = active & (nnz > 1)
    if not np.any(nested):
        return out, c_star, eps, 0, 0
    sel = np.repeat(nested, sizes) & nonzero
    # zero coordinates drop out but group contiguity is preserved
    sub_sizes = nnz[nested]
    sub_starts = np.concatenate(([0], np.cumsum(sub_sizes)[:-1]))
    gid = np.repeat(np.arange(sub_sizes.size), sub_sizes)
    log_scale = np.log(group_norms(vals, offsets, math.inf)[nested])
    log_v = np.log(np.abs(vals[sel])) - log_scale[gid]
    x, u_star, outer, inner = _solve_positive_groups(
        log_v, sub_starts, sub_sizes, gid, lam, q, dual[nested], log_scale,
        np.flatnonzero(nested),
    )
    out[sel] = np.sign(vals[sel]) * x
    with np.errstate(over="ignore"):
        c_star[nested] = np.exp(u_star)
    return out, c_star, eps, outer, inner


def prox_lq_general(v, lam, q):
    """General-q projection via the nested zero-finding scheme.

    Returns (x, ProxDiagnostics). Handles sign decomposition and zero
    entries itself; lam at or beyond the dual-norm boundary yields the
    exact zero vector.
    """
    if not 1.0 < q < math.inf:
        raise ValueError(f"prox_lq_general needs 1 < q < inf, got {q}")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    v = _finite(np.asarray(v, dtype=float))
    if lam == 0.0 or v.size == 0:
        return v.copy(), ProxDiagnostics(None, 0.0, 0, 0, 0.0)
    x, c_star, eps, outer, inner = _prox_lq_groups(v, _one_group(v), lam, q)
    if eps[0] == 0.0:
        return x, ProxDiagnostics(None, 0.0, 0, 0, 0.0)
    c = None if np.isnan(c_star[0]) else float(c_star[0])
    return x, ProxDiagnostics(c, float(eps[0]), outer, inner,
                              optimality_residual(x, v, lam, q))


def prox_grouped(v: GroupedVector, lam, q, norms=None) -> GroupedVector:
    """Apply the lq projection to every group with one batched kernel per q.

    q = 1 is the flat soft threshold, q = 2 and q = inf the batched closed
    and semi-closed forms, any other q > 1 the batched nested zero-finding.

    ``norms``, if given, is an output array of length ``v.n_groups`` that
    receives the lq-norm of each group of the result, so that the penalty
    lam*sum(norms) costs no second pass over it. At q = 2 and q = inf the
    kernels hold these norms already (the scaled input norm and the l1-ball
    threshold); at other q they are computed from the result.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not q >= 1.0:
        raise ValueError(f"norm exponent must satisfy q >= 1, got {q}")
    if norms is not None and np.shape(norms) != (v.n_groups,):
        raise ValueError(f"norms must have shape ({v.n_groups},), got {np.shape(norms)}")
    vals, offsets = v.values, v.offsets
    found = None
    if lam == 0.0:
        out = vals.copy()
    elif q == 1.0:
        out = prox_l1(vals, lam)
    elif q == 2.0:
        out, found = _prox_l2_groups(vals, offsets, lam)
    elif math.isinf(q):
        out, found = _prox_linf_groups(vals, offsets, lam)
    else:
        out = _prox_lq_groups(vals, offsets, lam, q)[0]
    out = v.with_values(out)
    if norms is not None:
        norms[...] = group_norms(out.values, offsets, q) if found is None else found
    return out


def optimality_residual(x, v, lam, q):
    """Max-norm defect of x + lam*||x||_q**(1-q) * sgn(x)|x|**(q-1) = v."""
    if not 1.0 < q < math.inf:
        raise ValueError(f"optimality_residual needs 1 < q < inf, got {q}")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nrm = q_norm(x, q)
    if nrm == 0.0:
        raise ValueError("residual undefined at x = 0; use is_zero_solution")
    a = np.abs(x)
    pos = a > 0.0
    powed = np.zeros_like(a)
    powed[pos] = np.exp((q - 1.0) * np.log(a[pos]) + (1.0 - q) * math.log(nrm))
    defect = np.abs(x + lam * np.sign(x) * powed - v)
    # a root below the smallest subnormal rounds to an exact zero: count
    # x_i = 0 (defect |v_i|) as satisfied when the defect changes sign
    # between 0 and the next float toward v_i, where |x|**(q-1) is still
    # near 1 for q near 1
    tiny = math.nextafter(0.0, 1.0)
    at_tiny = tiny + lam * math.exp((q - 1.0) * (math.log(tiny) - math.log(nrm)))
    defect[~pos & (defect <= at_tiny)] = 0.0
    return float(defect.max())


def prox_objective(x, v, lam, q):
    """g(x) = 0.5*||x - v||_2**2 + lam*||x||_q, the projected objective."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return 0.5 * float(np.square(x - v).sum()) + lam * q_norm(x, q)
