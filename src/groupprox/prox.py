"""The lq-regularized Euclidean projection and its grouped form.

For a single block the projection solves

    argmin_x  0.5*||x - v||_2**2 + lam*||x||_q.

q = 1, 2, inf admit closed or semi-closed forms. For general q in (1, inf)
the solution is recovered from two nested zero-finding problems: an outer
scalar root c* of phi(c) = lam*psi(c) - c, and, per evaluation of phi, the
per-coordinate roots of x + c*x**(q-1) = v_i. The outer search runs over
u = log(c), because the bracket endpoints can span hundreds of orders of
magnitude for large q, with Newton steps from the bracket's left end,
safeguarded by bisection. Their slope comes from the inner roots at no
extra pass: at a root, d log x_i/du = -(v_i - x_i)/(x_i + (q-1)(v_i - x_i)).
Each inner root comes from Newton's method on log x, in which the equation
is convex for every q > 1, started from an upper bound or from the
previous step's roots moved along that tangent. For q < 2 one Newton step
on x itself finishes the roots, since where x << v log x resolves only to
about eps/(q-1). Each group is solved scaled to unit max-magnitude: the
projection commutes with scaling (v, lam) -> (s*v, s*lam), which shifts u
by (2-q)*log(s), so nothing in the solve overflows and the result is
scale-equivariant up to rounding. The roots leave the log domain only in
the caller's units, so a root that a double holds does not underflow for
being tiny beside max|v|.

No loop has a cap or a sweep tolerance. A Newton coordinate stops once its
step no longer shrinks, which it reaches at the rounding of the equation:
over varied inputs, q from 1 + 1e-6 to 101, each inner solve took at most
16 passes over the vector, and a projection takes one solve per outer step
plus one at the left end of the bracket. The outer Newton stops at a step
of 1e-10 in u, which is scale-free, or of one float spacing at u (past
|u| = 2**19, which large q reach), or where the error its quadratic
convergence predicts for the Newton point is below rounding. Every outer
step but one try of the bracket's right end evaluates phi strictly inside
the bracket and shrinks it, so the outer loop ends too; over 10,500
random groups (q from 1 + 1e-6 to 100, 2 to 60 entries) it took at most
8 steps. Every entry point rejects inf and nan in v and a nan or negative
lam, so the kernels only see finite magnitudes.

The per-coordinate work runs in contiguous blocks of _BLOCK coordinates:
the inner Newton passes, per outer step the tangent start and the slope
of log x, and the final roots of a finished group. A block's temporaries stay
in cache and the allocator reuses them, where whole-vector temporaries of
a long group would each be fresh pages. Each inner root follows its own
iteration to its own stop, so the roots are bit-identical to a solve over
the whole vector, and the pass count, set by the slowest coordinate, is
the largest over blocks.

At astronomically large q, log c* is of size q, so the outer solve
resolves x only to about q*eps*min(lam, max|v|), while the q = inf
projection is within about lam*ln(n)/q of the exact one. A group where the
latter is smaller gets the q = inf projection (past q = 5.6e7 for
v = [1, 0.5] at half the dual norm). Its defect in the q-equation is then
of order lam: the equation weighs coordinates by (|x_i|/||x||_q)**(q-1),
which the differences of order 1/q between the two answers move by factors
of order one, and which even a one-float change in x moves by exp(q*eps).

At q = inf the projection clips |v| at the exact l1-ball threshold t, the
root of sum_i max(|v_i| - t, 0) = lam: a sort and a scan, with no
tolerance and no sweep count. Groups are batched by power-of-two size
class: each class is one zero-padded matrix, one row per group, sorted and
summed along its rows. Padding at most doubles the entries and there are at
most log2(max size) + 1 classes, so the cost stays O(n log n) for any layout.

Each form is one kernel batched over all groups of a flat vector, given as
(values, offsets); the single-vector projections are its one-group case.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grouped import (GroupedVector, _finite, _group_norms, dual_exponent,
                      group_norms, q_norm)

__all__ = [
    "ProxDiagnostics",
    "ProjectionError",
    "is_zero_solution",
    "l1_ball_threshold",
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

# Outer tolerance in u = log(c), on the Newton step and the bracket width.
_OUTER_TOL = 1e-10

# Coordinates per block of the general-q kernel's per-coordinate work: a
# block's float temporaries take 128 KB, within L2 and below the size at
# which the allocator maps fresh pages for each one.
_BLOCK = 16384

_EPS = np.finfo(float).eps

# Relative closeness of lam to ||v||_qbar below which the projection is
# snapped to zero: epsilon underflows and the c bounds blow up there, while
# the true solution is within tolerance of zero by continuity.
_BOUNDARY_RTOL = 1e-12


def _nonzero(dual, lam):
    """The zero rule of every q > 1: whether groups of dual norm ``dual``
    project to a nonzero vector. lam = inf projects every group to zero."""
    return dual - lam > _BOUNDARY_RTOL * dual


class ProjectionError(RuntimeError):
    """Internal consistency failure of the nested zero-finding."""

    def __init__(self, msg, *, epsilon=None, c_low=None, c_high=None,
                 phi_low=None, group=None):
        if group is not None:
            msg = f"group {group}: {msg}"
        super().__init__(msg)
        self.epsilon = epsilon
        self.c_low = c_low
        self.c_high = c_high
        self.phi_low = phi_low
        self.group = group


@dataclass
class ProxDiagnostics:
    c_star: Optional[float]
    epsilon: float
    outer_iters: int
    inner_iters_total: int
    residual: float


def is_zero_solution(v, lam, q):
    """True iff the projection of v is exactly zero: lam >= max|v| at q = 1,
    where the soft threshold snaps nothing, else the kernels' _nonzero."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    dual = q_norm(v, dual_exponent(q))
    return lam >= dual if q == 1.0 else not _nonzero(dual, lam)


def _check_lam(lam):
    """Reject a negative or nan lam; lam = inf projects everything to 0."""
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")


def prox_l1(v, lam):
    """Soft threshold: sgn(v) * max(|v| - lam, 0)."""
    _check_lam(lam)
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def _one_group(v):
    return np.array([0, v.size], dtype=np.intp)


def prox_l2(v, lam):
    """Closed form for q = 2: scale v by max(0, (||v||_2 - lam)/||v||_2)."""
    _check_lam(lam)
    v = _finite(np.asarray(v, dtype=float))
    return v.copy() if v.size == 0 else _prox_l2_groups(v, _one_group(v), lam)[0]


def prox_linf(v, lam):
    """Semi-closed form for q = inf: clip |v| at the l1-ball threshold t*."""
    _check_lam(lam)
    v = _finite(np.asarray(v, dtype=float))
    return v.copy() if v.size == 0 else _prox_linf_groups(v, _one_group(v), lam)[0]


def _prox_l2_groups(vals, offsets, lam):
    """Batched q = 2 projection: each group scaled by max(0, 1 - lam/||v_g||).

    Returns (x, norms), norms the l2-norm of each group of x.
    """
    norms = group_norms(vals, offsets, 2.0)
    factor = np.maximum(0.0, 1.0 - lam / np.where(norms > 0.0, norms, 1.0))
    factor *= _nonzero(norms, lam)
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
    outside = _nonzero(l1, lam)
    t = np.zeros(sizes.size)
    t[outside] = _l1_ball_thresholds(a[np.repeat(outside, sizes)],
                                     sizes[outside], lam)
    return np.sign(vals) * np.minimum(a, np.repeat(t, sizes)), t


def _l1_ball_thresholds(a, sizes, lam):
    """Per-group root t_g of sum_{i in g} max(a_i - t, 0) = lam, for a >= 0.

    The groups are contiguous runs of ``sizes`` entries of ``a``, and each
    must lie outside the ball: lam below its l1 norm. With top_j the sum of
    a group's j largest entries, t = (top_j - lam)/j on the segment where
    those j are active, and that j maximizes (top_j - lam)/j, since the
    ratio rises exactly while the next entry exceeds it. So no iterative
    tolerance is involved.
    """
    t = np.empty(sizes.size)
    # class k holds the sizes in [2**(k-1), 2**k)
    size_class = np.frexp(sizes)[1]
    entry_class = np.repeat(size_class, sizes)
    for k in np.flatnonzero(np.bincount(size_class)):
        rows = size_class == k
        n = sizes[rows]
        # negated magnitudes zero-padded to the class's largest size, so an
        # ascending sort puts each group's largest first; a padded zero
        # lowers the ratio, since lam is below the group's l1 norm
        j = np.arange(1, n.max() + 1)
        u = np.zeros((n.size, j.size))
        u[j <= n[:, None]] = a[entry_class == k]
        np.negative(u, out=u)
        u.sort(axis=1)
        # the row cumsum is -top_j, so the ratio is -(cumsum + lam)/j
        ratio = np.cumsum(u, axis=1, out=u)
        ratio += lam
        ratio /= j
        # numpy reduces a short contiguous axis one row at a time; the
        # leading axis of the transposed copy reduces across rows at once
        t[rows] = -np.ascontiguousarray(ratio.T).min(axis=0)
    return t


def l1_ball_threshold(v_abs, lam):
    """Exact root t* of sum_i max(v_abs_i - t, 0) = lam.

    Requires 0 < lam < sum(v_abs).
    """
    v_abs = np.asarray(v_abs, dtype=float)
    if not lam > 0:
        raise ValueError("lambda must be positive")
    total = float(v_abs.sum())
    if lam >= total:
        raise ValueError(
            f"lambda must be smaller than the l1 norm ({lam} >= {total})"
        )
    return float(_l1_ball_thresholds(v_abs, np.array([v_abs.size]), lam)[0])


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
    Written in place, since this runs on a whole block in every pass.
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
    """Roots t = log(w) of w + exp(a)*w**e = v, elementwise, for e > 0.

    Newton runs on t: F(t) = logaddexp(t, a + e*t) - log(v) is a log-sum-exp
    of two increasing affine functions of t, so it is convex and increasing
    for every e > 0, and iterates from an upper bound of the root decrease
    monotonically towards it; in log space the iterate resolves no finer
    than F can be evaluated. A coordinate stops at the first step that
    would not move it down or is no shorter than its previous step: steps
    shrink until they reach the rounding of F, where they stop shrinking,
    change sign or vanish. A decreasing sequence of floats gets there
    without a cap or a tolerance, and the loop ends when every coordinate
    has stopped.

    ``a`` is per coordinate. The start is the cold bound
    min(log v, (log v - a)/e), an upper bound of the root, or ``hint``
    where that is smaller. A hint may lie below the root, so the first step
    is taken in either direction: from below, convexity puts it above the
    root, and it is clipped to the cold bound. The roots are written over
    ``hint`` when it is given. Returns (t, passes); ``passes`` counts the
    evaluations of F, each a pass over the vector.

    Every coordinate follows its own iteration and stops on its own test,
    and a stopped coordinate's step is zeroed and stays zero, so a solve
    over any slice gives the same roots bit for bit, and a solve over the
    whole vector takes as many passes as its slowest slice.
    """
    # a start at +inf is the cold bound
    t = np.full_like(log_v, np.inf) if hint is None else hint
    cold = np.minimum(log_v, (log_v - a) / e)
    np.minimum(t, cold, out=t)
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
        if not np.count_nonzero(move):
            return t, passes
        # zero the steps of stopped coordinates, so that they stay stopped
        # (d is finite: after the first step every iterate is above the root)
        d *= move
        t -= d
        last = d


def _newton_polish(x, v, log_c, q):
    """One Newton step on h(x) = x + c*x**(q-1) - v, for 1 < q < 2.

    The inner solve runs on log x, where F' = (x + (q-1)*p)/(x + p) with
    p = c*x**(q-1). Where x << v, p is near v and F' near q - 1, so log x,
    and x relatively, resolve only to about eps/(q-1): at q = 1 + 1e-6 the
    optimality residual reads about 1e-9 of max|v| without this step.

    h'(x) = 1 + c*(q-1)*x**(q-2) >= 1 on (0, v), so the step from a root
    accurate to a few digits squares its relative error. The step is
    (x + p - v)/(1 + (q-1)*a) with p = c*x**(q-1) and a = c*x**(q-2), each
    formed from logs: p is near v - x at a root, so it does not overflow,
    and a is +inf at x = 0, where h' is infinite and the step is 0. Where a
    overflows (x below about 1e-308 of v) the step is 0 too, and x keeps
    the accuracy of log x.
    """
    e = q - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        log_x = np.log(x)
        p = np.exp(log_c + e * log_x)
        a = np.exp(log_c + (e - 1.0) * log_x)
    step = (x + p - v) / (1.0 + e * a)
    return np.clip(x - step, 0.0, v)


def _dlog_x(log_x, u, q, out=None):
    """d log x_i/du at the inner roots x_i of x + exp(u)*x**(q-1) = v.

    Written into ``out`` if given.

    Differentiating the equation gives -r/(1 + (q-1)*r), r = (v - x)/x,
    and at a root r = c*x**(q-2), which log x gives without cancellation.
    Written as -1/(1/r + q - 1), it lies in [-1/(q-1), 0] and stays
    finite where 1/r over- or underflows.
    """
    d = np.multiply(log_x, 2.0 - q, out=out)
    d -= u
    with np.errstate(over="ignore"):
        np.exp(d, out=d)
    d += q - 1.0
    np.reciprocal(d, out=d)
    return np.negative(d, out=d)


def _d2log_x(dlog_x, q):
    """d2 log x_i/du2 at the inner roots, from a = d log x_i/du.

    With a = -1/(1/r + q - 1) and d log r/du = 1 + (q-2)*a, it is
    a*(1 + (q-1)*a)*(1 + (q-2)*a).
    """
    return dlog_x * (1.0 + (q - 1.0) * dlog_x) * (1.0 + (q - 2.0) * dlog_x)


def _log_psi_groups(log_x, starts, sizes, q, dlog_x=None):
    """log psi(c) per group, psi = (sum_i x_i**q)**((1-q)/q), from log x.

    Given ``dlog_x`` = d log x_i/du, also returns d log psi/du per group:
    (1-q) times the x**q-weighted mean of dlog_x.
    """
    top = np.maximum.reduceat(log_x, starts)
    w = np.repeat(top, sizes)
    np.subtract(log_x, w, out=w)
    w *= q
    s = np.add.reduceat(np.exp(w, out=w), starts)
    log_psi = (1.0 - q) * top + ((1.0 - q) / q) * np.log(s)
    if dlog_x is None:
        return log_psi
    w *= dlog_x
    return log_psi, (1.0 - q) * np.add.reduceat(w, starts) / s


def phi(c, v_abs, lam, q):
    """phi(c) = lam*psi(c) - c, where psi aggregates the inner roots at c.

    At c = 0 the inner roots are the v_i themselves, so
    phi(0) = lam*||v||_q**(1-q) > 0. The roots are found for v scaled to
    unit max-magnitude, which shifts log(c) by (q-2)*log(max v).
    """
    if not 0.0 <= c < math.inf:
        raise ValueError(f"c must be finite and nonnegative, got {c}")
    if not 1.0 < q < math.inf:
        raise ValueError(f"phi needs 1 < q < inf, got {q}")
    _check_lam(lam)
    v_abs = _finite(np.asarray(v_abs, dtype=float))
    if np.any(v_abs <= 0.0):
        raise ValueError("phi needs strictly positive entries")
    if c == 0.0:
        return lam * math.exp((1.0 - q) * math.log(q_norm(v_abs, q)))
    log_s = math.log(v_abs.max())
    log_v = np.log(v_abs) - log_s
    u = np.full(v_abs.size, math.log(c) + (q - 2.0) * log_s)
    log_x = _newton_roots(log_v, u, q - 1.0)[0]
    one = np.array([0], dtype=np.intp)
    log_psi = _log_psi_groups(log_x, one, np.array([v_abs.size]), q)[0]
    return lam * math.exp(float(log_psi) + (1.0 - q) * log_s) - c


def _solve_positive_groups(log_v, starts, sizes, gid, lam, q, dual,
                           log_scale, groups):
    """Outer root of every group: safeguarded Newton in u = log(c).

    ``log_v`` holds the log-magnitudes of the nonzero entries of all active
    groups back to back, each less its group's ``log_scale`` (the log of
    its largest magnitude). The projection commutes with that scaling,
    which shifts u by (q-2)*log_scale and divides lam by the scale. ``gid``
    maps coordinates to group index, ``dual`` is the per-group dual norm
    ||v||_qbar and ``groups`` the caller's index of each group, for errors.

    Newton runs on G(u) = log(lam) + log(psi(u)) - u, phi in log units,
    from the left end of the bracket, where G >= 0. Its slope
    dG/du = d log psi/du - 1 lies in [-1, 0) and comes from the inner
    roots at no extra pass (_dlog_x); ``fall`` is its negative. The right
    end is a bound only: theory puts G <= 0 there, and a Newton point at
    or past it tries the end itself once. Any other Newton point that is
    not finite or not strictly inside the bracket bisects it instead, so
    every other step evaluates G strictly inside and shrinks the bracket.
    A group leaves the working set once its Newton step or its bracket is
    at most _OUTER_TOL or the float spacing at u, or, after a Newton step
    of length ``prev`` other than the first, the quadratic-convergence
    estimate |step|**3/prev**2 of the Newton point's error is below the
    float spacing at u. Its root is then the Newton point clipped to the
    bracket, and x the last roots moved to it to second order in u. The
    roots leave the log domain in units in which they are doubles, so that
    none that the caller's units hold underflows. Returns (x, u_star,
    outer_iters, inner_passes) in the caller's units.
    """
    log_lam = math.log(lam) - log_scale
    log_dual = np.log(dual)
    # c_i is log-linear in v_i, so the extremes of log v (the largest is 0)
    # give those of the candidates
    log_c = _log_c_candidates(
        np.stack((np.minimum.reduceat(log_v, starts), np.zeros(sizes.size))),
        np.log(dual - lam) - log_dual, math.log(lam) - log_dual, q)
    lo, hi = np.sort(log_c, axis=0)
    u = lo.copy()
    # log x and d log x/du, rewritten in place at every step; log x = inf
    # starts the first solve cold
    coords = np.empty((2, log_v.size))
    log_x, dlog_x = coords
    log_x.fill(np.inf)
    passes = 0

    def at(trial, warm=True):
        """Roots log x and d log x/du at ``trial``; G and -dG/du there.

        A warm inner solve starts from the roots at u moved along their
        tangent d log x/du. The coordinate work runs in blocks of _BLOCK
        coordinates, so no temporary is a whole vector; each block is
        solved to its own stop, which gives the roots and the pass count of
        one solve over the whole vector (_newton_roots).
        """
        nonlocal passes
        move, most = trial - u, 0
        for i in range(0, log_v.size, _BLOCK):
            b = slice(i, i + _BLOCK)
            gb, tb, hint = gid[b], log_x[b], dlog_x[b]
            ub = trial[gb]
            if warm:
                hint *= move[gb]
                tb += hint
            most = max(most, _newton_roots(log_v[b], ub, q - 1.0, tb)[1])
            _dlog_x(tb, ub, q, out=hint)
        passes += most
        log_psi, dlog_psi = _log_psi_groups(log_x, starts, sizes, q, dlog_x)
        return log_lam + log_psi - trial, 1.0 - dlog_psi

    g, fall = at(u, warm=False)
    # Theory guarantees phi(c_low) >= 0; allow a small numerical margin
    # (log-scale units) before declaring inconsistency.
    bad = np.nonzero(g < -1e-6)[0]
    if bad.size:
        b = int(bad[0])
        shift = (2.0 - q) * log_scale[b]
        raise ProjectionError(
            "phi endpoint signs inconsistent",
            epsilon=float((dual[b] - lam) / dual[b]),
            c_low=math.exp(lo[b] + shift), c_high=math.exp(hi[b] + shift),
            phi_low=float(g[b]), group=int(groups[b]),
        )
    # within the margin, a negative G at the left end is rounding: the end
    # is the root
    np.maximum(g, 0.0, out=g)

    x_out, u_out = np.empty(log_v.size), np.empty(sizes.size)
    live_c, live_g = np.arange(log_v.size), np.arange(sizes.size)
    open_hi = np.ones(sizes.size, dtype=bool)  # G not yet evaluated at hi
    prev = np.zeros(sizes.size)  # the last step, where it was Newton's
    outer = 0
    while True:
        step = g / fall
        newton = u + step
        # past |u| = 2**19 floats lie more than _OUTER_TOL apart, and a
        # bracket no wider than the float spacing has no float inside
        length, ulp = np.abs(step), np.spacing(np.abs(u))
        tol = np.maximum(ulp, _OUTER_TOL)
        # converging quadratically, the Newton point is off by about
        # |step|**3/prev**2, which may already lie below the float spacing
        done = (length <= tol) | (hi - lo <= tol) | (length**3 <= ulp * prev**2)
        if np.count_nonzero(done):
            # fmax and fmin take the bracket end over a nan Newton point
            uf = np.fmin(np.fmax(newton, lo), hi)
            fin = np.flatnonzero(done[gid])
            for i in range(0, fin.size, _BLOCK):
                f = fin[i:i + _BLOCK]
                gf = gid[f]
                # log x at uf, to second order in the distance d from u
                a, d = dlog_x[f], (uf - u)[gf]
                lx = log_x[f] + d * (a + 0.5 * d * _d2log_x(a, q))
                if q < 2.0:
                    # where x << v, log x resolves only to about
                    # eps/(q-1); one Newton step on x itself restores the
                    # digits. It runs in units of sqrt(x*v), clipped at
                    # e**-700 of the group's scale, in which v is at most
                    # e**700 and x a double wherever x/v is above about
                    # e**-1400, where the group's scale may not hold x
                    lv = log_v[f]
                    mid = np.maximum(0.5 * (lx + lv), -700.0)
                    x = _newton_polish(np.exp(lx - mid), np.exp(lv - mid),
                                       uf[gf] + (q - 2.0) * mid, q)
                    x_out[live_c[f]] = x * (np.exp(mid) * np.exp(log_scale)[gf])
                else:
                    lx += log_scale[gf]
                    x_out[live_c[f]] = np.exp(lx)
            if q < 2.0:
                passes += 1
            u_out[live_g[done]] = uf[done] + (2.0 - q) * log_scale[done]
            keep, keep_c = ~done, ~done[gid]
            (u, lo, hi, open_hi, length, newton, log_lam, log_scale, sizes,
             live_g) = (a[keep] for a in (u, lo, hi, open_hi, length, newton,
                                          log_lam, log_scale, sizes, live_g))
            if not sizes.size:
                return x_out, u_out, outer, passes
            # compress keeps the rows of coords contiguous, where a[:, keep_c]
            # would interleave them
            coords, log_v, live_c = (a.compress(keep_c, axis=-1)
                                     for a in (coords, log_v, live_c))
            log_x, dlog_x = coords
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            gid = np.repeat(np.arange(sizes.size), sizes)
        outer += 1
        # a Newton point at or past the unevaluated right end tries the end
        # itself, where the root lies when the bound is tight; any other
        # point not strictly inside, nan included, bisects
        inside = (newton > lo) & (newton < hi)
        trial = np.where(inside, newton,
                         np.where(open_hi & (newton >= hi), hi,
                                  lo + 0.5 * (hi - lo)))
        # a first step, from the far left end, shows no quadratic convergence
        prev = length * (inside & (outer > 1))
        g, fall = at(trial)
        u = trial
        left = g >= 0.0
        lo = np.where(left, u, lo)
        hi = np.where(left, hi, u)
        open_hi &= left


def _prox_lq_groups(vals, offsets, lam, q):
    """Batched general-q projection over all groups of a flat vector, lam > 0.

    Groups at or within rounding error of the dual-norm boundary project to
    exact zero; a group with one nonzero coordinate is soft-thresholded,
    since every q-norm of a scalar is its magnitude; a group for which q is
    so large that the q = inf projection is the closer answer (module
    docstring) gets that; the rest go through the nested zero-finding
    together, with their zero coordinates dropped.
    Returns (x, c_star, eps, outer_iters, inner_passes), where c_star and
    eps are per group: c_star is nan where no outer solve ran, eps is 0
    where the projection is zero.
    """
    sizes = np.diff(offsets)
    a = np.abs(vals)
    top = np.maximum.reduceat(a, offsets[:-1])
    dual = _group_norms(a, top, offsets, dual_exponent(q))
    active = _nonzero(dual, lam)
    eps = np.zeros_like(dual)
    eps[active] = (dual[active] - lam) / dual[active]
    nonzero = vals != 0.0
    nnz = np.add.reduceat(nonzero, offsets[:-1], dtype=np.intp)
    out = np.zeros_like(vals)
    c_star = np.full(dual.size, np.nan)

    single = np.repeat(active & (nnz == 1), sizes) & nonzero
    out[single] = np.sign(vals[single]) * (a[single] - lam)

    nested = active & (nnz > 1)
    # the q = inf projection is within about lam*ln(n)/q of the exact one,
    # and the outer solve resolves x to about q*eps*min(lam, max|v|); the
    # test needs q*q*eps >= ln(2), so it is never met below q = 5.6e7
    qqe = q * q * _EPS
    if qqe >= math.log(2.0):
        with np.errstate(invalid="ignore"):  # lam = inf leaves none nested
            near_inf = nested & (np.log(nnz) <= qqe * np.minimum(1.0, top / lam))
        m = np.repeat(near_inf, sizes)
        out[m] = _prox_linf_groups(vals[m], np.concatenate(
            ([0], np.cumsum(sizes[near_inf]))), lam)[0]
        nested &= ~near_inf
    if not nested.any():
        return out, c_star, eps, 0, 0
    sel = np.repeat(nested, sizes) & nonzero
    # zero coordinates drop out but group contiguity is preserved
    sub_sizes = nnz[nested]
    sub_starts = np.concatenate(([0], np.cumsum(sub_sizes)[:-1]))
    gid = np.repeat(np.arange(sub_sizes.size), sub_sizes)
    log_scale = np.log(top[nested])
    log_v = np.log(a[sel])
    log_v -= log_scale[gid]
    x, u_star, outer, inner = _solve_positive_groups(
        log_v, sub_starts, sub_sizes, gid, lam, q, dual[nested], log_scale,
        np.flatnonzero(nested),
    )
    x *= np.sign(vals[sel])
    out[sel] = x
    with np.errstate(over="ignore"):
        c_star[nested] = np.exp(u_star)
    return out, c_star, eps, outer, inner


def prox_lq_general(v, lam, q):
    """General-q projection via the nested zero-finding scheme.

    Returns (x, ProxDiagnostics). Handles sign decomposition and zero
    entries itself; lam at or beyond the dual-norm boundary yields the
    exact zero vector. At a q so large that the q = inf projection is the
    closer answer (module docstring), x is that projection and the
    diagnostics report no outer solve (c_star None, no iterations).
    """
    if not 1.0 < q < math.inf:
        raise ValueError(f"prox_lq_general needs 1 < q < inf, got {q}")
    _check_lam(lam)
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
    _check_lam(lam)
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
    # built in one buffer; the power term is exp(-inf) = 0 where x_i = 0
    defect = np.abs(x)
    sub = np.flatnonzero(defect < np.finfo(float).tiny)  # see below
    with np.errstate(divide="ignore"):
        np.log(defect, out=defect)
    defect *= q - 1.0
    defect += (1.0 - q) * math.log(nrm)
    np.exp(defect, out=defect)
    defect *= lam
    np.copysign(defect, x, out=defect)
    defect += x
    defect -= v
    np.abs(defect, out=defect)
    # a root below the smallest normal keeps few significant bits, or none
    # where it rounds to zero, and near q = 1 one subnormal spacing moves
    # |x|**(q-1) by up to about q - 1 of itself: count such x_i as satisfied
    # (``sub``) when the defect changes sign between its two float neighbours
    ends = np.nextafter(x[sub], [[-np.inf], [np.inf]])
    with np.errstate(divide="ignore"):
        power = np.exp((q - 1.0) * (np.log(np.abs(ends)) - math.log(nrm)))
    ends += lam * np.copysign(power, ends) - v[sub]
    defect[sub[(ends[0] <= 0.0) & (ends[1] >= 0.0)]] = 0.0
    return float(defect.max())


def prox_objective(x, v, lam, q):
    """g(x) = 0.5*||x - v||_2**2 + lam*||x||_q, the projected objective."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return 0.5 * float(np.square(x - v).sum()) + lam * q_norm(x, q)
