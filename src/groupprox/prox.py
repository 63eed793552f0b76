"""The lq-regularized Euclidean projection and its grouped form.

For a single block the projection solves

    argmin_x  0.5*||x - v||_2**2 + lam*||x||_q.

q = 1, 2, inf admit closed or semi-closed forms. For general q in (1, inf)
the solution comes from two zero-finding problems: per coordinate the root
x_i of x + c*x**(q-1) = v_i, and the scalar c* that solves
phi(c) = lam*psi(c) - c, psi aggregating the x_i. The kernel solves both
at once, by Newton's method on t = log x and u = log c, one pass over the
coordinates per step, safeguarded by a bracket of u certified at every
step, by holding u while a group's roots catch up and by bisection
(_solve_positive_groups). A pass that holds u is a Newton step on log x
alone, in which the inner equation is convex for every q > 1, and it runs
in the same pass as the groups that move u: one routine, _joint_pass,
steps every root. For q < 2 one Newton step on x itself finishes
the roots, since where x << v log x resolves only to about eps/(q-1). Each
group is solved scaled to unit max-magnitude: the projection commutes with
scaling (v, lam) -> (s*v, s*lam), which shifts u by (2-q)*log(s), so
nothing in the solve overflows and the result is scale-equivariant up to
rounding. The roots leave the log domain only in the caller's units, so a
root that a double holds does not underflow for being tiny beside max|v|.

No loop has a cap or a sweep tolerance: every step shortens the Newton
step, brings the roots nearer rounding or shrinks the bracket. Over
10,500 random groups (q from 1 + 1e-6 to 101, 2 to 60 entries spread over
1e+-3, lam 0.01 to 0.999 of the dual norm) a projection took a median of
8 passes over the vector, at most 15, of which at most 12 moved u. The
per-coordinate work runs in contiguous blocks of _BLOCK coordinates, whose
temporaries stay in cache and are reused, where those of a long group
would be fresh pages.
Every entry point rejects inf and nan in v and a nan or negative lam, so
the kernels only see finite magnitudes.

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

from .grouped import (GroupedVector, _finite, _unit_norms, dual_exponent,
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

# Tolerance of the general-q kernel on the bracket width in u = log(c).
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


def _shrinkage(dual, lam):
    """The zero rule of every q > 1: eps = 1 - lam/dual per group of dual
    norm ``dual`` that projects to a nonzero vector, else 0. A dual norm
    that overflowed to inf lies above every finite lam, and lam = inf
    projects every group to zero. The ratio is formed only where the group
    is kept, so a subnormal dual norm does not overflow it."""
    keep = lam < (1.0 - _BOUNDARY_RTOL) * dual
    return np.where(keep, 1.0 - lam / np.where(keep, dual, 1.0), 0.0)


class ProjectionError(RuntimeError):
    """Internal consistency failure of the general-q solve."""

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
    """True iff the kernel of q projects v to exactly zero (prox_grouped on
    one group): at q > 1 the zero rule is _shrinkage's, within rounding of
    the dual-norm boundary, and the soft threshold (q = 1) snaps nothing."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    v = np.asarray(v, dtype=float)
    return v.size == 0 or not prox_grouped(
        GroupedVector(v, _one_group(v)), lam, q).values.any()


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
    factor = _shrinkage(norms, lam)
    return vals * np.repeat(factor, np.diff(offsets)), factor * norms


def _prox_linf_groups(vals, offsets, lam):
    """Batched q = inf projection: clip each group at its l1-ball threshold.

    Groups inside the l1 ball, or within rounding error of its boundary,
    project to zero; only the others are sorted for a threshold. Returns
    (x, t): a group's threshold t, 0 for a zero group, is its max-norm in x.
    """
    a = np.abs(vals)
    sizes = np.diff(offsets)
    with np.errstate(over="ignore"):  # an l1 norm past the doubles is inf
        l1 = np.add.reduceat(a, offsets[:-1])
    outside = _shrinkage(l1, lam) > 0.0
    # a group whose l1 norm overflows is thresholded in units of its
    # largest magnitude, in which it does not
    huge, outside = outside & (l1 == np.inf), outside & (l1 < np.inf)
    t = np.zeros(sizes.size)
    t[outside] = _l1_ball_thresholds(a[np.repeat(outside, sizes)],
                                     sizes[outside], lam)
    if np.count_nonzero(huge):
        top = np.maximum.reduceat(a, offsets[:-1])[huge]
        t[huge] = top * _l1_ball_thresholds(
            a[np.repeat(huge, sizes)] / np.repeat(top, sizes[huge]),
            sizes[huge], lam / top)
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
    At q = 2 every candidate is the same float.
    """
    return log_keep - (q - 1.0) * log_eps + (2.0 - q) * log_v


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


def _newton_polish(x, v, log_c, q):
    """One Newton step on h(x) = x + c*x**(q-1) - v, for 1 < q < 2.

    Where x << v, F' = (x + (q-1)*p)/(x + p) with p = c*x**(q-1) is near
    q - 1 in the solve on log x, so x resolves only to about eps/(q-1) of
    itself. h'(x) >= 1 on (0, v), so this step squares that error. It is
    (x + p - v)/(1 + (q-1)*a), a = c*x**(q-2), both formed from logs: a is
    +inf at x = 0, and overflows below about 1e-308 of v, where the step
    is 0 and x keeps the accuracy of log x.
    """
    e = q - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        log_x = np.log(x)
        p = np.exp(log_c + e * log_x)
        a = np.exp(log_c + (e - 1.0) * log_x)
    step = (x + p - v) / (1.0 + e * a)
    return np.clip(x - step, 0.0, v)


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
    u = math.log(c) + (q - 2.0) * log_s
    w_sum = _roots_at(np.log(v_abs) - log_s, u, q)[2][0]
    # log psi = (1-q)*top + ((1-q)/q)*log(sum of (x/e**top)**q), with the
    # kernel's top, -max(u, 0)/(q-1)
    log_psi = (1.0 - q) * (-max(u, 0.0) / (q - 1.0) + math.log(w_sum) / q)
    return lam * math.exp(log_psi + (1.0 - q) * log_s) - c


def _blocks(sizes, arrays, scratch):
    """For groups of ``sizes`` entries: the coordinate-to-group index, the
    group starts, and per block of _BLOCK coordinates its views in each of
    ``arrays`` and in as many columns of ``scratch``, the starts of its
    pieces of groups relative to it, and its first group."""
    gid = np.repeat(np.arange(sizes.size), sizes)
    starts = np.cumsum(sizes) - sizes
    blocks = []
    for i in range(0, gid.size, _BLOCK):
        gb = gid[i:i + _BLOCK]
        ls = starts[gb[0]:gb[-1] + 1] - i
        ls[0] = 0
        blocks.append((gb, *(a[..., i:i + _BLOCK] for a in arrays),
                       scratch[:, :gb.size], ls, gb[0]))
    return gid, starts, blocks


def _joint_pass(t, log_v, u, du, top, q, coords, m, starts):
    """One pass of the joint Newton step over groups that begin at
    ``starts``; ``u``, its step ``du`` and ``top`` (at least the group's
    largest t) are per coordinate, or scalars for one group. Moves t by
    -(r + s*du), a plain Newton step on t where du = 0, clipped to the
    cold bound at u, then writes F = logaddexp(t, u + (q-1)*t) - log v,
    r = F/F_t and s = F_u/F_t into ``coords``, and the weights
    (x/e**top)**q and their products with F, r and 1 - (q-1)*s into ``m``.
    Returns the sums of ``m`` and the largest r and s per group."""
    F, r, s = coords
    e = q - 1.0
    d = s * du
    d += r
    t -= d
    a = u - log_v
    np.divide(a, -e, out=d)
    np.minimum(d, log_v, out=d)
    np.minimum(t, d, out=t)
    w = t - log_v
    np.exp(w, out=w)
    p = e * t
    p += a
    np.exp(p, out=p)
    total = w + p
    np.log(total, out=F)
    slope = e * p
    slope += w
    np.divide(p, slope, out=s)
    np.multiply(F, total, out=r)
    r /= slope
    np.divide(w, slope, out=m[3])
    np.subtract(t, top, out=m[0])
    m[0] *= q
    np.exp(m[0], out=m[0])
    np.multiply(m[0], coords[:2], out=m[1:3])
    m[3] *= m[0]
    return (np.add.reduceat(m, starts, axis=1),
            np.maximum.reduceat(coords[1:], starts, axis=1))


def _roots_at(log_v, u, q):
    """The roots t = log x of one group at a fixed u, its log-magnitudes at
    most 0: passes at du = 0 from the cold bound, each a Newton step on t,
    until the largest r stops shrinking, the rule by which a group the
    kernel holds at u reaches rounding. Returns t, and the rows F, r, s
    and the group's sums of the last pass (with the kernel's top)."""
    t = np.full(log_v.size, np.inf)
    coords, m, last = np.zeros((3, t.size)), np.empty((4, t.size)), np.inf
    while True:
        sums, most = _joint_pass(t, log_v, u, 0.0, -max(u, 0.0) / (q - 1.0),
                                 q, coords, m, np.array([0]))
        if not most[0, 0] < last:
            return t, coords, sums[:, 0]
        last = most[0, 0]


def _solve_positive_groups(log_v, sizes, lam, q, dual, eps, log_scale,
                           groups):
    """Both roots of every group at once: Newton on (log x, log c).

    ``log_v`` holds the log-magnitudes of the nonzero entries of all active
    groups back to back, ``sizes`` each, less their group's ``log_scale``
    (the log of its largest magnitude), which shifts u = log(c) by
    (q-2)*log_scale; ``dual`` and ``eps`` = 1 - lam/dual are per group, in
    these units; ``groups`` is the caller's index of each, for errors.

    The equations are F_i = logaddexp(t_i, u + (q-1)*t_i) - log v_i = 0 in
    t_i = log x_i, and G = log(lam) + log(psi(t)) - u = 0. With
    r = F/F_t and s = F_u/F_t, the bordered Jacobian gives
    du = (G + (q-1)*<r>)/fall and dt = -(r + s*du), <.> the x**q-weighted
    mean and fall = <1 - (q-1)*s>, in (0, 1], -dG/du at the roots.

    F is convex, so from the cold bound min(log v, (log v - u)/(q-1)) t
    stays at or above the roots: G is at most its value there and, log psi
    being concave and F_t >= min(1, q-1), G + max(1, q-1)*<F> at least.
    Their signs move the ends of the bracket of u, from whose left end the
    search starts. Once the largest r of a group held at u stops
    shrinking, its roots are at rounding, and so is F but for the rounding
    of t, which q-1 and the weights amplify past any margin at large q: G
    alone decides there.

    A Newton point in the bracket is taken if its step is shorter than the
    last, or half of it where it steps back. Otherwise the group holds u:
    its next passes take du = 0, a plain Newton step t -= r, in the same
    passes as the groups that move. Once the sign of G at u is decided, a
    held group takes the Newton point at any length if it lies in the
    bracket, or else tries the bracket's right end once (where the root
    lies when that bound is tight) or bisects. A group whose bracket is
    within _OUTER_TOL, or whose G is zero to its rounding, goes to the
    clipped Newton point, closes its bracket there and holds; a bracket
    that is a point from the start (q = 2, equal magnitudes or one nonzero
    entry) holds throughout, and passes in which every bracket is a point
    decide nothing. Every step shortens the Newton step, brings the roots
    nearer rounding or shrinks the bracket, so the loop ends.

    A group finishes at x = t + dt, dt = -(r + s*du) taken to the clipped
    Newton point, once every r is at most step_tol (or u's resolution, or
    stops shrinking at u) and the Newton step moves u, times max s, by as
    little; for a group near its root, the step to the clipped point. A
    group whose G is certainly below zero at the left end of its bracket
    raises ProjectionError. Returns (x, u_star, steps, passes) in the
    caller's units; steps counts the passes that move u.
    """
    e = q - 1.0
    log_lam = math.log(lam) - log_scale
    # log x, and F, r, s: with r = s = 0, pass one takes t to its cold bound
    t, coords = np.full(log_v.size, np.inf), np.zeros((3, log_v.size))
    work = np.empty((4, min(log_v.size, _BLOCK)))
    gid, starts, blocks = _blocks(sizes, (t, log_v, coords), work)
    # the candidates are log-linear in log v, so its extremes give theirs
    lo, hi = np.sort(_log_c_candidates(
        np.minimum.reduceat(log_v, starts) * [[1.0], [0.0]],
        np.log(eps), log_lam - np.log(dual), q), axis=0)
    ulp = np.spacing(np.maximum(hi, -lo))  # u's resolution in the bracket
    u, du = lo.copy(), np.zeros(sizes.size)
    # the last step taken, and the largest r of the last pass
    last, last_r = np.full((2, sizes.size), np.inf)
    # the next pass keeps u, as every pass does where the bracket is a
    # point (q = 2, equal magnitudes or one nonzero entry)
    hold = lo == hi
    open_hi = np.ones(sizes.size, dtype=bool)  # hi not yet tried
    scale = np.array([[1.0], [max(1.0, e)], [e], [1.0]])
    # a step leaves K*step**2, K <= (q-2)**2/(8*min(1, q-1)) for the roots
    step_tol = math.sqrt(8.0 * _EPS / max(1.0, (q - 2.0)**2 / min(1.0, e)))
    x_out, u_out = np.empty(log_v.size), np.empty(sizes.size)
    live_c, live_g = np.arange(log_v.size), np.arange(sizes.size)
    steps, passes, held = 0, 0, np.count_nonzero(hold)
    while True:
        # one pass; the cold bound of the largest entry, -max(u, 0)/(q-1),
        # bounds every t of its group and stands in for the largest
        passes += 1
        top = np.maximum(u, 0.0) * (-1.0 / e)
        sums = [_joint_pass(tb, lv, u[gb], du[gb], top[gb], q, cb, m, ls)
                for gb, tb, lv, cb, m, ls, _ in blocks]
        if len(blocks) == 1:
            (acc, most), = sums
        else:
            acc, most = np.zeros((4, sizes.size)), np.zeros((2, sizes.size))
            for (part, peak), (*_, ls, g0) in zip(sums, blocks):
                acc[:, g0:g0 + ls.size] += part
                mg = most[:, g0:g0 + ls.size]
                np.maximum(mg, peak, out=mg)
        # the step moves each log x by at most max(r) + max(s)*|du|
        sens = np.maximum(most[1], 1.0)
        tol = np.maximum(step_tol / sens, ulp)
        # at u, an r that stops shrinking is at its rounding
        stalled = hold & (most[0] >= last_r) if held else hold
        settled = (most[0] <= tol * sens) | stalled
        last_r = most[0]
        if held == sizes.size and (lo == hi).all():
            # every bracket is a point: the groups only wait for their roots
            done, du = settled, np.zeros_like(du)
        else:
            # (1-q)*top - u is -min(u, 0)
            g = log_lam - (e / q) * np.log(acc[0]) - np.minimum(u, 0.0)
            acc *= scale
            acc /= acc[0]
            np.maximum(acc[1], 0.0, out=acc[1])  # F >= 0, but for rounding
            upper, num = g + acc[1:3]
            # F is at its rounding too where r is, but for t's rounding,
            # which q-1 and the weights amplify: G alone decides there
            upper = np.where(stalled, g, upper) if held else upper
            above, below = g >= 0.0, upper < 0.0
            lo, hi = np.where(above, u, lo), np.where(below, u, hi)
            du = num / acc[3]
            newton = u + du
            # fmax and fmin take the bracket end over a nan Newton point
            clipped = np.fmin(np.fmax(newton, lo), hi)
            done = settled & (np.abs(du) <= tol)
            u_new = clipped  # where every group finishes
            if np.count_nonzero(done) < sizes.size:
                # G, a difference of terms of the size of u, is zero to its
                # rounding
                near = ((hi - lo <= np.maximum(_OUTER_TOL / sens, ulp))
                        | (np.abs(num) <= (4.0 * _EPS) * np.abs(u)))
                take = ((clipped == newton) & ~near
                        & (np.abs(du / last - 0.25) < 0.75))
                if held:
                    take &= above | below | ~hold
                elif np.count_nonzero(take & ~settled) == sizes.size:
                    u, last, steps = newton, du, steps + 1
                    continue
                # G < 0 beyond rounding at the left end: that end was wrong
                bad = np.flatnonzero((upper < -1e-6) & (u == lo))
                if bad.size:
                    b = int(bad[0])
                    with np.errstate(over="ignore"):
                        c = np.exp([lo[b], hi[b]] + (2.0 - q) * log_scale[b])
                    raise ProjectionError(
                        "phi endpoint signs inconsistent",
                        epsilon=float(eps[live_g[b]]), c_low=float(c[0]),
                        c_high=float(c[1]), phi_low=float(g[b]),
                        group=int(groups[live_g[b]]))
                # near its root, the step that counts is the clipped one
                done |= settled & near & (np.abs(clipped - u) <= tol)
                # a held group whose sign is decided tries hi once or bisects
                move = hold & (above | below) & ~(take | near | done)
                open_hi &= u < hi
                u_new = np.where(take | near | done, clipped, np.where(
                    move, np.where(open_hi & (newton >= hi), hi,
                                   0.5 * (lo + hi)), u))
                # a group near its root goes to the clipped Newton point,
                # where its bracket closes, and holds there
                lo, hi = np.where(near, u_new, [lo, hi])
                hold = ~(take | move | done)
            du, u = u_new - u, u_new
            last = np.where(hold, np.inf, du)
        n_done = np.count_nonzero(done)
        if n_done:
            every = n_done == sizes.size
            fin = gid if every else np.flatnonzero(done[gid])
            for i in range(0, fin.size, _BLOCK):
                f = slice(i, i + _BLOCK) if every else fin[i:i + _BLOCK]
                gf = gid[f]
                lx = t[f] - (coords[1, f] + coords[2, f] * du[gf])
                if q < 2.0:
                    # log x resolves x only to about eps/(q-1) where
                    # x << v: a Newton step on x restores the digits, in
                    # units of sqrt(x*v) (clipped at e**-700 of the scale)
                    # in which x and v are doubles
                    lv = log_v[f]
                    mid = np.maximum(0.5 * (lx + lv), -700.0)
                    x = _newton_polish(np.exp(lx - mid), np.exp(lv - mid),
                                       u[gf] + (q - 2.0) * mid, q)
                    x_out[live_c[f]] = x * (np.exp(mid) * np.exp(log_scale)[gf])
                else:
                    x_out[live_c[f]] = np.exp(lx + log_scale[gf])
            passes += q < 2.0
            u_out[live_g[done]] = u[done] + (2.0 - q) * log_scale[done]
            if every:
                return x_out, u_out, steps, passes
            keep, keep_c = ~done, ~done[gid]
            (u, du, lo, hi, ulp, last, last_r, hold, open_hi, log_lam,
             log_scale, sizes, live_g) = (a[keep] for a in (
                 u, du, lo, hi, ulp, last, last_r, hold, open_hi, log_lam,
                 log_scale, sizes, live_g))
            t, log_v, live_c = t[keep_c], log_v[keep_c], live_c[keep_c]
            coords = coords[:, keep_c]
            gid, _, blocks = _blocks(sizes, (t, log_v, coords), work)
        # the next pass moves u if any du is nonzero
        steps += bool(np.count_nonzero(du))
        held = np.count_nonzero(hold)


def _prox_lq_groups(vals, offsets, lam, q):
    """Batched general-q projection over all groups of a flat vector, lam > 0.

    Groups at or within rounding error of the dual-norm boundary project to
    exact zero; a group for which q is so large that the q = inf projection
    is the closer answer (module docstring) gets that; the rest are solved
    together, without their zero coordinates. Returns (x, c_star, eps,
    outer_iters, inner_passes); c_star and eps are per group, c_star nan
    where no solve ran and eps 0 where the projection is zero.
    """
    sizes = offsets[1:] - offsets[:-1]
    a = np.abs(vals)
    top = np.maximum.reduceat(a, offsets[:-1])
    # the dual norm in units of top, in which it does not overflow
    dual = _unit_norms(a, top, offsets, dual_exponent(q))
    # lam in units of a subnormal top may overflow to inf, above every dual
    with np.errstate(over="ignore"):
        eps = _shrinkage(dual, lam / np.where(top > 0.0, top, 1.0))
    nonzero = vals != 0.0
    nnz = np.add.reduceat(nonzero, offsets[:-1], dtype=np.intp)
    out = np.zeros_like(vals)
    c_star = np.full(dual.size, np.nan)
    solved = eps > 0.0
    # the q = inf projection is within about lam*ln(n)/q of the exact one,
    # and the outer solve resolves x to about q*eps*min(lam, max|v|); the
    # test needs q*q*eps >= ln(2), so it is never met below q = 5.6e7
    qqe = q * q * _EPS
    if qqe >= math.log(2.0):
        with np.errstate(invalid="ignore"):  # lam = inf leaves none solved
            near_inf = solved & (np.log(nnz) <= qqe * np.minimum(1.0, top / lam))
        m = np.repeat(near_inf, sizes)
        out[m] = _prox_linf_groups(vals[m], np.concatenate(
            ([0], np.cumsum(sizes[near_inf]))), lam)[0]
        solved &= ~near_inf
    if not solved.any():
        return out, c_star, eps, 0, 0
    sel = np.repeat(solved, sizes) & nonzero
    # zero coordinates drop out but group contiguity is preserved
    sub_sizes = nnz[solved]
    log_scale = np.log(top[solved])
    log_v = np.log(a[sel])
    log_v -= np.repeat(log_scale, sub_sizes)
    x, u_star, outer, inner = _solve_positive_groups(
        log_v, sub_sizes, lam, q, dual[solved], eps[solved], log_scale,
        np.flatnonzero(solved),
    )
    out[sel] = np.copysign(x, vals[sel])
    with np.errstate(over="ignore"):
        c_star[solved] = np.exp(u_star)
    return out, c_star, eps, outer, inner


def prox_lq_general(v, lam, q):
    """General-q projection by the joint Newton iteration on both roots.

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
    and semi-closed forms, any other q > 1 the batched joint Newton iteration.

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
    if sub.size:
        # a root below the smallest normal keeps few significant bits, or
        # none where it rounds to zero, and near q = 1 one subnormal spacing
        # moves |x|**(q-1) by up to about q - 1 of itself: count such x_i as
        # satisfied (``sub``) when the defect changes sign between its two
        # float neighbours
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
