"""The lq-regularized Euclidean projection and its grouped form.

For a single block the projection solves

    argmin_x  0.5*||x - v||_2**2 + lam*||x||_q.

q = 1, 2, inf admit closed or semi-closed forms. For general q in (1, inf)
the solution is recovered from two nested zero-finding problems: an outer
scalar root c* of phi(c) = lam*psi(c) - c, and, per evaluation of phi, the
per-coordinate roots of x + c*x**(q-1) = v_i. The outer search runs over
log(c) because the bracket endpoints can span hundreds of orders of
magnitude for large q; inner brackets are warm-started from the roots at
the current outer endpoints, which shrink as the outer interval does.

Both tolerances follow from the data, so the projection commutes with
scaling (v, lam) -> (s*v, s*lam) up to rounding. Each inner bisection stops
at bracket width max(1e-12*v_i, tiny): a bracket inside [0, v_i] gets there
in at most ceil(log2(1e12)) + 1 = 41 sweeps, and the floor at the smallest
normal float lets subnormal v_i stop too. The outer bisection stops at
width 1e-10 in u = log(c), which is already scale-free, since the scaling
shifts u by (2-q)*log(s); the loop runs the ceil(log2(width/1e-10))
halvings that the widest group's bracket needs. Neither loop has a cap,
and every entry point rejects inf and nan, so the kernels only see finite
magnitudes.

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

# Inner bisection tolerance relative to each coordinate v_i, floored at the
# smallest normal float so that brackets around subnormal v_i terminate.
_INNER_RTOL = 1e-12
_TINY = np.finfo(float).tiny

# Outer bisection tolerance in u = log(c).
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
    return v.copy() if v.size == 0 else _prox_l2_groups(v, _one_group(v), lam)


def prox_linf(v, lam):
    """Semi-closed form for q = inf: clip |v| at the l1-ball threshold t*."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    v = _finite(np.asarray(v, dtype=float))
    return v.copy() if v.size == 0 else _prox_linf_groups(v, _one_group(v), lam)


def _prox_l2_groups(vals, offsets, lam):
    """Batched q = 2 projection: each group scaled by max(0, 1 - lam/||v_g||)."""
    norms = group_norms(vals, offsets, 2.0)
    factor = np.maximum(0.0, 1.0 - lam / np.where(norms > 0.0, norms, 1.0))
    # snap groups within rounding error of the boundary to exact zero
    factor[norms - lam <= _BOUNDARY_RTOL * norms] = 0.0
    return vals * np.repeat(factor, np.diff(offsets))


def _prox_linf_groups(vals, offsets, lam):
    """Batched q = inf projection: clip each group at its l1-ball threshold."""
    a = np.abs(vals)
    t, l1 = _l1_ball_thresholds(a, offsets, lam)
    t = np.where(l1 - lam > _BOUNDARY_RTOL * l1, t, 0.0)
    return np.sign(vals) * np.minimum(a, np.repeat(t, np.diff(offsets)))


def _log_c_candidates(v_abs, epsilon, q):
    """log of c_i = (v_i - v_i*eps) / (v_i*eps)**(q-1), per coordinate."""
    lv = np.log(v_abs)
    return np.log1p(-epsilon) + lv - (q - 1.0) * (lv + np.log(epsilon))


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
    log_c = _log_c_candidates(v_abs, epsilon, q)
    return float(np.exp(log_c.min())), float(np.exp(log_c.max()))


def _h_log(x, v, log_c, e):
    """x + exp(log_c + e*log x) - v, elementwise; x == 0 contributes 0."""
    pos = x > 0.0
    arg = np.where(pos, log_c + e * np.log(np.where(pos, x, 1.0)), -np.inf)
    return x + np.exp(arg) - v


def _inner_roots(v, log_c, q, lo=None, hi=None):
    """Vectorized bisection for the roots of x + c*x**(q-1) = v in (0, v).

    ``log_c`` may be a scalar or a per-coordinate array. ``lo``/``hi`` are
    optional warm-start brackets (roots at bracketing c values); they are
    validated and fall back to (0, v) coordinatewise where stale. Every
    bracket lies inside [0, v] and stops at width max(1e-12*v, tiny), so
    there are at most 41 sweeps. Returns (roots, number_of_sweeps).
    """
    v = np.asarray(v, dtype=float)
    if q == 2.0:
        # exact: x = v / (1 + c), stable for huge c
        with np.errstate(over="ignore"):
            return v * np.exp(-np.logaddexp(0.0, log_c)) * np.ones_like(v), 0
    e = q - 1.0
    tol = np.maximum(_INNER_RTOL * v, _TINY)
    with np.errstate(over="ignore", invalid="ignore"):
        if lo is None:
            lo = np.zeros_like(v)
        else:
            lo = np.maximum(lo - tol, 0.0)
            lo = np.where(_h_log(lo, v, log_c, e) <= 0.0, lo, 0.0)
        if hi is None:
            hi = v.copy()
        else:
            hi = np.minimum(hi + tol, v)
            hi = np.where(_h_log(hi, v, log_c, e) >= 0.0, hi, v)
        sweeps = 0
        while np.any(hi - lo > tol):
            sweeps += 1
            mid = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
            neg = _h_log(mid, v, log_c, e) < 0.0
            lo = np.where(neg, mid, lo)
            hi = np.where(neg, hi, mid)
    return 0.5 * lo + 0.5 * hi, sweeps


def _newton_polish(x, v, log_c, q, iters=3):
    """Sharpen inner roots to machine precision with a few Newton steps.

    h(x) = x + c*x**(q-1) - v has h'(x) = 1 + c*(q-1)*x**(q-2) >= 1 on
    (0, v), so Newton from a bisection root converges immediately and the
    final accuracy is limited only by the evaluation error of h. The step
    is formed from a = c*x**(q-2) or from 1/a, whichever is at most one, so
    it stays finite where c*x**(q-1) overflows.
    """
    e = q - 1.0
    for _ in range(iters):
        pos = x > 0.0
        log_a = np.where(pos, log_c + (e - 1.0) * np.log(np.where(pos, x, 1.0)),
                         -np.inf)
        r = np.exp(-np.abs(log_a))
        # h/h' = (x - v + x*a)/(1 + e*a), divided through by a where a > 1
        step = np.where(log_a > 0.0, ((x - v) * r + x) / (r + e),
                        (x - v + x * r) / (1.0 + e * r))
        x = np.clip(x - step, 0.0, v)
    return x


def _log_psi_groups(x, starts, sizes, q):
    """log psi(c) per group, psi = (sum_i x_i**q)**((1-q)/q), x > 0."""
    mx = np.maximum.reduceat(x, starts)
    scaled = x / np.repeat(mx, sizes)
    s = np.add.reduceat(np.power(scaled, q), starts)
    log_sum = q * np.log(mx) + np.log(s)
    return ((1.0 - q) / q) * log_sum


def phi(c, v_abs, lam, q):
    """phi(c) = lam*psi(c) - c, where psi aggregates the inner roots at c.

    At c = 0 the inner roots are the v_i themselves, so
    phi(0) = lam*||v||_q**(1-q) > 0.
    """
    if c < 0:
        raise ValueError("c must be nonnegative")
    v_abs = _finite(np.asarray(v_abs, dtype=float))
    if np.any(v_abs <= 0.0):
        raise ValueError("phi needs strictly positive entries")
    if c == 0.0:
        return lam * math.exp((1.0 - q) * math.log(q_norm(v_abs, q)))
    x, _ = _inner_roots(v_abs, math.log(c), q)
    x = _newton_polish(x, v_abs, math.log(c), q)
    starts = np.array([0], dtype=np.intp)
    sizes = np.array([v_abs.size], dtype=np.intp)
    log_psi = float(_log_psi_groups(x, starts, sizes, q)[0])
    return lam * math.exp(log_psi) - c


def _solve_positive_groups(av, starts, sizes, gid, lam, q, eps_g, groups):
    """Outer/inner nested bisection on strictly positive grouped data.

    ``av`` holds the positive magnitudes of all active groups back to back,
    ``gid`` maps coordinates to group index, ``eps_g`` is the per-group
    epsilon and ``groups`` the caller's index of each group, for errors.
    All groups are bisected synchronously over u = log(c).
    Returns (x, u_star_per_group, outer_iters, inner_total).
    """
    log_lam = math.log(lam)

    log_c = _log_c_candidates(av, eps_g[gid], q)
    u1 = np.minimum.reduceat(log_c, starts)
    u2 = np.maximum.reduceat(log_c, starts)

    inner_total = 0
    xa, sw = _inner_roots(av, u1[gid], q)           # roots at c_low (largest)
    inner_total += sw
    xb, sw = _inner_roots(av, u2[gid], q, hi=xa)    # roots at c_high
    inner_total += sw

    s1 = log_lam + _log_psi_groups(xa, starts, sizes, q) - u1
    s2 = log_lam + _log_psi_groups(xb, starts, sizes, q) - u2
    # Theory guarantees phi(c_low) >= 0 >= phi(c_high); allow a small
    # numerical margin (log-scale units) before declaring inconsistency.
    margin = 1e-6
    bad = np.nonzero((s1 < -margin) | (s2 > margin))[0]
    if bad.size:
        g = int(bad[0])
        raise ProjectionError(
            "phi endpoint signs inconsistent",
            epsilon=float(eps_g[g]), c_low=math.exp(u1[g]), c_high=math.exp(u2[g]),
            phi_low=float(s1[g]), phi_high=float(s2[g]), group=int(groups[g]),
        )
    # Endpoint roots: collapse the bracket there.
    at_lo = s1 <= 0.0
    u2 = np.where(at_lo, u1, u2)
    at_hi = s2 >= 0.0
    u1 = np.where(at_hi, u2, u1)
    xa = np.where(at_hi[gid], xb, xa)
    xb = np.where(at_lo[gid], xa, xb)

    # every bracket halves together, so the widest one sets the count
    width = float(np.max(u2 - u1))
    outer = math.ceil(math.log2(width / _OUTER_TOL)) if width > _OUTER_TOL else 0
    for _ in range(outer):
        um = 0.5 * (u1 + u2)
        xm, sw = _inner_roots(av, um[gid], q, lo=xb, hi=xa)
        inner_total += sw
        # phi can be nearly flat in u; a bisection root's error would then
        # steer the outer bracket away from the root
        xm = _newton_polish(xm, av, um[gid], q, iters=1)
        sm = log_lam + _log_psi_groups(xm, starts, sizes, q) - um
        go_right = sm > 0.0
        u1 = np.where(go_right, um, u1)
        u2 = np.where(go_right, u2, um)
        right_c = go_right[gid]
        xa = np.where(right_c, xm, xa)
        xb = np.where(right_c, xb, xm)

    u_star = 0.5 * (u1 + u2)
    x, sw = _inner_roots(av, u_star[gid], q, lo=xb, hi=xa)
    inner_total += sw
    return x, u_star, outer, inner_total


def _prox_lq_groups(vals, offsets, lam, q):
    """Batched general-q projection over all groups of a flat vector, lam > 0.

    Groups at or within rounding error of the dual-norm boundary project to
    exact zero; a group with one nonzero coordinate is soft-thresholded,
    since every q-norm of a scalar is its magnitude; the rest go through
    the nested bisection together, with their zero coordinates dropped.
    Returns (x, c_star, eps, outer_iters, inner_sweeps), where c_star and
    eps are per group: c_star is nan where no bisection ran, eps is 0 where
    the projection is zero.
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
    av = np.abs(vals[sel])
    # zero coordinates drop out but group contiguity is preserved
    sub_sizes = nnz[nested]
    sub_starts = np.concatenate(([0], np.cumsum(sub_sizes)[:-1]))
    gid = np.repeat(np.arange(sub_sizes.size), sub_sizes)
    groups = np.flatnonzero(nested)
    x, u_star, outer, inner = _solve_positive_groups(
        av, sub_starts, sub_sizes, gid, lam, q, eps[nested], groups
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


def prox_grouped(v: GroupedVector, lam, q) -> GroupedVector:
    """Apply the lq projection to every group with one batched kernel per q.

    q = 1 is the flat soft threshold, q = 2 and q = inf the batched closed
    and semi-closed forms, any other q > 1 the batched nested bisection.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0.0:
        return v.copy()
    vals, offsets = v.values, v.offsets
    if q == 1.0:
        out = prox_l1(vals, lam)
    elif q == 2.0:
        out = _prox_l2_groups(vals, offsets, lam)
    elif math.isinf(q):
        out = _prox_linf_groups(vals, offsets, lam)
    elif q > 1.0:
        out = _prox_lq_groups(vals, offsets, lam, q)[0]
    else:
        raise ValueError(f"norm exponent must satisfy q >= 1, got {q}")
    return v.with_values(out)


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
    defect = x + lam * np.sign(x) * powed - v
    return float(np.abs(defect).max())


def prox_objective(x, v, lam, q):
    """g(x) = 0.5*||x - v||_2**2 + lam*||x||_q, the projected objective."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return 0.5 * float(np.square(x - v).sum()) + lam * q_norm(x, q)
