"""The exact l1-ball threshold.

The threshold is computed for every group of a flat vector at once; the
single-vector ``l1_ball_threshold`` is its one-group case. It is exact: a
sort and a scan, with no tolerance and no sweep count. The general-q root
finding lives in ``prox``: Newton inner roots, which stop where their steps
stop shrinking (at most 14 passes per solve over varied inputs), under a
safeguarded regula falsi outer step whose only tolerance is the 1e-10
width of its bracket in log(c).
"""

import numpy as np

__all__ = ["l1_ball_threshold"]


def _l1_ball_thresholds(a, offsets, lam):
    """Per-group root t_g of sum_{i in g} max(a_i - t, 0) = lam, for a >= 0.

    Sorts each group's magnitudes in decreasing order and scans the
    piecewise-linear segments, so no iterative tolerance is involved: on the
    segment where the j largest entries are active, t = (top_j - lam)/j.
    Returns (t, l1) per group; t is meaningful only where lam < l1.
    """
    starts = offsets[:-1]
    sizes = np.diff(offsets)
    # sort by -a, then stably by group: group ids of at most 16 bits let
    # numpy use a radix sort for the second pass
    order = np.argsort(-a)
    gid = np.repeat(np.arange(sizes.size, dtype=np.min_scalar_type(sizes.size)),
                    sizes)
    order = order[np.argsort(gid[order], kind="stable")]
    u = a[order]
    l1 = np.add.reduceat(a, starts)
    # Count the active entries from one cumulative sum over all groups, each
    # scaled to unit l1 norm so earlier groups cost little precision; then
    # take each group's exact top-j sum, so no sum crosses a group boundary.
    scale = np.repeat(np.where(l1 > 0.0, l1, 1.0), sizes)
    us = u / scale
    css = np.cumsum(us)
    css -= np.repeat(np.concatenate(([0.0], css[offsets[1:-1] - 1])), sizes)
    rank = np.arange(1, u.size + 1) - np.repeat(starts, sizes)
    with np.errstate(over="ignore"):  # lam/l1 overflows only where lam > l1
        active = us > (css - lam / scale) / rank
    # the largest entry is active unless lam is below its rounding error
    j = np.maximum(np.add.reduceat(active.astype(np.intp), starts), 1)
    # reduceat over [start, start + j) pairs; the appended zero lets
    # start + j reach the end of the array
    bounds = np.column_stack((starts, starts + j)).ravel()
    top = np.add.reduceat(np.append(u, 0.0), bounds)[::2]
    return (top - lam) / j, l1


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
    t, _ = _l1_ball_thresholds(v_abs, np.array([0, v_abs.size]), lam)
    return float(t[0])
