"""The exact l1-ball threshold.

The threshold is computed for many groups of a flat vector at once; the
single-vector ``l1_ball_threshold`` is its one-group case. It is exact: a
sort and a scan, with no tolerance and no sweep count. Groups are batched
by power-of-two size class: each class is one zero-padded matrix, one row
per group, sorted and summed along its rows. Padding at most doubles the
entries and there are at most log2(max size) + 1 classes, so the cost
stays O(n log n) for any layout. The general-q root finding lives in
``prox``: Newton inner roots, which stop where their steps stop shrinking
(at most 14 passes per solve over varied inputs), under a Newton outer
step on log(c), safeguarded by bisection, whose only tolerance is a step
of 1e-10 in log(c).
"""

import numpy as np

__all__ = ["l1_ball_threshold"]


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
