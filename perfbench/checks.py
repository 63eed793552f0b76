"""Output checks for the benchmark, in plain numpy.

Nothing here imports groupprox: the checks recompute every certificate
from the problem data, so a fast path that returns a wrong answer cannot
also vouch for it.

The sanity bounds separate wrong answers from loose ones. A loose answer
passes and shows up in the certified digits the benchmark reports; a
wrong answer (a flipped sign, a rescaled solution, a zero where the
solution is nonzero, a non-finite value) fails and counts as a failed
operation.
"""

import math

import numpy as np

# Largest relative duality gap a path point may have and still count as
# solved. The objective-change stopping rule leaves gaps up to about 2e-3
# at q = 2; flipping the sign of the largest row pushes the gap past this.
PATH_GAP_SANITY = 2e-2

# Largest KKT residual, relative to max|v|, a projection may have. The
# nested bisection reaches about 1e-11; rescaling the answer by 1 + 1e-3
# gives about 5e-4.
PROX_RESIDUAL_SANITY = 1e-6

# Relative margin below the zero threshold max_row ||A.T Y||_qbar at which
# an all-zero path point counts as wrong, so that the point at
# lam = lambda_max, whose solution is zero, passes despite rounding.
ZERO_MARGIN = 1e-9

# Certificates are floored here so that an exact answer reports a finite
# number of digits.
_TINY = 1e-16


def dual_exponent(q):
    """Conjugate exponent of q, with 1 <-> inf."""
    if math.isinf(q):
        return 1.0
    if q == 1.0:
        return math.inf
    return q / (q - 1.0)


def cert_digits(rel_error):
    """-log10 of a relative error, floored at _TINY."""
    return -math.log10(max(float(rel_error), _TINY))


def path_rel_gap(design, targets, w, lam, q):
    """Relative duality gap of a row-grouped multi-task least-squares point.

    Primal: 0.5*||A W - Y||_F**2 + lam * sum_rows ||W_row||_q. The dual
    candidate is the residual Y - A W, scaled so that every row of
    A.T @ theta has qbar-norm at most lam; the dual objective is
    <theta, Y> - 0.5*||theta||**2.
    """
    residual = targets - design @ w
    primal = 0.5 * float(np.square(residual).sum())
    primal += lam * float(np.linalg.norm(w, ord=q, axis=1).sum())
    dual_norm = float(np.linalg.norm(design.T @ residual, ord=dual_exponent(q),
                                     axis=1).max())
    theta = residual * min(1.0, lam / dual_norm) if dual_norm > 0.0 else residual
    dual = float((theta * targets).sum()) - 0.5 * float(np.square(theta).sum())
    return max(primal - dual, 0.0) / primal


def zero_threshold(design, targets, q):
    """Largest lam at which W = 0 is not optimal: max_row ||A.T Y||_qbar."""
    return float(np.linalg.norm(design.T @ targets, ord=dual_exponent(q),
                                axis=1).max())


def check_path_point(design, targets, w, lam, q, error=None):
    """(ok, rel_gap) for one solved path point; w is d x k or None.

    The point fails if it raised, is non-finite, is all zero below the
    zero threshold, or has a relative gap above PATH_GAP_SANITY. Near the
    threshold a zero point has a small gap, (1 - lam/threshold)**2, so the
    gap alone would not catch it there.
    """
    if error is not None or w is None or not np.all(np.isfinite(w)):
        return False, math.inf
    gap = path_rel_gap(design, targets, w, lam, q)
    if not np.any(w) and lam < (1.0 - ZERO_MARGIN) * zero_threshold(design, targets, q):
        return False, gap
    return gap <= PATH_GAP_SANITY, gap


def kkt_residual(x, v, lam, q):
    """max|x + lam*||x||_q**(1-q) * sgn(x)|x|**(q-1) - v| / max|v|, x != 0."""
    a = np.abs(x)
    nrm = float(np.linalg.norm(x, ord=q))
    pos = a > 0.0
    powed = np.zeros_like(a)
    powed[pos] = np.exp((q - 1.0) * (np.log(a[pos]) - math.log(nrm)))
    defect = x + lam * np.sign(x) * powed - v
    return float(np.abs(defect).max()) / float(np.abs(v).max())


def check_prox(x, v, lam, q):
    """(ok, rel_residual) for one single-group projection, 1 < q < inf.

    The projection must be finite, must be zero exactly when
    lam >= ||v||_qbar, and, when nonzero, must satisfy the optimality
    condition to PROX_RESIDUAL_SANITY relative to max|v|.
    """
    if x is None or x.shape != v.shape or not np.all(np.isfinite(x)):
        return False, math.inf
    should_vanish = lam >= float(np.linalg.norm(v, ord=dual_exponent(q)))
    vanishes = not np.any(x)
    if should_vanish or vanishes:
        return should_vanish and vanishes, 0.0
    res = kkt_residual(x, v, lam, q)
    return res <= PROX_RESIDUAL_SANITY, res
