"""A tour of the lq-regularized Euclidean projection.

The projection of v minimizes 0.5*||x - v||^2 + lam*||x||_q. This script
walks through the closed forms (q = 1, 2, inf), the zero-solution boundary
at lam = ||v||_qbar, the joint Newton iteration used for general q (on
log c and the coordinates' logs together, safeguarded by a bracket of
log c, passes that hold log c while the coordinates catch up, and
bisection), and the group-wise
dispatcher that applies all of this per group.

Run:  python3 demos/projection_tour.py
"""

import numpy as np

from groupprox import (
    GroupedVector,
    dual_exponent,
    is_zero_solution,
    optimality_residual,
    prox_grouped,
    prox_l1,
    prox_l2,
    prox_linf,
    prox_lq_general,
    q_norm,
)


def main():
    v = np.array([3.0, -1.0, 0.5, 2.0])
    lam = 1.2
    print(f"input v = {v}, lambda = {lam}")
    print()

    print("closed forms")
    print(f"  q=1   soft threshold      -> {prox_l1(v, lam)}")
    print(f"  q=2   norm shrinkage      -> {np.round(prox_l2(v, lam), 6)}")
    print(f"  q=inf clip via l1 ball    -> {np.round(prox_linf(v, lam), 6)}")
    print()

    print("zero boundary: the projection vanishes iff lambda >= ||v||_qbar")
    for q in (1.5, 2.0, 3.0):
        qbar = dual_exponent(q)
        dual = q_norm(v, qbar)
        print(f"  q={q}: dual exponent {qbar:.3f}, ||v||_qbar = {dual:.6f}")
        print(f"    lambda = dual        -> zero? {is_zero_solution(v, dual, q)}")
        print(f"    lambda = 0.999*dual  -> zero? {is_zero_solution(v, 0.999 * dual, q)}")
    print()

    print("general q by a joint Newton iteration")
    for q in (1.5, 3.0, 5.0):
        x, diag = prox_lq_general(v, lam, q)
        res = optimality_residual(x, v, lam, q)
        print(f"  q={q}: x = {np.round(x, 6)}")
        print(
            f"    c* = {diag.c_star:.6f}, Newton steps = {diag.outer_iters}, "
            f"passes over x = {diag.inner_iters_total}, "
            f"residual = {res:.2e}"
        )
    print()

    print("group-wise dispatch: each group is projected independently")
    values = np.array([3.0, 4.0, 0.1, 0.1, -1.0, 2.0, 0.5])
    offsets = np.array([0, 2, 4, 7])
    grouped = GroupedVector(values, offsets)
    out = prox_grouped(grouped, 2.5, 2.0)
    for i in range(grouped.n_groups):
        lo, hi = offsets[i], offsets[i + 1]
        print(f"  group {i}: {values[lo:hi]} -> {np.round(out.values[lo:hi], 6)}")
    print("  (the small middle group falls inside the dual ball and zeroes out)")


if __name__ == "__main__":
    main()
