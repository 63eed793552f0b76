"""Why the projection is computed by zero-finding, not fixed-point iteration.

The optimality condition x + lam*||x||_q^(1-q) * x^(q-1) = v suggests the
naive update x <- v - lam*||x||_q^(1-q) * x^(q-1). For small lambda the map
contracts and the iteration settles, but once lambda is large enough it
oscillates between two points and never converges. The zero-finding
solver is immune: it takes Newton steps on the coordinates' roots and the
outer root together, and keeps a certified bracket of the outer root that
it falls back on (trying its right end, or bisecting) when a step does not
shorten.

Run:  python3 demos/fixed_point_failure.py
"""

import numpy as np

from groupprox import fixed_point_trace, optimality_residual, prox_lq_general


def report(v, lam, q, iters=60):
    print(f"v = {v}, lambda = {lam}, q = {q}")
    trace = fixed_point_trace(v, lam, q, start=v, iters=iters)
    steps = [
        float(np.abs(b - a).max())
        for a, b in zip(trace.iterates, trace.iterates[1:])
    ]
    for i in (0, 1, 2, len(steps) // 2, len(steps) - 1):
        print(f"  step {i:3d}: x = {np.round(trace.iterates[i + 1], 6)}, "
              f"|delta| = {steps[i]:.3e}")
    converged = steps[-1] <= 1e-6
    print(f"  fixed-point iteration converged: {converged}")

    x, _ = prox_lq_general(v, lam, q)
    print(f"  zero-finding solution: {np.round(x, 8)} "
          f"(residual {optimality_residual(x, v, lam, q):.2e})")
    print()


def main():
    v = np.array([1.0, 3.0])
    q = 3.0

    print("small lambda: the naive map happens to contract here")
    report(v, 0.5, q)

    print("large lambda: the naive map oscillates between two points")
    report(v, 2.0, q)

    print("the zero-finding projection is unaffected by the regime; the")
    print("naive iteration is only safe when the map happens to contract.")


if __name__ == "__main__":
    main()
