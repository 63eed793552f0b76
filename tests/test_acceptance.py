"""Acceptance gate: every release criterion, one pass/fail line each.

Each test prints "criterion N: PASS/FAIL - detail" (also echoed in the
terminal summary) and then asserts, so a red run still reports every
criterion it reached. Criterion 7c checks the solver's O(1/k^2) rate as the
explicit bound F(x_k) - F* <= 2 L_k ||x_0 - x*||^2 / (k+1)^2 of Beck &
Teboulle (2009, Thm. 4.4). One clause is known-red and documented in the
project notes: the non-convergence clause of criterion 10 (the pinned
parameters lie in the contractive regime of the naive iteration).
"""

import math
import time

import numpy as np
import pytest

from groupprox import (
    ExperimentConfig,
    GroupedVector,
    LossKind,
    Problem,
    SolverConfig,
    brute_prox,
    dual_exponent,
    fixed_point_trace,
    lambda_max,
    prox_grouped,
    prox_l1,
    prox_l2,
    prox_linf,
    prox_lq_general,
    prox_objective,
    q_norm,
)
from groupprox.experiments import bench_prox, run_path_experiment
from groupprox.losses import Dataset
from groupprox.prox import c_interval, phi
from groupprox.solver import solve

from conftest import record_acceptance

GENERAL_QS = (1.25, 1.5, 1.75, 2.33, 3.0, 5.0)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} - {detail}"
    print(line)
    record_acceptance(line)
    assert ok, line


def test_criterion_1_closed_form_cross_check():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        v = rng.standard_normal(n)
        lam = rng.uniform(0.01, 0.99) * q_norm(v, 2.0)
        x, _ = prox_lq_general(v, lam, 2.0)
        worst = max(worst, float(np.abs(x - prox_l2(v, lam)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(1, ok, f"q=2 vs closed form: max diff {worst:.3e} (tol 1e-6), "
                  f"{elapsed:.2f}s over 1000 vectors (limit 5s)")


def _oracle_instances():
    """200 instances shared by criteria 2 and 3."""
    rng = np.random.default_rng(2002)
    out = []
    per_q = [34, 34, 34, 34, 34, 30]
    for q, count in zip(GENERAL_QS, per_q):
        for _ in range(count):
            n = int(rng.integers(1, 11))
            v = rng.standard_normal(n)
            dual = q_norm(v, dual_exponent(q))
            if dual == 0.0:
                v[0] = 1.0
                dual = q_norm(v, dual_exponent(q))
            lam = rng.uniform(1e-3, 1.0 - 1e-3) * dual
            x_fast, diag = prox_lq_general(v, lam, q)
            out.append((v, lam, q, x_fast, diag))
    return out


_ORACLE_CACHE = []


def oracle_instances():
    if not _ORACLE_CACHE:
        _ORACLE_CACHE.extend(_oracle_instances())
    return _ORACLE_CACHE


def test_criterion_2_oracle_equivalence():
    worst_diff = 0.0
    worst_gap = -math.inf
    failures = 0
    for v, lam, q, x_fast, _ in oracle_instances():
        try:
            x_slow = brute_prox(v, lam, q)
        except Exception:
            failures += 1
            continue
        worst_diff = max(worst_diff, float(np.abs(x_fast - x_slow).max()))
        gap = prox_objective(x_fast, v, lam, q) - prox_objective(x_slow, v, lam, q)
        worst_gap = max(worst_gap, gap)
    ok = failures == 0 and worst_diff <= 1e-4 and worst_gap <= 1e-8
    report(2, ok, f"oracle agreement over 200 instances: max diff "
                  f"{worst_diff:.3e} (tol 1e-4), max objective excess "
                  f"{worst_gap:.3e} (tol 1e-8), oracle failures {failures}")


def test_criterion_3_optimality_residual():
    worst = 0.0
    nonzero = 0
    for _, _, _, x_fast, diag in oracle_instances():
        if np.any(x_fast != 0.0):
            nonzero += 1
            worst = max(worst, diag.residual)
    ok = worst <= 1e-6 and nonzero > 0
    report(3, ok, f"optimality residual over {nonzero} nonzero outputs: "
                  f"max {worst:.3e} (tol 1e-6)")


def test_criterion_4_zero_solution_boundary():
    rng = np.random.default_rng(4004)
    qs = (1.0, 1.25, 1.5, 2.0, 2.33, 3.0, 5.0, math.inf)
    bad = 0
    for q in qs:
        for _ in range(100):
            n = int(rng.integers(1, 11))
            v = rng.standard_normal(n)
            dual = q_norm(v, dual_exponent(q))
            if dual == 0.0:
                v[0] = 1.0
                dual = q_norm(v, dual_exponent(q))
            g = GroupedVector(v, [0, n])
            at = prox_grouped(g, dual, q).values
            below = prox_grouped(g, 0.999 * dual, q).values
            if np.any(at != 0.0) or not np.any(below != 0.0):
                bad += 1
    ok = bad == 0
    report(4, ok, f"zero exactly at lambda = dual norm, nonzero at 0.999x: "
                  f"{bad} violations over {len(qs) * 100} instances")


def test_criterion_5_bracket_signs():
    rng = np.random.default_rng(5005)
    worst_lo = 0.0
    worst_hi = 0.0
    for q in GENERAL_QS:
        for _ in range(100):
            n = int(rng.integers(1, 13))
            v = np.exp(0.25 * rng.standard_normal(n))
            dual = q_norm(v, dual_exponent(q))
            lam = rng.uniform(0.2, 0.8) * dual
            eps = (dual - lam) / dual
            lo, hi = c_interval(v, eps, q)
            worst_lo = min(worst_lo, phi(lo, v, lam, q))
            worst_hi = max(worst_hi, phi(hi, v, lam, q))
    ok = worst_lo >= -1e-10 and worst_hi <= 1e-10
    report(5, ok, f"phi(c_low) min {worst_lo:.3e} (>= -1e-10), "
                  f"phi(c_high) max {worst_hi:.3e} (<= 1e-10), "
                  f"{len(GENERAL_QS) * 100} instances")


def test_criterion_6_non_expansiveness():
    rng = np.random.default_rng(6006)
    qs = (1.0, 1.5, 2.0, 2.33, 3.0, math.inf)
    worst_excess = -math.inf
    for i in range(500):
        q = qs[i % len(qs)]
        n = int(rng.integers(2, 16))
        cut = int(rng.integers(1, n))
        offsets = np.array([0, cut, n])
        v1 = rng.standard_normal(n)
        v2 = v1 + rng.standard_normal(n) * rng.choice([1e-4, 0.05, 1.0, 3.0])
        lam = rng.uniform(0.05, 2.0)
        p1 = prox_grouped(GroupedVector(v1, offsets), lam, q).values
        p2 = prox_grouped(GroupedVector(v2, offsets), lam, q).values
        excess = float(np.linalg.norm(p1 - p2) - np.linalg.norm(v1 - v2))
        worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 1e-10
    report(6, ok, f"non-expansiveness over 500 pairs: max excess "
                  f"{worst_excess:.3e} (tol 1e-10)")


def _solver_instance():
    rng = np.random.default_rng(7007)
    m, d = 50, 40
    a = rng.standard_normal((m, d))
    y = rng.standard_normal((m, 1))
    data = Dataset(a, y)
    offsets = np.arange(0, d + 1, 5)  # 8 groups of 5
    return data, offsets


_SOLVER_RUNS = {}


def solver_runs(q):
    if q not in _SOLVER_RUNS:
        data, offsets = _solver_instance()
        lam = 0.1 * lambda_max(data, LossKind.LEAST_SQUARES, offsets, q)
        problem = Problem(data, LossKind.LEAST_SQUARES, offsets, lam, q)
        ref = solve(problem, SolverConfig(max_iter=10_000, rel_tol=1e-15))
        short = solve(problem, SolverConfig(max_iter=500, rel_tol=1e-15))
        _SOLVER_RUNS[q] = (problem, ref, short)
    return _SOLVER_RUNS[q]


def test_criterion_7_objective_agreement():
    worst = 0.0
    for q in (1.5, 2.0, 3.0, math.inf):
        problem, ref, short = solver_runs(q)
        f_ref = problem.objective(ref.W)
        f_short = problem.objective(short.W)
        rel = abs(f_short - f_ref) / max(1.0, abs(f_ref))
        worst = max(worst, rel)
    ok = worst <= 1e-8
    report("7a", ok, f"500-iteration solve vs 10k reference: max relative "
                     f"gap {worst:.3e} (tol 1e-8), q in {{1.5, 2, 3, inf}}")


def test_criterion_7_line_search_certificate():
    worst = -math.inf
    for q in (1.5, 2.0, 3.0, math.inf):
        _, ref, short = solver_runs(q)
        for res in (ref, short):
            scaled = res.cert_gaps / np.maximum(1.0, np.abs(res.objective_history))
            worst = max(worst, float(scaled.max()))
    ok = worst <= 1e-10
    report("7b", ok, f"line-search certificate at every accepted step: max "
                     f"scaled violation {worst:.3e} (tol 1e-10)")


def test_criterion_7_rate_probe():
    # The O(1/k^2) rate as an explicit bound (Beck & Teboulle 2009,
    # Thm. 4.4): F(x_k) - F* <= 2 L_k ||x_0 - x*||^2 / (k+1)^2 at every
    # accepted iterate, with L_k the nondecreasing line-search estimate,
    # x_0 = 0 and x* the iterate attaining f*. The limit 1 is the theorem's
    # own constant. It is an upper bound only: on this strongly convex
    # instance (m > d) the gap falls faster than 1/k^2, which is allowed.
    worst = {}
    for q in (1.5, 2.0, 3.0, math.inf):
        problem, ref, short = solver_runs(q)
        f_ref, f_short = problem.objective(ref.W), problem.objective(short.W)
        x_star = ref.W if f_ref <= f_short else short.W
        f_star = min(f_ref, f_short)
        dist2 = float(x_star.values @ x_star.values)
        ks = np.arange(1, len(short.objective_history) + 1)
        bound = 2.0 * short.L_history * dist2 / (ks + 1.0) ** 2
        worst[q] = float(np.max((short.objective_history - f_star) / bound))
    ok = max(worst.values()) <= 1.0
    per_q = ", ".join(f"q={q:g}: {r:.3f}" for q, r in worst.items())
    report("7c", ok, f"rate bound (f_k - f*) / (2 L_k ||x0 - x*||^2 / "
                     f"(k+1)^2), worst per q: {per_q} (limit 1)")


def test_criterion_8_lambda_max_bracketing():
    rng = np.random.default_rng(8008)
    qs = (1.5, 2.0, 3.0, math.inf)
    bad = 0
    for kind in (LossKind.LEAST_SQUARES, LossKind.LOGISTIC):
        for i in range(20):
            q = qs[i % len(qs)]
            m, d, k = int(rng.integers(8, 20)), int(rng.integers(3, 8)), 2
            a = rng.standard_normal((m, d))
            if kind is LossKind.LOGISTIC:
                y = np.where(rng.standard_normal((m, k)) >= 0, 1.0, -1.0)
            else:
                y = rng.standard_normal((m, k))
            data = Dataset(a, y)
            offsets = np.arange(0, d * k + 1, k)
            lam_star = lambda_max(data, kind, offsets, q)
            cfg = SolverConfig(max_iter=300)
            above = solve(Problem(data, kind, offsets, 1.001 * lam_star, q), cfg)
            below = solve(Problem(data, kind, offsets, 0.99 * lam_star, q), cfg)
            if np.any(above.W.values != 0.0) or not np.any(below.W.values != 0.0):
                bad += 1
    ok = bad == 0
    report(8, ok, f"lambda_max bracketing (1.001x zero / 0.99x nonzero): "
                  f"{bad} violations over 40 instances")


def test_criterion_9_synthetic_reconstruction():
    t0 = time.perf_counter()
    cfg = ExperimentConfig()  # m=100, d=200, d_sparse=k=50, sigma=0.1, q=2
    rows = run_path_experiment(cfg)
    elapsed = time.perf_counter() - t0
    errors = np.array([r.frobenius_error for r in rows])
    f1s = np.array([r.support_f1 for r in rows])
    ok = (
        float(errors.min()) <= 0.2 * float(errors[0])
        and bool(np.any(f1s == 1.0))
        and elapsed < 600.0
    )
    report(9, ok, f"path of {len(rows)} points in {elapsed:.1f}s (limit 600): "
                  f"min error {errors.min():.3f} vs {errors[0]:.3f} at ratio 1 "
                  f"(need <= 0.2x), best F1 {f1s.max():.3f} (need 1.0)")


def test_criterion_10_projection_residual():
    v = np.array([1.0, 3.0])
    _, diag = prox_lq_general(v, 0.5, 3.0)
    ok = diag.residual <= 1e-8
    report("10b", ok, f"projection residual at v=[1,3], lambda=0.5, q=3: "
                      f"{diag.residual:.3e} (tol 1e-8)")


def test_criterion_10_fixed_point_failure():
    # Known red: at lambda=0.5, q=3 the naive iteration contracts (the
    # map's Jacobian at the fixed point has spectral radius 0.154; at
    # lambda=2.0 it is 1.76) and meets the 1e-6 step tolerance at
    # iteration 8; the genuinely oscillating regime (e.g. lambda=2.0) is
    # demonstrated in tests/test_oracle.py and demos/fixed_point_failure.py.
    # Implemented literally per the pinned parameters.
    v = np.array([1.0, 3.0])
    trace = fixed_point_trace(v, 0.5, 3.0, v.copy(), 100)
    steps = [float(np.abs(b - a).max())
             for a, b in zip(trace.iterates, trace.iterates[1:])]
    first_small = next((i for i, s in enumerate(steps, 1) if s <= 1e-6), None)
    ok = first_small is None
    report("10a", ok, "fixed-point iteration at lambda=0.5, q=3 should not "
                      f"reach step <= 1e-6 within 100 iterations; reached it "
                      f"at iteration {first_small}")


def test_criterion_11_limit_consistency():
    rng = np.random.default_rng(1111)
    worst_l1 = 0.0
    for _ in range(100):
        v = rng.standard_normal(int(rng.integers(1, 9)))
        lam = rng.uniform(0.1, 0.9) * float(np.abs(v).max())
        x, _ = prox_lq_general(v, lam, 1.0 + 1e-6)
        worst_l1 = max(worst_l1, float(np.abs(x - prox_l1(v, lam)).max()))
    worst_linf = 0.0
    for _ in range(100):
        v = 0.1 * rng.standard_normal(int(rng.integers(2, 9)))
        lam = rng.uniform(0.1, 0.9) * float(np.abs(v).sum())
        x, _ = prox_lq_general(v, lam, 64.0)
        worst_linf = max(worst_linf, float(np.abs(x - prox_linf(v, lam)).max()))
    ok = worst_l1 <= 1e-3 and worst_linf <= 1e-2
    report(11, ok, f"limits: q=1+1e-6 vs soft threshold max diff "
                   f"{worst_l1:.3e} (tol 1e-3); q=64 vs max-norm prox max "
                   f"diff {worst_linf:.3e} (tol 1e-2); 100 vectors each")


def test_criterion_12_linear_scaling():
    rows = bench_prox([1_000, 10_000, 100_000], 3.0, 0.5, seed=1, runs=21)
    times = [row[1] for row in rows]
    sizes = [row[0] for row in rows]
    ratios = []
    ok = True
    for (n0, t0), (n1, t1) in zip(zip(sizes, times), zip(sizes[1:], times[1:])):
        extrapolated = t0 * (n1 / n0)
        r = t1 / extrapolated
        ratios.append(r)
        if not (1.0 / 3.0 <= r <= 3.0):
            ok = False
    detail = ", ".join(f"{r:.2f}x" for r in ratios)
    report(12, ok, f"median time vs linear extrapolation at n=1e3/1e4/1e5: "
                   f"{detail} (allowed 0.33x-3x)")
