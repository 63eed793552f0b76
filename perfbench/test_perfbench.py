"""Self-test of the benchmark: output checks, counter determinism, tracing.

    python3 -m pytest perfbench -q

Runs the benchmark's own functions on shortened workloads (short path
prefixes, small projections), so it finishes in about a minute.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import HOOKS, Tracer  # noqa: E402

gp = run.load_groupprox()

ROOT = os.path.dirname(run.HERE)

SMALL_PATHS = {
    2.0: run.PathWorkload(q=2.0, n_points=8, pool=2, traced=1),
    3.0: run.PathWorkload(q=3.0, n_points=2, pool=1, traced=1),
    math.inf: run.PathWorkload(q=math.inf, n_points=4, pool=2, traced=1),
}
SMALL_PROX = run.ProxWorkload(n=2000, qs=(1.5, 3.0, 5.0), lam_ratio=0.5,
                              pool=2, traced=2)

# Counters that must repeat exactly, by workload kind.
PATH_COUNTERS = ("solver.iterations", "solver.backtracks", "solver.prox_calls",
                 "grouped.vectors_built", "prox.grouped.calls", "prox.linf.calls",
                 "rootfind.l1_threshold.calls", "losses.value.calls",
                 "losses.gradient.calls", "grouped.norms.calls")
PROX_COUNTERS = ("prox.single.outer_iters", "prox.single.inner_sweeps",
                 "prox.single.coord_evals")


def _last_point(q, seed=3):
    wl = SMALL_PATHS[q]
    case = run.setup(gp, wl, seed).cases[0]
    points, _ = run.run_path(gp, case)
    lam, res, error = points[-1]
    assert error is None
    data = case.data
    return data, lam, res.W.values.reshape(data.n_features, data.n_tasks)


@pytest.mark.parametrize("q", sorted(SMALL_PATHS))
def test_path_check_flags_wrong_points(q):
    data, lam, w = _last_point(q)
    ok, gap = checks.check_path_point(data.design, data.targets, w, lam, q)
    assert ok and 0.0 <= gap < checks.PATH_GAP_SANITY

    flipped = w.copy()
    row = int(np.argmax(np.linalg.norm(w, axis=1)))
    flipped[row] *= -1.0
    nan = w.copy()
    nan[row, 0] = math.nan
    for bad, error in ((flipped, None), (nan, None), (None, None),
                       (w, "solver raised")):
        assert not checks.check_path_point(data.design, data.targets, bad, lam,
                                           q, error)[0]


@pytest.mark.parametrize("q", sorted(SMALL_PATHS))
def test_path_check_flags_zero_below_threshold(q):
    data, lam, w = _last_point(q)
    zero = np.zeros_like(w)
    assert not checks.check_path_point(data.design, data.targets, zero, lam, q)[0]
    # At the threshold itself the solution is zero, and zero passes.
    top = checks.zero_threshold(data.design, data.targets, q)
    assert checks.check_path_point(data.design, data.targets, zero, top, q)[0]


def test_path_check_flags_rescaled_q2_point():
    data, lam, w = _last_point(2.0)
    assert not checks.check_path_point(data.design, data.targets,
                                       2.0 * w, lam, 2.0)[0]


@pytest.mark.parametrize("q", SMALL_PROX.qs)
def test_prox_check_flags_perturbed_projections(q):
    rng = np.random.default_rng(11)
    v = rng.standard_normal(200)
    lam = 0.5 * float(np.linalg.norm(v, ord=checks.dual_exponent(q)))
    x, _ = gp.prox.prox_lq_general(v, lam, q)
    ok, res = checks.check_prox(x, v, lam, q)
    assert ok and res < checks.PROX_RESIDUAL_SANITY

    i = int(np.argmax(np.abs(x)))
    flipped = x.copy()
    flipped[i] *= -1.0
    nan = x.copy()
    nan[i] = math.nan
    for bad in (x * (1.0 + 1e-3), flipped, nan, np.zeros_like(x), None):
        assert not checks.check_prox(bad, v, lam, q)[0]

    # Past the dual-norm boundary the projection is exactly zero.
    big = 2.0 * float(np.linalg.norm(v, ord=checks.dual_exponent(q)))
    assert checks.check_prox(np.zeros_like(v), v, big, q)[0]
    assert not checks.check_prox(1e-3 * x, v, big, q)[0]


@pytest.mark.parametrize("q", SMALL_PROX.qs)
def test_prox_check_agrees_with_oracle(q):
    rng = np.random.default_rng(5)
    v = rng.standard_normal(8)
    lam = 0.5 * float(np.linalg.norm(v, ord=checks.dual_exponent(q)))
    x, _ = gp.prox.prox_lq_general(v, lam, q)
    oracle = gp.oracle.brute_prox(v, lam, q, gp.oracle.OracleConfig(tol=1e-9))
    assert np.allclose(x, oracle, rtol=0.0, atol=1e-7)
    assert checks.check_prox(x, v, lam, q)[0]
    assert checks.check_prox(oracle, v, lam, q)[0]
    # A point the oracle places clearly off the solution is rejected.
    assert not checks.check_prox(oracle + 1e-3 * np.sign(v), v, lam, q)[0]


def test_prox_op_time_follows_every_q(monkeypatch):
    """A slowdown at one q alone moves the median op_s of a run."""
    wl = run.ProxWorkload(n=200, qs=SMALL_PROX.qs, lam_ratio=0.5, pool=2, traced=1)
    delay = 0.2
    _, fast, _ = run.measure(gp, wl, seed=4, seconds=1.5)
    assert fast["op_s"] < delay
    original = gp.prox.prox_lq_general

    def slow_at_q_1_5(v, lam, q, *args, **kwargs):
        if q == 1.5:
            time.sleep(delay)
        return original(v, lam, q, *args, **kwargs)

    monkeypatch.setattr(gp.prox, "prox_lq_general", slow_at_q_1_5)
    results, slow, _ = run.measure(gp, wl, seed=4, seconds=1.5)
    assert len(results) >= 3
    assert slow["op_s"] >= delay


def _counters(metrics, names):
    return {k: metrics[k] for k in names}


def _untraced_ops(wl, seed):
    return [run.run_op(gp, wl, c) for c in run.setup(gp, wl, seed).cases[:wl.traced]]


@pytest.mark.parametrize("q", sorted(SMALL_PATHS))
def test_path_counters_repeat_and_match_untraced(q):
    wl = SMALL_PATHS[q]
    _, first, _ = run.traced(gp, wl, seed=4, seconds=0)
    _, second, _ = run.traced(gp, wl, seed=4, seconds=0)
    assert _counters(first, PATH_COUNTERS) == _counters(second, PATH_COUNTERS)
    assert first["solver.iterations"] > 0

    (plain,) = _untraced_ops(wl, seed=4)
    assert plain.failed == 0
    assert plain.iterations == first["solver.iterations"]
    assert plain.backtracks == first["solver.backtracks"]
    # each iteration and each doubling of L costs one grouped prox
    assert first["solver.prox_calls"] == plain.iterations + plain.backtracks


def test_prox_counters_repeat_and_match_untraced():
    _, first, _ = run.traced(gp, SMALL_PROX, seed=4, seconds=0)
    _, second, _ = run.traced(gp, SMALL_PROX, seed=4, seconds=0)
    assert _counters(first, PROX_COUNTERS) == _counters(second, PROX_COUNTERS)
    assert first["prox.single.outer_iters"] > 0

    plain = _untraced_ops(SMALL_PROX, seed=4)
    n = len(plain)
    assert sum(r.outer_iters for r in plain) / n == first["prox.single.outer_iters"]
    assert sum(r.inner_sweeps for r in plain) / n == first["prox.single.inner_sweeps"]


def test_missing_traced_name_is_reported_not_fatal():
    hooks = tuple(h for h in HOOKS if h[0] != "prox.linf") + (
        ("prox.linf", "groupprox.prox", "prox_linf_renamed", "span"),
        ("grouped.vectors_built", "groupprox.grouped:NoSuchClass", "__post_init__",
         "count"),
    )
    tracer = Tracer(hooks)
    results, metrics, _ = run.traced(gp, SMALL_PATHS[math.inf], seed=4,
                                     seconds=0, tracer=tracer)
    assert tracer.missing == {"prox.linf", "grouped.vectors_built"}
    assert "prox.linf.calls" not in metrics
    assert "grouped.vectors_built" not in metrics
    assert metrics["rootfind.l1_threshold.calls"] > 0
    assert all(r.failed == 0 for r in results)
    # the originals are back in place
    assert gp.prox.l1_ball_threshold is gp.rootfind.l1_ball_threshold


def test_tail_has_ten_samples_beyond_it_or_is_the_median():
    assert run.tail(range(100)) == 89
    assert run.tail(range(41)) == 30
    assert run.tail(range(17)) == statistics.median(range(17))
    assert run.tail([2.0]) == 2.0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path_q2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
