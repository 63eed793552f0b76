import io
import math

import numpy as np
import pytest

import groupprox.solver
import groupprox.prox as prox_module
from groupprox.experiments import (
    METRICS_HEADER,
    ExperimentConfig,
    balanced_error_rate,
    bench_prox,
    default_ratios,
    metrics_to_csv,
    run_path_experiment,
    support_f1,
    synth_generate,
)
from groupprox.solver import SolverConfig


TINY = dict(m=20, d=12, d_sparse=4, k=2, sigma=0.05, seed=3,
            ratios=0.9 ** np.arange(0, 30, 6))


class TestConfig:
    def test_defaults_match_reference_scale(self):
        cfg = ExperimentConfig()
        assert (cfg.m, cfg.d, cfg.d_sparse, cfg.k) == (100, 200, 50, 50)
        assert cfg.sigma == 0.1
        assert len(cfg.ratios) == 100

    def test_default_ratios_schedule(self):
        r = default_ratios(5)
        np.testing.assert_allclose(r, [1.0, 0.9, 0.81, 0.729, 0.6561])

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(d_sparse=300)
        with pytest.raises(ValueError):
            ExperimentConfig(sigma=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(nonzero_dist="cauchy")
        with pytest.raises(ValueError):
            ExperimentConfig(ratios=np.array([0.5, 0.9]))
        for ratios in ([], [[0.5, 0.4]]):
            with pytest.raises(ValueError, match="nonempty one-dimensional"):
                ExperimentConfig(ratios=ratios)

    @pytest.mark.parametrize("size", ["m", "d", "d_sparse", "k"])
    def test_sizes_must_be_positive(self, size):
        with pytest.raises(ValueError, match="must be positive"):
            ExperimentConfig(**{size: 0})


class TestSynthGenerate:
    def test_shapes_and_row_sparsity(self):
        data, x_true = synth_generate(ExperimentConfig())
        assert data.design.shape == (100, 200)
        assert data.targets.shape == (100, 50)
        assert x_true.shape == (200, 50)
        nonzero_rows = np.any(x_true != 0.0, axis=1)
        assert int(nonzero_rows.sum()) == 50
        assert np.all(nonzero_rows[:50])

    def test_noiseless_case_exact(self):
        cfg = ExperimentConfig(**{**TINY, "sigma": 0.0})
        data, x_true = synth_generate(cfg)
        np.testing.assert_allclose(data.targets, data.design @ x_true, atol=1e-12)

    def test_seed_determinism(self):
        cfg = ExperimentConfig(**TINY)
        d1, x1 = synth_generate(cfg)
        d2, x2 = synth_generate(cfg)
        np.testing.assert_array_equal(d1.design, d2.design)
        np.testing.assert_array_equal(d1.targets, d2.targets)
        np.testing.assert_array_equal(x1, x2)

    def test_uniform_dist_nonnegative(self):
        cfg = ExperimentConfig(**{**TINY, "nonzero_dist": "uniform01"})
        _, x_true = synth_generate(cfg)
        assert np.all(x_true[:4] >= 0.0)


class TestSupportF1:
    def test_perfect_recovery(self):
        truth = np.array([True, True, False, False])
        assert support_f1([1.0, 2.0, 0.0, 0.0], truth, 0.5) == 1.0

    def test_no_overlap_is_zero(self):
        truth = np.array([True, False])
        assert support_f1([0.0, 3.0], truth, 0.5) == 0.0

    def test_half_precision(self):
        truth = np.array([True, False])
        f1 = support_f1([1.0, 1.0], truth, 0.5)
        assert f1 == pytest.approx(2 / 3)


class TestBalancedErrorRate:
    def test_perfect(self):
        labels = np.array([1.0, 1.0, -1.0, -1.0])
        assert balanced_error_rate(labels, labels) == 0.0

    def test_all_positive_predictions(self):
        labels = np.array([1.0, 1.0, -1.0, -1.0])
        preds = np.ones(4)
        assert balanced_error_rate(preds, labels) == 0.5

    def test_flip_symmetry(self):
        rng = np.random.default_rng(0)
        labels = np.sign(rng.standard_normal(40))
        preds = np.sign(rng.standard_normal(40))
        b = balanced_error_rate(preds, labels)
        assert balanced_error_rate(-preds, labels) == pytest.approx(1.0 - b)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            balanced_error_rate(np.ones(3), np.ones(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            balanced_error_rate(np.ones(3), np.array([1.0, -1.0]))


class TestRunPathExperiment:
    def test_tiny_path_metrics(self):
        cfg = ExperimentConfig(**TINY)
        rows = run_path_experiment(cfg, SolverConfig(max_iter=500, rel_tol=1e-9))
        assert len(rows) == len(cfg.ratios)
        first = rows[0]
        # ratio 1 sits at the lambda_max boundary: all-zero solution
        assert first.ratio == 1.0
        assert np.all(first.row_l2_norms == 0.0)
        _, x_true = synth_generate(cfg)
        assert first.frobenius_error == pytest.approx(float(np.linalg.norm(x_true)))
        # error decreases somewhere along the path
        errors = [r.frobenius_error for r in rows]
        assert min(errors) < errors[0]
        assert all(r.error is None for r in rows)

    def test_csv_round_trip(self):
        cfg = ExperimentConfig(**TINY)
        rows = run_path_experiment(cfg, SolverConfig(max_iter=200, rel_tol=1e-8))
        buf = io.StringIO()
        metrics_to_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ",".join(METRICS_HEADER)
        assert len(lines) == len(rows) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        norms = first[-1].split(";")
        assert len(norms) == cfg.d

    @pytest.mark.parametrize("q", [2.0, math.inf])
    def test_objective_is_the_returned_iterates(self, q, monkeypatch):
        # W is the best iterate, which is often not the last one
        solved = []
        real = groupprox.solver.solve

        def recording_solve(problem, cfg, x0=None):
            res = real(problem, cfg, x0=x0)
            solved.append((problem, res.W))
            return res

        monkeypatch.setattr(groupprox.solver, "solve", recording_solve)
        cfg = ExperimentConfig(**dict(TINY, ratios=default_ratios(20), q=q))
        rows = run_path_experiment(cfg)
        assert len(solved) == len(rows)
        for row, (problem, w) in zip(rows, solved):
            assert row.objective == pytest.approx(problem.objective(w), rel=1e-12)

    def test_projection_error_recorded_on_row(self, monkeypatch):
        # a c bracket shifted far above the root fails the endpoint-sign
        # check in every q = 3 projection with a nonzero group
        real = prox_module._log_c_candidates
        monkeypatch.setattr(prox_module, "_log_c_candidates",
                            lambda *args: real(*args) + 50.0)
        cfg = ExperimentConfig(m=20, d=10, d_sparse=3, k=4, q=3.0,
                               ratios=[1.0, 0.5, 0.25])
        rows = run_path_experiment(cfg, SolverConfig(max_iter=50))
        assert [r.ratio for r in rows] == [1.0, 0.5, 0.25]
        assert rows[0].error is None
        for r in rows[1:]:
            assert "phi endpoint signs inconsistent" in r.error
            assert math.isnan(r.objective) and r.iterations == 0


class TestBenchProx:
    def test_returns_one_row_per_size(self):
        rows = bench_prox([50, 100], 3.0, runs=3, seed=1)
        assert [r[0] for r in rows] == [50, 100]
        for _, med, outer, inner in rows:
            assert med > 0.0
            assert outer > 0
            assert inner > 0

    def test_single_coordinate_fast(self):
        rows = bench_prox([1], 3.0, runs=3, seed=1)
        assert rows[0][1] < 1e6  # under one millisecond

    def test_q2_faster_than_general(self):
        t2 = bench_prox([10_000], 2.0, runs=5, seed=1)[0][1]
        t3 = bench_prox([10_000], 3.0, runs=5, seed=1)[0][1]
        assert t2 < t3

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            bench_prox([0], 3.0)
        with pytest.raises(ValueError):
            bench_prox([10], 3.0, runs=0)
