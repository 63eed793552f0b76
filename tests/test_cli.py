import json

import numpy as np
import pytest

from groupprox import prox_l2
from groupprox.cli import main


def read_vector(path):
    return np.array([float(line) for line in path.read_text().split()])


class TestProxCommand:
    def test_single_group(self, tmp_path):
        inp = tmp_path / "v.txt"
        inp.write_text("3 4\n")
        out = tmp_path / "x.txt"
        code = main(["prox", str(inp), "--q", "2", "--lambda", "2.5",
                     "--out", str(out)])
        assert code == 0
        np.testing.assert_allclose(read_vector(out), [1.5, 2.0], atol=1e-10)

    def test_group_size_flag(self, tmp_path):
        inp = tmp_path / "v.txt"
        inp.write_text("3,4,0.1,0.1\n")
        out = tmp_path / "x.txt"
        code = main(["prox", str(inp), "--q", "2", "--lambda", "2.5",
                     "--group-size", "2", "--out", str(out)])
        assert code == 0
        np.testing.assert_allclose(read_vector(out), [1.5, 2.0, 0.0, 0.0],
                                   atol=1e-10)

    def test_groups_json_flag(self, tmp_path):
        inp = tmp_path / "v.txt"
        inp.write_text("1 -2 3\n")
        out = tmp_path / "x.txt"
        code = main(["prox", str(inp), "--q", "inf", "--lambda", "1.0",
                     "--groups", "[0,2,3]", "--out", str(out)])
        assert code == 0
        x = read_vector(out)
        assert x.shape == (3,)

    def test_indivisible_group_size_is_input_error(self, tmp_path):
        inp = tmp_path / "v.txt"
        inp.write_text("1 2 3\n")
        assert main(["prox", str(inp), "--q", "2", "--lambda", "0.5",
                     "--group-size", "2"]) == 2

    @pytest.mark.parametrize("q", ["1", "2", "3", "inf"])
    def test_nan_lambda_is_input_error(self, q, tmp_path):
        inp = tmp_path / "v.txt"
        inp.write_text("1 2 3\n")
        assert main(["prox", str(inp), "--q", q, "--lambda", "nan"]) == 2

    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_nonpositive_group_size_is_input_error(self, size, tmp_path, capsys):
        inp = tmp_path / "v.txt"
        inp.write_text("1 2 3 4\n")
        with pytest.raises(SystemExit) as exc:
            main(["prox", str(inp), "--q", "2", "--lambda", "0.5",
                  "--group-size", size])
        assert exc.value.code == 2
        assert "--group-size: must be a positive integer" in capsys.readouterr().err

    def test_empty_input_is_input_error(self, tmp_path):
        inp = tmp_path / "v.txt"
        inp.write_text("")
        assert main(["prox", str(inp), "--q", "2", "--lambda", "0.5"]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["prox", str(tmp_path / "nope.txt"), "--q", "2",
                     "--lambda", "0.5"]) == 2


class TestSynthAndSolve:
    def test_synth_writes_bundle(self, tmp_path):
        code = main(["synth", "--m", "10", "--d", "8", "--dsparse", "3",
                     "--k", "2", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        a = np.loadtxt(tmp_path / "design.csv", delimiter=",")
        y = np.loadtxt(tmp_path / "targets.csv", delimiter=",")
        x = np.loadtxt(tmp_path / "ground_truth.csv", delimiter=",")
        assert a.shape == (10, 8)
        assert y.shape == (10, 2)
        assert x.shape == (8, 2)
        spec = json.loads((tmp_path / "problem.json").read_text())
        assert spec["loss"] == "least_squares"
        assert spec["offsets"][-1] == 16

    def test_synth_deterministic(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        args = ["synth", "--m", "6", "--d", "4", "--dsparse", "2", "--k", "1",
                "--seed", "9"]
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        assert (d1 / "design.csv").read_text() == (d2 / "design.csv").read_text()

    def test_solve_round_trip(self, tmp_path, capsys):
        assert main(["synth", "--m", "20", "--d", "8", "--dsparse", "3",
                     "--k", "2", "--sigma", "0.01", "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        spec_path = tmp_path / "problem.json"
        spec = json.loads(spec_path.read_text())
        spec["lambda"] = 0.05
        spec["q"] = 2.0
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "w.csv"
        code = main(["solve", "--design", str(tmp_path / "design.csv"),
                     "--targets", str(tmp_path / "targets.csv"),
                     "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        summary = dict(f.split("=") for f in capsys.readouterr().err.split())
        assert int(summary["trials"]) >= int(summary["iterations"]) >= 1
        w = np.loadtxt(out, delimiter=",")
        x_true = np.loadtxt(tmp_path / "ground_truth.csv", delimiter=",")
        assert w.shape == x_true.shape
        # a mild regularizer on near-noiseless data: reconstruction is close
        assert np.linalg.norm(w - x_true) <= 0.5

    def test_solve_bad_spec_is_input_error(self, tmp_path):
        (tmp_path / "design.csv").write_text("1.0\n")
        (tmp_path / "targets.csv").write_text("1.0\n")
        (tmp_path / "spec.json").write_text("{not json")
        assert main(["solve", "--design", str(tmp_path / "design.csv"),
                     "--targets", str(tmp_path / "targets.csv"),
                     "--spec", str(tmp_path / "spec.json")]) == 2

    @pytest.mark.parametrize("q, lam", [(2, "NaN"), (3, "NaN"), (2, "Infinity")])
    def test_solve_nonfinite_lambda_is_input_error(self, tmp_path, q, lam):
        # json reads NaN and Infinity; a solve on them used to end in a
        # diverged line search (exit 3, numerical failure)
        (tmp_path / "design.csv").write_text("1.0,2.0\n3.0,-1.0\n")
        (tmp_path / "targets.csv").write_text("1.0\n-2.0\n")
        (tmp_path / "spec.json").write_text(
            f'{{"loss": "least_squares", "q": {q}, "lambda": {lam}}}')
        assert main(["solve", "--design", str(tmp_path / "design.csv"),
                     "--targets", str(tmp_path / "targets.csv"),
                     "--spec", str(tmp_path / "spec.json")]) == 2

    def test_solve_q_below_one_is_input_error(self, tmp_path, capsys):
        (tmp_path / "design.csv").write_text("1.0,2.0\n3.0,-1.0\n")
        (tmp_path / "targets.csv").write_text("1.0\n-2.0\n")
        (tmp_path / "spec.json").write_text(
            json.dumps({"loss": "least_squares", "q": 0.5, "lambda": 0.1}))
        assert main(["solve", "--design", str(tmp_path / "design.csv"),
                     "--targets", str(tmp_path / "targets.csv"),
                     "--spec", str(tmp_path / "spec.json")]) == 2
        assert "q must be at least 1" in capsys.readouterr().err

    def test_solve_numerical_failure_exits_3(self, tmp_path, capsys):
        # targets of 1e160: the loss at the first search point is past the
        # largest double
        (tmp_path / "design.csv").write_text("1.0,2.0\n3.0,-1.0\n")
        (tmp_path / "targets.csv").write_text("1e160\n-2e160\n")
        (tmp_path / "spec.json").write_text(
            json.dumps({"loss": "least_squares", "q": 2, "lambda": 1.0}))
        assert main(["solve", "--design", str(tmp_path / "design.csv"),
                     "--targets", str(tmp_path / "targets.csv"),
                     "--spec", str(tmp_path / "spec.json")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_solve_unknown_loss_is_input_error(self, tmp_path):
        (tmp_path / "design.csv").write_text("1.0\n")
        (tmp_path / "targets.csv").write_text("1.0\n")
        (tmp_path / "spec.json").write_text(
            json.dumps({"loss": "hinge", "q": 2, "lambda": 0.1}))
        assert main(["solve", "--design", str(tmp_path / "design.csv"),
                     "--targets", str(tmp_path / "targets.csv"),
                     "--spec", str(tmp_path / "spec.json")]) == 2


class TestPathCommand:
    def test_tiny_path_csv(self, tmp_path):
        out = tmp_path / "path.csv"
        code = main(["path", "--m", "15", "--d", "8", "--dsparse", "3",
                     "--k", "2", "--seed", "2", "--n-ratios", "5",
                     "--max-iter", "300", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("ratio,lambda,frobenius_error")
        assert len(lines) == 6

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_ratio_count_is_input_error(self, n, tmp_path, capsys):
        out = tmp_path / "path.csv"
        with pytest.raises(SystemExit) as exc:
            main(["path", "--n-ratios", n, "--out", str(out)])
        assert exc.value.code == 2
        assert "--n-ratios: must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


class TestBenchCommand:
    def test_small_bench(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sizes", "20,40", "--runs", "3",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,median_ns,outer_iters,inner_sweeps"
        assert len(lines) == 3
        for line in lines[1:]:
            outer, inner = (int(f) for f in line.split(",")[2:])
            assert outer > 0 and inner > 0

    def test_sizes_in_float_notation(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sizes", "1e1,2e1", "--runs", "1",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")[1:]
        assert [int(line.split(",")[0]) for line in lines] == [10, 20]

    @pytest.mark.parametrize("sizes", ["1.5e0", "0", "1e1,-2e1", "1e3,x"])
    def test_bad_sizes_rejected(self, sizes, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", sizes])
        assert exc.value.code == 2
        assert "--sizes" in capsys.readouterr().err


class TestDemoFixedPoint:
    def test_trace_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["demo-fixed-point", "--lambda", "2.0", "--q", "3",
                     "--iters", "50", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "iter,x0,x1"
        assert len(lines) == 52
        err = capsys.readouterr().err
        assert "fixed_point_converged=False" in err
        assert "projection_residual=" in err

    def test_negative_iteration_count_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["demo-fixed-point", "--iters", "-1", "--out", str(out)])
        assert code == 2
        assert "error: iters must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestBerCommand:
    def test_perfect(self, tmp_path, capsys):
        preds = tmp_path / "p.txt"
        labels = tmp_path / "l.txt"
        preds.write_text("1 -1 1 -1\n")
        labels.write_text("1 -1 1 -1\n")
        assert main(["ber", "--predictions", str(preds),
                     "--labels", str(labels)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_single_class_is_input_error(self, tmp_path):
        preds = tmp_path / "p.txt"
        labels = tmp_path / "l.txt"
        preds.write_text("1 1\n")
        labels.write_text("1 1\n")
        assert main(["ber", "--predictions", str(preds),
                     "--labels", str(labels)]) == 2


class TestProxStdout:
    def test_closed_form_match(self, tmp_path, capsys):
        inp = tmp_path / "v.txt"
        inp.write_text("3 4\n")
        assert main(["prox", str(inp), "--q", "2", "--lambda", "2.5"]) == 0
        vals = np.array([float(t) for t in capsys.readouterr().out.split()])
        np.testing.assert_allclose(vals, prox_l2(np.array([3.0, 4.0]), 2.5),
                                   atol=1e-10)
