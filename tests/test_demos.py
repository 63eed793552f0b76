"""The narrative scripts in demos/ run to the end, under the suite's
warnings-as-errors filter, and say what their output shows."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


@pytest.mark.parametrize("name", ["projection_tour", "fixed_point_failure",
                                  "regularization_path"])
def test_demo_runs(name, capsys):
    assert run_demo(name, capsys).strip()


def test_projection_tour_zeroes_only_the_middle_group(capsys):
    # the tour closes by saying that only the small middle group zeroes out
    out = run_demo("projection_tour", capsys)
    results = [line.split("->")[1] for line in out.splitlines()
               if line.strip().startswith("group ")]
    zero = [not any(float(x) for x in r.strip(" []").split()) for r in results]
    assert zero == [False, True, False]
