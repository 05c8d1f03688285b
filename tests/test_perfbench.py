"""Guards for the benchmark: its tracer's names and its untraced user loop.

``perfbench/tracing.py`` names the riskdp functions and methods it wraps
(``TRACED``) by module and attribute path.  A refactor that renames or
removes one of them would only show when ``perfbench/run.py --trace 1``
runs, so this test imports the tracer read-only and resolves every name.

``perfbench/workloads.py`` holds the user loop every benchmark run times:
generate, save and load an instance, solve it, check the bound against the
exact reference, write the artifacts and audit the cut dump.  Running that
loop once per workload here shows a break in the load path, or anywhere else
in it, before a benchmark run does.  Both modules are loaded read-only and
nothing is written under ``perfbench/``.
"""

import importlib

import pytest

import conftest
from checks import perfbench_module
from riskdp import oracle


WORKLOADS = perfbench_module("workloads")


@pytest.mark.parametrize("span, target", sorted(perfbench_module("tracing").TRACED.items()))
def test_traced_name_resolves(span, target):
    module_name, path = target
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{span}: {module_name}.{path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_user_loop_runs_untraced(name, tmp_path):
    # instance 0 of seed 1, once through the loop perfbench/run.py times
    wl, w = WORKLOADS, WORKLOADS.WORKLOADS[name]
    problem, engine_seed = wl.make_instance(w, conftest, 1, 0)
    problem_file = tmp_path / "problem.json"
    wl.io.save_problem(problem, problem_file)
    problem = wl.io.load_problem(problem_file)
    result, _seconds = wl.solve(problem, w, engine_seed)
    assert wl.solve_failures(result, oracle.reference_value(problem)) == []
    wl.write_artifacts(tmp_path / "run", result, problem, engine_seed)
    passed, _seconds, text = wl.audit(w, problem_file, tmp_path / "run" / "cuts.csv",
                                      engine_seed)
    assert passed, text
