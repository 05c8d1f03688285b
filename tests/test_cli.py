"""End-to-end tests for the command-line interface."""

import json
import logging
import math
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize._highspy import _core as highs_core

from checks import check_cuts_by_loop, nodes_at_depth, pool_violations_by_loop
from conftest import (lattice_to_tree, make_chain_instance, make_cvar_without_complete_recourse,
                      make_feasibility_instance, make_newsvendor, make_newsvendor_tree,
                      random_lattice_instance)
from riskdp import cli, io, model, oracle
from riskdp.cli import ORACLE_METHODS
from riskdp.risk import RiskSpec


@pytest.fixture()
def newsvendor_file(tmp_path):
    path = tmp_path / "newsvendor.json"
    io.save_problem(make_newsvendor(), path)
    return path


def _run(argv):
    return cli.main([str(a) for a in argv])


def test_solve_writes_artifacts_and_matches_oracle(newsvendor_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = _run(["solve", newsvendor_file, "--out", out, "--iters", "40"])
    assert code == cli.EXIT_OK
    assert "converged_by_stall" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged_by_stall"
    assert summary["lower_bound"] == pytest.approx(1.5, abs=1e-6)
    assert summary["seed"] == 0
    csv_lines = (out / "iterations.csv").read_text().strip().split("\n")
    assert float(csv_lines[-1].split(",")[1]) == summary["lower_bound"]
    cuts_lines = (out / "cuts.csv").read_text().strip().split("\n")
    assert cuts_lines[0] == io.CUTS_CSV_HEADER
    assert len(cuts_lines) > 1


def _strip_wall_ms(text):
    return [line.rsplit(",", 1)[0] for line in text.strip().split("\n")]


def test_solve_is_byte_deterministic(newsvendor_file, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert _run(["solve", newsvendor_file, "--out", out, "--seed", "3"]) == cli.EXIT_OK
    for name in ("cuts.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # the iteration log is identical except for the trailing wall-clock field
    logs = [_strip_wall_ms((out / "iterations.csv").read_text()) for out in outs]
    assert logs[0] == logs[1]


def test_solve_risk_override_changes_the_value(newsvendor_file, tmp_path):
    out = tmp_path / "cvar"
    code = _run(["solve", newsvendor_file, "--out", out,
                 "--risk-override", "cvar:0.5"])
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lower_bound"] == pytest.approx(2.0, abs=1e-6)


def test_solve_infeasible_exits_one(tmp_path):
    path = tmp_path / "infeasible.json"
    io.save_problem(make_chain_instance(stage1_ub=1.4), path)
    out = tmp_path / "run"
    code = _run(["solve", path, "--alg", "alg2", "--out", out])
    assert code == cli.EXIT_INFEASIBLE
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "infeasible"
    assert summary["lower_bound"] is None


def test_solve_tree_instance(tmp_path):
    path = tmp_path / "tree.json"
    io.save_problem(make_newsvendor_tree(RiskSpec(kind="cvar", epsilon=0.5)), path)
    out = tmp_path / "run"
    code = _run(["solve", path, "--alg", "alg3", "--out", out])
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lower_bound"] == pytest.approx(2.0, abs=1e-6)


def test_usage_errors_exit_two(newsvendor_file, tmp_path):
    assert _run([]) == cli.EXIT_USAGE
    assert _run(["solve"]) == cli.EXIT_USAGE
    assert _run(["solve", newsvendor_file, "--alg", "alg9"]) == cli.EXIT_USAGE
    assert _run(["oracle", newsvendor_file]) == cli.EXIT_USAGE  # --method required
    assert _run(["solve", newsvendor_file, "--out", tmp_path / "x",
                 "--risk-override", "sideways"]) == cli.EXIT_USAGE
    assert _run(["solve", newsvendor_file, "--out", tmp_path / "z",
                 "--stall-tol", "nan"]) == cli.EXIT_USAGE
    # algorithm/form mismatch is an invocation error, not a numerical one
    assert _run(["solve", newsvendor_file, "--alg", "alg3",
                 "--out", tmp_path / "y"]) == cli.EXIT_USAGE


def test_missing_or_invalid_input_exits_three(tmp_path):
    assert _run(["solve", tmp_path / "absent.json"]) == cli.EXIT_FAILURE
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert _run(["validate", bad]) == cli.EXIT_FAILURE


@pytest.mark.parametrize("tree, damage", [
    (True, lambda doc: doc["nodes"][1].pop("id")),
    (True, lambda doc: doc["nodes"][1].update(parent="root")),
    (True, lambda doc: doc["nodes"].__setitem__(1, [1, 0])),
    (True, lambda doc: doc.update(nodes={str(r["id"]): r for r in doc["nodes"]})),
    (False, lambda doc: doc.update(stages={str(s): r for s, r in enumerate(doc["stages"])})),
    (False, lambda doc: doc["stages"].__setitem__(1, doc["stages"][1]["realizations"])),
    (False, lambda doc: doc["stages"][1].update(realizations=2)),
    (False, lambda doc: doc["stages"][1].update(risk={"type": "cvar", "epsilon": "x"})),
    (False, lambda doc: doc["stages"][1].update(
        risk={"type": "mixture", "epsilon": 0.5, "lambda": [1]})),
    (False, lambda doc: doc["stages"][1].update(risk={"type": "polytope", "rows": [1]})),
    (False, lambda doc: doc["stages"][1].update(
        risk={"type": "polytope", "rows": [{"a": [1]}]})),
    (False, lambda doc: doc["stages"][1].update(risk={"type": "cvar", "epsilon": True})),
    (False, lambda doc: doc["stages"][1].update(
        risk={"type": "expectation", "epsilon": "junk"})),
    (False, lambda doc: doc["stages"][1].update(
        risk={"type": "mixture", "epsilon": 0.5, "lambda": True})),
    (False, lambda doc: doc["stages"][1].update(
        risk={"type": "polytope", "rows": [{"a": [1, 0], "rhs": "1.5"}]})),
], ids=["node-without-id", "non-integer-parent", "node-not-an-object", "nodes-not-a-list",
        "stages-not-a-list", "stage-not-an-object", "realizations-not-a-list",
        "cvar-epsilon-not-a-number", "mixture-lambda-not-a-number",
        "polytope-row-not-an-object", "polytope-row-without-rhs", "cvar-epsilon-a-bool",
        "expectation-epsilon-a-string", "mixture-lambda-a-bool", "polytope-rhs-a-string"])
def test_malformed_document_structure_exits_three(tmp_path, capsys, tree, damage):
    # a document whose nodes, stages or risk fragments have the wrong JSON
    # shape is malformed input (exit 3), not a crash that exits 1 like a
    # proven infeasibility
    doc = io.problem_to_dict(make_newsvendor_tree() if tree else make_newsvendor())
    damage(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert _run(["validate", path]) == cli.EXIT_FAILURE
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("damage", [
    lambda doc: doc.update(x0=["0.0"]),
    lambda doc: doc["stages"][1]["realizations"][0].update(ub=["5"]),
    lambda doc: doc.update(lower_value_bound=[True]),
], ids=["x0-a-string", "ub-a-string", "lower-value-bound-a-bool"])
def test_strings_and_bools_in_problem_arrays_exit_three(tmp_path, capsys, damage):
    # each of these once loaded silently, the bool as a wrong bound of 1.0
    doc = io.problem_to_dict(make_newsvendor())
    damage(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert _run(["validate", path]) == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert "malformed" in err and "is not a number" in err


def test_validate_round_trip(newsvendor_file, capsys):
    assert _run(["validate", newsvendor_file]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("entry, message", [
    ("A", "equality blocks contain non-finite entries"),
    ("G", "G contains non-finite entries"),
    ("x0", "x0 entries must be finite"),
])
def test_non_finite_problem_data_is_invalid_input(tmp_path, capsys, command, entry, message):
    # like a non-finite b, a NaN or inf in A, G or x0 fails validation with
    # exit 3, rather than passing it and crashing the solve's LP assembly
    path = tmp_path / "bad.json"
    io.save_problem(make_feasibility_instance() if entry == "A" else make_newsvendor(), path)
    doc = json.loads(path.read_text())
    stage2 = doc["stages"][1]["realizations"][0]
    if entry == "A":
        stage2["A"][1][0][0] = math.nan
    elif entry == "G":
        stage2["G"][0][1] = -math.inf
    else:
        doc["x0"][0] = math.nan
    path.write_text(json.dumps(doc))
    argv = [command, path] + (["--out", tmp_path / "out"] if command == "solve" else [])
    assert _run(argv) == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert "invalid problem" in err and message in err


def test_oracle_methods(newsvendor_file, tmp_path, capsys):
    assert _run(["oracle", newsvendor_file, "--method", "extensive-form"]) == cli.EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(1.5, abs=1e-8)
    assert _run(["oracle", newsvendor_file,
                 "--method", "nested-decomposition"]) == cli.EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(1.5, abs=1e-8)
    cvar_file = tmp_path / "cvar.json"
    io.save_problem(make_newsvendor(RiskSpec(kind="cvar", epsilon=0.5)), cvar_file)
    assert _run(["oracle", cvar_file, "--method", "nested-decomposition"]) == cli.EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=1e-8)
    assert _run(["oracle", cvar_file, "--method", "extensive-form"]) == cli.EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=1e-8)


def test_oracle_logs_nested_decomposition_lp_counts(newsvendor_file, monkeypatch,
                                                    caplog, capsys):
    monkeypatch.setenv("RISKDP_LOG", "info")
    with caplog.at_level(logging.INFO, logger="riskdp.oracle"):
        code = _run(["oracle", newsvendor_file, "--method", "nested-decomposition"])
    assert code == cli.EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(1.5, abs=1e-8)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "riskdp.oracle"]
    assert "3 sweeps" in line and "7 LPs solved (11 reused)" in line  # 18 solves asked for


def test_oracle_reports_infeasible(tmp_path, capsys):
    path = tmp_path / "infeasible.json"
    io.save_problem(make_chain_instance(stage1_ub=1.4), path)
    assert _run(["oracle", path, "--method", "extensive-form"]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().out.strip() == "infeasible"


@pytest.fixture(params=["lattice", "tree"])
def solved_run(request, tmp_path):
    """(problem file, cut dump) of a newsvendor solve: alg1 on the lattice,
    alg3 on its tree twin."""
    if request.param == "lattice":
        problem, alg = make_newsvendor(), "alg1"
    else:
        problem, alg = make_newsvendor_tree(), "alg3"
    path = tmp_path / f"{request.param}.json"
    io.save_problem(problem, path)
    out = tmp_path / "run"
    assert _run(["solve", path, "--alg", alg, "--out", out]) == cli.EXIT_OK
    return path, out / "cuts.csv"


def test_check_cuts_accepts_a_real_run(solved_run, capsys):
    problem_file, cuts_file = solved_run
    code = _run(["check-cuts", problem_file, cuts_file, "--points", "25"])
    assert code == cli.EXIT_OK
    assert "0 violations" in capsys.readouterr().out


def test_check_cuts_flags_a_tampered_dump(solved_run, capsys):
    problem_file, path = solved_run
    lines = path.read_text().strip().split("\n")
    fields = lines[1].split(",")
    fields[3] = io.format_float(float(fields[3]) + 1.0)  # inflate one theta
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    code = _run(["check-cuts", problem_file, path, "--points", "25"])
    assert code == cli.EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert "violation" in captured.err


@pytest.mark.parametrize("row", [
    "optimality,99,1,0.0,1.0,0.0",          # pool 99 is not a pool of the problem
    "optimality,2,1,0.0,1.0,2.0,0.0,0.0",   # pool 2's cuts have 1 coefficient, not 2
    "feasibility,2,1,0.0,1.0,2.0",
])
def test_check_cuts_rejects_a_row_that_fits_no_pool(newsvendor_file, tmp_path, capsys, row):
    path = tmp_path / "cuts.csv"
    path.write_text(f"{io.CUTS_CSV_HEADER}\n{row}\n")
    assert _run(["check-cuts", newsvendor_file, path]) == cli.EXIT_FAILURE
    assert f"pool {row.split(',')[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "optimality,2,1,nan,1.0,0.0",     # every comparison with a nan theta is false
    "optimality,2,1,1e300,nan,0.0",   # a nan beta entry hides under a huge theta
])
def test_check_cuts_rejects_non_finite_rows(newsvendor_file, tmp_path, capsys, row):
    path = tmp_path / "cuts.csv"
    path.write_text(f"{io.CUTS_CSV_HEADER}\n{row}\n")
    assert _run(["check-cuts", newsvendor_file, path]) == cli.EXIT_FAILURE
    captured = capsys.readouterr()
    assert "must be finite" in captured.err and "violations" not in captured.out


@pytest.mark.parametrize("option, value", [
    ("--points", "0"),    # would check nothing and report 0 violations
    ("--points", "-3"),
    ("--tol", "nan"),     # would pass every cut: each comparison with nan is false
    ("--tol", "inf"),
    ("--tol", "-1e-6"),
])
def test_check_cuts_rejects_bad_arguments(newsvendor_file, tmp_path, capsys, option, value):
    path = tmp_path / "cuts.csv"
    path.write_text(f"{io.CUTS_CSV_HEADER}\n")
    assert _run(["check-cuts", newsvendor_file, path, option, value]) == cli.EXIT_USAGE
    assert option in capsys.readouterr().err


def test_check_cuts_covers_feasibility_rows(tmp_path, capsys):
    path = tmp_path / "feas.json"
    io.save_problem(make_chain_instance(), path)
    out = tmp_path / "run"
    assert _run(["solve", path, "--alg", "alg2", "--out", out]) == cli.EXIT_OK
    code = _run(["check-cuts", path, out / "cuts.csv", "--points", "30"])
    assert code == cli.EXIT_OK
    assert "0 violations" in capsys.readouterr().out


def test_check_cuts_solves_one_lp_per_pool_and_point(solved_run, monkeypatch, capsys):
    # one HiGHS model per inner pool, re-solved once per point; no linprog, no ND
    problem_file, cuts_file = solved_run
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    class CountingHighs(highs_core._Highs):
        def passModel(self, *args):
            calls["models"] += 1
            return super().passModel(*args)

        def run(self):
            calls["runs"] += 1
            return super().run()

    monkeypatch.setattr(highs_core, "_Highs", CountingHighs)
    monkeypatch.setattr(scipy.optimize, "linprog",
                        counting("linprog", scipy.optimize.linprog))
    monkeypatch.setattr(oracle, "exact_nested_decomposition",
                        counting("nd", oracle.exact_nested_decomposition))
    assert _run(["check-cuts", problem_file, cuts_file, "--points", "7"]) == cli.EXIT_OK
    assert "0 violations" in capsys.readouterr().out
    topo = io.load_problem(problem_file).topology
    pools = {rec.where for rec in io.read_cuts_csv(cuts_file)}
    inner = [key for key in pools if not topo.terminal(key)]
    assert inner and calls == Counter(models=len(inner), runs=7 * len(inner))


def test_check_cuts_audits_a_tail_without_complete_recourse(tmp_path, capsys):
    # alg2 solves it; nested decomposition, which has no feasibility cuts,
    # gives no value, and the extensive form gives the exact one
    path = tmp_path / "no_rcr.json"
    io.save_problem(make_cvar_without_complete_recourse(), path)
    out = tmp_path / "run"
    assert _run(["solve", path, "--alg", "alg2", "--out", out]) == cli.EXIT_OK
    capsys.readouterr()
    code = _run(["check-cuts", path, out / "cuts.csv", "--points", "10"])
    assert code == cli.EXIT_OK
    assert "0 violations" in capsys.readouterr().out
    assert _run(["oracle", path, "--method", "extensive-form"]) == cli.EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=1e-8)
    assert _run(["oracle", path, "--method", "nested-decomposition"]) == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert "no feasibility cuts" in err and "--method extensive-form" in err
    hopeless = tmp_path / "hopeless.json"
    io.save_problem(make_cvar_without_complete_recourse(stage2_ub=0.5), hopeless)
    for method in ORACLE_METHODS:
        assert _run(["oracle", hopeless, "--method", method]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().out.strip() == "infeasible"


def _plant_violations(path):
    """Raise the first optimality row's ``theta`` by 1 and lower the first feasibility row's."""
    lines = path.read_text().strip().split("\n")
    planted = set()
    for n, line in enumerate(lines[1:], 1):
        fields = line.split(",")
        if fields[0] not in planted:
            planted.add(fields[0])
            step = 1.0 if fields[0] == io.CUT_KIND_OPTIMALITY else -1.0
            fields[3] = io.format_float(float(fields[3]) + step)
            lines[n] = ",".join(fields)
    assert planted == {io.CUT_KIND_OPTIMALITY, io.CUT_KIND_FEASIBILITY}
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("case", ["chain", "no-rcr", "no-rcr-tree"])
def test_array_cut_check_agrees_with_the_loop(tmp_path, capsys, case):
    # alg2 dumps with feasibility rows, as written and with a violation of
    # each kind planted; both instances lack complete recourse, so some
    # sampled histories have +inf recourse.  The tree twin takes the
    # lattice's dump with each stage-t pool's rows moved to the depth t - 1
    # node
    lattice = make_chain_instance() if case == "chain" else make_cvar_without_complete_recourse()
    lattice_file = tmp_path / "lattice.json"
    io.save_problem(lattice, lattice_file)
    assert _run(["solve", lattice_file, "--alg", "alg2", "--out", tmp_path]) == cli.EXIT_OK
    problem, path, dump = lattice, lattice_file, tmp_path / "cuts.csv"
    if case == "no-rcr-tree":
        problem, path = lattice_to_tree(lattice), tmp_path / "tree.json"
        io.save_problem(problem, path)
        rows = [line.split(",") for line in dump.read_text().strip().split("\n")]
        for fields in rows[1:]:
            fields[1] = str(nodes_at_depth(problem, int(fields[1]) - 1)[0])
        dump.write_text("\n".join(",".join(fields) for fields in rows) + "\n")
    capsys.readouterr()
    seen = Counter()
    for planted in (False, True):
        if planted:
            _plant_violations(dump)
        records = io.read_cuts_csv(dump)
        for seed in (0, 1, 2):
            code = _run(["check-cuts", path, dump, "--points", "25", "--seed", seed])
            out, err = capsys.readouterr()
            want, n_infinite = check_cuts_by_loop(problem, records, 25, seed, 1e-6)
            assert err.splitlines() == want
            assert out.strip() == (f"checked {len(records)} cuts at 25 points per pool: "
                                   f"{len(want)} violations")
            assert code == (cli.EXIT_INFEASIBLE if want else cli.EXIT_OK)
            seen.update(line.split()[1] for line in want)
            seen["planted" if planted else "as written"] += len(want)
            seen["+inf"] += n_infinite
    assert seen["as written"] == 0
    assert seen["optimality"] > 0 and seen["feasibility"] > 0
    assert seen["+inf"] > 0


@pytest.mark.parametrize("k", [1, 3, 8])
def test_array_cut_check_agrees_with_the_loop_at_the_limit(k):
    # cuts placed within a few ulps of their limit, where a sum in another
    # order may round to the other side: the verdicts and printed values are
    # the scalar loop's
    rng = np.random.default_rng(k)
    checked = 0
    for trial in range(200):
        xs = rng.uniform(-1.0, 1.0, size=(5, k)) * 10.0 ** rng.integers(-3, 4, size=k)
        trues = rng.uniform(-50.0, 50.0, size=5)
        trues[rng.random(5) < 0.2] = math.inf
        tol = float(rng.choice([0.0, 1e-6]))
        recs = []
        for i in range(6):
            beta = rng.normal(size=k) * 10.0 ** rng.integers(-3, 4, size=k)
            p = int(rng.integers(5))
            if i % 2 == 0:
                anchor = rng.uniform(-1.0, 1.0, size=k)
                theta = trues[p] + tol - float(beta @ (xs[p] - anchor))
                kind = io.CUT_KIND_OPTIMALITY
            else:
                anchor, theta, kind = None, float(beta @ xs[p]) - tol, io.CUT_KIND_FEASIBILITY
            if not math.isfinite(theta):
                theta = 0.0
            theta = float(np.nextafter(theta, math.inf * rng.choice([-1, 1]))) \
                if rng.random() < 0.5 else theta
            recs.append(io.CutRecord(kind=kind, where=2, iteration=i, theta=theta,
                                     beta=beta, anchor=anchor))
        want = pool_violations_by_loop(2, recs, xs, trues, tol)
        assert cli._pool_violations(2, recs, xs, trues, tol) == want, trial
        checked += len(want)
    assert checked > 0


def test_successive_main_calls_do_not_share_flags(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a second call that leaves out
    # the first call's flags gets the defaults back
    path = tmp_path / "cuts.csv"
    path.write_text(f"{io.CUTS_CSV_HEADER}\n")
    seen = []
    monkeypatch.setitem(cli._DISPATCH, "check-cuts", lambda args: seen.append(vars(args)) or 0)
    problem_file = tmp_path / "newsvendor.json"
    assert _run(["check-cuts", problem_file, path, "--points", "7", "--seed", "5",
                 "--tol", "0.5"]) == cli.EXIT_OK
    assert _run(["check-cuts", problem_file, path]) == cli.EXIT_OK
    assert _run(["check-cuts", "other.json", path, "--seed", "3"]) == cli.EXIT_OK
    assert seen == [
        {"cmd": "check-cuts", "input": str(problem_file), "cuts": str(path), "points": 7,
         "seed": 5, "tol": 0.5},
        {"cmd": "check-cuts", "input": str(problem_file), "cuts": str(path), "points": 100,
         "seed": 0, "tol": 1e-6},
        {"cmd": "check-cuts", "input": "other.json", "cuts": str(path), "points": 100,
         "seed": 3, "tol": 1e-6}]
    assert cli._parser() is cli._parser()


X0 = np.array([1.0, -0.5])


def _nonzero_x0_twins(seed: int):
    """A random lattice with ``x0 = X0`` and nonzero ``A_0``/``G_0`` columns, and its twin.

    Every equality and inequality row gets a random ``x_0`` column, and its
    right-hand side is raised by what that column adds at ``X0``, so the
    instance keeps the generator's recourse and value bounds; stage 1 gets one
    such row, ``-x_{1,0} <= 0`` once ``x_0`` is folded.  The twin folds
    ``A_0 X0`` and ``G_0 X0`` into ``b`` and ``h`` by hand and has ``x0 = 0``.
    """
    rng = np.random.default_rng([1401, seed])
    base = random_lattice_instance(rng, 3, 2, 2, risk=RiskSpec(kind="cvar", epsilon=0.5))
    n = base.dim
    stages, twin_stages = [], []
    for t, stage in enumerate(base.stages, start=1):
        reals, twins = [], []
        for r in stage.realizations:
            g, h = r.g, r.h
            if t == 1:
                g, h = np.hstack([np.zeros((1, n)), -np.eye(1, n)]), np.zeros(1)
            a0 = rng.uniform(0.2, 0.5, (r.b.shape[0], n))
            g0 = rng.uniform(0.2, 0.5, (h.shape[0], n))
            g = np.hstack([g0, g[:, n:]])
            pay = model.Realization(prob=r.prob, cost=r.cost, a_blocks=[a0] + r.a_blocks[1:],
                                    b=r.b + a0 @ X0, g=g, h=h + g0 @ X0, lb=r.lb, ub=r.ub)
            reals.append(pay)
            twins.append(model.Realization(prob=r.prob, cost=r.cost, a_blocks=pay.a_blocks,
                                           b=pay.b - a0 @ X0, g=g, h=pay.h - g0 @ X0,
                                           lb=r.lb, ub=r.ub))
        stages.append(model.Stage(reals, risk=stage.risk))
        twin_stages.append(model.Stage(twins, risk=stage.risk))
    problem = model.Problem(horizon=base.horizon, dim=n, x0=X0, stages=stages,
                            lower_value_bound=base.lower_value_bound)
    twin = model.Problem(horizon=base.horizon, dim=n, x0=np.zeros(n), stages=twin_stages,
                         lower_value_bound=base.lower_value_bound)
    return problem, twin


@pytest.mark.parametrize("seed", range(3))
def test_nonzero_x0_matches_its_hand_folded_twin(tmp_path, capsys, seed):
    # x_0 enters only through Realization.fold_map, which the engine and the
    # oracle both read, so their agreement cannot catch a wrong fold; a twin
    # folded by hand, with x0 = 0, can
    lattice, lattice_twin = _nonzero_x0_twins(seed)
    assert model.validate_problem(lattice) == [] == model.validate_problem(lattice_twin)
    for alg, problem, twin in (("alg1", lattice, lattice_twin),
                               ("alg3", lattice_to_tree(lattice), lattice_to_tree(lattice_twin))):
        value = oracle.extensive_form_value(problem)
        assert value == pytest.approx(oracle.extensive_form_value(twin), rel=1e-12, abs=1e-12)
        bounds = {}
        for name, p in (("x0", problem), ("twin", twin)):
            io.save_problem(p, tmp_path / f"{alg}-{name}.json")
            out = tmp_path / f"{alg}-{name}"
            assert _run(["solve", tmp_path / f"{alg}-{name}.json", "--alg", alg,
                         "--iters", "30", "--stall-window", "31", "--out", out]) == cli.EXIT_OK
            bounds[name] = json.loads((out / "summary.json").read_text())["lower_bound"]
        assert bounds["x0"] == pytest.approx(bounds["twin"], rel=1e-12, abs=1e-12)
        # each run's cuts, over x_{1:t-1} on both sides, against the other's recourse
        for name, other in (("x0", "twin"), ("twin", "x0")):
            capsys.readouterr()
            assert _run(["check-cuts", tmp_path / f"{alg}-{other}.json",
                         tmp_path / f"{alg}-{name}" / "cuts.csv", "--points", "20"]) == cli.EXIT_OK
            assert "0 violations" in capsys.readouterr().out


def test_log_level_env(newsvendor_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RISKDP_LOG", "sideways")
    assert _run(["validate", newsvendor_file]) == cli.EXIT_OK
    assert "unknown RISKDP_LOG" in capsys.readouterr().err
    monkeypatch.setenv("RISKDP_LOG", "debug")
    assert _run(["solve", newsvendor_file, "--out", tmp_path / "run"]) == cli.EXIT_OK
