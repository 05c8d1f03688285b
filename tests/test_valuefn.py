"""Tests for history-subgradient assembly and verification helpers."""

import math
from collections import Counter

import numpy as np
import pytest

from checks import (check_subgradient, evaluate_cost_and_history_subgradient,
                    subgradient_bound, subgradient_terms)
from conftest import lattice_to_tree, make_cvar_without_complete_recourse, random_lattice_instance
from riskdp import engine, lp, model, valuefn
from riskdp.cuts import OptimalityCut, zero_terminal_pool
from riskdp.risk import RiskSpec


def _payload(t, n, *, prob=1.0, pieces=None, a=None, b=None, g=None, h=None,
             lb=None, ub=None):
    if pieces is None:
        pieces = model.PwlConvexCost(np.zeros((1, t * n)), np.zeros(1), dim=n)
    return model.Realization(
        prob=prob, cost=pieces,
        a_blocks=a if a is not None else [],
        b=b if b is not None else np.zeros(0),
        g=g if g is not None else np.zeros((0, 0)),
        h=h if h is not None else np.zeros(0),
        lb=lb if lb is not None else np.zeros(n),
        ub=ub if ub is not None else np.ones(n))


def _two_stage(stage2_payload, lower=0.0):
    stage1 = model.Stage([_payload(1, 1, ub=np.array([2.0]))])
    return model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                         stages=[stage1, model.Stage([stage2_payload])],
                         lower_value_bound=np.array([lower]))


def _solve_second_stage(problem, x1):
    pools = engine.PoolSet(problem)
    return engine.solve_node(problem, (2, 0), np.array([x1]), pools)


def _terms(problem, ns, view=None):
    # the block terms of a second-stage solve; by default against the view it
    # used (terminal zero pool, no feasibility rows)
    view = zero_terminal_pool(2).view(1) if view is None else view
    return subgradient_terms(problem, (2, 0), ns.duals, view)


def test_static_inequality_contribution():
    # Q(x) = min{ y : y >= x, y in [0, 10] }  ->  slope 1 at x = 1
    pay = _payload(2, 1,
                   pieces=model.PwlConvexCost([[0.0, 1.0]], [0.0], dim=1),
                   g=np.array([[0.0, 1.0, -1.0]]), h=np.zeros(1),
                   lb=np.zeros(1), ub=np.array([10.0]))
    problem = _two_stage(pay)
    ns = _solve_second_stage(problem, 1.0)
    assert ns.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(ns.pi, [1.0], atol=1e-9)
    # the slope comes entirely from the static inequality rows
    parts = _terms(problem, ns)
    assert np.allclose(parts.g_term, [1.0], atol=1e-9)
    assert np.allclose(parts.cost_term, [0.0], atol=1e-12)
    assert np.allclose(parts.eq_term, [0.0], atol=1e-12)
    assert np.allclose(parts.cut_term, [0.0], atol=1e-12)


def test_equality_contribution_sign():
    # Q(x) = min{ y : y = 2 - x, y in [0, 3] }  ->  slope -1 at x = 1
    pay = _payload(2, 1,
                   pieces=model.PwlConvexCost([[0.0, 1.0]], [0.0], dim=1),
                   a=[np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]])],
                   b=np.array([2.0]), lb=np.zeros(1), ub=np.array([3.0]))
    problem = _two_stage(pay)
    ns = _solve_second_stage(problem, 1.0)
    assert ns.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(ns.pi, [-1.0], atol=1e-9)
    parts = _terms(problem, ns)
    assert np.allclose(parts.eq_term, [-1.0], atol=1e-9)
    assert np.allclose(parts.g_term, [0.0], atol=1e-12)


def test_cost_kink_uses_dual_weights():
    # Q(x) = min_y max(2x + y, -y) has its minimum at the cost kink y = -x,
    # where the true slope is 1.  Both pieces are active there; weighting the
    # history blocks by the piece-row duals (1/2 each) recovers the slope,
    # while the lowest-index active piece alone would report 2.
    pieces = model.PwlConvexCost([[2.0, 1.0], [0.0, -1.0]], [0.0, 0.0], dim=1)
    pay = _payload(2, 1, pieces=pieces, lb=np.array([-10.0]), ub=np.array([10.0]))
    ns = _solve_second_stage(_two_stage(pay), 1.0)
    assert ns.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(ns.pi, [1.0], atol=1e-9)
    _, active_piece = evaluate_cost_and_history_subgradient(
        pieces, np.concatenate([[1.0], ns.x]))
    assert np.allclose(active_piece, [2.0])  # the rule assemble_pi must not use
    for x1p in (0.75, 1.25):
        other = _solve_second_stage(_two_stage(pay), x1p)
        assert other.value >= ns.value + ns.pi @ np.array([x1p - 1.0]) - 1e-9


def test_cut_row_contribution():
    # three-stage problem; the middle stage carries one optimality cut whose
    # history block feeds the subgradient through the cut-row multiplier
    stage = model.Stage([_payload(1, 1, ub=np.array([2.0]))])
    stage2 = model.Stage([_payload(2, 1, lb=np.array([-10.0]), ub=np.array([10.0]))])
    stage3 = model.Stage([_payload(3, 1)])
    problem = model.Problem(horizon=3, dim=1, x0=np.zeros(1),
                            stages=[stage, stage2, stage3],
                            lower_value_bound=np.array([-100.0, -100.0]))
    pools = engine.PoolSet(problem)
    pools.opt[3].append_optimality(OptimalityCut(
        theta=5.0, beta=np.array([1.0, 1.0]), anchor=np.zeros(2),
        iteration=0, stage=3))
    # stage-2 subproblem at x1 = 2: min w + z, z >= x2 + 5 + x1, x2 in [-10, 10]
    ns = engine.solve_node(problem, (2, 0), np.array([2.0]), pools)
    assert ns.value == pytest.approx(-3.0, abs=1e-9)
    assert np.allclose(ns.pi, [1.0], atol=1e-9)
    parts = _terms(problem, ns, pools.rows_for((2, 0)).view(1))
    assert np.allclose(parts.cut_term, [1.0], atol=1e-9)
    assert np.allclose(ns.pi, parts.cost_term + parts.eq_term
                       + parts.g_term + parts.cut_term)
    shifted = engine.solve_node(problem, (2, 0), np.array([3.0]), pools)
    assert shifted.value == pytest.approx(-2.0, abs=1e-9)


def test_assemble_pi_rejects_non_optimal():
    pay = _payload(2, 1,
                   pieces=model.PwlConvexCost([[0.0, 1.0]], [0.0], dim=1),
                   lb=np.zeros(1), ub=np.array([1.0]))
    problem = _two_stage(pay)
    history = np.array([1.0])
    _prob, _b0, hist = engine.build_stage_lp(model.assemble_subproblem(problem, (2, 0)),
                                             zero_terminal_pool(2).view(1), 0.0, history)
    ns = _solve_second_stage(problem, 1.0)
    assert np.array_equal(valuefn.assemble_pi(hist, ns.duals), ns.pi)
    bad = lp.LpSolution(status=lp.INFEASIBLE, x=ns.duals.x,
                        objective=math.nan, dual_eq=ns.duals.dual_eq,
                        dual_ineq=ns.duals.dual_ineq, pivots=0)
    with pytest.raises(ValueError, match="status"):
        valuefn.assemble_pi(hist, bad)
    with pytest.raises(ValueError, match="rows"):
        valuefn.assemble_pi(hist[1:], ns.duals)


def _agrees(new, old):
    return np.all(np.abs(new - old) <= 1e-12 * np.maximum(1.0, np.abs(new)))


def _coupled_feasibility_instance():
    # x3 = x1 + x2 - 1.5 in [0, 0.5] with x2 <= 1: stage 3's feasibility cut
    # -x1 - x2 <= -1.5 has a nonzero x1 block, and at x1 < 0.5 its row takes a
    # positive multiplier in the stage-2 phase-I program
    def lin(t):
        return model.PwlConvexCost(np.eye(1, t, t - 1), np.zeros(1), dim=1)
    third = _payload(3, 1, pieces=lin(3), b=np.array([-1.5]), ub=np.array([0.5]),
                     a=[np.zeros((1, 1)), -np.ones((1, 1)), -np.ones((1, 1)), np.ones((1, 1))])
    stages = [model.Stage([_payload(1, 1, pieces=lin(1), ub=np.array([2.0]))]),
              model.Stage([_payload(2, 1, pieces=lin(2))]), model.Stage([third])]
    return model.Problem(horizon=3, dim=1, x0=np.zeros(1), stages=stages,
                         lower_value_bound=np.zeros(2))


def _fuzz_case(case):
    rng = np.random.default_rng([1201, case[1]])
    if case[0] == "lattice":
        problem = random_lattice_instance(rng, 3, 3, 2, max_pieces=3,
                                          risk=RiskSpec(kind="mixture", lam=0.5, epsilon=0.3))
        return problem, "alg1"
    if case[0] == "tree":
        return lattice_to_tree(random_lattice_instance(
            rng, 3, 2, 2, risk=RiskSpec(kind="cvar", epsilon=0.5))), "alg3"
    if case[0] == "no-rcr":
        return make_cvar_without_complete_recourse(), "alg2"
    return _coupled_feasibility_instance(), "alg2"


@pytest.mark.parametrize("case", [("lattice", 0), ("lattice", 1), ("lattice", 2),
                                  ("tree", 0), ("tree", 1), ("no-rcr", 0), ("coupled", 0)],
                         ids=lambda c: f"{c[0]}-{c[1]}")
def test_pi_matches_the_block_formula(monkeypatch, case):
    # every driver solve's pi, warm or cold, against the row-block formula
    # read from the payload's fold_map; every feasibility cut's beta_tilde
    # against feas_beta1^T dual_feas - a_hist^T dual_eq of its phase-I solve
    problem, algorithm = _fuzz_case(case)
    n = problem.dim
    topo = problem.topology
    solve_node, phase_one = engine.solve_node, engine.phase_one
    assemble_pi, build_feasibility_cut = engine.assemble_pi, engine.build_feasibility_cut
    seen = Counter()
    last = {}

    def checked_solve(p, where, history, pools, stage_lp=None):
        ns = solve_node(p, where, history, pools, stage_lp)
        parts = subgradient_terms(p, where, ns.duals, pools.rows_for(where).view(n))
        assert _agrees(ns.pi, parts.cost_term + parts.eq_term + parts.g_term + parts.cut_term)
        seen["pieces"] += topo.payload(where).cost.n_pieces - 1
        seen["g_rows"] += topo.payload(where).h.shape[0]
        seen["warm"] += ns.duals.warm_start
        seen["pi"] += 1
        return ns

    def recording_pi(hist, sol):
        last["sol"] = sol
        return assemble_pi(hist, sol)

    def checked_phase_one(p, where, history, pools, tally=None):
        k = (topo.stage(where) - 1) * n
        a_hist = topo.payload(where).fold_map(p.x0, k).b_hist
        feas_beta1 = pools.rows_for(where).view(n).feas_beta1
        value, slope = phase_one(p, where, history, pools, tally)
        sol = last["sol"]
        last["old"] = feas_beta1.T @ sol.dual_ineq - a_hist.T @ sol.dual_eq
        seen["feas_rows"] += feas_beta1.shape[0]
        seen["feas_hist"] += bool(np.any(feas_beta1.T @ sol.dual_ineq))
        return value, slope

    def checked_cut(value, slope, anchor, **kw):
        cut = build_feasibility_cut(value, slope, anchor, **kw)
        assert _agrees(cut.beta_tilde, last["old"])
        seen["feas_cuts"] += 1
        return cut

    monkeypatch.setattr(engine, "solve_node", checked_solve)
    monkeypatch.setattr(engine, "assemble_pi", recording_pi)
    monkeypatch.setattr(engine, "phase_one", checked_phase_one)
    monkeypatch.setattr(engine, "build_feasibility_cut", checked_cut)
    cfg = engine.RunConfig(algorithm=algorithm, max_iters=12, seed=case[1], stall_window=13)
    engine.run(problem, cfg)
    # every first solve may start from a basis; a run without the epigraph
    # basis solves some LPs with the two-phase simplex, whose pi is checked too
    with monkeypatch.context() as patched:
        patched.setattr(engine, "epigraph_basis", lambda sub, view: None)
        engine.run(problem, cfg)
    assert seen["pi"] > seen["warm"] > 0
    if case[0] == "no-rcr":
        assert seen["feas_cuts"] >= 1 and seen["feas_rows"] >= 1
    elif case[0] == "coupled":
        assert seen["feas_cuts"] >= 2 and seen["feas_hist"] >= 1
    else:
        assert seen["pieces"] > 0 and seen["g_rows"] > 0


def test_subgradient_bound_values():
    assert subgradient_bound(5.0, 5.0, 1.0) == pytest.approx(0.0)
    assert subgradient_bound(10.0, 0.0, 2.0) == pytest.approx(5.0)
    assert subgradient_bound(3.5, 1.0, 0.5) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        subgradient_bound(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        subgradient_bound(0.0, 1.0, 1.0)


def test_check_subgradient_accepts_valid_slope():
    report = check_subgradient(lambda x: abs(x[0]), np.array([0.5]),
                               np.array([1.0]), n_samples=200, seed=1)
    assert report == []


def test_check_subgradient_flags_invalid_slope():
    report = check_subgradient(lambda x: abs(x[0]), np.array([0.5]),
                               np.array([2.0]), n_samples=200, seed=1)
    assert report
    worst = report[0]
    assert worst["bound"] > worst["value"] + 1e-7


def test_check_subgradient_on_stage_value():
    # v(x) = 2 - x on [-1, 2] (the y-box makes the rest infeasible); s = -1
    pay = _payload(2, 1,
                   pieces=model.PwlConvexCost([[0.0, 1.0]], [0.0], dim=1),
                   a=[np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]])],
                   b=np.array([2.0]), lb=np.zeros(1), ub=np.array([3.0]))
    problem = _two_stage(pay)

    def q_eval(x):
        try:
            return _solve_second_stage(problem, float(x[0])).value
        except engine.EngineError:
            return math.inf

    report = check_subgradient(q_eval, np.array([0.5]), np.array([-1.0]),
                               n_samples=60, radius=2.0, seed=4)
    assert report == []
