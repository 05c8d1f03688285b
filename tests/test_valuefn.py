"""Tests for history-subgradient assembly and verification helpers."""

import math

import numpy as np
import pytest

from checks import (check_subgradient, evaluate_cost_and_history_subgradient,
                    subgradient_bound, subgradient_terms)
from riskdp import engine, lp, model, valuefn
from riskdp.cuts import OptimalityCut, zero_terminal_pool


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
    return engine.solve_node(problem, (2, 0), np.array([0.0, x1]), pools)


def test_static_inequality_contribution():
    # Q(x) = min{ y : y >= x, y in [0, 10] }  ->  slope 1 at x = 1
    pay = _payload(2, 1,
                   pieces=model.PwlConvexCost([[0.0, 1.0]], [0.0], dim=1),
                   g=np.array([[0.0, 1.0, -1.0]]), h=np.zeros(1),
                   lb=np.zeros(1), ub=np.array([10.0]))
    ns = _solve_second_stage(_two_stage(pay), 1.0)
    assert ns.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(ns.pi, [1.0], atol=1e-9)
    # the slope comes entirely from the static inequality rows
    parts = subgradient_terms(ns.sub, ns.duals, _view_for(ns))
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
    ns = _solve_second_stage(_two_stage(pay), 1.0)
    assert ns.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(ns.pi, [-1.0], atol=1e-9)
    parts = subgradient_terms(ns.sub, ns.duals, _view_for(ns))
    assert np.allclose(parts.eq_term, [-1.0], atol=1e-9)
    assert np.allclose(parts.g_term, [0.0], atol=1e-12)


def _view_for(ns):
    # rebuild the cut view the solve used (terminal zero pool, no feasibility
    # rows) so the assembly can be decomposed term by term
    return zero_terminal_pool(2).view(1)


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
        pieces, np.concatenate([ns.sub.history[1:], ns.x]))
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
    ns = engine.solve_node(problem, (2, 0), np.array([0.0, 2.0]), pools)
    assert ns.value == pytest.approx(-3.0, abs=1e-9)
    assert np.allclose(ns.pi, [1.0], atol=1e-9)
    view = pools.rows_for((2, 0)).view(1)
    parts = subgradient_terms(ns.sub, ns.duals, view)
    assert np.allclose(parts.cut_term, [1.0], atol=1e-9)
    s = valuefn.assemble_pi(ns.sub, ns.duals, view)
    assert np.allclose(s, parts.cost_term + parts.eq_term
                       + parts.g_term + parts.cut_term)
    shifted = engine.solve_node(problem, (2, 0), np.array([0.0, 3.0]), pools)
    assert shifted.value == pytest.approx(-2.0, abs=1e-9)


def test_assemble_pi_rejects_non_optimal():
    pay = _payload(2, 1,
                   pieces=model.PwlConvexCost([[0.0, 1.0]], [0.0], dim=1),
                   lb=np.zeros(1), ub=np.array([1.0]))
    ns = _solve_second_stage(_two_stage(pay), 1.0)
    bad = lp.LpSolution(status=lp.INFEASIBLE, x=ns.duals.x,
                        objective=math.nan, dual_eq=ns.duals.dual_eq,
                        dual_ineq=ns.duals.dual_ineq, pivots=0)
    with pytest.raises(ValueError):
        valuefn.assemble_pi(ns.sub, bad, _view_for(ns))


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
