"""Tests for the reference solvers and history conditioning."""

import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize._highspy import _core as highs_core

from checks import (grid_minimum, n_optimality_cuts, nd_true_recourse_value, nodes_at_depth,
                    per_node_extensive_form_value, per_node_recourse_value, run_fresh)
from conftest import (lattice_to_tree, make_cvar_without_complete_recourse,
                      random_lattice_instance)
from riskdp import engine, io, lp, model, oracle
from riskdp.cli import _history_box
from riskdp.cuts import CUT_ROW_TOL
from riskdp.risk import RiskSpec, risk_value_and_density


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


def _linear_cost(t, coeffs):
    c = np.zeros(t)
    c[-len(coeffs):] = coeffs
    return model.PwlConvexCost(c.reshape(1, -1), np.zeros(1), dim=1)


def _stage1(cost=1.0, ub=2.0):
    return model.Stage([_payload(1, 1, pieces=_linear_cost(1, [cost]),
                                 ub=np.array([ub]))])


def _newsvendor(risk=None):
    second = [_payload(2, 1, prob=0.5, pieces=_linear_cost(2, [1.0]),
                       g=np.array([[0.0, -1.0, -1.0]]), h=np.array([-d]),
                       lb=np.zeros(1), ub=np.array([10.0]))
              for d in (1.0, 2.0)]
    return model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                         stages=[_stage1(), model.Stage(second, risk=risk or RiskSpec())],
                         lower_value_bound=np.array([0.0]))


def _stochastic_three_stage(risk2=None, risk3=None):
    second = [_payload(2, 1, prob=p, pieces=_linear_cost(2, [0.6]),
                       g=np.array([[0.0, -1.0, -1.0]]), h=np.array([-d]),
                       lb=np.zeros(1), ub=np.array([5.0]))
              for p, d in ((0.4, 0.8), (0.6, 1.6))]
    third = [_payload(3, 1, prob=p, pieces=_linear_cost(3, [1.0]),
                      g=np.array([[0.0, 0.0, -1.0, -1.0]]), h=np.array([-d]),
                      lb=np.zeros(1), ub=np.array([5.0]))
             for p, d in ((0.55, 0.5), (0.45, 1.2))]
    return model.Problem(
        horizon=3, dim=1, x0=np.zeros(1),
        stages=[_stage1(), model.Stage(second, risk=risk2 or RiskSpec()),
                model.Stage(third, risk=risk3 or RiskSpec())],
        lower_value_bound=np.array([0.0, 0.0]))


def test_extensive_form_newsvendor():
    assert oracle.extensive_form_value(_newsvendor()) == pytest.approx(1.5, abs=1e-9)


def test_grid_search_agrees_on_newsvendor():
    def total(x):
        return x[0] + 0.5 * (max(1.0 - x[0], 0.0) + max(2.0 - x[0], 0.0))

    assert grid_minimum(total, [0.0], [2.0]) == pytest.approx(1.5, abs=1e-3)


def test_extensive_form_infeasible_reports_inf():
    second = model.Stage([_payload(
        2, 1, pieces=_linear_cost(2, [1.0]),
        a=[np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]])],
        b=np.array([9.0]), ub=np.array([0.5]))])
    problem = model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                            stages=[_stage1(), second],
                            lower_value_bound=np.array([0.0]))
    assert math.isinf(oracle.extensive_form_value(problem))


def test_extensive_form_covers_risk_averse_specs():
    # min_x x + rho[(d - x)+], d in {1, 2} equally likely: the worst outcome
    # alone gives 2; density caps p_2 <= 1.5 and the 0.5-0.5 mixture both
    # weigh the outcomes 0.25 / 0.75, which gives 1.75 for every x in [0, 1]
    cases = [(RiskSpec(kind="cvar", epsilon=0.5), 2.0),
             (RiskSpec(kind="mixture", lam=0.5, epsilon=0.5), 1.75),
             (RiskSpec(kind="polytope", rows=[(np.array([0.0, 1.0]), 1.5)]), 1.75)]
    for risk, want in cases:
        assert oracle.extensive_form_value(_newsvendor(risk)) == \
            pytest.approx(want, abs=1e-9), risk.kind


def test_nested_decomposition_matches_extensive_form():
    problem = _stochastic_three_stage()
    direct = oracle.extensive_form_value(problem)
    swept = oracle.exact_nested_decomposition(problem)
    assert swept.value == pytest.approx(direct, abs=1e-8)
    assert swept.sweeps < 100


def test_nested_decomposition_pools_one_cut_per_lp_row(monkeypatch):
    made, built = [], []

    class RecordingPoolSet(engine.PoolSet):
        def __init__(self, problem):
            super().__init__(problem)
            made.append(self)

    def counting_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def counting_repeats(self, *args):
        repeats.append(real_repeats(self, *args))
        return repeats[-1]

    # nested decomposition builds its pools and cuts through the engine's driver
    real_build, real_repeats = engine.build_optimality_cut, engine._Driver._repeats_offer
    repeats = []
    monkeypatch.setattr(engine, "PoolSet", RecordingPoolSet)
    monkeypatch.setattr(engine, "build_optimality_cut", counting_build)
    monkeypatch.setattr(engine._Driver, "_repeats_offer", counting_repeats)
    problem = _stochastic_three_stage(
        risk2=RiskSpec(kind="cvar", epsilon=0.5),
        risk3=RiskSpec(kind="mixture", lam=0.3, epsilon=0.4))
    res = oracle.exact_nested_decomposition(problem)
    (pools,) = made
    assert res.n_cuts == n_optimality_cuts(pools) < len(built)
    # one offer per sweep at the stage-1 node and each of its 2 children;
    # a repeat of a cut offered since the pool last grew is not built again
    assert len(built) + sum(repeats) == len(repeats) == 3 * res.sweeps
    for pool in pools.opt.values():
        rows = [(c.beta, c.rhs_const) for c in pool.optimality]
        for i, (beta, rhs) in enumerate(rows):
            for beta2, rhs2 in rows[:i]:
                assert (abs(rhs - rhs2) > CUT_ROW_TOL
                        or np.max(np.abs(beta - beta2)) > CUT_ROW_TOL)


def test_nested_decomposition_tail_risk_value():
    res = oracle.exact_nested_decomposition(
        _newsvendor(RiskSpec(kind="cvar", epsilon=0.5)))
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_reference_value_dispatch():
    assert oracle.reference_value(_newsvendor()) == pytest.approx(1.5, abs=1e-9)
    assert oracle.reference_value(
        _newsvendor(RiskSpec(kind="cvar", epsilon=0.5))) == pytest.approx(2.0, abs=1e-9)


def test_true_recourse_values_on_newsvendor():
    problem = _newsvendor()
    value = oracle.true_recourse_value(problem, 2, np.array([0.5]))
    assert value == pytest.approx(0.5 * 0.5 + 0.5 * 1.5, abs=1e-9)
    averse = _newsvendor(RiskSpec(kind="cvar", epsilon=0.5))
    assert oracle.true_recourse_value(averse, 2, np.array([0.5])) == \
        pytest.approx(1.5, abs=1e-9)
    assert oracle.true_recourse_value(problem, 3, np.array([0.5, 0.5])) == 0.0


@pytest.mark.parametrize("form", ["lattice", "tree"])
@pytest.mark.parametrize("length", [1, 3])
def test_true_recourse_value_checks_the_history_length(form, length):
    # pool 3 of a three-stage lattice and node 2 of its tree twin (a stage-2
    # node) read x_{1:2}: two coordinates
    problem = _stochastic_three_stage()
    key = 3
    if form == "tree":
        problem, key = lattice_to_tree(problem), 2
    with pytest.raises(model.ModelError, match="history must have 2 coordinates"):
        oracle.true_recourse_value(problem, key, np.zeros(length))


@pytest.mark.parametrize("form", ["lattice", "tree"])
def test_true_recourse_value_checks_a_stack_of_histories_once(form):
    # a 1-D history gives a float and a (p, 2) stack p values; a stack whose
    # rows have the wrong width, even one with no rows, raises the 1-D
    # history's error, naming the width of its rows
    problem = _stochastic_three_stage()
    key = 3
    if form == "tree":
        problem, key = lattice_to_tree(problem), 2
    one = oracle.true_recourse_value(problem, key, np.array([0.5, 1.0]))
    assert isinstance(one, float)
    stack = np.array([[0.5, 1.0], [1.0, 0.5], [0.5, 1.0]])
    many = oracle.true_recourse_value(problem, key, stack)
    assert many.shape == (3,) and many[0] == many[2] == one
    assert oracle.true_recourse_value(problem, key, stack.reshape(3, 1, 2)).tolist() == \
        many.tolist()
    for bad, width in ((np.zeros((4, 3)), 3), (np.zeros((2, 1)), 1), (np.zeros((4, 0)), 0),
                       (np.zeros((0, 3)), 3)):
        with pytest.raises(model.ModelError,
                           match=f"^history must have 2 coordinates at stage 3, got {width}$"):
            oracle.true_recourse_value(problem, key, bad)


def test_conditioning_reports_infeasible_history():
    # x2 = x1 then x3 = x2 - 1.5 with x3 in [0, 0.5]
    second = model.Stage([_payload(
        2, 1, pieces=_linear_cost(2, [0.1]),
        a=[np.zeros((1, 1)), np.array([[-1.0]]), np.array([[1.0]])],
        b=np.zeros(1), ub=np.array([2.0]))])
    third = model.Stage([_payload(
        3, 1, pieces=_linear_cost(3, [1.0]),
        a=[np.zeros((1, 1)), np.zeros((1, 1)), np.array([[-1.0]]), np.array([[1.0]])],
        b=np.array([-1.5]), ub=np.array([0.5]))])
    problem = model.Problem(horizon=3, dim=1, x0=np.zeros(1),
                            stages=[_stage1(), second, third],
                            lower_value_bound=np.array([0.0, 0.0]))
    bad = oracle.true_recourse_value(problem, 2, np.array([0.7]))
    assert math.isinf(bad)
    good = oracle.true_recourse_value(problem, 2, np.array([1.6]))
    assert good == pytest.approx(0.1 * 1.6 + 0.1, abs=1e-9)


def test_risk_averse_tail_without_complete_recourse_is_not_called_infeasible():
    # the tail from stage 2 is feasible (x2 = 2, x3 = 0, value 2): the
    # extensive form finds it, while nested decomposition, which has no
    # feasibility cuts, meets x2 < 1 on its way and says so
    problem = make_cvar_without_complete_recourse()
    assert oracle.true_recourse_value(problem, 2, np.array([0.5])) == \
        pytest.approx(2.0, abs=1e-9)
    assert oracle.extensive_form_value(problem) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(oracle.OracleError,
                       match="no feasibility cuts.*--method extensive-form"):
        oracle.nested_decomposition_value(problem)
    # with x2 <= 0.5 no history has a feasible tail: that is +inf, not an error
    hopeless = make_cvar_without_complete_recourse(stage2_ub=0.5)
    assert math.isinf(oracle.true_recourse_value(hopeless, 2, np.array([0.5])))
    assert math.isinf(oracle.extensive_form_value(hopeless))
    assert math.isinf(oracle.nested_decomposition_value(hopeless))


def test_oracle_solves_cold(monkeypatch):
    solves = Counter()
    cold, held = lp.solve, lp.PersistentLp.resolve

    def recording(kind, solve):
        def wrapper(*args):
            solves[kind] += 1
            return solve(*args)
        return wrapper

    monkeypatch.setattr(lp, "solve", recording("cold", cold))
    monkeypatch.setattr(lp.PersistentLp, "resolve", recording("held", held))
    problem = _stochastic_three_stage(RiskSpec(kind="cvar", epsilon=0.5))
    oracle.exact_nested_decomposition(problem)
    oracle.true_recourse_value(problem, 2, np.array([0.5]))
    assert solves["cold"] > 0 and solves["held"] == 0


def test_tree_conditioning_aggregates_children():
    risk = RiskSpec(kind="cvar", epsilon=0.5)
    nodes = [model.Node(id=0, parent=None),
             model.Node(id=1, parent=0, prob=1.0,
                        payload=_payload(1, 1, pieces=_linear_cost(1, [1.0]),
                                         ub=np.array([2.0])),
                        risk=risk)]
    for nid, d in ((2, 1.0), (3, 2.0)):
        nodes.append(model.Node(
            id=nid, parent=1, prob=0.5,
            payload=_payload(2, 1, prob=0.5, pieces=_linear_cost(2, [1.0]),
                             g=np.array([[0.0, -1.0, -1.0]]), h=np.array([-d]),
                             lb=np.zeros(1), ub=np.array([10.0]))))
    tree = model.Problem(horizon=2, dim=1, x0=np.zeros(1), form=model.TREE,
                         nodes=nodes, lower_value_bound=np.array([0.0]))
    value = oracle.true_recourse_value(tree, 1, np.array([0.0]))
    assert value == pytest.approx(2.0, abs=1e-9)  # worst child dominates
    leaf = oracle.true_recourse_value(tree, 3, np.array([0.0, 0.0]))
    assert leaf == 0.0


def _same_node(a, b):
    pa, pb = a.payload, b.payload
    return ((a.id, a.parent, a.prob, a.risk) == (b.id, b.parent, b.prob, b.risk)
            and all(np.array_equal(x, y) for x, y in zip(
                [*pa.a_blocks, pa.b, pa.g, pa.h, pa.cost.pieces_c, pa.cost.pieces_d],
                [*pb.a_blocks, pb.b, pb.g, pb.h, pb.cost.pieces_c, pb.cost.pieces_d])))


def test_lattice_tails_are_the_trees_of_their_recourse():
    # a lattice position's tail is its scenario tree: a valid tree problem,
    # node for node the tail of the position's node in lattice_to_tree's
    # twin, and the extensive forms of a pool's children's tails, aggregated
    # with the pool's risk, are its exact recourse
    rng = np.random.default_rng(41)
    lattice = random_lattice_instance(rng, 4, 2, 2,
                                      risk=RiskSpec(kind="mixture", lam=0.5, epsilon=0.4))
    twin = lattice_to_tree(lattice)
    topo = lattice.topology
    for key in (2, 3, 4):
        lo, hi = _history_box(lattice, key)
        x = rng.uniform(lo, hi)
        values = []
        for kid in topo.children(key):
            tail = oracle.conditioned_problem(lattice, kid, x)
            assert tail.form == model.TREE and model.validate_problem(tail) == []
            # the root, then 2^d nodes at each depth d of a binary tail
            assert len(tail.nodes) == 1 + sum(2 ** d for d in range(5 - key))
            values.append(oracle.extensive_form_value(tail))
            if key == 2:
                twin_tail = oracle.conditioned_subtree(twin, 2 + kid[1], x)
                assert len(tail.nodes) == len(twin_tail.nodes)
                assert all(_same_node(a, b) for a, b in zip(tail.nodes[1:], twin_tail.nodes[1:]))
        want = risk_value_and_density(topo.risk(key), topo.probs(key), np.array(values))[0]
        assert _rel_gap(oracle.true_recourse_value(lattice, key, x), want) <= 1e-9, key


def test_conditioning_on_a_node_applies_to_trees_only():
    lattice = random_lattice_instance(np.random.default_rng(41), 3, 2, 1)
    with pytest.raises(oracle.OracleError, match="tree form"):
        oracle.conditioned_subtree(lattice, (2, 0), np.zeros(1))


def test_nested_decomposition_on_tree_matches_lattice():
    lattice = _newsvendor(RiskSpec(kind="cvar", epsilon=0.5))
    res_l = oracle.exact_nested_decomposition(lattice)
    res_t = engine.run(lattice, engine.RunConfig(max_iters=50, seed=1,
                                                 stall_window=3))
    assert res_t.final_lower_bound == pytest.approx(res_l.value, abs=1e-9)
    twin = lattice_to_tree(lattice)
    assert oracle.exact_nested_decomposition(twin).value == \
        pytest.approx(res_l.value, abs=1e-9)
    # the flattened LP of a risk-neutral lattice and of its explicit tree
    neutral = _stochastic_three_stage()
    assert oracle.extensive_form_value(lattice_to_tree(neutral)) == \
        pytest.approx(oracle.extensive_form_value(neutral), abs=1e-9)
    # a lattice stage pool carries the recourse of every same-stage tree node
    averse = _stochastic_three_stage(
        risk2=RiskSpec(kind="cvar", epsilon=0.5),
        risk3=RiskSpec(kind="mixture", lam=0.5, epsilon=0.4))
    averse_twin = lattice_to_tree(averse)
    rng = np.random.default_rng(5)
    for t in (2, 3):
        nodes = nodes_at_depth(averse_twin, t - 1)
        assert len(nodes) == 2 ** (t - 2)
        for _ in range(3):
            history = rng.uniform(0.0, [2.0, 5.0][:t - 1])
            want = oracle.true_recourse_value(averse, t, history)
            for m in nodes:
                assert oracle.true_recourse_value(averse_twin, m, history) == \
                    pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# nested decomposition: pinned results and the stage-solve memo
# ---------------------------------------------------------------------------

# value, sweeps and pooled cuts of nested decomposition on the criterion-01
# (c01-i) and criterion-02 (c02-i-j) instances, built as test_acceptance's
# fixtures build them, and on the demo instances, as recorded when the cut
# dedup rule became the LP row; solving each distinct stage LP once must not
# move any of them
_C01_GRID = ([(t, m, n) for t in (2, 3, 4) for m in (2, 3) for n in (1, 2, 3)]
             + [(4, 3, 3), (3, 2, 2)])
_C01_ND = [(0.4873112805, 5, 4), (0.4207392721, 4, 3), (0.5303884378, 3, 2),
           (1.054442738, 5, 4), (1.128186822, 2, 1), (1.187524672, 3, 2),
           (0.7379886721, 5, 7), (4.186736998, 2, 2), (2.24726012, 5, 7),
           (0.5604486654, 4, 8), (4.431111587, 4, 7), (2.685140159, 2, 3),
           (1.142946997, 3, 6), (2.84816003, 2, 4), (4.909738829, 4, 9),
           (1.496083533, 6, 21), (2.907172816, 5, 16), (3.562324168, 7, 29),
           (4.382271127, 5, 21), (4.844087776, 4, 6)]
_C02_CONFIGS = [(2, 2, 1), (3, 2, 2), (3, 3, 1), (4, 2, 1), (2, 3, 3), (3, 2, 1)]
_C02_RISKS = [RiskSpec(kind="cvar", epsilon=0.25), RiskSpec(kind="cvar", epsilon=0.5),
              RiskSpec(kind="mixture", lam=0.3, epsilon=0.25),
              RiskSpec(kind="mixture", lam=0.6, epsilon=0.5)]
_C02_ND = [(0.787330661, 5, 4), (0.8186886561, 2, 1), (2.776680511, 4, 6),
           (2.341229118, 2, 3), (1.311782859, 6, 11), (0.6570039155, 2, 4),
           (1.485435411, 3, 5), (1.279549862, 2, 5), (2.30793638, 2, 1),
           (1.265218077, 2, 1), (0.8140457085, 3, 5), (0.8059122066, 4, 6)]
_DEMO_ND = {"demand_tree": (2.106666667, 3, 4), "inventory_mixture": (1.44, 3, 3),
            "newsvendor": (1.5, 3, 2)}
_DEMO_INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"


def _pinned_nd_cases():
    for i, (t_end, m, n) in enumerate(_C01_GRID):
        yield (f"c01-{i}", random_lattice_instance(np.random.default_rng(1000 + i), t_end, m, n),
               _C01_ND[i])
    pinned = iter(_C02_ND)
    for i, (t_end, m, n) in enumerate(_C02_CONFIGS):
        for j, risk in enumerate(_C02_RISKS[:2] if i % 2 else _C02_RISKS[2:]):
            rng = np.random.default_rng(5000 + 10 * i + j)
            yield (f"c02-{i}-{j}", random_lattice_instance(rng, t_end, m, n, risk=risk),
                   next(pinned))
    for name, want in _DEMO_ND.items():
        yield name, io.load_problem(_DEMO_INSTANCES / f"{name}.json"), want


@pytest.fixture(scope="module")
def pinned_nd():
    """The pinned cases with their nested decomposition results, solved once."""
    return [(name, problem, want, oracle.exact_nested_decomposition(problem))
            for name, problem, want in _pinned_nd_cases()]


def test_nested_decomposition_results_are_pinned(pinned_nd):
    for name, _, (value, sweeps, n_cuts), res in pinned_nd:
        assert abs(res.value - value) <= 1e-9, name
        assert (res.sweeps, res.n_cuts) == (sweeps, n_cuts), name


def _three_stage_lattice():
    return random_lattice_instance(np.random.default_rng(9), 3, 3, 2,
                                   risk=RiskSpec(kind="cvar", epsilon=0.4))


@pytest.mark.parametrize("form", ["lattice", "tree"])
def test_reused_stage_solves_equal_fresh_cold_solves(form, monkeypatch):
    problem = _three_stage_lattice()
    if form == "tree":
        problem = lattice_to_tree(problem)
    solved, answered = [], []
    solve_node = engine.solve_node
    memo_solve = engine._Driver._solve

    def counting(*args, **kwargs):
        solved.append(1)
        return solve_node(*args, **kwargs)

    def checked(self, where, history):
        # every answer, reused or not, is what a fresh cold solve of the same
        # LP (position, history, current pool rows) returns, bit for bit
        ns = memo_solve(self, where, history)
        fresh = solve_node(self.problem, where, history, self.pools)
        assert ns.value == fresh.value and ns.duals.pivots == fresh.duals.pivots
        for got, want in ((ns.x, fresh.x), (ns.pi, fresh.pi),
                          (ns.duals.dual_eq, fresh.duals.dual_eq),
                          (ns.duals.dual_ineq, fresh.duals.dual_ineq)):
            assert got.tobytes() == want.tobytes()
        answered.append(1)
        return ns

    monkeypatch.setattr(engine, "solve_node", counting)
    monkeypatch.setattr(engine._Driver, "_solve", checked)
    res = oracle.exact_nested_decomposition(problem)
    # without the memo each sweep solves every scenario-tree node forward,
    # its children again backward (all nodes but the stage-1 one) and the
    # stage-1 node once more for the value
    every = 2 * len(problem.topology.scenarios()) * res.sweeps
    assert res.lps + res.lps_reused == len(answered) == every
    assert res.lps == len(solved) < every
    assert res.lps_reused > 0


# ---------------------------------------------------------------------------
# the nested-risk extensive form against nested decomposition
# ---------------------------------------------------------------------------

def _node_cvar_tree(rng, branching=3):
    """A tree of the perfbench ``tree-cvar`` shape: every inner node its own CVaR level."""
    tree = lattice_to_tree(random_lattice_instance(rng, 3, branching, 2))
    for node in tree.nodes:
        if node.parent is not None and tree.children(node.id):
            node.risk = RiskSpec(kind="cvar", epsilon=float(rng.uniform(0.3, 0.9)))
    return tree


def _differential_cases():
    """Instances beyond the pinned ones: perfbench shapes, a polytope spec, tree twins."""
    mixture = random_lattice_instance(np.random.default_rng(21), 3, 3, 4)
    mixture.stages[1].risk = RiskSpec(kind="mixture", lam=0.5, epsilon=0.25)
    polytope = random_lattice_instance(
        np.random.default_rng(22), 3, 3, 2,
        risk=RiskSpec(kind="polytope", rows=[(np.array([1.0, 0.0, 0.0]), 1.5),
                                             (np.array([0.0, 1.0, 1.0]), 2.2)]))
    averse = _stochastic_three_stage(
        risk2=RiskSpec(kind="cvar", epsilon=0.5),
        risk3=RiskSpec(kind="mixture", lam=0.5, epsilon=0.4))
    return [("lattice-mixture-shape", mixture),
            ("tree-cvar-shape", _node_cvar_tree(np.random.default_rng(23))),
            ("polytope", polytope), ("polytope-tree", lattice_to_tree(polytope)),
            ("averse-tree", lattice_to_tree(averse)),
            ("c02-1-0-tree", lattice_to_tree(random_lattice_instance(
                np.random.default_rng(5010), 3, 2, 2, risk=_C02_RISKS[0])))]


def _rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(b))


def test_extensive_form_matches_nested_decomposition(pinned_nd):
    cases = [(name, problem, res.value) for name, problem, _, res in pinned_nd]
    cases += [(name, problem, oracle.exact_nested_decomposition(problem).value)
              for name, problem in _differential_cases()]
    assert len(cases) == 41
    for name, problem, nd_value in cases:
        assert _rel_gap(oracle.extensive_form_value(problem), nd_value) <= 1e-9, name


def test_true_recourse_value_matches_nested_decomposition_per_child():
    rng = np.random.default_rng(31)
    checked = 0
    for name, problem in _differential_cases():
        topo = problem.topology
        for key in topo.keys:
            if topo.terminal(key):
                continue
            lo, hi = _history_box(problem, key)
            for x in rng.uniform(lo, hi, size=(3, lo.shape[0])):
                want = nd_true_recourse_value(problem, key, x)
                got = oracle.true_recourse_value(problem, key, x)
                assert _rel_gap(got, want) <= 1e-9, (name, key)
                checked += 1
    assert checked == 54


# ---------------------------------------------------------------------------
# the HiGHS model against scipy's linprog
# ---------------------------------------------------------------------------

@pytest.fixture()
def dense_blocks(monkeypatch):
    """Record each ``_NestedRiskLp``'s column bounds and dense row blocks as they are added.

    The record, ``lp.dense``, is what the oracle asks for, before
    :meth:`oracle._NestedRiskLp.rows` drops any zero: the references below
    build their matrices from it.  Each block is kept row by row: its
    column map, shared by every row or one row per block row, is stored as
    one column list per row, and its ``first``, one for the block or one
    per row, as one parameter offset per row.
    """
    columns, rows = oracle._NestedRiskLp.columns, oracle._NestedRiskLp.rows

    def record(lp):
        return lp.__dict__.setdefault("dense", {"lower": [], "upper": [], False: [], True: []})

    def recording_columns(self, k, lower=None, upper=None):
        record(self)["lower"].append(np.full(k, -np.inf if lower is None else lower))
        record(self)["upper"].append(np.full(k, np.inf if upper is None else upper))
        return columns(self, k, lower, upper)

    def recording_rows(self, cols, block, rhs, eq=False, hist=None, first=0):
        block, rhs = np.atleast_2d(block), np.atleast_1d(rhs)
        record(self)[eq].append((np.broadcast_to(cols, block.shape), block, rhs,
                                 np.zeros((rhs.shape[0], 0)) if hist is None else hist,
                                 np.broadcast_to(first, rhs.shape)))
        return rows(self, cols, block, rhs, eq, hist, first)

    monkeypatch.setattr(oracle._NestedRiskLp, "columns", recording_columns)
    monkeypatch.setattr(oracle._NestedRiskLp, "rows", recording_rows)


def _dense_rows(lp, eq):
    """The dense matrix, right-hand side and history coefficients of one row kind of ``lp``.

    Each row's entries sit in the columns of its own column list, and its
    history coefficients in the parameter entries from its own ``first``
    on; every other entry is zero.
    """
    blocks = lp.dense[eq]
    a = np.zeros((sum(b.shape[0] for _, b, _, _, _ in blocks), lp.ncols))
    rhs = np.empty(a.shape[0])
    hist = np.zeros((a.shape[0], lp.k))
    i = 0
    for cols, block, r, h, first in blocks:
        for row, (c, values, offset, coeffs) in enumerate(zip(cols, block, first, h), start=i):
            assert np.unique(c).shape == c.shape  # no column named twice in a row
            a[row, c] = values
            hist[row, offset:offset + h.shape[1]] = coeffs
        rhs[i:i + block.shape[0]] = r
        i += block.shape[0]
    return a, rhs, hist


def _linprog_minimize(self, cols, histories):
    """:meth:`oracle._NestedRiskLp.minimize` by one cold ``linprog`` solve per history.

    Each solve minimises the sum of the columns ``cols`` and reads each
    column's value; an infeasible history gives ``+inf`` in every column.
    """
    values = []
    for history in histories:
        stacked = {}
        for eq in (False, True):
            a, rhs, hist = _dense_rows(self, eq)
            stacked[eq] = a, rhs - hist @ history
        c = np.zeros(self.ncols)
        c[cols] = 1.0
        bounds = np.column_stack([np.concatenate(self.dense["lower"]),
                                  np.concatenate(self.dense["upper"])])
        res = scipy.optimize.linprog(c, *stacked[False], *stacked[True], bounds=bounds,
                                     method="highs", options=oracle.HIGHS_OPTIONS)
        assert res.status in (0, 2), res.message
        values.append(res.x[cols] if res.status == 0 else np.full(len(cols), math.inf))
    return np.array(values).reshape(len(values), len(cols))


def _assert_agree(got, want, name):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isinf(got), np.isinf(want)), name
    for g, w in zip(got[np.isfinite(want)], want[np.isfinite(want)]):
        assert _rel_gap(g, w) <= 1e-9, name


def _recourse_cases():
    """Both forms of an instance without complete recourse, and of one with no feasible tail."""
    cases = []
    for name, problem in (("no-rcr", make_cvar_without_complete_recourse()),
                          ("hopeless", make_cvar_without_complete_recourse(stage2_ub=0.5))):
        cases += [(name, problem), (f"{name}-tree", lattice_to_tree(problem))]
    return cases


def test_layered_models_match_the_per_node_models():
    # the layered build against the per-node one it replaced (tests/checks.py),
    # on the extensive form and on every pool at six histories, all pools of
    # an instance in one model.  The four-stage lattice and its tree give one
    # model three fold lengths and pools at three parameter offsets; the
    # instances without complete recourse give +inf points and the pool by
    # pool fallback
    four = random_lattice_instance(np.random.default_rng(71), 4, 2, 2,
                                   risk=RiskSpec(kind="mixture", lam=0.5, epsilon=0.4))
    cases = [(name, problem) for name, problem, _ in _pinned_nd_cases()]
    cases += _differential_cases() + _recourse_cases()
    cases += [("four-stage", four), ("four-stage-tree", lattice_to_tree(four))]
    rng = np.random.default_rng(73)
    checked = Counter()
    for name, problem in cases:
        _assert_agree([oracle.extensive_form_value(problem)],
                      [per_node_extensive_form_value(problem)], name)
        topo = problem.topology
        stacks = {}
        for key in topo.keys:
            lo, hi = _history_box(problem, key)
            stacks[key] = rng.uniform(lo, hi, size=(6, lo.shape[0]))
        joint = oracle.true_recourse_values(problem, stacks)
        for key, h in stacks.items():
            _assert_agree(joint[key], per_node_recourse_value(problem, key, h), (name, key))
            checked["+inf" if np.isinf(joint[key]).any() else "finite"] += 1
    assert len(cases) == 47
    assert checked["+inf"] >= 4 and checked["finite"] >= 150, checked


ORACLE_VALUES = """
import sys
import numpy as np
from riskdp import io, oracle

for path in sys.argv[1:]:
    problem = io.load_problem(path)
    stacks = {int(key): stack for key, stack in np.load(path + ".npz").items()}
    values = oracle.true_recourse_values(problem, stacks)
    print(repr(oracle.extensive_form_value(problem)),
          repr({key: values[key].tolist() for key in sorted(values)}))
assert "scipy.optimize" not in sys.modules
"""


def test_directly_loaded_binding_gives_the_same_values(tmp_path):
    # a new interpreter loads the HiGHS binding on its own; this one reached
    # it through scipy.optimize.  Both must print the same values, digit for
    # digit, from the same files
    rng = np.random.default_rng(75)
    paths = []
    for name, problem in _differential_cases()[:4] + _recourse_cases():
        path = tmp_path / f"{name}.json"
        io.save_problem(problem, path)
        stacks = {}
        for key in problem.topology.keys:
            lo, hi = _history_box(problem, key)
            stacks[str(key)] = rng.uniform(lo, hi, size=(4, lo.shape[0]))
        np.savez(f"{path}.npz", **stacks)
        paths.append(str(path))
    assert "scipy.optimize" in sys.modules
    fresh = run_fresh(ORACLE_VALUES, *paths)
    here = []
    for path in paths:
        problem = io.load_problem(path)
        stacks = {int(key): stack for key, stack in np.load(path + ".npz").items()}
        values = oracle.true_recourse_values(problem, stacks)
        values = {key: values[key].tolist() for key in sorted(values)}
        here.append(f"{oracle.extensive_form_value(problem)!r} {values!r}")
    assert fresh.splitlines() == here
    assert "inf" in fresh


def test_layered_model_grows_with_layers_not_nodes(monkeypatch):
    # the all-pool model of a three-stage node-CVaR tree has as many row
    # blocks at 2, 3 and 4 branches (7, 13 and 21 tree nodes): one per kind
    # of row for each of its three groups of nodes, and the CVaR rows of
    # every node and pool as one batch
    built = []
    minimize = oracle._NestedRiskLp.minimize

    def recording(self, cols, histories):
        built.append(self)
        return minimize(self, cols, histories)

    monkeypatch.setattr(oracle._NestedRiskLp, "minimize", recording)
    n_blocks, n_cols = [], []
    for branching in (2, 3, 4):
        tree = _node_cvar_tree(np.random.default_rng(81), branching)
        topo = tree.topology
        stacks = {}
        for key in topo.keys:
            lo, hi = _history_box(tree, key)
            stacks[key] = np.atleast_2d((lo + hi) / 2)
        built.clear()
        oracle.true_recourse_values(tree, stacks)
        (lp,) = built
        n_blocks.append(len(lp.blocks[False]) + len(lp.blocks[True]))
        n_cols.append(lp.ncols)
    assert n_blocks == [n_blocks[0]] * 3
    assert n_cols[0] < n_cols[1] < n_cols[2]


@pytest.mark.filterwarnings("error")
def test_highs_model_matches_linprog_on_extensive_forms(dense_blocks, monkeypatch):
    cases = [(name, problem) for name, problem, _ in _pinned_nd_cases()]
    cases += _differential_cases() + _recourse_cases()
    got = [oracle.extensive_form_value(problem) for _, problem in cases]
    monkeypatch.setattr(oracle._NestedRiskLp, "minimize", _linprog_minimize)
    for (name, problem), value in zip(cases, got):
        _assert_agree([value], [oracle.extensive_form_value(problem)], name)
    assert [math.isinf(v) for v in got[-4:]] == [False, False, True, True]


@pytest.mark.filterwarnings("error")
def test_highs_model_matches_linprog_on_audited_histories(dense_blocks, monkeypatch):
    # one model per pool, re-solved from its last basis along the stack of
    # histories, against a cold linprog solve per history.  The stage-2 pool
    # of the instance without complete recourse has +inf recourse for
    # x2 < 1, so its last stack alternates between infinite and finite
    rng = np.random.default_rng(41)
    stacks = []
    for name, problem in _differential_cases() + _recourse_cases():
        topo = problem.topology
        for key in topo.keys:
            if not topo.terminal(key):
                lo, hi = _history_box(problem, key)
                x = rng.uniform(lo, hi, size=(6, lo.shape[0]))
                stacks.append((name, problem, key, x))
    no_rcr = make_cvar_without_complete_recourse()
    mixed = np.array([[0.3, x2] for x2 in (0.2, 1.5, 0.8, 2.0, 0.99, 1.0)])
    stacks += [("no-rcr", no_rcr, 3, mixed), ("no-rcr-tree", lattice_to_tree(no_rcr), 2, mixed)]
    got = [oracle.true_recourse_value(problem, key, h) for _, problem, key, h in stacks]
    for (name, problem, key, h), values in zip(stacks, got):
        assert values.shape == (h.shape[0],)
        _assert_agree(values, [oracle.true_recourse_value(problem, key, x) for x in h],
                      (name, key))
        if name.startswith("hopeless"):
            assert np.isinf(values).all(), (name, key)
    monkeypatch.setattr(oracle._NestedRiskLp, "minimize", _linprog_minimize)
    for (name, problem, key, h), values in zip(stacks, got):
        _assert_agree(values, oracle.true_recourse_value(problem, key, h), (name, key))
    assert [list(np.isinf(values)) for values in got[-2:]] == [[True, False] * 3] * 2


def test_joint_recourse_values_match_each_pool_alone(monkeypatch):
    # every pool of an instance in one model against each pool's own model,
    # at six histories per pool.  On the instances without complete recourse
    # the pool that reads x2 also gets the stack that alternates between
    # x2 < 1 (+inf) and x2 >= 1; there the joint model is infeasible and each
    # pool is solved again on its own, so the pool that reads x1 stays
    # finite on "no-rcr", and the x2 pool turns finite on "hopeless", whose
    # x1 pool is +inf at every history
    models = Counter()

    class Counting(highs_core._Highs):
        def passModel(self, *args):
            models["passed"] += 1
            return super().passModel(*args)

    monkeypatch.setattr(highs_core, "_Highs", Counting)
    rng = np.random.default_rng(47)
    mixed = np.array([[0.3, x2] for x2 in (0.2, 1.5, 0.8, 2.0, 0.99, 1.0)])
    checked = Counter()
    for name, problem in _differential_cases() + _recourse_cases():
        topo = problem.topology
        stacks = {}
        for key in topo.keys:
            lo, hi = _history_box(problem, key)
            stacks[key] = rng.uniform(lo, hi, size=(6, lo.shape[0]))
        runs = [stacks]
        if name.startswith(("no-rcr", "hopeless")):
            x2_key, = [key for key in topo.keys if topo.arg_dim(key) == 2]
            runs.append(stacks | {x2_key: mixed})
        for run in runs:
            models.clear()
            joint = oracle.true_recourse_values(problem, run)
            inner = [key for key in run if not topo.terminal(key)]
            fallback = models["passed"] > 1
            assert models["passed"] == 1 + len(inner) * fallback
            assert list(joint) == list(run)
            for key, h in run.items():
                assert joint[key].shape == (6,)
                _assert_agree(joint[key], oracle.true_recourse_value(problem, key, h), (name, key))
                checked["finite" if np.isfinite(joint[key]).all() else "+inf"] += 1
            checked["fallback"] += fallback
            if run is not stacks:
                other, = (key for key in inner if key != x2_key)
                assert np.isinf(joint[x2_key]).tolist() == [True, False] * 3, name
                assert np.isinf(joint[other]).tolist() == [name.startswith("hopeless")] * 6, name
    assert checked["fallback"] >= 6 and checked["+inf"] >= 8 and checked["finite"] >= 50, checked


def test_highs_runs_the_dual_simplex_without_presolve_at_tight_tolerances(monkeypatch):
    # one model, re-solved per history: presolve off, the dual simplex, and
    # feasibility tolerances of 1e-10, on the extensive form and an audit
    seen = []

    class Recording(highs_core._Highs):
        def run(self):
            seen.append(tuple(self.getOptionValue(key)[1] for key in (
                "presolve", "simplex_strategy", "primal_feasibility_tolerance",
                "dual_feasibility_tolerance", "output_flag")))
            return super().run()

    monkeypatch.setattr(highs_core, "_Highs", Recording)
    oracle.extensive_form_value(_newsvendor())
    oracle.true_recourse_value(_newsvendor(), 2, np.array([[0.5], [0.7]]))
    dual = int(highs_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    assert seen == [("off", dual, 1e-10, 1e-10, False)] * 3


def test_other_highs_statuses_are_oracle_errors(monkeypatch):
    class OutOfTime(highs_core._Highs):
        def getModelStatus(self):
            return highs_core.HighsModelStatus.kTimeLimit

    monkeypatch.setattr(highs_core, "_Highs", OutOfTime)
    with pytest.raises(oracle.OracleError, match="Time limit reached"):
        oracle.true_recourse_value(_newsvendor(), 2, np.array([0.5]))


def test_missing_highs_binding_is_an_oracle_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    monkeypatch.delattr(sys.modules["scipy.optimize._highspy"], "_core")
    with pytest.raises(oracle.OracleError, match=r"scipy\.optimize\._highspy\._core"):
        oracle.extensive_form_value(_newsvendor())


def _rowwise_dense(matrix):
    """The dense matrix a row-wise ``HighsSparseMatrix``'s ``start_``/``index_``/``value_`` hold."""
    start, index, value = (np.asarray(matrix.start_), np.asarray(matrix.index_),
                           np.asarray(matrix.value_))
    assert start.shape == (matrix.num_row_ + 1,) and start[0] == 0
    assert np.all(np.diff(start) >= 0) and start[-1] == index.shape[0] == value.shape[0]
    a = np.zeros((matrix.num_row_, matrix.num_col_))
    for i in range(matrix.num_row_):
        cols = index[start[i]:start[i + 1]]
        assert np.unique(cols).shape == cols.shape  # no entry given twice
        a[i, cols] = value[start[i]:start[i + 1]]
    assert np.count_nonzero(value) == value.shape[0]  # no explicit zero
    return a


def test_rowwise_highs_model_is_the_block_matrix(dense_blocks, monkeypatch):
    # the model handed to HiGHS, read back entry for entry, against the dense
    # matrix that stacking the blocks gives: an extensive form, every inner
    # pool model of the differential cases and each case's joint model of
    # all its pools, each pool's rows reading its own slice of the history,
    # and a small LP with an empty row and an empty column
    built = []
    model_of = oracle._NestedRiskLp._model

    def recording(self, core, cols):
        out = model_of(self, core, cols)
        built.append((self, cols, out))
        return out

    monkeypatch.setattr(oracle._NestedRiskLp, "_model", recording)
    small = oracle._NestedRiskLp()
    small.k = 1  # a one-entry history parameter
    cols = small.columns(3, lower=0.0)
    small.rows(cols[[2, 0]], [[1.0, -2.0], [0.0, 0.0]], [1.0, 2.0], hist=np.array([[1.0], [0.5]]))
    small.rows(cols[:1], [[2.0]], 3.0, eq=True)
    small.minimize([int(cols[0])], np.zeros((1, 1)))
    rng = np.random.default_rng(43)
    cases = _differential_cases()
    oracle.extensive_form_value(cases[0][1])
    pools = 0
    for _, problem in cases:
        topo = problem.topology
        stacks = {}
        for key in topo.keys:
            if not topo.terminal(key):
                lo, hi = _history_box(problem, key)
                stacks[key] = rng.uniform(lo, hi, size=(1, lo.shape[0]))
                oracle.true_recourse_value(problem, key, stacks[key][0])
                pools += 1
        oracle.true_recourse_values(problem, stacks)  # every pool side by side
    assert len(built) == 2 + pools + len(cases)
    for lp, col, (model, n_ub, rhs, hist) in built:
        a_ub, rhs_ub, hist_ub = _dense_rows(lp, False)
        a_eq, rhs_eq, hist_eq = _dense_rows(lp, True)
        want = np.vstack([a_ub, a_eq])
        matrix = model.a_matrix_
        assert matrix.format_ == highs_core.MatrixFormat.kRowwise
        assert (matrix.num_row_, matrix.num_col_) == (model.num_row_, model.num_col_)
        assert (model.num_row_, model.num_col_) == want.shape
        assert np.array_equal(_rowwise_dense(matrix), want)
        assert n_ub == a_ub.shape[0]
        assert np.array_equal(rhs, np.concatenate([rhs_ub, rhs_eq]))
        assert np.array_equal(hist, np.vstack([hist_ub, hist_eq]))
        assert np.array_equal(model.row_upper_, rhs)
        assert np.array_equal(model.row_lower_, np.concatenate([np.full(n_ub, -np.inf),
                                                                rhs_eq]))
        assert np.array_equal(model.col_lower_, np.concatenate(lp.dense["lower"]))
        assert np.array_equal(model.col_upper_, np.concatenate(lp.dense["upper"]))
        assert np.array_equal(model.col_cost_, np.eye(lp.ncols)[col].sum(axis=0))
    a = _rowwise_dense(built[0][2][0].a_matrix_)
    assert built[0][0] is small and a.shape == (3, 3)
    assert np.flatnonzero(~a.any(axis=1)).tolist() == [1]  # a zero row
    assert np.flatnonzero(~a.any(axis=0)).tolist() == [1]  # a column in no row
