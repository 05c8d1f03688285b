"""Tests for the sampled decomposition drivers."""

import logging
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from checks import (build_stage_lp_by_stacking, check_subgradient, iterate_by_loop,
                    n_feasibility_cuts, nested_decomposition_by_loop,
                    simplex_arrays_by_stacking)
from conftest import (lattice_to_tree, make_chain_instance, make_cvar_without_complete_recourse,
                      make_feasibility_instance, make_newsvendor, random_lattice_instance)
from riskdp import cuts, engine, io, lp, model, oracle
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


def _linear_cost(t, coeffs):
    c = np.zeros(t)
    c[-len(coeffs):] = coeffs
    return model.PwlConvexCost(c.reshape(1, -1), np.zeros(1), dim=1)


def _stage1(cost=1.0, ub=2.0):
    return model.Stage([_payload(1, 1, pieces=_linear_cost(1, [cost]),
                                 ub=np.array([ub]))])


def _newsvendor(risk=None):
    """min_x x + rho[ (d - x)+ ] with d in {1, 2} equally likely."""
    second = [_payload(2, 1, prob=0.5, pieces=_linear_cost(2, [1.0]),
                       g=np.array([[0.0, -1.0, -1.0]]), h=np.array([-d]),
                       lb=np.zeros(1), ub=np.array([10.0]))
              for d in (1.0, 2.0)]
    return model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                         stages=[_stage1(), model.Stage(second, risk=risk or RiskSpec())],
                         lower_value_bound=np.array([0.0]))


def _cfg(**kw):
    base = dict(algorithm="alg1", max_iters=60, seed=7, stall_window=3,
                stall_tol=1e-9)
    base.update(kw)
    return engine.RunConfig(**base)


def test_deterministic_instance_stalls_at_second_iteration():
    second = model.Stage([_payload(2, 1, pieces=_linear_cost(2, [1.0]),
                                   g=np.array([[0.0, -1.0, -1.0]]),
                                   h=np.array([-1.0]), ub=np.array([10.0]))])
    problem = model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                            stages=[_stage1(), second],
                            lower_value_bound=np.array([0.0]))
    res = engine.run(problem, _cfg(stall_window=1, stall_tol=0.0))
    assert res.status == engine.STATUS_STALL
    assert res.iters == 2
    assert res.reports[0].lower_bound == pytest.approx(0.0, abs=1e-12)
    assert res.reports[1].lower_bound == pytest.approx(1.0, abs=1e-9)
    assert res.final_lower_bound == pytest.approx(1.0, abs=1e-9)


def test_newsvendor_expectation_converges():
    res = engine.run(_newsvendor(), _cfg())
    assert res.status == engine.STATUS_STALL
    assert res.iters <= 10
    assert res.final_lower_bound == pytest.approx(1.5, abs=1e-9)
    again = engine.run(_newsvendor(), _cfg())
    assert [r.lower_bound for r in again.reports] == [r.lower_bound for r in res.reports]
    assert all(np.array_equal(a.x1, b.x1) for a, b in zip(again.reports, res.reports))


def test_newsvendor_tail_risk_converges():
    res = engine.run(_newsvendor(RiskSpec(kind="cvar", epsilon=0.5)), _cfg())
    assert res.final_lower_bound == pytest.approx(2.0, abs=1e-9)


def test_mixture_matches_equivalent_density_polytope():
    # (1 - lam) * E + lam * CVaR_eps: densities between 1 - lam and
    # 1 - lam + lam / eps; lam != 1/2 tells the weight of the tail apart
    lam, eps = 0.3, 0.5
    mix = RiskSpec(kind="mixture", epsilon=eps, lam=lam)
    floor = 1.0 - lam
    cap = floor + lam / eps
    rows = []
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        rows.append((e.copy(), cap))       # density ceiling
        rows.append((-e, -floor))          # density floor
    poly = RiskSpec(kind="polytope", rows=rows)
    res_mix = engine.run(_newsvendor(mix), _cfg())
    res_poly = engine.run(_newsvendor(poly), _cfg())
    assert res_mix.final_lower_bound == pytest.approx(
        res_poly.final_lower_bound, abs=1e-12)


def test_three_stage_chain_both_timings():
    # x2 >= 1 - x1 at cost 0.5 x2, then x3 >= 1.5 - x1 - x2 at cost x3;
    # pushing x2 to 1.5 is optimal: total 0.75
    second = model.Stage([_payload(2, 1, pieces=_linear_cost(2, [0.5]),
                                   g=np.array([[0.0, -1.0, -1.0]]),
                                   h=np.array([-1.0]), ub=np.array([2.0]))])
    third = model.Stage([_payload(3, 1, pieces=_linear_cost(3, [1.0]),
                                  g=np.array([[0.0, -1.0, -1.0, -1.0]]),
                                  h=np.array([-1.5]), ub=np.array([10.0]))])
    problem = model.Problem(horizon=3, dim=1, x0=np.zeros(1),
                            stages=[_stage1(), second, third],
                            lower_value_bound=np.array([0.0, 0.0]))
    for timing in ("backward", "forward"):
        res = engine.run(problem, _cfg(cut_timing=timing))
        assert res.status == engine.STATUS_STALL
        assert res.final_lower_bound == pytest.approx(0.75, abs=1e-9)
        bounds = [r.lower_bound for r in res.reports]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))


def test_iteration_limit_status():
    res = engine.run(_newsvendor(), _cfg(max_iters=1))
    assert res.status == engine.STATUS_ITER_LIMIT
    assert res.iters == 1
    assert res.final_lower_bound == pytest.approx(1.5, abs=1e-9)
    assert res.reports[0].lower_bound == pytest.approx(0.0, abs=1e-12)


def _single_feas_instance(stage1_ub=2.0):
    # x1 + x2 = 1.5 with x2 in [0, 0.5] forces x1 >= 1; total cost is 1.5
    second = model.Stage([_payload(
        2, 1, pieces=_linear_cost(2, [1.0]),
        a=[np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]])],
        b=np.array([1.5]), lb=np.zeros(1), ub=np.array([0.5]))])
    return model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                         stages=[_stage1(ub=stage1_ub), second],
                         lower_value_bound=np.array([0.0]))


def test_feasibility_cut_recovers_hand_instance():
    res = engine.run(_single_feas_instance(), _cfg(algorithm="alg2"))
    assert res.status == engine.STATUS_STALL
    assert res.final_lower_bound == pytest.approx(1.5, abs=1e-9)
    pool = res.pools.opt[2]
    assert len(pool.feasibility) == 1
    cut = pool.feasibility[0]
    assert np.allclose(cut.beta_tilde, [-1.0], atol=1e-9)
    assert cut.theta_tilde == pytest.approx(-1.0, abs=1e-9)
    first = res.reports[0]
    assert first.backtracks == 1
    assert first.cuts_feas == {2: 1}
    assert all(r.cuts_feas == {} for r in res.reports[1:])


def _chain_instance(stage1_ub=2.0):
    # x2 = x1, then x3 = x2 - 1.5 with x3 in [0, 0.5]: feasibility must
    # propagate x2 >= 1.5 and then x1 >= 1.5 through two backtracking steps
    second = model.Stage([_payload(
        2, 1, pieces=_linear_cost(2, [0.1]),
        a=[np.zeros((1, 1)), np.array([[-1.0]]), np.array([[1.0]])],
        b=np.zeros(1), lb=np.zeros(1), ub=np.array([2.0]))])
    third = model.Stage([_payload(
        3, 1, pieces=_linear_cost(3, [1.0]),
        a=[np.zeros((1, 1)), np.zeros((1, 1)), np.array([[-1.0]]), np.array([[1.0]])],
        b=np.array([-1.5]), lb=np.zeros(1), ub=np.array([0.5]))])
    return model.Problem(horizon=3, dim=1, x0=np.zeros(1),
                         stages=[_stage1(ub=stage1_ub), second, third],
                         lower_value_bound=np.array([0.0, 0.0]))


def test_backtracking_chains_through_two_stages():
    problem = _chain_instance()
    with pytest.raises(engine.EngineError):
        engine.run(problem, _cfg())  # without feasibility cuts a solve fails
    res = engine.run(problem, _cfg(algorithm="alg2"))
    assert res.status == engine.STATUS_STALL
    # x1 = 1.5 pinned: cost 1.5 + 0.1 * 1.5 + 0 = 1.65
    assert res.final_lower_bound == pytest.approx(1.65, abs=1e-9)
    first = res.reports[0]
    assert first.backtracks == 2
    assert first.cuts_feas == {3: 1, 2: 1}
    assert len(res.pools.opt[3].feasibility) == 1
    assert len(res.pools.opt[2].feasibility) == 1


def test_infeasible_instance_detected_at_first_iteration():
    res = engine.run(_chain_instance(stage1_ub=1.4), _cfg(algorithm="alg2"))
    assert res.status == engine.STATUS_INFEASIBLE
    assert res.iters == 1
    assert res.reports == []
    assert res.final_lower_bound is None


def test_alg2_matches_alg1_with_complete_recourse():
    # x1 + x2 = 2 with a wide x2 box never triggers the gates
    second = model.Stage([_payload(
        2, 1, pieces=_linear_cost(2, [1.0]),
        a=[np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]])],
        b=np.array([2.0]), lb=np.zeros(1), ub=np.array([3.0]))])
    problem = model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                            stages=[_stage1(), second],
                            lower_value_bound=np.array([0.0]))
    res1 = engine.run(problem, _cfg())
    res2 = engine.run(problem, _cfg(algorithm="alg2"))
    assert n_feasibility_cuts(res2.pools) == 0
    assert [r.lower_bound for r in res1.reports] == [r.lower_bound for r in res2.reports]
    assert res1.final_lower_bound == res2.final_lower_bound
    assert all(r.backtracks == 0 for r in res2.reports)


def _newsvendor_tree(risk=None):
    risk = risk or RiskSpec()
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
    return model.Problem(horizon=2, dim=1, x0=np.zeros(1), form=model.TREE,
                         nodes=nodes, lower_value_bound=np.array([0.0]))


@pytest.mark.parametrize("risk", [RiskSpec(), RiskSpec(kind="cvar", epsilon=0.5)])
def test_tree_driver_matches_lattice_on_equivalent_instance(risk):
    lattice = _newsvendor(risk)
    tree = _newsvendor_tree(risk)
    res_l = engine.run(lattice, _cfg())
    res_t = engine.run(tree, _cfg(algorithm="alg3"))
    assert res_t.status == res_l.status
    assert res_t.iters == res_l.iters
    bounds_l = [r.lower_bound for r in res_l.reports]
    bounds_t = [r.lower_bound for r in res_t.reports]
    assert bounds_t == pytest.approx(bounds_l, abs=1e-12)
    assert res_t.final_lower_bound == pytest.approx(res_l.final_lower_bound, abs=1e-12)


@pytest.mark.parametrize("case", ["alg1", "alg2", "alg3"])
def test_the_last_stage_holds_z_at_zero_by_its_bound_alone(case):
    # the value past the horizon is 0: no pool past the last stage gains a
    # cut, and a last-stage LP has no cut row, so z sits at its bound 0
    problem = {"alg1": _mixture_lattice, "alg2": make_chain_instance, "alg3": _cvar_tree}[case]()
    res = engine.run(problem, _cfg(algorithm=case))
    topo = problem.topology
    terminal = [key for key in topo.keys if topo.terminal(key)]
    assert terminal and all(not res.pools.opt[key].optimality
                            and not res.pools.opt[key].feasibility for key in terminal)
    assert sum(len(pool.optimality) for pool in res.pools.opt.values()) > 0
    where, history = topo.first, np.zeros(0)
    for _ in range(1, problem.horizon):
        ns = engine.solve_node(problem, where, history, res.pools)
        history = np.concatenate([history, ns.x])
        where = topo.children(topo.pool(where))[0]
    sub = model.assemble_subproblem(problem, where)
    view = res.pools.rows_for(where).view(problem.dim)
    prob, _b0, _hist = engine.build_stage_lp(sub, view, problem.z_lower(problem.horizon),
                                             history)
    assert prob.a_ub.shape[0] == sub.g_cur.shape[0] + sub.piece_cur.shape[0]
    assert prob.lower[-1] == 0.0
    ns = engine.solve_node(problem, where, history, res.pools)
    assert ns.duals.x[-1] == 0.0
    assert ns.value == ns.duals.x[-2]  # the stage cost alone


def test_sample_path_is_pure_and_matches_probabilities():
    problem = _newsvendor()
    first = engine.sample_path(problem, seed=3, k=11)
    again = engine.sample_path(problem, seed=3, k=11)
    assert first == again
    assert first[1] == (1, 0)
    counts = {0: 0, 1: 0}
    second = [_payload(2, 1, prob=p, pieces=_linear_cost(2, [1.0]),
                       g=np.array([[0.0, -1.0, -1.0]]), h=np.array([-1.0]),
                       lb=np.zeros(1), ub=np.array([10.0]))
              for p in (0.3, 0.7)]
    skewed = model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                           stages=[_stage1(), model.Stage(second)],
                           lower_value_bound=np.array([0.0]))
    draws = 2000
    for k in range(1, draws + 1):
        counts[engine.sample_path(skewed, seed=5, k=k)[2][1]] += 1
    sigma = np.sqrt(draws * 0.3 * 0.7)
    assert abs(counts[0] - draws * 0.3) <= 3.0 * sigma


def test_stage_uniform_is_the_generator_draw():
    # the draw skips building a Generator; it must keep its bits, so that
    # sample_path replays the same paths (negative seeds and seeds of 2**63
    # or more are masked to 64 bits as the key)
    for seed in (0, 1, 7, 1101, 2**32 + 5, 2**63, 2**64 - 1, -1, -1101):
        for k in range(1, 11):
            for t in range(2, 8):
                bits = np.random.Philox(counter=[0, 0, k, t], key=seed & (2**64 - 1))
                assert engine._stage_uniform(seed, k, t) == np.random.Generator(bits).random()


def _numpy_pick(probs, u):
    j = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(j, probs.shape[0] - 1)


def test_pick_matches_the_numpy_cumulative_search():
    # the running sums are the same floats as np.cumsum's, so 200,000 draws,
    # the cumulative edges themselves and the floats just below them
    # included, pick the same child as _numpy_pick (vectorized here)
    rng = np.random.default_rng(1919)
    for _ in range(10_000):
        probs = rng.dirichlet(np.ones(rng.integers(1, 5)))
        edges = np.cumsum(probs)
        draws = np.concatenate([rng.random(20 - 2 * edges.size), edges,
                                np.nextafter(edges, 0.0)])
        expected = np.minimum(np.searchsorted(edges, draws, side="right"), probs.size - 1)
        assert [engine._pick(probs, u) for u in draws.tolist()] == expected.tolist()


@pytest.mark.parametrize("make", [
    lambda rng: random_lattice_instance(rng, 3, 3, 2, max_pieces=3,
                                        risk=RiskSpec(kind="mixture", lam=0.5, epsilon=0.3)),
    lambda rng: lattice_to_tree(random_lattice_instance(rng, 3, 2, 2,
                                                        risk=RiskSpec(kind="cvar", epsilon=0.5))),
    lambda rng: make_cvar_without_complete_recourse(),
], ids=["lattice", "tree", "no-rcr"])
def test_sample_path_is_unchanged_by_the_pick(monkeypatch, make):
    # the engine's fuzz instances draw the same paths with the numpy pick
    for case in range(3):
        problem = make(np.random.default_rng([1201, case]))
        draws = [(seed, k) for seed in (7, 1101) for k in range(1, 41)]
        paths = [engine.sample_path(problem, seed, k) for seed, k in draws]
        with monkeypatch.context() as patched:
            patched.setattr(engine, "_pick", _numpy_pick)
            assert paths == [engine.sample_path(problem, seed, k) for seed, k in draws]


@pytest.mark.parametrize("make", [
    lambda rng: random_lattice_instance(rng, 3, 3, 2, max_pieces=3),
    lambda rng: lattice_to_tree(random_lattice_instance(rng, 3, 2, 2)),
], ids=["lattice", "tree"])
def test_sample_path_from_run_edges_is_the_same_path(make):
    # the driver sums each pool's probabilities once per run; its paths are
    # the paths of sample_path summing them per draw, after an edit to the
    # probabilities too (pool_edges reads them as they are when called)
    draws = [(seed, k) for seed in (7, 1101) for k in range(1, 41)]
    for case in range(3):
        problem = make(np.random.default_rng([1202, case]))
        paths = []
        for edit in (False, True):
            if edit:  # equally likely siblings, as perfbench sets them
                for stage in problem.stages:
                    for real in stage.realizations:
                        real.prob = 1.0 / len(stage.realizations)
                for node in problem.nodes:
                    if node.parent is not None:
                        node.prob = 1.0 / len(problem.children(node.parent))
            edges = engine.pool_edges(problem)
            paths.append([engine.sample_path(problem, seed, k) for seed, k in draws])
            assert [engine.sample_path(problem, seed, k, edges) for seed, k in draws] == paths[-1]
        assert paths[0] != paths[1]


def test_probe_sees_every_cut_solve():
    seen = []

    def probe(info):
        # resolve must reproduce the recorded value at the recorded history
        assert info["resolve"](info["history"]) == pytest.approx(info["value"],
                                                                 abs=1e-9)
        seen.append((info["stage"], info["realization"]))

    engine.run(_newsvendor(), _cfg(max_iters=2, probe=probe))
    assert (2, (2, 0)) in seen and (2, (2, 1)) in seen
    assert len(seen) == 4  # two children per iteration, two iterations


@pytest.mark.parametrize("stall_tol", [math.nan, math.inf, -1e-9])
def test_stall_tol_must_be_finite_and_nonnegative(stall_tol):
    # nan < 0 is False, so a bare sign check would let nan through and
    # silently switch the stall rule off
    with pytest.raises(engine.ConfigError, match="stall_tol"):
        engine.run(_newsvendor(), _cfg(stall_tol=stall_tol))


def test_nan_node_probability_is_a_config_error():
    # it once validated, and the run failed at its first cut with a CutError
    tree = _newsvendor_tree()
    tree.nodes[3].prob = math.nan
    with pytest.raises(engine.ConfigError, match="node 1: probabilities must be strictly positive"):
        engine.run(tree, _cfg(algorithm="alg3"))


def test_config_validation_errors():
    problem = _newsvendor()
    with pytest.raises(engine.ConfigError):
        engine.run(problem, _cfg(algorithm="alg9"))
    with pytest.raises(engine.ConfigError):
        engine.run(problem, _cfg(algorithm="alg3"))
    with pytest.raises(engine.ConfigError):
        engine.run(_newsvendor_tree(), _cfg())
    with pytest.raises(engine.ConfigError):
        engine.run(problem, _cfg(max_iters=0))
    with pytest.raises(engine.ConfigError):
        engine.run(problem, _cfg(cut_timing="sideways"))
    with pytest.raises(engine.ConfigError):
        engine.run(problem, _cfg(oracle_check="every:zero"))
    with pytest.raises(engine.ConfigError):
        engine.run(problem, _cfg(algorithm="alg2"))  # static G rows present
    multi = model.Stage([_payload(
        2, 1, pieces=model.PwlConvexCost([[0.0, 1.0], [0.0, -1.0]],
                                         [0.0, 0.0], dim=1),
        a=[np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]])],
        b=np.array([2.0]), ub=np.array([3.0]))])
    problem2 = model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                             stages=[_stage1(), multi],
                             lower_value_bound=np.array([0.0]))
    with pytest.raises(engine.ConfigError):
        engine.run(problem2, _cfg(algorithm="alg2"))


@pytest.mark.parametrize("field, value, message", [
    ("stall_window", 0, "stall_window must be >= 1"),
    ("oracle_check", "every:0", "oracle-check interval must be >= 1"),
    ("oracle_check", "sometimes", "oracle_check must be off, final or every:K"),
], ids=["stall-window-0", "every-0", "unknown-oracle-check"])
def test_run_rejects_a_bad_config(field, value, message):
    with pytest.raises(engine.ConfigError, match=message):
        engine.run(_newsvendor(), _cfg(**{field: value}))


# ---------------------------------------------------------------------------
# persistent stage LPs against the cold path
# ---------------------------------------------------------------------------

def _run_checking_warm_solves(monkeypatch, problem, cfg, epigraph=True):
    """Run ``cfg`` with every stage solve of the driver checked against the cold path.

    Each ``NodeSolution`` solved in place (dual pivots included), from its
    position's held basis or, on a first solve, from another position's or
    the epigraph basis (``started``), must equal a cold
    :func:`engine.solve_node` at the same history and pools within 1e-9, and
    its ``pi`` must pass the subgradient inequality of the cold value
    function around that history; every other one must be the cold solve,
    bit for bit.  A solve that hands back an earlier solution of the same LP
    is checked the same way, by the solve it reuses, but counted only as
    ``reused``: ``cold``, ``warm`` and ``dual`` count LPs actually solved.
    Without ``epigraph``, :func:`engine.epigraph_basis` offers no basis, so
    a first solve with no same-shape start is the two-phase solve.
    Returns the run's result and counts of what was checked.
    """
    solve, solve_node = engine._Driver._solve, engine.solve_node
    seen = Counter()

    def checked(self, where, history):
        p, pools, stage_lp = self.problem, self.pools, self.stage_lps[where]
        held = (stage_lp.n_opt, stage_lp.n_feas)
        first = stage_lp.lp is None
        reused = self.tally["lps_reused"]
        ns = solve(self, where, history)
        if self.tally["lps_reused"] > reused:
            seen["reused"] += 1
        elif not ns.duals.warm_start:
            seen["cold"] += 1
        else:
            seen["warm"] += 1
            seen["dual"] += ns.duals.dual_start
            seen["started"] += first  # a first solve from another position's or the epigraph basis
            view = pools.rows_for(where).view(p.dim)
            if held[1] and view.n_opt > held[0]:
                seen["feasibility_rows_shifted"] += 1  # new optimality rows went before them
        cold = solve_node(p, where, history, pools)
        if not ns.duals.warm_start:
            assert ns.value == cold.value and ns.pi.tobytes() == cold.pi.tobytes()
            return ns
        assert not cold.duals.warm_start
        assert abs(ns.value - cold.value) <= 1e-9
        if history.shape[0]:
            def cold_value(dec):
                try:
                    return solve_node(p, where, dec, pools).value
                except engine.EngineError:  # no feasible decision at that history
                    return math.inf
            assert check_subgradient(cold_value, history, ns.pi, n_samples=6,
                                     radius=0.5, seed=seen["warm"]) == []
        return ns

    with monkeypatch.context() as patched:
        patched.setattr(engine._Driver, "_solve", checked)
        if not epigraph:
            patched.setattr(engine, "epigraph_basis", lambda sub, view: None)
        return engine.run(problem, cfg), seen


def _mixture_lattice(seed=11):
    rng = np.random.default_rng(seed)
    return random_lattice_instance(rng, 3, 3, 2,
                                   risk=RiskSpec(kind="mixture", lam=0.5, epsilon=0.25))


def _cvar_tree(seed=12):
    rng = np.random.default_rng(seed)
    return lattice_to_tree(random_lattice_instance(rng, 3, 2, 2,
                                                   risk=RiskSpec(kind="cvar", epsilon=0.5)))


@pytest.mark.parametrize("case", ["alg1-lattice", "alg3-tree", "alg2-feasibility-rows"])
def test_warm_solves_match_cold_solves(monkeypatch, case):
    # a first solve whose same-shape start fails falls back to the epigraph
    # basis, so a run with it solves no LP with the two-phase simplex; each
    # case reaches the two-phase solve in one run without the epigraph basis
    if case == "alg1-lattice":
        runs = [(_mixture_lattice(), _cfg(max_iters=12, stall_window=13), epigraph)
                for epigraph in (True, False)]
    elif case == "alg3-tree":
        runs = [(_cvar_tree(), _cfg(algorithm="alg3", max_iters=12, stall_window=13), epigraph)
                for epigraph in (True, False)]
    else:
        # the instance holds only six or seven distinct warm LPs in a run of
        # any length (every later solve hands back an earlier solution of
        # the same LP), so the case runs it under both cut timings
        runs = [(make_cvar_without_complete_recourse(),
                 _cfg(algorithm="alg2", max_iters=12, cut_timing=timing), timing == "backward")
                for timing in engine.CUT_TIMINGS]
    seen = Counter()
    for problem, cfg, epigraph in runs:
        res, seen_run = _run_checking_warm_solves(monkeypatch, problem, cfg, epigraph)
        seen += seen_run
        if case == "alg2-feasibility-rows":
            assert n_feasibility_cuts(res.pools) >= 1
            assert seen_run["feasibility_rows_shifted"] >= 1
            assert res.final_lower_bound == pytest.approx(2.0, abs=1e-9)  # x1 = 0, x2 = 2
    assert seen["warm"] >= 10 and seen["dual"] >= 1 and seen["cold"] >= 1, seen
    assert seen["reused"] >= 1 and seen["started"] >= 1, seen


def test_dual_started_run_replays_and_reaches_the_reference(tmp_path):
    # a perfbench-shaped lattice-mixture instance: T=3, M=3, n=4, equally
    # likely realizations and a mixture at stage 2; its held bases lose
    # primal feasibility, so the run takes dual pivots, and its dumps replay
    problem = random_lattice_instance(np.random.default_rng([1101, 0]), 3, 3, 4)
    for stage in problem.stages[1:]:
        for realization in stage.realizations:
            realization.prob = 1.0 / len(stage.realizations)
    problem.stages[1].risk = RiskSpec(kind="mixture", lam=0.5, epsilon=0.25)
    cfg = _cfg(max_iters=60, stall_window=61)
    dumps = []
    for k in range(2):
        res = engine.run(problem, cfg)
        io.write_cuts_csv(tmp_path / f"cuts{k}.csv", res.pools)
        io.write_summary_json(tmp_path / f"summary{k}.json", res, cfg.seed)
        dumps.append([(tmp_path / f"{name}{k}.{ext}").read_bytes()
                      for name, ext in (("cuts", "csv"), ("summary", "json"))])
    assert dumps[0] == dumps[1]
    assert res.diagnostics["lps_dual"] > 0
    ref = oracle.reference_value(problem)
    assert abs(res.final_lower_bound - ref) <= 1e-6 * max(1.0, abs(ref))


def test_oracle_check_final_without_complete_recourse():
    # the reference is the extensive form, which covers a feasible risk-averse
    # instance that nested decomposition, without feasibility cuts, cannot
    res = engine.run(make_cvar_without_complete_recourse(),
                     _cfg(algorithm="alg2", oracle_check="final"))
    assert res.final_lower_bound == pytest.approx(2.0, abs=1e-9)
    assert res.oracle_value == pytest.approx(2.0, abs=1e-9)
    assert abs(res.oracle_gap) <= 1e-9


def test_oracle_check_every_k_solves_the_reference_once(monkeypatch, caplog):
    # the problem does not change during a run, so neither does its reference
    # value: one extensive-form solve serves every every:K line and the final one
    reference = oracle.reference_value
    calls = Counter()

    def counting(problem):
        calls["reference"] += 1
        return reference(problem)

    monkeypatch.setattr(oracle, "reference_value", counting)
    with caplog.at_level(logging.INFO, logger="riskdp.engine"):
        res = engine.run(make_newsvendor(),
                         _cfg(max_iters=12, stall_window=13, oracle_check="every:2"))
    assert res.iters == 12 and calls["reference"] == 1
    lines = [r.getMessage() for r in caplog.records if "oracle" in r.getMessage()]
    assert len(lines) == 7  # iterations 2, 4, ..., 12 and the final line
    assert all(f"oracle {res.oracle_value:.12g}," in line for line in lines)
    assert res.oracle_value == pytest.approx(1.5, abs=1e-9)
    assert res.oracle_gap == res.oracle_value - res.final_lower_bound


@pytest.mark.parametrize("case", ["alg1-lattice", "alg3-tree"])
def test_payload_is_folded_once_per_built_stage_lp(monkeypatch, case):
    # a re-solve of a held LP only moves the right-hand side along the held
    # map, so the payload's rows are folded once per built stage LP: every
    # first solve of a position (cold, or from another position's basis)
    # and every rebuild after a held LP declined, not once per LP
    fold_map, solve = model.Realization.fold_map, engine.StageLp.solve
    seen = Counter()

    def counting(self, x0, k):
        seen["folds"] += 1
        return fold_map(self, x0, k)

    def counting_solve(self, *args):
        held = self.lp
        sol = solve(self, *args)
        seen["first"] += held is None
        seen["rebuilt"] += held is not None and self.lp is not held
        return sol

    monkeypatch.setattr(model.Realization, "fold_map", counting)
    monkeypatch.setattr(engine.StageLp, "solve", counting_solve)
    problem = _mixture_lattice() if case == "alg1-lattice" else _cvar_tree()
    algorithm = "alg1" if case == "alg1-lattice" else "alg3"
    diag = engine.run(problem, _cfg(algorithm=algorithm, max_iters=8, stall_window=9)).diagnostics
    assert 0 < seen["folds"] == seen["first"] + seen["rebuilt"] < diag["lps"]
    assert diag["lps"] - diag["lps_warm"] <= seen["folds"]  # every cold LP is built


def test_lp_counts_are_reported(caplog):
    with caplog.at_level(logging.INFO, logger="riskdp.engine"):
        res = engine.run(_mixture_lattice(), _cfg(max_iters=8, stall_window=9))
    diag = res.diagnostics
    for name in ("lps", "lps_warm", "lps_dual", "lps_reused", "pivots"):
        assert diag[name] == sum(getattr(r, name) for r in res.reports)
    # every first solve starts from a basis: its shape's, else or after that
    # one fails the epigraph basis, so every LP solved runs warm
    assert 0 < diag["lps_warm"] == diag["lps"]
    assert diag["lps_reused"] > 0
    # T=3, M=3, backward timing: every iteration solves the two sampled
    # positions forward, the three children of stages 3 and 2 backward and
    # the fresh stage-1 bound; iteration 1 also solves its entering stage-1
    # bound, later ones are handed the previous fresh bound.  Some of these
    # solves reuse an earlier solution of the same LP, and every iteration still
    # solves at least two LPs afresh
    assert [r.lps + r.lps_reused for r in res.reports] == [10] + [9] * 7
    assert all(r.lps >= 2 and r.lps_dual <= r.lps_warm <= r.lps for r in res.reports)
    assert "LPs (" in caplog.text and " warm, " in caplog.text and " dual), " in caplog.text
    assert " reused, " in caplog.text


def _stage_lp_state(stage_lp: engine.StageLp) -> tuple:
    held = stage_lp.lp
    if held is None:
        return stage_lp.n_opt, stage_lp.n_feas, None
    return (stage_lp.n_opt, stage_lp.n_feas, id(held), held.stale,
            stage_lp.b0.tobytes(), stage_lp.hist.tobytes(),
            *(getattr(held, name).tobytes()
              for name in ("a", "b", "basis", "status_col", "x", "b_inv")))


def _counting_lp_solves(monkeypatch) -> Counter:
    """Count every cold ``lp.solve`` and every in-place ``PersistentLp.resolve``."""
    calls = Counter()
    solve, resolve = lp.solve, lp.PersistentLp.resolve

    def counting_solve(prob):
        calls["solve"] += 1
        return solve(prob)

    def counting_resolve(self):
        calls["resolve"] += 1
        return resolve(self)

    monkeypatch.setattr(lp, "solve", counting_solve)
    monkeypatch.setattr(lp.PersistentLp, "resolve", counting_resolve)
    return calls


def _memo_over_a_run(problem):
    """A driver after one iteration, and a second driver over its pools with an empty memo."""
    driver = engine._Driver(problem, _cfg())
    driver.iterate(1)  # pools holding cuts
    fresh = engine._Driver(problem, _cfg())
    fresh.pools = driver.pools
    return driver, fresh


def test_a_repeated_stage_solve_hands_back_the_last_solution(monkeypatch):
    driver, fresh = _memo_over_a_run(_mixture_lattice())
    where, x1 = (2, 0), driver.stage1.x.copy()
    first = fresh._solve(where, x1)
    calls = _counting_lp_solves(monkeypatch)
    again = fresh._solve(where, x1.copy())
    assert again is first and calls == Counter()
    assert fresh.tally["lps_reused"] == 1 and fresh.tally["lps"] == 1
    # a solve at another history is an LP again
    fresh._solve(where, x1 + 0.25)
    assert sum(calls.values()) == 1 and fresh.tally["lps"] == 2


def test_a_stage_lp_hands_back_any_earlier_solve_at_its_counts(monkeypatch):
    # not only the last solve: a position met again at an older history,
    # with no new row in its pool, is handed that history's solve
    driver, fresh = _memo_over_a_run(_mixture_lattice())
    where, h1 = (2, 0), driver.stage1.x.copy()
    h2 = h1 + 0.25
    first = fresh._solve(where, h1)
    second = fresh._solve(where, h2)
    assert second is not first and fresh.tally["lps_reused"] == 0
    calls = _counting_lp_solves(monkeypatch)
    again = fresh._solve(where, h1.copy())
    assert again is first and fresh.tally["lps_reused"] == 1 and calls == Counter()
    assert fresh._solve(where, h2) is second
    assert calls == Counter()
    pool = driver.pools.rows_for(where)
    assert set(fresh.solves[where]) == {engine.stage_lp_key(h, pool) for h in (h1, h2)}


def test_a_new_cut_in_the_pool_makes_the_same_history_a_new_solve(monkeypatch):
    problem = _mixture_lattice()
    driver, fresh = _memo_over_a_run(problem)
    where, x1 = (2, 0), driver.stage1.x.copy()
    first = fresh._solve(where, x1)
    fresh._solve(where, x1 + 0.25)
    assert len(fresh.solves[where]) == 2
    pool = driver.pools.rows_for(where)
    n_cuts = len(pool.optimality)
    driver.iterate(2)
    assert len(pool.optimality) > n_cuts  # the position's LP gained a cut row
    calls = _counting_lp_solves(monkeypatch)
    again = fresh._solve(where, x1)
    assert again is not first and fresh.tally["lps_reused"] == 0 and sum(calls.values()) == 1
    assert fresh.stage_lps[where].n_opt == len(pool.optimality)
    # the solves at the old counts are gone: their LPs never recur
    assert fresh.solves[where] == {engine.stage_lp_key(x1, pool): again}
    cold = engine.solve_node(problem, where, x1, driver.pools)
    assert abs(again.value - cold.value) <= 1e-9


@pytest.mark.parametrize("case,timing", [("alg1-lattice", "backward"),
                                         ("alg1-lattice", "forward"),
                                         ("alg2-feasibility-rows", "backward"),
                                         ("alg3-tree", "backward")])
def test_keeping_every_solve_asks_for_the_same_solves_as_keeping_the_last(monkeypatch,
                                                                          case, timing):
    # the driver keeps every solve of a position at its pool's counts; one
    # that keeps only its last solve asks for the same solves, solves at
    # least as many of them as LPs, and reaches the same reference.  Twenty
    # iterations run well past the point where the lattice's bound settles
    # and its nodes keep being met again at older histories
    solve = engine._Driver._solve

    def keeping_the_last(self, where, history):
        ns = solve(self, where, history)
        self.solves[where] = {key: old for key, old in self.solves[where].items()
                              if old is ns}
        return ns

    problem, cfg = _diagnostic_case(case, timing, 20)
    every = engine.run(problem, cfg)
    with monkeypatch.context() as patched:
        patched.setattr(engine._Driver, "_solve", keeping_the_last)
        # a replay assumes every solve of its iteration is still kept
        patched.setattr(engine._Driver, "_replay", lambda self, *args: None)
        last = engine.run(problem, cfg)
    assert ([r.lps + r.lps_reused for r in every.reports]
            == [r.lps + r.lps_reused for r in last.reports])
    assert all(mine.lps <= theirs.lps for mine, theirs in zip(every.reports, last.reports))
    if case == "alg1-lattice":  # a lattice node is met at one history per ancestor path
        assert every.diagnostics["lps"] < last.diagnostics["lps"]
    ref = oracle.reference_value(problem)
    for res in (every, last):
        assert abs(res.final_lower_bound - ref) <= 1e-6 * max(1.0, abs(ref))


def test_probe_resolve_leaves_the_basis_cache_alone(monkeypatch):
    solve = lp.solve
    cold = []
    resolved = []

    def recording(prob, starts=()):
        starts = list(starts)
        cold.append(starts)
        return solve(prob, starts)

    def probe(info):
        before = {w: _stage_lp_state(s) for w, s in driver.stage_lps.items()}
        assert info["realization"] in before
        cold.clear()
        info["resolve"](info["history"] + 0.1)
        assert cold == [[]]  # the probe's re-solve is one cold solve, with no start
        assert {w: _stage_lp_state(s) for w, s in driver.stage_lps.items()} == before
        resolved.append(info["realization"])

    monkeypatch.setattr(lp, "solve", recording)
    driver = engine._Driver(_mixture_lattice(), _cfg(probe=probe))
    for k in range(1, 5):
        driver.iterate(k)
    assert len(resolved) >= 12


def _first_solve_case():
    """A stage-2 lattice position after three iterations: its cold solve and its stage LP.

    The LP has one equality row, four inequality rows and the columns
    ``[x1, x2, w, z]`` followed by the four slacks.
    """
    problem = _mixture_lattice()
    driver = engine._Driver(problem, _cfg())
    for k in range(1, 4):
        driver.iterate(k)
    where, history, pools = (2, 0), driver.stage1.x.copy(), driver.pools
    cold = engine.solve_node(problem, where, history, pools)
    view = pools.rows_for(where).view(problem.dim)
    prob = engine.build_stage_lp(model.assemble_subproblem(problem, where), view,
                                 problem.z_lower(2), history)[0]
    assert (prob.a_eq.shape[0], prob.a_ub.shape[0]) == (1, 4)
    return problem, where, history, pools, cold, prob


def _first_solve_from(case, start):
    """The first solve of ``case``'s position through a StageLp offered ``start``."""
    problem, where, history, pools, _cold, prob = case
    stage_lp = engine.StageLp({(2, 1, 4): np.array(start, dtype=np.int8)})
    return engine.solve_node(problem, where, history, pools, stage_lp=stage_lp), stage_lp


def test_a_first_solve_starts_from_an_offered_basis():
    case = _first_solve_case()
    cold = case[4]
    ns, stage_lp = _first_solve_from(case, cold.duals.basis)
    assert ns.duals.warm_start and ns.duals.pivots == 0 < cold.duals.pivots
    assert abs(ns.value - cold.value) <= 1e-12
    # the LP it started is the one held, and its basis is the one recorded
    assert stage_lp.lp.status_col.tolist() == cold.duals.basis.tolist()
    assert stage_lp.lp is ns.duals.held
    assert stage_lp.starts[2, 1, 4] is ns.duals.basis


def test_a_first_solve_with_no_offered_basis_starts_from_the_epigraph_basis(monkeypatch):
    problem, where, history, pools, cold, _prob = _first_solve_case()
    epigraph_basis, offered = engine.epigraph_basis, []

    def recording(sub, view):
        offered.append(epigraph_basis(sub, view))
        return offered[-1]

    monkeypatch.setattr(engine, "epigraph_basis", recording)
    stage_lp = engine.StageLp({})
    ns = engine.solve_node(problem, where, history, pools, stage_lp=stage_lp)
    assert len(offered) == 1 and offered[0] is not None
    assert ns.duals.warm_start and abs(ns.value - cold.value) <= 1e-9 * max(1.0, abs(cold.value))
    assert ns.duals.pivots < cold.duals.pivots
    # the LP the solve ran in is held: no second PersistentLp is built
    assert stage_lp.lp is ns.duals.held
    assert stage_lp.starts[2, 1, 4] is ns.duals.basis
    # a later first solve of the same stage and shape is offered that basis instead
    again = engine.StageLp(stage_lp.starts)
    engine.solve_node(problem, where, history, pools, stage_lp=again)
    assert len(offered) == 1


L, U, B = lp.AT_LOWER, lp.AT_UPPER, lp.BASIC


_UNUSABLE_STARTS = [
    # w and the slacks basic: no basic column touches the equality row
    ([L, L, B, L, B, B, B, B], "singular"),
    # x1 at its upper bound, x2, w, z and two slacks basic: neither primal
    # nor dual feasible, so no simplex runs from it in place
    ([U, B, B, B, B, L, B, L], "declined"),
    # the optimal basis with a nonbasic slack at its upper bound, +inf
    ([B, B, B, B, L, U, L, B], "inadmissible"),
]


@pytest.mark.parametrize("start,why", _UNUSABLE_STARTS)
def test_a_first_solve_from_an_unusable_start_is_the_cold_solve(start, why, monkeypatch):
    # with no epigraph basis to try next (as when the equality rows are
    # dependent), an unusable same-shape start leaves the cold solve
    monkeypatch.setattr(engine, "epigraph_basis", lambda sub, view: None)
    case = _first_solve_case()
    prob, cold = case[5], case[4]
    assert cold.duals.basis.tolist() == [B, B, B, B, L, L, L, B]
    if why == "declined":
        assert lp.PersistentLp(prob, np.array(start, dtype=np.int8)).resolve() is None
    else:
        with pytest.raises(lp.SimplexError):
            lp.PersistentLp(prob, np.array(start, dtype=np.int8))
    ns, stage_lp = _first_solve_from(case, start)
    assert not ns.duals.warm_start and ns.duals.pivots == cold.duals.pivots
    assert ns.value == cold.value
    for name in ("x", "pi"):
        assert getattr(ns, name).tobytes() == getattr(cold, name).tobytes()
    for name in ("dual_eq", "dual_ineq", "basis"):
        assert getattr(ns.duals, name).tobytes() == getattr(cold.duals, name).tobytes()
    # the cold solve's basis is held, and replaces the unusable start
    assert stage_lp.lp.status_col.tolist() == cold.duals.basis.tolist()
    assert stage_lp.starts[2, 1, 4] is ns.duals.basis


@pytest.mark.parametrize("start", [start for start, _ in _UNUSABLE_STARTS])
def test_a_declined_start_is_followed_by_the_epigraph_start(start, monkeypatch):
    # the epigraph basis is computed only once the same-shape start fails,
    # and the solve from it runs warm: the two-phase simplex never runs
    case = _first_solve_case()
    problem, where, history, pools, cold, _prob = case
    epigraph_basis, offered = engine.epigraph_basis, []

    def recording(sub, view):
        offered.append(epigraph_basis(sub, view))
        return offered[-1]

    def no_two_phase(self):
        raise AssertionError("the two-phase simplex ran")

    monkeypatch.setattr(engine, "epigraph_basis", recording)
    monkeypatch.setattr(lp._Simplex, "run", no_two_phase)
    ns, stage_lp = _first_solve_from(case, start)
    assert len(offered) == 1 and offered[0] is not None
    assert ns.duals.warm_start and ns.duals.held is stage_lp.lp
    assert abs(ns.value - cold.value) <= 1e-9 * max(1.0, abs(cold.value))
    assert stage_lp.starts[2, 1, 4] is ns.duals.basis
    # a usable same-shape start is taken without computing the epigraph basis
    _first_solve_from(case, cold.duals.basis)
    assert len(offered) == 1


@st.composite
def epigraph_stage_lps(draw):
    """A stage LP's rows and pool view, as :func:`engine.build_stage_lp` reads them.

    Stage 1 (no history) with ``n`` decisions, ``q`` equality rows (the
    second one a real multiple of the first when ``dependent``), up to two
    static rows, one to three cost pieces, up to two optimality cuts and up
    to two feasibility-cut rows; small integer entries otherwise and a
    finite box, some of it fixed.  Right-hand sides are drawn wide enough
    that some LPs are infeasible.  Returns ``(sub, view, dependent)``.
    """
    n = draw(st.integers(1, 3))
    q = draw(st.integers(0, 2))
    dependent = q == 2 and draw(st.booleans())
    r, n_p = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    n_opt, n_feas = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def ints(*shape, lo=-3, hi=3):
        return rng.integers(lo, hi + 1, size=shape).astype(float)

    a_cur = ints(q, n)
    if dependent:
        # a real multiple: elimination may leave rounding noise, not an exact 0
        a_cur[1] = rng.uniform(-3.0, 3.0) * a_cur[0]
    lb = ints(n, lo=-2, hi=0)
    ub = lb + ints(n, lo=0, hi=3)
    rows = q + r + n_p
    sub = model.SubproblemData(t=1, a_cur=a_cur, g_cur=ints(r, n), piece_cur=ints(n_p, n),
                               b0=ints(rows, lo=-4, hi=4), hist=np.zeros((rows, 0)),
                               lb=lb, ub=ub)
    view = cuts.PoolView(opt_beta1=np.zeros((n_opt, 0)), opt_beta2=ints(n_opt, n),
                         opt_rhs_const=ints(n_opt), feas_beta1=np.zeros((n_feas, 0)),
                         feas_beta2=ints(n_feas, n), feas_rhs_const=ints(n_feas, lo=-2, hi=6))
    return sub, view, dependent


@settings(max_examples=200, deadline=None)
@given(epigraph_stage_lps(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_build_stage_lp_matches_the_stacked_build_byte_for_byte(case, d, seed):
    # the stage LP, its right-hand side map and the simplex arrays laid out
    # from it equal the stacked builds' (checks.build_stage_lp_by_stacking,
    # checks.simplex_arrays_by_stacking) as bytes, at a history of d real
    # entries mapped through real history columns
    sub, view, _dependent = case
    rng = np.random.default_rng(seed)
    sub = model.SubproblemData(t=sub.t, a_cur=sub.a_cur, g_cur=sub.g_cur,
                               piece_cur=sub.piece_cur, b0=rng.normal(size=sub.b0.shape),
                               hist=rng.normal(size=(sub.b0.shape[0], d)), lb=sub.lb, ub=sub.ub)
    # the pool's columns are split as in CutPool.view: history blocks first
    width = d + sub.lb.shape[0]
    opt, feas = rng.normal(size=(view.n_opt, width)), rng.normal(size=(view.n_feas, width))
    view = cuts.PoolView(opt_beta1=opt[:, :d], opt_beta2=opt[:, d:],
                         opt_rhs_const=rng.normal(size=view.n_opt), feas_beta1=feas[:, :d],
                         feas_beta2=feas[:, d:], feas_rhs_const=view.feas_rhs_const)
    history, z_lo = rng.normal(size=d), float(rng.normal())
    prob, b0, hist = engine.build_stage_lp(sub, view, z_lo, history)
    ref, ref_b0, ref_hist = build_stage_lp_by_stacking(sub, view, z_lo, history)
    assert b0.tobytes() == ref_b0.tobytes() and hist.tobytes() == ref_hist.tobytes()
    for name in ("c", "a_eq", "b_eq", "a_ub", "b_ub", "lower", "upper"):
        assert getattr(prob, name).shape == getattr(ref, name).shape
        assert getattr(prob, name).tobytes() == getattr(ref, name).tobytes(), name
    simplex = lp._Simplex(prob, bland_always=False)
    for name, arr in simplex_arrays_by_stacking(ref).items():
        assert getattr(simplex, name).tobytes() == arr.tobytes(), name


@settings(max_examples=300, deadline=None)
@given(epigraph_stage_lps())
def test_epigraph_basis_is_a_dual_feasible_start_of_the_cold_solve(case):
    # where the equality rows are independent the epigraph basis is a basis
    # of the stage LP, dual feasible as built, and the solve from it agrees
    # with the two-phase solve, infeasible LPs included (the dual simplex
    # declines them and the solve falls back to two-phase)
    sub, view, dependent = case
    basis = engine.epigraph_basis(sub, view)
    q, n = sub.a_cur.shape
    independent = q <= n and np.linalg.matrix_rank(sub.a_cur) == q
    assert (basis is not None) == independent
    if dependent:
        assert basis is None
    if basis is None:
        return
    prob = engine.build_stage_lp(sub, view, -5.0, np.zeros(0))[0]
    held = lp.PersistentLp(prob, basis)
    cost = np.zeros(held.ncols)
    cost[:held.n_struct] = prob.c
    assert not held._dual_infeasibility(held._reduced_costs(cost))[0].any()
    started, cold = lp.solve(prob, [basis]), lp.solve(prob)
    assert started.status == cold.status
    if cold.status == lp.OPTIMAL:
        assert started.warm_start and started.held is not None
        assert abs(started.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
    else:
        assert not started.warm_start and started.held is None


def _diagnostic_case(case, timing, max_iters, **instance):
    """One of the driver's algorithms on a small instance, run ``max_iters`` iterations."""
    algorithm = case.split("-")[0]
    if algorithm == "alg1":
        problem = _mixture_lattice(**instance)
    elif algorithm == "alg3":
        problem = _cvar_tree(**instance)
    else:
        problem = make_cvar_without_complete_recourse()
    return problem, _cfg(algorithm=algorithm, max_iters=max_iters,
                         stall_window=max_iters + 1, cut_timing=timing)


@pytest.mark.parametrize("timing", engine.CUT_TIMINGS)
@pytest.mark.parametrize("case,seed", [("alg1-lattice", 18), ("alg3-tree", 13)])
def test_pi_norm_diagnostics_match_the_probe_events(case, seed, timing):
    # every child solve of a cut reaches the probe, handed back or not, so
    # the largest |pi| over a stage's events is that stage's pi_norm_max;
    # the first five iterations of a run are a five-iteration run.  Under
    # backward timing, these instances hand back stage-3 solutions that the
    # forward pass made, so a solution may reach the norms first when reused
    norms: dict = {}

    def probe(info):
        norms.setdefault(info["stage"], []).append(float(np.linalg.norm(info["pi"])))

    problem, cfg = _diagnostic_case(case, timing, 12, seed=seed)
    cfg.probe = probe
    diagnostics = engine.run(problem, cfg).diagnostics
    assert diagnostics["pi_norm_max"] == {t: max(seen) for t, seen in sorted(norms.items())}
    problem, cfg = _diagnostic_case(case, timing, 5, seed=seed)
    first5 = engine.run(problem, cfg).diagnostics
    assert diagnostics["pi_norm_first5"] == first5["pi_norm_max"]
    assert diagnostics["pi_norm_first5"] == first5["pi_norm_first5"]


@pytest.mark.parametrize("timing", engine.CUT_TIMINGS)
@pytest.mark.parametrize("case", ["alg1-lattice", "alg2-feasibility-rows", "alg3-tree"])
def test_skipping_a_repeated_cut_matches_building_it(monkeypatch, case, timing):
    # the driver skips a repeat of an earlier offer without building it;
    # building and offering every cut, as the pools' own dedup allows, must
    # give the same run
    def run_digest():
        problem, cfg = _diagnostic_case(case, timing, 12)
        res = engine.run(problem, cfg)
        log = [line.rsplit(",", 1)[0]  # all but wall_ms
               for line in io.iterations_csv_text(res, problem.dim).splitlines()]
        return (io.cuts_csv_text(res.pools), log,
                [r.cuts_skipped for r in res.reports], res.diagnostics)

    repeats = []
    repeats_offer = engine._Driver._repeats_offer

    def counting(self, *args):
        repeats.append(repeats_offer(self, *args))
        return repeats[-1]

    with monkeypatch.context() as patched:
        patched.setattr(engine._Driver, "_repeats_offer", counting)
        skipping = run_digest()
    assert any(repeats)  # the skip fired
    with monkeypatch.context() as patched:
        patched.setattr(engine._Driver, "_repeats_offer", lambda self, *args: False)
        building = run_digest()
    assert skipping == building
    assert set(skipping[3]) >= {"lps", "lps_reused", "pivots", "pi_norm_max",
                                "pi_norm_first5", "cuts_skipped"}


def test_a_repeat_of_an_earlier_offer_is_skipped_not_only_of_the_last(monkeypatch):
    # a lattice pool offered cuts at two anchors in turn, with no new cut in
    # between: the repeat at h2 follows an offer at h1, yet it is a repeat
    # of an offer since the pool's count last moved, so it is not built
    problem = _mixture_lattice()
    driver = engine._Driver(problem, _cfg())
    for k in range(1, 4):
        driver.iterate(k)
    x1 = driver.stage1.x
    h1, h2 = (np.concatenate([x1, driver._solve((2, j), x1).x]) for j in (0, 1))
    assert h1.tobytes() != h2.tobytes()
    pool, counters, skipped = driver.pools.opt[3], {}, {}
    for h in (h1, h2, h1):
        driver._build_cut_at(3, h, 4, counters, skipped)
    n_cuts, n_skipped = len(pool.optimality), skipped.get(3, 0)
    built = []
    build = engine.build_optimality_cut
    monkeypatch.setattr(engine, "build_optimality_cut",
                        lambda *args, **kwargs: built.append(1) or build(*args, **kwargs))
    driver._build_cut_at(3, h2, 4, counters, skipped)
    assert built == [] and skipped[3] == n_skipped + 1 and len(pool.optimality) == n_cuts


def _run_digest(res, cfg, outdir):
    """A run's reports (all but ``wall_ms`` and ``replayed``), diagnostics and dump bytes."""
    reports = [{name: value.tobytes() if isinstance(value, np.ndarray) else value
                for name, value in vars(r).items() if name not in ("wall_ms", "replayed")}
               for r in res.reports]
    diagnostics = {name: value for name, value in res.diagnostics.items()
                   if name != "iterations_replayed"}
    outdir.mkdir()
    io.write_cuts_csv(outdir / "cuts.csv", res.pools)
    io.write_summary_json(outdir / "summary.json", res, cfg.seed)
    return (reports, diagnostics, (outdir / "cuts.csv").read_bytes(),
            (outdir / "summary.json").read_bytes())


@pytest.mark.parametrize("case,timing", [("alg1-lattice", "backward"),
                                         ("alg1-lattice", "forward"),
                                         ("alg3-tree", "backward"),
                                         ("alg2-feasibility-rows", "backward"),
                                         ("alg1-probe", "backward")])
def test_replaying_an_iteration_matches_running_it(monkeypatch, tmp_path, case, timing):
    # an iteration at a path already run at the same pools is answered from
    # its record; running every iteration in full must give the same run.
    # alg2 gates every iteration and a probe must see every solve, so
    # neither replays
    problem, cfg = _diagnostic_case(case, timing, 20)
    events = []
    if case == "alg1-probe":
        cfg.probe = lambda info: events.append((info["stage"], info["realization"],
                                                info["value"], info["pi"].tobytes()))
    replaying = engine.run(problem, cfg)
    replaying_events = events[:]
    events.clear()
    with monkeypatch.context() as patched:
        patched.setattr(engine._Driver, "_replay", lambda self, *args: None)
        full = engine.run(problem, cfg)
    assert (_run_digest(replaying, cfg, tmp_path / "replaying")
            == _run_digest(full, cfg, tmp_path / "full"))
    assert replaying_events == events
    n_replayed = replaying.diagnostics["iterations_replayed"]
    assert n_replayed == sum(r.replayed for r in replaying.reports)
    assert full.diagnostics["iterations_replayed"] == 0
    if case in ("alg1-lattice", "alg3-tree"):
        assert n_replayed > 0
        assert all(r.lps == r.lps_warm == r.pivots == r.n_cuts_opt == 0 < r.lps_reused
                   for r in replaying.reports if r.replayed)
    else:
        assert n_replayed == 0


# ---------------------------------------------------------------------------
# the one sweep: its forward half's contract, and the loops it replaced
# ---------------------------------------------------------------------------

def _as_bytes(ns):
    return np.float64(ns.value).tobytes(), ns.x.tobytes(), ns.pi.tobytes()


@pytest.mark.parametrize("form", ["lattice", "tree"])
def test_the_forward_half_solves_every_node_at_its_parents_history(form):
    # over every scenario node, after some iterations: each node's history
    # is its parent's followed by its decision, and its solve is the cold
    # solve at its parent's history against the same pools.  The half runs
    # on a cold driver, as nested decomposition's: a warm re-solve may stop
    # at another vertex of a degenerate LP, so it need not match to the bit
    problem = random_lattice_instance(np.random.default_rng(21), 3, 2, 2)
    algorithm = "alg1"
    if form == "tree":
        problem, algorithm = lattice_to_tree(problem), "alg3"
    driver = engine._Driver(problem, _cfg(algorithm=algorithm))
    for k in range(1, 5):
        driver.iterate(k)
    assert any(len(pool.optimality) > 1 for pool in driver.pools.opt.values())
    cold = engine._Driver(problem, _cfg(algorithm=algorithm), warm=False)
    cold.pools = driver.pools
    nodes = problem.topology.scenarios()
    out = cold._forward(nodes, 5, {}, {}, {})
    assert set(out) == {()} | {node.key for node in nodes}
    assert out[()][0].shape == (0,)
    for node in nodes:
        base = out[node.parent][0]
        history, ns = out[node.key]
        assert history.tobytes() == np.concatenate([base, ns.x]).tobytes()
        ref = engine.solve_node(problem, node.where, base, driver.pools)
        assert _as_bytes(ns) == _as_bytes(ref), node


def _logged(run):
    """``run()`` and the ordered calls it made to ``_Driver._solve`` and ``_build_cut_at``.

    A solve is logged as its position and history bytes, a cut step as its
    pool key and anchor bytes.
    """
    log = []
    solve, build = engine._Driver._solve, engine._Driver._build_cut_at

    def logged_solve(self, where, history):
        log.append(("solve", where, history.tobytes()))
        return solve(self, where, history)

    def logged_build(self, key, hist, *args):
        log.append(("cut", key, hist.tobytes()))
        return build(self, key, hist, *args)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(engine._Driver, "_solve", logged_solve)
        patched.setattr(engine._Driver, "_build_cut_at", logged_build)
        result = run()
    return log, result


def _iterations(problem, cfg, iterate, n):
    """Every field of the first ``n`` reports of a driver run by ``iterate``, then its tally."""
    driver = engine._Driver(problem, cfg)
    reports = []
    for k in range(1, n + 1):
        report = iterate(driver, k)
        if report is None:
            reports.append(None)
            break
        reports.append({**vars(report), "x1": report.x1.tobytes(), "wall_ms": None})
    return reports, dict(driver.tally)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_sweep_makes_the_calls_of_the_old_iteration_loop(data):
    algorithm = data.draw(st.sampled_from(engine.ALGORITHMS))
    if algorithm == "alg2":  # instances without relatively complete recourse
        bound = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
        problem = data.draw(st.sampled_from([make_feasibility_instance, make_chain_instance,
                                             make_cvar_without_complete_recourse]))(bound)
    else:
        risk = data.draw(st.sampled_from([None, RiskSpec(kind="cvar", epsilon=0.5),
                                          RiskSpec(kind="mixture", lam=0.3, epsilon=0.25)]))
        problem = random_lattice_instance(
            np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
            data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)),
            data.draw(st.integers(1, 2)), risk=risk)
        if algorithm == "alg3":
            problem = lattice_to_tree(problem)
    cfg = _cfg(algorithm=algorithm, seed=data.draw(st.integers(0, 1000)),
               cut_timing=data.draw(st.sampled_from(engine.CUT_TIMINGS)))
    sweep = _logged(lambda: _iterations(problem, cfg, engine._Driver.iterate, 12))
    loop = _logged(lambda: _iterations(problem, cfg, iterate_by_loop, 12))
    assert sweep == loop


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_nested_decomposition_makes_the_calls_of_its_old_loops(data):
    problem = random_lattice_instance(
        np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
        data.draw(st.integers(2, 4)), data.draw(st.integers(2, 3)),
        data.draw(st.integers(1, 2)),
        risk=data.draw(st.sampled_from([None, RiskSpec(kind="cvar", epsilon=0.5)])))
    if data.draw(st.booleans()):
        problem = lattice_to_tree(problem)
    sweep = _logged(lambda: oracle.exact_nested_decomposition(problem))
    loop = _logged(lambda: nested_decomposition_by_loop(problem))
    assert sweep == loop
