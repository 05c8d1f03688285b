"""Acceptance suite: one test per shipped guarantee, one printed verdict each.

Run with ``-s`` (or read captured stdout) to see the per-criterion lines.
The run fixtures are shared: the convergence suites (criteria 1-2) also feed
the cut-validity, anchor-equality, subgradient, and monotonicity checks.
"""

import copy
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from checks import cvar_by_minimization, n_optimality_cuts, subgradient_bound
from conftest import (lattice_to_tree, make_newsvendor,
                      random_lattice_instance)
from riskdp import cli, engine, io, model, oracle
from riskdp.cuts import CutError, CutPool, OptimalityCut, evaluate_pool
from riskdp.risk import RiskSpec, risk_value_and_density


def _verdict(num, ok, label):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}"
    print(line)
    assert ok, line


def _acfg(seed, **kw):
    base = dict(algorithm="alg1", max_iters=200, seed=seed, stall_window=20,
                stall_tol=1e-10)
    base.update(kw)
    return engine.RunConfig(**base)


# 18 grid points (every T/M/n combination) plus two redraws: 20 instances.
_C1_GRID = ([(t, m, n) for t in (2, 3, 4) for m in (2, 3) for n in (1, 2, 3)]
            + [(4, 3, 3), (3, 2, 2)])


class _Run:
    """One solved instance plus everything later criteria need from it."""

    def __init__(self, problem, result, target, events):
        self.problem = problem
        self.result = result
        self.target = target
        self.events = events

    @property
    def bounds(self):
        seq = [r.lower_bound for r in self.result.reports]
        if self.result.final_lower_bound is not None:
            seq.append(self.result.final_lower_bound)
        return seq


def _solve_collecting(problem, cfg_kwargs, target):
    events = []
    cfg = engine.RunConfig(probe=events.append, **cfg_kwargs)
    result = engine.run(problem, cfg)
    return _Run(problem, result, target, events)


@pytest.fixture(scope="module")
def c1_runs():
    runs = []
    started = time.perf_counter()
    for i, (t_end, m, n) in enumerate(_C1_GRID):
        rng = np.random.default_rng(1000 + i)
        problem = random_lattice_instance(rng, t_end, m, n)
        target = oracle.extensive_form_value(problem)
        timing = "forward" if i % 7 == 3 else "backward"
        run = _solve_collecting(
            problem, dict(algorithm="alg1", max_iters=200, seed=20 + i,
                          stall_window=30, stall_tol=1e-10, cut_timing=timing),
            target)
        runs.append(run)
    elapsed = time.perf_counter() - started
    return runs, elapsed


_C2_RISKS = [RiskSpec(kind="cvar", epsilon=0.25),
             RiskSpec(kind="cvar", epsilon=0.5),
             RiskSpec(kind="mixture", lam=0.3, epsilon=0.25),
             RiskSpec(kind="mixture", lam=0.6, epsilon=0.5)]


@pytest.fixture(scope="module")
def c2_runs():
    runs = []
    configs = [(2, 2, 1), (3, 2, 2), (3, 3, 1), (4, 2, 1), (2, 3, 3), (3, 2, 1)]
    for i, (t_end, m, n) in enumerate(configs):
        for j, risk in enumerate(_C2_RISKS[:2] if i % 2 else _C2_RISKS[2:]):
            rng = np.random.default_rng(5000 + 10 * i + j)
            problem = random_lattice_instance(rng, t_end, m, n, risk=risk)
            target = oracle.exact_nested_decomposition(problem).value
            run = _solve_collecting(
                problem, dict(algorithm="alg1", max_iters=500, seed=300 + i,
                              stall_window=30, stall_tol=1e-10), target)
            runs.append(run)
    return runs


def _spec_feasibility_instance(stage1_ub=2.0):
    """x1 + x2 = 2 with x2 in [0, 1]: only histories x1 >= 1 can continue."""
    from conftest import linear_cost, payload, stage1
    second = model.Stage([payload(
        2, 1, pieces=linear_cost(2, [1.0]),
        a=[np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]])],
        b=np.array([2.0]), lb=np.zeros(1), ub=np.array([1.0]))])
    return model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                         stages=[stage1(ub=stage1_ub), second],
                         lower_value_bound=np.array([0.0]))


@pytest.fixture(scope="module")
def c7_runs():
    feasible = _spec_feasibility_instance()
    res_feasible = engine.run(feasible, _acfg(seed=11, algorithm="alg2"))
    infeasible = _spec_feasibility_instance(stage1_ub=0.9)
    res_infeasible = engine.run(infeasible, _acfg(seed=11, algorithm="alg2"))
    return [_Run(feasible, res_feasible, oracle.extensive_form_value(feasible), []),
            _Run(infeasible, res_infeasible, math.inf, [])]


def _dependent_tree():
    """3-stage binary tree whose stage data and risk depend on the node.

    Demands, costs, and cvar levels differ between the two stage-2 branches,
    and the leaf constraints reach back to the stage-1 decision, so no
    stagewise-shared (lattice) description of the process exists.
    """
    from conftest import linear_cost, payload
    nodes = [model.Node(id=0, parent=None),
             model.Node(id=1, parent=0, prob=1.0,
                        payload=payload(1, 1, pieces=linear_cost(1, [1.0]),
                                        ub=np.array([3.0])),
                        risk=RiskSpec(kind="cvar", epsilon=0.5))]
    stage2 = {2: (0.4, 0.6, 0.25), 3: (1.6, 0.4, 0.75)}  # id: demand, prob, eps
    for nid, (d, prob, eps) in stage2.items():
        nodes.append(model.Node(
            id=nid, parent=1, prob=prob,
            payload=payload(2, 1, pieces=linear_cost(2, [0.8]),
                            g=np.array([[0.0, -1.0, -1.0]]), h=np.array([-d]),
                            ub=np.array([5.0])),
            risk=RiskSpec(kind="cvar", epsilon=eps)))
    leaves = {2: [(4, 0.9, 0.55), (5, 2.1, 0.45)], 3: [(6, 0.3, 0.5), (7, 3.0, 0.5)]}
    next_rows = []
    for parent, kids in leaves.items():
        for nid, d, prob in kids:
            # the leaf demand row reaches back to x1: x3 >= d - x2 - 0.5 x1
            next_rows.append(model.Node(
                id=nid, parent=parent, prob=prob,
                payload=payload(3, 1, pieces=linear_cost(3, [1.0]),
                                g=np.array([[0.0, -0.5, -1.0, -1.0]]),
                                h=np.array([-d]), ub=np.array([8.0]))))
    return model.Problem(horizon=3, dim=1, x0=np.zeros(1), form=model.TREE,
                         nodes=nodes + next_rows,
                         lower_value_bound=np.array([0.0, 0.0]))


@pytest.fixture(scope="module")
def c8_runs():
    tree = _dependent_tree()
    target = oracle.exact_nested_decomposition(tree).value
    res_tree = engine.run(tree, _acfg(seed=17, algorithm="alg3", max_iters=500))
    # lattice-equivalent pair: single stage-2 branch keeps the per-node pools
    # in one-to-one correspondence with the shared lattice pools
    rng = np.random.default_rng(77)
    seed_instance = random_lattice_instance(rng, 3, 2, 1)
    only = copy.deepcopy(seed_instance.stages[1].realizations[0])
    only.prob = 1.0
    lattice = model.Problem(
        horizon=3, dim=1, x0=seed_instance.x0,
        stages=[seed_instance.stages[0],
                model.Stage([only], risk=seed_instance.stages[1].risk),
                seed_instance.stages[2]],
        lower_value_bound=seed_instance.lower_value_bound)
    twin = lattice_to_tree(lattice)
    res_lat = engine.run(lattice, _acfg(seed=9))
    res_twin = engine.run(twin, _acfg(seed=9, algorithm="alg3"))
    return [_Run(tree, res_tree, target, []),
            _Run(lattice, res_lat, None, []),
            _Run(twin, res_twin, None, [])]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_convergence_to_extensive_form(c1_runs):
    runs, elapsed = c1_runs
    gaps = [abs(run.result.final_lower_bound - run.target) for run in runs]
    iters = [run.result.iters for run in runs]
    ok = (len(runs) >= 20 and max(gaps) <= 1e-6 and max(iters) <= 200
          and elapsed < 60.0)
    _verdict(1, ok,
             f"alg1 matches the extensive form on {len(runs)} random instances "
             f"(max gap {max(gaps):.2e}, max iters {max(iters)}, {elapsed:.1f}s)")


def test_criterion_02_risk_averse_convergence(c2_runs):
    gaps = [abs(run.result.final_lower_bound - run.target) for run in c2_runs]
    iters = [run.result.iters for run in c2_runs]
    ok = max(gaps) <= 1e-6 and max(iters) <= 500
    _verdict(2, ok,
             f"alg1 matches nested decomposition on {len(c2_runs)} cvar/mixture "
             f"instances (max gap {max(gaps):.2e}, max iters {max(iters)})")


def test_criterion_03_cut_validity_against_oracle(c1_runs, c2_runs):
    rng = np.random.default_rng(42)
    worst = 0.0
    n_checked = 0
    for run in c1_runs[0] + c2_runs:
        p = run.problem
        n = p.dim
        for t in range(2, p.horizon + 1):
            pool = run.result.pools.opt[t]
            if not pool.optimality:
                continue
            lo = np.concatenate([p.stages[s - 1].realizations[0].lb
                                 for s in range(1, t)])
            hi = np.concatenate([p.stages[s - 1].realizations[0].ub
                                 for s in range(1, t)])
            xs = rng.uniform(lo, hi, size=(50, lo.shape[0]))
            trues = oracle.true_recourse_value(p, t, xs)
            for x, true in zip(xs, trues):
                approx = evaluate_pool(pool, x)
                worst = max(worst, approx - true)
                n_checked += 1
    ok = worst <= 1e-6
    _verdict(3, ok,
             f"every optimality cut under-estimates the exact recourse at "
             f"{n_checked} sampled histories (worst violation {worst:.2e})")


def test_criterion_04_anchor_equality_assertion(c1_runs, c2_runs, c7_runs, c8_runs):
    # every fixture run finished; the append-time anchor equality check (which
    # raises on violation) therefore never fired.  Verify it is armed.
    armed = False
    pool = CutPool(1)
    pool.append_optimality(OptimalityCut(theta=1.0, beta=np.zeros(1),
                                         anchor=np.zeros(1)))
    try:
        pool.append_optimality(OptimalityCut(theta=0.5, beta=np.zeros(1),
                                             anchor=np.zeros(1)))
    except CutError:
        armed = True
    n_runs = len(c1_runs[0]) + len(c2_runs) + len(c7_runs) + len(c8_runs)
    n_cuts = sum(n_optimality_cuts(run.result.pools)
                 for run in c1_runs[0] + c2_runs + c7_runs + c8_runs)
    ok = armed and n_runs > 0
    _verdict(4, ok,
             f"anchor equality held for all {n_cuts} cuts across {n_runs} runs "
             f"(assertion verified armed)")


def test_criterion_05_subgradient_inequality_and_norm_bound(c1_runs, c2_runs):
    # The runs are over, so each event's ``resolve`` solves against the final
    # pools.  Pools only grow, so that value bounds the event's own value
    # function from above: the inequality checked here is implied by the
    # event-time subgradient inequality, and weaker than it.
    events = [(run, e) for run in c1_runs[0] + c2_runs for e in run.events]
    assert len(events) >= 1000, f"only {len(events)} probe events collected"
    rng = np.random.default_rng(7)
    chosen = rng.choice(len(events), size=1000, replace=False)
    worst = 0.0
    for idx in chosen:
        run, ev = events[idx]
        dec = ev["history"]  # the decisions x_{1:t-1}
        # perturb within the history box: half global redraws, half local moves
        p = run.problem
        lo = np.concatenate([p.stages[s - 1].realizations[0].lb
                             for s in range(1, ev["stage"])])
        hi = np.concatenate([p.stages[s - 1].realizations[0].ub
                             for s in range(1, ev["stage"])])
        for i in range(20):
            if i < 10:
                dec2 = rng.uniform(lo, hi)
            else:
                dec2 = np.clip(dec + rng.uniform(-0.4, 0.4, dec.shape), lo, hi)
            v2 = ev["resolve"](dec2)
            lhs = ev["value"] + float(ev["pi"] @ (dec2 - dec))
            worst = max(worst, lhs - v2)
    ok_ineq = worst <= 1e-7

    # dedicated instance for the norm bound: the newsvendor child values
    # v_j(x1) = (d_j - x1)+ are finite on the box [0, 2] fattened by eps = 1,
    # i.e. on [-1, 3]; there sup v = (2 - (-1)) = 3 and v >= 0 everywhere,
    # so M0 = 3, m0 = 0 bound every collected subgradient norm by 3.
    dedicated = make_newsvendor()
    run_d = _solve_collecting(dedicated,
                              dict(algorithm="alg1", max_iters=60, seed=5,
                                   stall_window=3, stall_tol=1e-9), None)
    bound = subgradient_bound(3.0, 0.0, 1.0)
    norms = [float(np.linalg.norm(e["pi"])) for e in run_d.events]
    norms += [float(np.linalg.norm(c.beta))
              for c in run_d.result.pools.opt[2].optimality]
    ok_norm = bool(norms) and max(norms) <= bound + 1e-9
    _verdict(5, ok_ineq and ok_norm,
             f"subgradient inequality held at 20 perturbations of 1000 solves "
             f"(worst violation {worst:.2e}); all {len(norms)} norms <= "
             f"(M0-m0)/eps = {bound:g}")


def test_criterion_06_cvar_duality():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        values = rng.uniform(-1.0, 2.0, m)
        weights = rng.uniform(0.1, 1.0, m)
        probs = weights / weights.sum()
        eps = float(rng.uniform(0.05, 1.0))
        analytic, _ = risk_value_and_density(
            RiskSpec(kind="cvar", epsilon=eps), probs, values)
        direct = cvar_by_minimization(eps, probs, values)
        worst = max(worst, abs(analytic - direct))
    ok = worst <= 1e-9
    _verdict(6, ok, f"analytic cvar density equals the minimization form on "
                    f"1000 random triples (worst gap {worst:.2e})")


def test_criterion_07_feasibility_cuts(c7_runs):
    feasible, infeasible = c7_runs
    cuts = feasible.result.pools.opt[2].feasibility
    cut_ok = (len(cuts) == 1
              and abs(cuts[0].beta_tilde[0] - (-1.0)) <= 1e-9
              and abs(cuts[0].theta_tilde - (-1.0)) <= 1e-9)
    conv_ok = abs(feasible.result.final_lower_bound - feasible.target) <= 1e-6
    inf_ok = (infeasible.result.status == engine.STATUS_INFEASIBLE
              and infeasible.result.iters == 1)
    dumps = [io.cuts_csv_text(run.result.pools) for run in c7_runs]
    no_dupes = True
    for text in dumps:
        rows = [line for line in text.strip().split("\n")[1:]
                if line.startswith(io.CUT_KIND_FEASIBILITY)]
        no_dupes = no_dupes and len(rows) == len(set(rows))
    ok = cut_ok and conv_ok and inf_ok and no_dupes
    _verdict(7, ok,
             f"alg2 produced the cut x1 >= 1 and the oracle optimum "
             f"{feasible.target:g}; the infeasible variant stopped at iteration "
             f"{infeasible.result.iters}; no duplicate feasibility cuts dumped")


def test_criterion_08_per_node_pools(c8_runs):
    tree_run, lat_run, twin_run = c8_runs
    gap = abs(tree_run.result.final_lower_bound - tree_run.target)
    dep_ok = gap <= 1e-6 and tree_run.result.iters <= 500
    seq_lat = lat_run.bounds
    seq_twin = twin_run.bounds
    twin_ok = (len(seq_lat) == len(seq_twin)
               and max(abs(a - b) for a, b in zip(seq_lat, seq_twin)) <= 1e-9)
    ok = dep_ok and twin_ok
    _verdict(8, ok,
             f"alg3 matched nested decomposition on the node-dependent tree "
             f"(gap {gap:.2e}) and tracked alg1 per-iteration on the "
             f"lattice-equivalent twin over {len(seq_twin)} bounds")


def test_criterion_09_monotone_lower_bounds(c1_runs, c2_runs, c7_runs, c8_runs):
    worst = 0.0
    n_seqs = 0
    for run in c1_runs[0] + c2_runs + c7_runs + c8_runs:
        seq = run.bounds
        if len(seq) >= 2:
            n_seqs += 1
            worst = max(worst, max(a - b for a, b in zip(seq, seq[1:])))
    ok = worst <= 1e-9
    _verdict(9, ok, f"lower bounds nondecreasing across {n_seqs} runs "
                    f"(worst backstep {worst:.2e})")


def _strip_wall_ms(text):
    return [line.rsplit(",", 1)[0] for line in text.strip().split("\n")]


def test_criterion_10_byte_identical_replay(tmp_path):
    cases = [("newsvendor", make_newsvendor(), ["--alg", "alg1", "--seed", "3"]),
             ("feas", _spec_feasibility_instance(), ["--alg", "alg2", "--seed", "5"]),
             ("tree", _dependent_tree(), ["--alg", "alg3", "--seed", "7"])]
    rng = np.random.default_rng(200)
    cases.append(("random", random_lattice_instance(rng, 3, 2, 2),
                  ["--alg", "alg1", "--seed", "9", "--cut-timing", "forward"]))
    ok = True
    for name, problem, flags in cases:
        src = tmp_path / f"{name}.json"
        io.save_problem(problem, src)
        out1 = tmp_path / f"{name}-a"
        out2 = tmp_path / f"{name}-b"
        assert cli.main(["solve", str(src), "--out", str(out1)] + flags) in (0, 1)
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "riskdp.cli", "solve", str(src),
             "--out", str(out2)] + flags,
            env=env, capture_output=True, text=True)
        assert proc.returncode in (0, 1), proc.stderr
        same_cuts = ((out1 / "cuts.csv").read_bytes()
                     == (out2 / "cuts.csv").read_bytes())
        same_summary = ((out1 / "summary.json").read_bytes()
                        == (out2 / "summary.json").read_bytes())
        same_log = (_strip_wall_ms((out1 / "iterations.csv").read_text())
                    == _strip_wall_ms((out2 / "iterations.csv").read_text()))
        ok = ok and same_cuts and same_summary and same_log
    _verdict(10, ok,
             f"{len(cases)} instances replayed byte-identically (cut dumps and "
             f"summaries exact; iteration logs exact up to the wall-clock field), "
             f"single-threaded run included")
