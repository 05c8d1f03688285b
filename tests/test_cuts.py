"""Tests for cut construction, pooling, and the pool invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_lattice_instance
from riskdp import cuts, engine, lp, model, valuefn
from riskdp.risk import RiskSpec


def _cut(theta, beta, anchor, stage=2, iteration=0):
    return cuts.OptimalityCut(theta=float(theta), beta=np.asarray(beta, dtype=float),
                              anchor=np.asarray(anchor, dtype=float),
                              iteration=iteration, stage=stage)


def test_cut_value_at():
    cut = _cut(1.0, [2.0], [0.0])
    assert cut.value_at(np.array([3.0])) == pytest.approx(7.0)
    assert cut.value_at(np.array([-1.0])) == pytest.approx(-1.0)


def test_evaluate_pool_is_max_over_cuts():
    pool = cuts.CutPool(1)
    pool.append_optimality(_cut(1.0, [2.0], [0.0]))
    pool.append_optimality(_cut(-1.0, [-1.0], [-1.0]))
    assert cuts.evaluate_pool(pool, np.array([2.0])) == pytest.approx(5.0)
    # at -2 the flatter second cut wins: -1 + (-1) * (-2 - (-1)) = 0
    assert cuts.evaluate_pool(pool, np.array([-2.0])) == pytest.approx(0.0)


def test_evaluate_empty_pool():
    pool = cuts.CutPool(1)
    assert cuts.evaluate_pool(pool, np.array([0.0])) == -np.inf


@pytest.mark.parametrize("make, message", [
    (lambda: cuts.build_optimality_cut([1.0, None], [np.zeros(1), np.zeros(1)],
                                       [0.5, 0.5], RiskSpec(), np.zeros(1)),
     "incomplete child set: missing child solve"),
    (lambda: cuts.build_optimality_cut([1.0, 2.0], [np.zeros(2), np.zeros(2)],
                                       [0.5, 0.5], RiskSpec(), np.zeros(1)),
     "subgradient dimension 2 != anchor dimension 1"),
    (lambda: cuts.CutPool(2).append_feasibility(
        cuts.FeasibilityCut(theta_tilde=0.0, beta_tilde=np.zeros(3))),
     "cut dimension 3 != pool dimension 2"),
], ids=["missing-child", "pi-anchor-dimension", "feasibility-dimension"])
def test_malformed_cut_inputs_raise(make, message):
    with pytest.raises(cuts.CutError, match=message):
        make()


def test_anchor_equality_enforced_on_append():
    pool = cuts.CutPool(1)
    pool.append_optimality(_cut(1.0, [0.0], [0.0]))
    # a dominated cut cannot claim to be tight at its own anchor
    with pytest.raises(cuts.CutError):
        pool.append_optimality(_cut(0.5, [0.0], [0.0]))
    pool.append_optimality(_cut(1.2, [0.0], [0.0]))
    assert cuts.evaluate_pool(pool, np.array([0.0])) == pytest.approx(1.2)


def test_build_optimality_cut_expectation():
    cut = cuts.build_optimality_cut(
        child_values=[1.0, 2.0], child_pis=[np.array([-1.0]), np.array([-1.0])],
        probs=np.array([0.5, 0.5]), risk_spec=RiskSpec(kind="expectation"),
        anchor=np.zeros(1), stage=2, iteration=1)
    assert cut.theta == pytest.approx(1.5)
    assert np.allclose(cut.beta, [-1.0])
    assert cut.value_at(np.zeros(1)) == pytest.approx(1.5)


def test_build_optimality_cut_tail_risk():
    cut = cuts.build_optimality_cut(
        child_values=[1.0, 2.0], child_pis=[np.array([-1.0]), np.array([-1.0])],
        probs=np.array([0.5, 0.5]), risk_spec=RiskSpec(kind="cvar", epsilon=0.5),
        anchor=np.zeros(1), stage=2, iteration=1)
    assert cut.theta == pytest.approx(2.0)
    assert np.allclose(cut.beta, [-1.0])


def test_build_optimality_cut_rejects_bad_input():
    with pytest.raises(cuts.CutError):
        cuts.build_optimality_cut([1.0], [np.array([-1.0]), np.array([-1.0])],
                                  np.array([0.5, 0.5]), RiskSpec(), np.zeros(1))
    with pytest.raises(cuts.CutError):
        cuts.build_optimality_cut([np.inf, 2.0],
                                  [np.array([-1.0]), np.array([-1.0])],
                                  np.array([0.5, 0.5]), RiskSpec(), np.zeros(1))


def test_build_feasibility_cut_worked_example():
    # phase-I value 0.5 at anchor x = 0.5 with equality dual 1 and history
    # column 1 has slope -1 and yields -x <= -1, i.e. the exact condition x >= 1
    cut = cuts.build_feasibility_cut(
        phase1_value=0.5, slope=np.array([-1.0]),
        anchor=np.array([0.5]), stage=2, index=1, iteration=1)
    assert np.allclose(cut.beta_tilde, [-1.0])
    assert cut.theta_tilde == pytest.approx(-1.0)
    violation = cut.beta_tilde @ np.array([0.5]) - cut.theta_tilde
    assert violation == pytest.approx(0.5, abs=1e-12)


def test_build_feasibility_cut_two_rows():
    # x2_1 = 2 - x1 in [0, 1] and x2_2 = 3 - x1 in [0, 1.5]; l1 elastic value
    # at x1 = 0 is 2.5 with both equality duals 1, giving -2 x1 <= -2.5 — a
    # valid under-approximation of the true requirement x1 >= 1.5
    prob = lp.LpProblem(
        c=np.concatenate([np.zeros(2), np.ones(4)]),
        a_eq=np.hstack([np.eye(2), np.eye(2), -np.eye(2)]),
        b_eq=np.array([2.0, 3.0]),
        a_ub=None, b_ub=None,
        lower=np.concatenate([np.zeros(2), np.zeros(4)]),
        upper=np.concatenate([np.array([1.0, 1.5]), np.full(4, np.inf)]))
    sol = lp.solve(prob)
    assert sol.objective == pytest.approx(2.5, abs=1e-9)
    assert np.allclose(sol.dual_eq, [1.0, 1.0], atol=1e-9)
    # both equality rows read b0 - 1 . x1: slope -(1 + 1)
    slope = valuefn.assemble_pi(np.array([[1.0], [1.0]]), sol)
    cut = cuts.build_feasibility_cut(
        phase1_value=sol.objective, slope=slope,
        anchor=np.zeros(1), stage=2, index=1, iteration=1)
    assert np.allclose(cut.beta_tilde, [-2.0])
    assert cut.theta_tilde == pytest.approx(-2.5)
    violation = cut.beta_tilde @ np.zeros(1) - cut.theta_tilde
    assert violation == pytest.approx(sol.objective, abs=1e-12)
    for x1 in (1.5, 1.75, 2.0):  # no truly feasible history is cut off
        assert cut.beta_tilde @ np.array([x1]) - cut.theta_tilde <= 1e-12


def test_build_feasibility_cut_requires_positive_value():
    with pytest.raises(cuts.CutError):
        cuts.build_feasibility_cut(0.0, np.array([-1.0]), np.zeros(1))


def test_duplicate_feasibility_cut_rejected():
    pool = cuts.CutPool(1)
    cut = cuts.FeasibilityCut(theta_tilde=-1.0, beta_tilde=np.array([-1.0]),
                              stage=2, index=1, iteration=1)
    pool.append_feasibility(cut)
    clone = cuts.FeasibilityCut(theta_tilde=-1.0, beta_tilde=np.array([-1.0]),
                                stage=2, index=2, iteration=2)
    with pytest.raises(cuts.CutError):
        pool.append_feasibility(clone)
    nearby = cuts.FeasibilityCut(theta_tilde=-1.0 + 1e-6,
                                 beta_tilde=np.array([-1.0]),
                                 stage=2, index=3, iteration=2)
    pool.append_feasibility(nearby)
    assert len(pool.feasibility) == 2


def test_pool_view_layout_and_cache():
    pool = cuts.CutPool(2)
    pool.append_optimality(_cut(3.0, [1.0, 2.0], [1.0, 1.0]))
    view = pool.view(1)
    assert view.n_opt == 1 and view.n_feas == 0
    assert np.allclose(view.opt_beta1, [[1.0]])
    assert np.allclose(view.opt_beta2, [[2.0]])
    # rhs constant is beta @ anchor - theta
    assert np.allclose(view.opt_rhs_const, [0.0])
    assert pool.view(1) is view  # cached until the pool grows
    pool.append_feasibility(cuts.FeasibilityCut(
        theta_tilde=7.0, beta_tilde=np.array([4.0, 5.0]), stage=2, index=1,
        iteration=1))
    fresh = pool.view(1)
    assert fresh is not view
    assert np.allclose(fresh.feas_beta1, [[4.0]])
    assert np.allclose(fresh.feas_beta2, [[5.0]])
    assert np.allclose(fresh.feas_rhs_const, [7.0])


def test_append_checks_dimensions():
    pool = cuts.CutPool(2)
    with pytest.raises(cuts.CutError):
        pool.append_optimality(_cut(0.0, [1.0], [0.0]))
    with pytest.raises(cuts.CutError):
        pool.append_optimality(_cut(np.nan, [0.0, 0.0], [0.0, 0.0]))


# ---------------------------------------------------------------------------
# the dedup rule: one LP row, one pooled cut
# ---------------------------------------------------------------------------

def test_same_lp_row_with_other_theta_and_anchor_is_skipped():
    pool = cuts.CutPool(1)
    assert pool.append_optimality(_cut(1.0, [2.0], [0.0]))
    # 3 + 2 (x - 1) = 1 + 2 x: the same row -2 <= ... with rhs_const -1
    twin = _cut(3.0, [2.0], [1.0])
    assert twin.rhs_const == pool.optimality[0].rhs_const
    assert not pool.append_optimality(twin)
    assert len(pool.optimality) == 1
    # within the row tolerance still counts as the same row
    assert not pool.append_optimality(_cut(1.0 + 0.5 * cuts.CUT_ROW_TOL,
                                           [2.0], [0.0]))
    assert len(pool.optimality) == 1


def test_parallel_cut_with_a_higher_intercept_is_kept():
    pool = cuts.CutPool(1)
    assert pool.append_optimality(_cut(1.0, [1.0], [0.0]))       # 1 + x
    # same theta and beta, anchor -1: the function 2 + x lies above 1 + x
    higher = _cut(1.0, [1.0], [-1.0])
    assert pool.append_optimality(higher)
    assert len(pool.optimality) == 2
    assert cuts.evaluate_pool(pool, np.array([0.0])) == pytest.approx(2.0)


def test_duplicate_breaking_anchor_equality_still_raises():
    pool = cuts.CutPool(1)
    pool.append_optimality(_cut(1.0, [1.0], [0.0]))              # 1 + x
    pool.append_optimality(_cut(5.0, [0.0], [0.0]))              # 5
    # 3 + (x - 2) is the row of 1 + x, but the pool reads 5 at x = 2
    with pytest.raises(cuts.CutError, match="pool-at-anchor mismatch"):
        pool.append_optimality(_cut(3.0, [1.0], [2.0]))
    assert len(pool.optimality) == 2


def _tangent_cuts(rng, arg_dim, n_pieces, n_cuts):
    """Cuts of ``max_i <B_i, x> + c_i`` at random anchors: the active piece.

    Every such cut attains the function at its anchor and lies below it
    elsewhere, so they satisfy anchor equality in any order; anchors that
    share an active piece give the same LP row.
    """
    slopes = rng.uniform(-1.0, 1.0, size=(n_pieces, arg_dim))
    consts = rng.uniform(-1.0, 1.0, size=n_pieces)
    out = []
    for k, anchor in enumerate(rng.uniform(0.0, 3.0, size=(n_cuts, arg_dim))):
        values = slopes @ anchor + consts
        i = int(np.argmax(values))
        out.append(cuts.OptimalityCut(theta=float(values[i]), beta=slopes[i].copy(),
                                      anchor=anchor, iteration=k + 1, stage=3))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_deduped_pool_matches_the_full_list(seed):
    rng = np.random.default_rng(seed)
    problem = random_lattice_instance(rng, 3, 2, 2)
    n = problem.dim
    n_pieces = int(rng.integers(1, 5))
    built = _tangent_cuts(rng, 2 * n, n_pieces, 30)
    deduped = cuts.CutPool(2 * n)
    kept = [c for c in built if deduped.append_optimality(c)]
    assert len(deduped.optimality) == len(kept) <= n_pieces
    assert all(a is b for a, b in zip(deduped.optimality, kept))
    full = cuts.CutPool(2 * n)
    full.optimality.extend(built)           # the unselected path: every cut
    for x in rng.uniform(-1.0, 4.0, size=(20, 2 * n)):
        assert cuts.evaluate_pool(deduped, x) == pytest.approx(
            cuts.evaluate_pool(full, x), abs=1e-9)
    for j in range(2):
        x1 = rng.uniform(problem.stages[0].realizations[0].lb,
                         problem.stages[0].realizations[0].ub)
        sub = model.assemble_subproblem(problem, (2, j))
        history = x1
        objs = []
        for pool in (deduped, full):
            prob, _b0, _hist = engine.build_stage_lp(sub, pool.view(n), problem.z_lower(2),
                                                     history)
            sol = lp.solve(prob)
            assert sol.status == lp.OPTIMAL
            objs.append(sol.objective)
        assert objs[0] == pytest.approx(objs[1], abs=1e-9)
