"""Brute-force references and sample checks used only by the test suite.

None of these feed the solver: they evaluate a cost directly, bound
subgradient norms from value bounds, sample-test the subgradient inequality,
split an assembled subgradient into its row-block terms, evaluate CVaR by its
variational form and grid-search a small box, so tests can compare the
package's answers against routes that share none of its arithmetic.  One
more, :func:`nd_true_recourse_value`, recomputes a pool's exact recourse
child by child with nested decomposition, a route that shares nothing with
the extensive form it checks.  :func:`check_cuts_by_loop` and
:func:`pool_violations_by_loop` judge a cut dump the way ``riskdp
check-cuts`` did before its array check, one cut at one point at a time.
:func:`nodes_at_depth` lists a tree's nodes at one depth, and
:func:`n_optimality_cuts` and :func:`n_feasibility_cuts` count the cuts of
a run's pools.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from riskdp import io
from riskdp.cli import _history_box
from riskdp.model import ModelError, PwlConvexCost
from riskdp.oracle import (OracleError, conditioned_problem, exact_nested_decomposition,
                           true_recourse_value)
from riskdp.risk import risk_value_and_density
from riskdp.valuefn import MU_ZERO_TOL

CHECK_TOL = 1e-7     # default slack in check_subgradient


def evaluate_cost_and_history_subgradient(cost: PwlConvexCost, x) -> tuple[float, np.ndarray]:
    """Evaluate the cost at ``x = (x_1, ..., x_t)`` and return a history slope.

    Returns
    -------
    (value, subgrad)
        ``value`` is the max over pieces; ``subgrad`` is the ``x_{1:t-1}``
        block of the lowest-index active piece.  That block is always a valid
        subgradient of the partial map ``x_{1:t-1} -> cost(x_{1:t-1}, x_t)``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != cost.pieces_c.shape[1]:
        raise ModelError(f"cost expects {cost.pieces_c.shape[1]} coordinates, got {x.shape[0]}")
    vals = cost.pieces_c @ x + cost.pieces_d
    i = int(np.argmax(vals))  # first maximizer = lowest index
    hist_len = x.shape[0] - cost.dim
    return float(vals[i]), cost.pieces_c[i, :hist_len].copy()


def subgradient_bound(m_hi: float, m_lo: float, eps: float) -> float:
    """Norm bound ``(m_hi - m_lo) / eps`` for subgradients of a convex function
    with values in ``[m_lo, m_hi]`` on an ``eps``-enlargement of its domain."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if m_hi < m_lo:
        raise ValueError("upper value bound below lower value bound")
    return (m_hi - m_lo) / eps


def check_subgradient(q_eval, x0, s, n_samples: int = 100, radius: float = 1.0,
                      tol: float = CHECK_TOL, seed: int = 0,
                      lower=None, upper=None) -> list[dict]:
    """Sample-test the subgradient inequality ``Q(x) >= Q(x0) + <s, x - x0>``.

    Points are drawn uniformly from the max-norm ball of the given radius
    around ``x0``, clipped to ``[lower, upper]`` when bounds are supplied;
    samples where ``q_eval`` returns a non-finite value are skipped.

    Returns
    -------
    list of dict
        One entry per violation beyond ``tol``, with keys ``x``, ``value``,
        ``bound`` and ``gap``.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    s = np.asarray(s, dtype=float).reshape(-1)
    base = float(q_eval(x0))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        x = x0 + rng.uniform(-radius, radius, size=x0.shape[0])
        if lower is not None:
            x = np.maximum(x, lower)
        if upper is not None:
            x = np.minimum(x, upper)
        val = float(q_eval(x))
        if not np.isfinite(val):
            continue
        bound = base + float(s @ (x - x0))
        if val < bound - tol:
            out.append({"x": x, "value": val, "bound": bound, "gap": bound - val})
    return out


@dataclass
class SubgradientTerms:
    """The additive terms of a stage LP's history subgradient, one per row block."""

    cost_term: np.ndarray
    eq_term: np.ndarray
    g_term: np.ndarray
    cut_term: np.ndarray


def subgradient_terms(problem, where, sol, view) -> SubgradientTerms:
    """Split the history subgradient of one optimal stage LP by row block.

    The block formula ``valuefn.assemble_pi`` replaced, kept as its
    reference: ``sum_i mu_i c_i,hist - A_hist^T dual_eq + G_hist^T mu_G +
    beta1^T mu_cut`` over the decision history ``x_{1:t-1}``, with the
    history blocks read from the payload's ``Realization.fold_map``.  The
    inequality duals are laid out [g rows][cost-piece rows][optimality-cut
    rows][feasibility-cut rows]; multipliers below ``MU_ZERO_TOL`` count as
    inactive.
    """
    topo = problem.topology
    k = (topo.stage(where) - 1) * problem.dim
    _rows, b_hist, h_hist, d_hist = topo.payload(where).fold_map(problem.x0, k)
    mu = np.where(sol.dual_ineq < MU_ZERO_TOL, 0.0, sol.dual_ineq)
    n_g, n_p = h_hist.shape[0], d_hist.shape[0]
    cut_rows = np.vstack([view.opt_beta1, view.feas_beta1])
    return SubgradientTerms(cost_term=mu[n_g:n_g + n_p] @ d_hist,
                            eq_term=-(b_hist.T @ sol.dual_eq),
                            g_term=h_hist.T @ mu[:n_g],
                            cut_term=cut_rows.T @ mu[n_g + n_p:])


def cvar_by_minimization(epsilon: float, probs, values) -> float:
    """CVaR via its variational form ``min_u u + E[(v - u)+] / epsilon``.

    Independent of the density route of ``riskdp.risk``: the minimum of the
    piecewise-linear objective is attained at one of the outcome values, so
    scanning those breakpoints is exact.
    """
    probs = np.asarray(probs, dtype=float).reshape(-1)
    values = np.asarray(values, dtype=float).reshape(-1)
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    return float(min(u + float(probs @ np.maximum(values - u, 0.0)) / epsilon
                     for u in np.unique(values)))


def grid_minimum(fun, lb, ub, points: int = 2001) -> float:
    """Brute-force minimum of a scalar function over a box grid (<= 2 dims)."""
    lb = np.asarray(lb, dtype=float).reshape(-1)
    ub = np.asarray(ub, dtype=float).reshape(-1)
    if lb.shape[0] > 2:
        raise OracleError("grid search supports at most two dimensions")
    axes = [np.linspace(lo, hi, points) for lo, hi in zip(lb, ub)]
    best = math.inf
    for point in itertools.product(*axes):
        best = min(best, fun(np.array(point)))
    return best


def nodes_at_depth(problem, d: int) -> list[int]:
    """The ids of a tree problem's nodes at depth ``d``, ascending."""
    depth = problem.topology.depth
    return [nid for nid in sorted(depth) if depth[nid] == d]


def n_optimality_cuts(pools) -> int:
    """The optimality cuts of an ``engine.PoolSet``, the permanent zero pools left out."""
    return sum(len(pool.optimality) for key, pool in pools.opt.items()
               if not pools.topology.terminal(key))


def n_feasibility_cuts(pools) -> int:
    """The feasibility cuts of an ``engine.PoolSet``."""
    return sum(len(pool.feasibility) for pool in pools.opt.values())


def nd_true_recourse_value(problem, where, history) -> float:
    """Pool ``where``'s exact recourse at ``history`` by nested decomposition.

    Each child's tail, conditioned on the history, is solved on its own by
    nested decomposition, and the values are aggregated with the pool's risk
    measure: the per-child route that the one-LP
    :func:`riskdp.oracle.true_recourse_value` replaces.  Every tail must have
    relatively complete recourse.
    """
    topo = problem.topology
    if topo.terminal(where):
        return 0.0
    values = [exact_nested_decomposition(conditioned_problem(problem, kid, history)).value
              for kid in topo.children(where)]
    return risk_value_and_density(topo.risk(where), topo.probs(where), np.asarray(values))[0]


def check_cuts_by_loop(problem, records, points: int, seed: int,
                       tol: float) -> tuple[list[str], int]:
    """``riskdp check-cuts``'s violation lines for a cut dump, by its per-record loop.

    The same pools in the same order, the same sampled histories and exact
    recourse values as the command, each pool judged by
    :func:`pool_violations_by_loop`.  Returns the violation lines in print
    order and the count of sampled histories whose recourse is ``+inf``.
    """
    rng = np.random.default_rng(seed)
    by_where: dict = {}
    for rec in records:
        by_where.setdefault(rec.where, []).append(rec)
    lines, n_infinite = [], 0
    for where in sorted(by_where):
        lo, hi = _history_box(problem, where)
        xs = rng.uniform(lo, hi, size=(points, lo.shape[0]))
        trues = true_recourse_value(problem, where, xs)
        n_infinite += int(np.isinf(trues).sum())
        lines += pool_violations_by_loop(where, by_where[where], xs, trues, tol)
    return lines, n_infinite


def pool_violations_by_loop(where, recs, xs, trues, tol: float) -> list[str]:
    """One pool's violation lines, judging one cut at one point at a time.

    The scalar loop that ``cli._pool_violations`` replaced, kept as its
    reference.
    """
    lines = []
    for x, true in zip(xs, trues.tolist()):
        for rec in recs:
            if rec.kind == io.CUT_KIND_OPTIMALITY:
                if math.isinf(true):
                    continue  # any lower bound is valid where recourse is +inf
                val = rec.theta + float(rec.beta @ (x - rec.anchor))
                if val > true + tol:
                    lines.append(f"violation: optimality cut (pool {where}, iteration "
                                 f"{rec.iteration}) claims {io.format_float(val)} above "
                                 f"exact recourse {io.format_float(true)}")
            else:
                if math.isinf(true):
                    continue  # excluding an infeasible history is correct
                if float(rec.beta @ x) > rec.theta + tol:
                    lines.append(f"violation: feasibility cut (pool {where}, iteration "
                                 f"{rec.iteration}) excludes a history with finite "
                                 f"recourse {io.format_float(true)}")
    return lines
