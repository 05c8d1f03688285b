"""Brute-force references and sample checks used only by the test suite.

None of these feed the solver: they evaluate a cost directly, bound
subgradient norms from value bounds, sample-test the subgradient inequality,
split an assembled subgradient into its row-block terms, evaluate CVaR by its
variational form and grid-search a small box, so tests can compare the
package's answers against routes that share none of its arithmetic.  One
more, :func:`nd_true_recourse_value`, recomputes a pool's exact recourse
child by child with nested decomposition, a route that shares nothing with
the extensive form it checks.  :func:`per_node_extensive_form_value` and
:func:`per_node_recourse_value` build the oracle's nested-risk models the
way ``riskdp.oracle`` did before its layered build, one scenario node and
one risk measure at a time (:func:`per_node_tail`, :func:`per_node_risk`),
on the same ``_NestedRiskLp``.  :func:`check_cuts_by_loop` and
:func:`pool_violations_by_loop` judge a cut dump the way ``riskdp
check-cuts`` did before its joint oracle and its array check: one model
per pool, one cut at one point at a time.
:func:`validate_problem_by_loop` validates a problem the way
``riskdp.model.validate_problem`` did before its one-pass payload check,
one payload at a time.  :func:`nodes_at_depth` lists a tree's nodes at one
depth, and
:func:`n_optimality_cuts` and :func:`n_feasibility_cuts` count the cuts of
a run's pools.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from riskdp import io
from riskdp.cli import _history_box
from riskdp.model import LATTICE, TREE, ModelError, PwlConvexCost
from riskdp.oracle import (OracleError, _NestedRiskLp, conditioned_problem,
                           exact_nested_decomposition, true_recourse_value)
from riskdp.risk import PROB_TOL, RiskConfigError, risk_value_and_density, validate_risk_set
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


def per_node_risk(lp, spec, probs: np.ndarray, values: np.ndarray) -> int:
    """A column ``R >= rho(V[values])`` for the one-step measure ``spec``, rows of its own.

    Expectation: ``R >= sum_j phi_j V_j``.  CVaR and mixture, by
    Rockafellar–Uryasev: ``R >= (1-lam) sum_j phi_j V_j + lam (u + sum_j
    phi_j s_j / eps)`` with ``s_j >= V_j - u``, ``s_j >= 0`` (``lam = 1``
    for CVaR).  Polytope, by duality of the density LP: ``R >= mu + rhs .
    lam`` with ``mu phi_j + (A^T lam)_j >= phi_j V_j``, ``lam >= 0``.
    """
    m = len(values)
    r = lp.columns(1)
    if spec.kind == "polytope":
        a = np.array([np.asarray(row, dtype=float) for row, _ in spec.rows])
        rhs = np.array([b for _, b in spec.rows])
        mu = lp.columns(1)
        lam = lp.columns(len(rhs), lower=0.0)
        lp.rows(np.concatenate([values, mu, lam]),
                np.hstack([np.diag(probs), -probs[:, None], -a.T]), np.zeros(m))
        lp.rows(np.concatenate([mu, lam, r]), np.concatenate([[1.0], rhs, [-1.0]]), 0.0)
        return int(r[0])
    lam = {"expectation": 0.0, "cvar": 1.0, "mixture": spec.lam}[spec.kind]
    if lam == 0.0:
        lp.rows(np.concatenate([values, r]), np.append(probs, -1.0), 0.0)
        return int(r[0])
    u = lp.columns(1)
    s = lp.columns(m, lower=0.0)
    lp.rows(np.concatenate([values, u, s]),
            np.hstack([np.eye(m), -np.ones((m, 1)), -np.eye(m)]), np.zeros(m))
    lp.rows(np.concatenate([values, u, s, r]),
            np.concatenate([(1.0 - lam) * probs, [lam], lam * probs / spec.epsilon, [-1.0]]), 0.0)
    return int(r[0])


def per_node_tail(lp, problem, where, first: int = 0) -> int:
    """Add the nested epigraph below position ``where`` node by node; return its value column.

    Every scenario node ``m`` below ``where`` gets its decision columns, a
    value column ``V_m >= cost_m(x_{1:m}) + R_m`` (one row per cost piece)
    and, when it has children, the risk rows of ``R_m``
    (:func:`per_node_risk`); its payload's rows come from one
    ``Realization.fold_map`` over the history of ``where``'s stage, read
    from parameter entry ``first`` on.
    """
    topo = problem.topology
    k = (topo.stage(where) - 1) * problem.dim
    nodes = topo.scenarios(where)
    x_cols: dict = {(): np.zeros(0, dtype=int)}
    v_col: dict = {}
    kids: dict = {}
    for node in nodes:
        pay = topo.payload(node.where)
        x_cols[node.key] = np.concatenate(
            [x_cols[node.parent], lp.columns(problem.dim, pay.lb, pay.ub)])
        v_col[node.key] = int(lp.columns(1)[0])
        kids.setdefault(node.parent, []).append(v_col[node.key])
    for node in nodes:
        rows, b_hist, h_hist, d_hist = topo.payload(node.where).fold_map(problem.x0, k)
        path = x_cols[node.key]
        lp.rows(path, rows.a, rows.b, eq=True, hist=b_hist, first=first)
        lp.rows(path, rows.g, rows.h, hist=h_hist, first=first)
        n_p = rows.pieces_d.shape[0]
        value = [v_col[node.key]]
        pieces = [rows.pieces_c, -np.ones((n_p, 1))]
        if node.key in kids:
            key = topo.pool(node.where)
            value.append(per_node_risk(lp, topo.risk(key), topo.probs(key),
                                       np.array(kids[node.key])))
            pieces.append(np.ones((n_p, 1)))
        lp.rows(np.concatenate([path, value]), np.hstack(pieces), -rows.pieces_d,
                hist=d_hist, first=first)
    return v_col[(0,)]


def per_node_extensive_form_value(problem) -> float:
    """``riskdp.oracle.extensive_form_value`` from the per-node model of the stage-1 tail."""
    lp = _NestedRiskLp()
    return float(lp.minimize([per_node_tail(lp, problem, problem.topology.first)],
                             np.zeros((1, 0)))[0, 0])


def per_node_recourse_value(problem, where, stack) -> np.ndarray:
    """Pool ``where``'s exact recourse at each history of ``stack``, from its per-node model.

    The pool's own model: its children's tails (:func:`per_node_tail`)
    under its risk rows (:func:`per_node_risk`), so a history reads ``+inf``
    exactly where this pool's LP is infeasible; 0 at a terminal key.
    """
    topo = problem.topology
    stack = np.atleast_2d(stack)
    if topo.terminal(where):
        return np.zeros(stack.shape[0])
    lp = _NestedRiskLp()
    lp.k = topo.arg_dim(where)
    values = [per_node_tail(lp, problem, kid) for kid in topo.children(where)]
    col = per_node_risk(lp, topo.risk(where), topo.probs(where), np.array(values))
    return lp.minimize([col], stack)[:, 0]


def check_cuts_by_loop(problem, records, points: int, seed: int,
                       tol: float) -> tuple[list[str], int]:
    """``riskdp check-cuts``'s violation lines for a cut dump, pool by pool.

    The same pools in the same order and the same sampled histories as the
    command; each pool's exact recourse from its own model
    (:func:`riskdp.oracle.true_recourse_value`), where the command solves
    every pool in one, and each pool judged by
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


def validate_problem_by_loop(p) -> list[str]:
    """``riskdp.model.validate_problem``'s messages, each payload judged on its own.

    The form that the one-pass payload check replaced, kept as its
    reference: every payload runs ``Realization.violations`` (a dozen numpy
    reductions), whether or not the problem has a fault.
    """
    out: list[str] = []
    if p.horizon < 1:
        out.append("horizon must be >= 1")
    if p.dim < 1:
        out.append("dim must be >= 1")
    if p.x0.shape[0] != p.dim:
        out.append(f"x0 must have {p.dim} coordinates")
    elif not np.isfinite(p.x0).all():
        out.append("x0 entries must be finite")
    expected_l = max(p.horizon - 1, 0)
    if p.lower_value_bound.shape[0] != expected_l:
        out.append(f"lower_value_bound must list {expected_l} values (stages 2..T)")
    elif not np.all(np.isfinite(p.lower_value_bound)):
        out.append("lower_value_bound entries must be finite")
    if p.form not in (LATTICE, TREE):
        return out + [f"unknown form {p.form!r}"]
    topo = p.topology
    if topo.defects:
        return out + topo.defects
    root, horizon = topo.root, p.horizon
    if len(topo.children(root)) != 1:
        out.append(f"{topo.label(root)}: must have exactly one child (deterministic first stage)")
    reader_stage = {root: 0} | {topo.pool(w): topo.stage(w) for w in topo.positions}
    for key, s in reader_stage.items():
        where = topo.label(key)
        if topo.terminal(key):
            if s < horizon:
                out.append(f"{where}: leaf at stage {s}, expected {horizon} stages")
            continue
        if s >= horizon:
            out.append(f"{where}: children beyond the horizon, expected {horizon} stages")
        if any(topo.payload(w) is None for w in topo.children(key)):
            continue  # reported as a missing payload; a lattice keeps its probability there
        probs = topo.probs(key)
        if not (probs > 0.0).all():
            out.append(f"{where}: probabilities must be strictly positive")
        if not abs(probs.sum() - 1.0) <= PROB_TOL:
            out.append(f"{where}: probabilities sum != 1")
        elif key != root:
            try:
                validate_risk_set(topo.risk(key), probs / probs.sum())
            except RiskConfigError as exc:
                out.append(f"{where}: risk spec invalid: {exc}")
    for w in topo.positions:
        payload = topo.payload(w)
        if payload is None:
            out.append(f"{topo.label(w)}: missing payload")
        else:
            out.extend(payload.violations(topo.stage(w), p.dim, topo.label(w)))
    return out
