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
one payload at a time.  :func:`problem_from_dict_by_walk` and
:func:`read_cuts_csv_by_row` read a problem document and a cut dump the way
``riskdp.io`` did before its one-pass reader: the payload constructors
convert each field, one level-by-level walk checks every entry's type, and
a dump is parsed row by row.  :func:`iterate_by_loop` and
:func:`nested_decomposition_by_loop` run the sampled drivers' iteration and
nested decomposition the way ``riskdp.engine`` and ``riskdp.oracle`` did
before the driver's one forward and backward sweep, each with a loop of
its own.  :func:`append_rows_by_stacking`, :func:`exchange_by_mask`,
:func:`build_stage_lp_by_stacking` and :func:`simplex_arrays_by_stacking`
insert cut rows into a held LP, update its inverse, build a stage LP and
lay out a simplex's arrays the way ``riskdp.lp`` and ``riskdp.engine`` did
before their leaner builds, for byte-for-byte comparisons.
:func:`nodes_at_depth` lists a tree's nodes at one depth, and
:func:`n_optimality_cuts` and :func:`n_feasibility_cuts` count the cuts of
a run's pools.  :func:`run_fresh` runs a snippet in a new interpreter, for
the tests of what riskdp imports: the test process itself has imported
``scipy.optimize`` by the time they run.  :func:`perfbench_module` loads a
benchmark module read-only, for the tests that run its workloads.
"""

import importlib.util
import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from riskdp import engine, io, lp, oracle
from riskdp.cli import _history_box
from riskdp.model import (LATTICE, TREE, ModelError, Node, Problem, PwlConvexCost,
                          Realization, Stage)
from riskdp.oracle import (OracleError, _NestedRiskLp, conditioned_problem,
                           exact_nested_decomposition, true_recourse_value)
from riskdp.risk import (PROB_TOL, RiskConfigError, RiskSpec, _json_number,
                         risk_value_and_density, validate_risk_set)
from riskdp.valuefn import MU_ZERO_TOL

CHECK_TOL = 1e-7     # default slack in check_subgradient
SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = SRC.parent / "perfbench"


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


def _check_numbers(value) -> None:
    """Raise ``TypeError`` unless ``value`` is a JSON number or a nested list of them.

    ``riskdp.io``'s level-by-level walk before its one-pass reader: every
    entry passes ``riskdp.risk._json_number``, one nesting level at a time.
    """
    level = [value]
    while level:
        types = set(map(type, level))
        if not types <= {int, float, list}:
            for entry in level:
                if not isinstance(entry, list):
                    _json_number(entry)
        if list not in types:
            return
        if types != {list}:
            level = [entry for entry in level if isinstance(entry, list)]
        level = list(itertools.chain.from_iterable(level))


def _off_depth(value, depth: int) -> bool:
    """Whether ``value`` is not ``depth`` nested lists around entries that are not lists."""
    if depth == 0:
        return type(value) is list
    return type(value) is not list or any(_off_depth(entry, depth - 1) for entry in value)


def _check_depths_by_walk(what: str, fields: list) -> None:
    """Raise the ``IoError`` naming the first ``(name, value, depth)`` of ``fields`` off its depth."""
    for name, value, depth in fields:
        if _off_depth(value, depth):
            raise io.IoError(f"{what}: {name!r} must be {io.FIELD_FORMS[name]}")


def _parse_payload_by_walk(raw: dict, n: int, where: str, arrays: list) -> Realization:
    """The payload ``raw`` at ``where``; its number fields join ``arrays`` as written.

    Each field joins with its name and its depth in the format; the fields
    gathered over the cost pieces are one list each, ``A`` is one list of
    matrices.
    """
    what, fields = f"{where}: malformed payload", None
    try:
        pieces = raw["cost_pieces"]
        if not pieces:
            raise io.IoError(f"{where}: cost_pieces must be non-empty")
        pieces_c, pieces_d = [pc["c"] for pc in pieces], [pc["d"] for pc in pieces]
        a, b, g, h = (raw.get(key) or [] for key in ("A", "b", "G", "h"))
        lb, ub = raw["lb"], raw["ub"]
        fields = [("c", pieces_c, 2), ("d", pieces_d, 1), ("A", a, 3), ("b", b, 1),
                  ("G", g, 2), ("h", h, 1), ("lb", lb, 1), ("ub", ub, 1)]
        arrays.append((what, fields))
        cost = PwlConvexCost(pieces_c=pieces_c, pieces_d=pieces_d, dim=n)
        prob = float(_json_number(raw.get("prob", 1.0)))
        return Realization(prob=prob, cost=cost, a_blocks=a, b=b, g=g, h=h, lb=lb, ub=ub)
    except io.IoError:
        raise
    except (KeyError, TypeError, ValueError, ModelError) as exc:
        if fields is not None:
            _check_depths_by_walk(what, fields)
        raise io.IoError(f"{what}: {exc}") from exc


def problem_from_dict_by_walk(doc: dict) -> Problem:
    """``riskdp.io.problem_from_dict`` as it was before its one-pass reader, kept as its reference.

    A falsy ``A``, ``b``, ``G``, ``h`` or ``lower_value_bound`` reads as
    absent, as it did then.  The payload constructors convert every field;
    each field's depth in the format is then checked by a recursive walk
    (:func:`_off_depth`), on a constructor's failure and again before one
    level-by-level walk (:func:`_check_numbers`) checks the entry types of
    all of them, each entry alone only on a fault; and the problem is
    validated payload by payload (:func:`validate_problem_by_loop`).
    """
    what, arrays = "malformed problem document", []
    try:
        horizon = io._json_integer(doc["horizon"])
        n = io._json_integer(doc["dim"])
        x0, lvb = doc["x0"], doc.get("lower_value_bound") or []
        arrays.append((what, [("x0", x0, 1), ("lower_value_bound", lvb, 1)]))
        x0, lvb = np.asarray(x0, dtype=float), np.asarray(lvb, dtype=float)
        form = doc.get("form", LATTICE)
    except (KeyError, TypeError, ValueError) as exc:
        if arrays:
            _check_depths_by_walk(*arrays[0])
        raise io.IoError(f"{what}: {exc}") from exc
    default_risk = io._risk_from(doc, RiskSpec(), "top-level risk")
    if form == LATTICE:
        stages = []
        for s, raw_stage in enumerate(io._list_in(doc, "stages", "lattice document"), start=1):
            where = f"stage {s}"
            reals = [_parse_payload_by_walk(raw, n, f"{where} realization {j}", arrays)
                     for j, raw in enumerate(io._list_in(raw_stage, "realizations", where, []))]
            stages.append(Stage(reals, risk=io._risk_from(raw_stage, default_risk, where)))
        problem = Problem(horizon=horizon, dim=n, x0=x0, form=LATTICE,
                          stages=stages, lower_value_bound=lvb)
    elif form == TREE:
        nodes = []
        for i, raw in enumerate(io._list_in(doc, "nodes", "tree document")):
            try:
                nid, parent = io._json_integer(raw["id"]), raw.get("parent")
                parent = None if parent is None else io._json_integer(parent)
                prob = float(_json_number(raw.get("prob", 1.0)))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise io.IoError(f"malformed node entry {i}: expected an object with an "
                                 f"integer 'id' and 'parent' and a number 'prob': {exc!r}") from exc
            where = f"node {nid}"
            nodes.append(Node(id=nid, parent=parent, prob=prob,
                              payload=(None if parent is None
                                       else _parse_payload_by_walk(raw, n, where, arrays)),
                              risk=io._risk_from(raw, default_risk, where)))
        problem = Problem(horizon=horizon, dim=n, x0=x0, form=TREE,
                          nodes=nodes, lower_value_bound=lvb)
    else:
        raise io.IoError(f"unknown form {form!r}")
    for what, fields in arrays:
        _check_depths_by_walk(what, fields)
    try:
        _check_numbers([[value for _name, value, _depth in fields] for _what, fields in arrays])
    except TypeError:
        for what, fields in arrays:
            try:
                _check_numbers([value for _name, value, _depth in fields])
            except TypeError as exc:
                raise io.IoError(f"{what}: {exc}") from exc
    violations = validate_problem_by_loop(problem)
    if violations:
        raise io.IoError("invalid problem: " + "; ".join(violations))
    return problem


def read_cuts_csv_by_row(path) -> list:
    """``riskdp.io.read_cuts_csv`` as it was before its one-pass reader: row by row."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise io.IoError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != io.CUTS_CSV_HEADER:
        raise io.IoError(f"{path}: missing cut dump header")
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        try:
            kind, where, iteration = fields[0], int(fields[1]), int(fields[2])
            numbers = [float(v) for v in fields[3:]]
            if not all(map(math.isfinite, numbers)):
                raise ValueError("theta, beta and anchor entries must be finite")
            theta, coeffs = numbers[0], np.asarray(numbers[1:])
            if kind == io.CUT_KIND_OPTIMALITY:
                if coeffs.shape[0] % 2:
                    raise ValueError("optimality row needs matching beta and anchor")
                d = coeffs.shape[0] // 2
                rec = io.CutRecord(kind, where, iteration, theta, coeffs[:d], coeffs[d:])
            elif kind == io.CUT_KIND_FEASIBILITY:
                rec = io.CutRecord(kind, where, iteration, theta, coeffs, None)
            else:
                raise ValueError(f"unknown cut kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise io.IoError(f"{path}:{ln}: malformed cut row: {exc}") from exc
        out.append(rec)
    return out


def iterate_by_loop(driver, k: int):
    """``riskdp.engine._Driver.iterate`` as it was before its one sweep, kept as its reference.

    One ``while`` loop walks the sampled path, slicing the history on a
    backtrack, and a stage-descending loop builds the backward cuts.
    """
    p, cfg = driver.problem, driver.cfg
    t_end = p.horizon
    started = time.perf_counter()
    path = engine.sample_path(p, cfg.seed, k, driver.edges)
    walk = tuple(path[1:])
    report = driver._replay(k, walk, started)
    if report is not None:
        return report
    tally_before = driver.tally.copy()
    counters_opt, counters_feas, skipped = {}, {}, {}
    backtracks = 0
    alg2 = cfg.algorithm == "alg2"
    forward_cuts = cfg.cut_timing == "forward"
    lb_report = x1_report = None
    hist = np.zeros(0)
    s = 1
    while s <= t_end:
        if alg2 and not driver._gate(path[s], hist, k, counters_feas):
            if s == 1:
                return None
            backtracks += 1
            if backtracks > engine.MAX_BACKTRACKS_PER_ITERATION:
                raise engine.EngineError("backtracking loop exceeded its safety limit")
            s -= 1
            hist = hist[:(s - 1) * p.dim]
            if s == 1:
                driver.stage1 = None
            continue
        if s == 1:
            if driver.stage1 is None:
                driver.stage1 = driver._solve(driver.topology.first, np.zeros(0))
            ns = driver.stage1
            lb_report, x1_report = ns.value, ns.x.copy()
        elif forward_cuts:
            wheres, sols = driver._build_cut_at(driver.topology.parent(path[s]), hist, k,
                                                counters_opt, skipped)
            ns = sols[wheres.index(path[s])]
        else:
            ns = driver._solve(path[s], hist)
        hist = np.concatenate([hist, ns.x])
        s += 1
    if not forward_cuts:
        for t in range(t_end, 1, -1):
            driver._build_cut_at(driver.topology.parent(path[t]), hist[:(t - 1) * p.dim], k,
                                 counters_opt, skipped)
    driver.stage1 = driver._solve(driver.topology.first, np.zeros(0))
    tally = driver.tally - tally_before
    if not (alg2 or counters_opt or cfg.probe is not None):
        driver.replays[walk] = (tally["lps"] + tally["lps_reused"], skipped)
    return engine.IterationReport(
        k=k, path=walk, lower_bound=lb_report, x1=x1_report, cuts_opt=counters_opt,
        cuts_feas=counters_feas, cuts_skipped=skipped, backtracks=backtracks,
        lps=tally["lps"], lps_warm=tally["lps_warm"], lps_dual=tally["lps_dual"],
        lps_reused=tally["lps_reused"], pivots=tally["pivots"],
        wall_ms=(time.perf_counter() - started) * 1000.0)


def nested_decomposition_by_loop(problem, max_sweeps: int = oracle.MAX_SWEEPS):
    """``riskdp.oracle.exact_nested_decomposition`` as it was before the driver's one sweep.

    Its own all-node forward loop, then a backward loop that rescans every
    node once per stage; kept as its reference.
    """
    topo = problem.topology
    driver = engine._Driver(problem, engine.RunConfig(), warm=False)
    nodes = topo.scenarios()
    value_prev = None
    n_cuts = 0
    for sweep in range(1, max_sweeps + 1):
        histories = {(): np.zeros(0)}
        for node in nodes:
            base = histories[node.parent]
            histories[node.key] = np.concatenate([base, driver._solve(node.where, base).x])
        counters: dict = {}
        for t in range(problem.horizon, 1, -1):
            for node in nodes:
                if node.depth == t - 1:
                    driver._build_cut_at(topo.pool(node.where), histories[node.key], sweep,
                                         counters, {})
        added = sum(counters.values())
        n_cuts += added
        value = driver._solve(topo.first, np.zeros(0)).value
        if (value_prev is not None and abs(value - value_prev) <= oracle.VALUE_REPEAT_TOL
                and added == 0):
            return oracle.NDResult(value=value, sweeps=sweep, n_cuts=n_cuts,
                                   lps=driver.tally["lps"],
                                   lps_reused=driver.tally["lps_reused"])
        value_prev = value
    raise OracleError(f"nested decomposition did not settle in {max_sweeps} sweeps")


def append_rows_by_stacking(held, a_rows: np.ndarray, b_rows: np.ndarray, at: int) -> None:
    """``riskdp.lp.PersistentLp.append_rows`` as it was before its slice-assigned build.

    Every array is rebuilt by stacking its pieces around the new rows and
    slack columns; kept as the byte-for-byte reference of the insert.
    """
    k = a_rows.shape[0]
    n, m = held.n_struct, held.m
    p, s = held.n_eq + at, n + at
    rows = np.zeros((k, held.n_real + k))
    rows[:, :n] = a_rows
    rows[:, s:s + k] = np.eye(k)
    a = np.hstack([held.a[:, :s], np.zeros((m, k)), held.a[:, s:]])
    held.a = np.vstack([a[:p], rows, a[p:]])
    held.abs_a = None
    held.b = np.concatenate([held.b[:p], b_rows, held.b[p:]])
    held.lower = np.concatenate([held.lower[:s], np.zeros(k), held.lower[s:]])
    held.upper = np.concatenate([held.upper[:s], np.full(k, np.inf), held.upper[s:]])
    held.cost = np.concatenate([held.cost[:s], np.zeros(k), held.cost[s:]])
    held.d = None
    basis = np.where(held.basis >= s, held.basis + k, held.basis)
    border = -(rows[:, basis] @ held.b_inv)
    b_inv = np.hstack([held.b_inv[:, :p], np.zeros((m, k)), held.b_inv[:, p:]])
    border = np.hstack([border[:, :p], np.eye(k), border[:, p:]])
    held.b_inv = np.vstack([b_inv[:p], border, b_inv[p:]])
    held.basis = np.concatenate([basis[:p], np.arange(s, s + k), basis[p:]])
    held.status_col = np.concatenate([held.status_col[:s], np.full(k, lp.BASIC, dtype=np.int8),
                                      held.status_col[s:]])
    held.x = np.concatenate([held.x[:s], b_rows - a_rows @ held.x[:n], held.x[s:]])
    held.stale += k
    held.m += k
    held.n_ub += k
    held.n_real += k
    held.ncols = held.n_real
    held.allowed = np.ones(held.ncols, dtype=bool)
    held._set_movable()
    held.redundant = np.zeros(held.m, dtype=bool)


def exchange_by_mask(simplex, row: int, j: int, w: np.ndarray) -> None:
    """``riskdp.lp._Simplex._exchange`` as it was before it dropped its row mask.

    The pivot row is divided in place, then every other row, gathered and
    scattered through a boolean mask, takes its multiple off; kept as the
    byte-for-byte reference of the product-form update.
    """
    piv = w[row]
    if abs(piv) <= lp.PIVOT_TOL:
        raise lp.SimplexError(f"pivot element {piv:.3e} too small")
    simplex.status_col[j] = lp.BASIC
    simplex._remask(j)
    simplex.basis[row] = j
    simplex.b_inv[row, :] /= piv
    other = np.arange(simplex.m) != row
    simplex.b_inv[other, :] -= np.outer(w[other], simplex.b_inv[row, :])
    simplex.pivots += 1
    simplex.moved = True
    simplex.d = None


def build_stage_lp_by_stacking(sub, view, z_lo: float, history: np.ndarray):
    """``riskdp.engine.build_stage_lp`` as it was before its slice-assigned build.

    The blocks are joined with ``hstack`` and ``vstack``; kept as the
    byte-for-byte reference of the stage LP and its right-hand side map.
    """
    n = sub.lb.shape[0]
    q = sub.a_cur.shape[0]
    r = sub.g_cur.shape[0]
    n_p = sub.piece_cur.shape[0]
    k_opt, k_feas = view.opt_beta2.shape[0], view.feas_beta2.shape[0]
    b0 = np.concatenate([sub.b0, view.opt_rhs_const, view.feas_rhs_const])
    hist = np.vstack([sub.hist, view.opt_beta1, view.feas_beta1])
    b = b0 - hist @ history
    a_ub = np.vstack([np.hstack([sub.g_cur, np.zeros((r, 2))]),
                      np.hstack([sub.piece_cur, np.full((n_p, 1), -1.0), np.zeros((n_p, 1))]),
                      np.hstack([view.opt_beta2, np.zeros((k_opt, 1)), np.full((k_opt, 1), -1.0)]),
                      np.hstack([view.feas_beta2, np.zeros((k_feas, 2))])])
    prob = lp.LpProblem(c=np.concatenate([np.zeros(n), [1.0, 1.0]]),
                        a_eq=np.hstack([sub.a_cur, np.zeros((q, 2))]), b_eq=b[:q],
                        a_ub=a_ub, b_ub=b[q:],
                        lower=np.concatenate([sub.lb, [-np.inf, z_lo]]),
                        upper=np.concatenate([sub.ub, [np.inf, np.inf]]))
    return prob, b0, hist


def simplex_arrays_by_stacking(prob) -> dict:
    """The working arrays ``riskdp.lp._Simplex`` built from ``prob`` before its sliced build."""
    n, q, r = prob.n_vars, prob.a_eq.shape[0], prob.a_ub.shape[0]
    a = np.zeros((q + r, n + r), dtype=float)
    a[:q, :n] = prob.a_eq
    a[q:, :n] = prob.a_ub
    a[q:, n:] = np.eye(r)
    return {"a": a, "b": np.concatenate([prob.b_eq, prob.b_ub]),
            "lower": np.concatenate([prob.lower, np.zeros(r)]),
            "upper": np.concatenate([prob.upper, np.full(r, np.inf)]),
            "cost": np.concatenate([prob.c, np.zeros(r)])}


def perfbench_module(stem: str):
    """``perfbench/<stem>.py`` as a module, loaded read-only: no bytecode is written."""
    spec = importlib.util.spec_from_file_location(f"riskdp_perfbench_{stem}",
                                                  PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up while it is built
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def run_fresh(code: str, *args) -> str:
    """Run ``code`` in a new interpreter with ``args`` as ``sys.argv[1:]``; return its stdout.

    The package's ``src`` is put first on the child's path; a nonzero exit
    fails the calling test with the child's output.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout
