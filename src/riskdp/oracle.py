"""Independent reference solvers for desk-scale instances.

Two routes compute ground truth without touching the cutting-plane drivers'
arithmetic:

* :func:`extensive_form_value` — the deterministic equivalent of a
  risk-neutral instance as one monolithic LP, solved by an external
  simplex/barrier implementation (the only place the package relies on one);
* :func:`exact_nested_decomposition` — sweep-based nested decomposition that
  visits *every* node each sweep (no sampling) and stops only when the
  first-stage value repeats and a full sweep adds no cut to any pool.
  It handles every supported risk spec.

:func:`true_recourse_value` evaluates the exact risk-adjusted
recourse function at an arbitrary history by conditioning the tail problem
on that history and handing the reduced instances to the routes above;
infeasible histories report ``+inf``.  Nested decomposition has no
feasibility cuts, so a risk-averse tail that is feasible but lacks relatively
complete recourse has no exact reference here: :func:`nested_decomposition_value`
raises :class:`OracleError` for it rather than calling it infeasible.

Every LP these routes solve through :func:`~riskdp.engine.solve_node` is
solved cold (no persistent stage LP), so the oracle stays an independent
reference for the cold simplex path.  Nested decomposition solves each
distinct stage LP once: a stage LP it meets again, at the same position and
history with the same pool rows, reuses the earlier cold solve
(:class:`_StageSolves`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .cuts import build_optimality_cut
from .engine import EngineError, NodeSolution, PoolSet, solve_node
from .io import apply_risk_override
from .model import (TREE, ModelError, Node, Problem, PwlConvexCost, Realization,
                    Stage)
from .risk import RiskSpec, risk_value_and_density

logger = logging.getLogger(__name__)

MAX_SWEEPS = 10_000
VALUE_REPEAT_TOL = 1e-10


class OracleError(RuntimeError):
    """Reference computation failed or was asked for an unsupported case."""


@dataclass
class NDResult:
    """``lps`` stage LPs solved and ``lps_reused`` repeats answered by an earlier solve."""

    value: float
    sweeps: int
    n_cuts: int
    lps: int
    lps_reused: int


# ---------------------------------------------------------------------------
# extensive form
# ---------------------------------------------------------------------------

@dataclass
class _Rec:
    """One node of the scenario tree: a path of positions from stage 1."""

    key: tuple          # child ranks along the path; the stage-1 node is (0,)
    parent: tuple       # the parent node's key; () above stage 1
    where: object       # the position the path ends at
    depth: int
    payload: Realization
    abs_prob: float


def _scenario_records(problem: Problem) -> list[_Rec]:
    """Every scenario-tree node, breadth first (a lattice expands into its paths)."""
    topo = problem.topology
    first = topo.first
    records = [_Rec(key=(0,), parent=(), where=first, depth=1,
                    payload=topo.payload(first), abs_prob=1.0)]
    for rec in records:  # grows while iterated: children follow their parents
        key = topo.pool(rec.where)
        for j, (kid, prob) in enumerate(zip(topo.children(key), topo.probs(key))):
            records.append(_Rec(key=rec.key + (j,), parent=rec.key, where=kid,
                                depth=rec.depth + 1, payload=topo.payload(kid),
                                abs_prob=rec.abs_prob * prob))
    return records


def extensive_form_value(problem: Problem) -> float:
    """Optimal value of the risk-neutral deterministic equivalent.

    Builds one LP with a decision and a cost-epigraph variable per scenario
    node, weighted by the nodes' probabilities, and solves it with an
    external implementation.  Only expectation risk specs are supported,
    because this LP is probability weighted.  One LP can still express every
    spec riskdp supports: a nested epigraph with a value column per node and
    the one-step risk of its children written as rows (Rockafellar–Uryasev
    rows for CVaR, their convex combination with the expectation for a
    mixture, the dual of the density LP for a polytope); riskdp does not
    build that LP yet.  Returns ``+inf`` when the instance is infeasible.
    """
    _require_expectation(problem)
    n = problem.dim
    records = _scenario_records(problem)
    by_key = {r.key: r for r in records}
    offset: dict[object, int] = {}
    ncols = 0
    for rec in records:
        offset[rec.key] = ncols
        ncols += n + 1  # x_m and w_m
    c = np.zeros(ncols)
    lower = np.full(ncols, -np.inf)
    upper = np.full(ncols, np.inf)
    for rec in records:
        o = offset[rec.key]
        c[o + n] = rec.abs_prob
        lower[o:o + n] = rec.payload.lb
        upper[o:o + n] = rec.payload.ub

    def path_keys(rec: _Rec) -> list[object]:
        keys = []
        cursor: object = rec.key
        while cursor in by_key:
            keys.append(cursor)
            cursor = by_key[cursor].parent
        keys.reverse()
        return keys

    eq_rows, eq_rhs, ub_rows, ub_rhs = [], [], [], []
    for rec in records:
        keys = path_keys(rec)
        pay = rec.payload
        d = rec.depth
        q = pay.b.shape[0]
        if q:
            rhs = pay.b - pay.a_blocks[0] @ problem.x0
            for i in range(q):
                row = np.zeros(ncols)
                for sigma, key in enumerate(keys, start=1):
                    row[offset[key]:offset[key] + n] = pay.a_blocks[sigma][i]
                eq_rows.append(row)
                eq_rhs.append(rhs[i])
        r = pay.h.shape[0]
        if r:
            rhs = pay.h - pay.g[:, :n] @ problem.x0
            for i in range(r):
                row = np.zeros(ncols)
                for sigma, key in enumerate(keys, start=1):
                    row[offset[key]:offset[key] + n] = \
                        pay.g[i, sigma * n:(sigma + 1) * n]
                ub_rows.append(row)
                ub_rhs.append(rhs[i])
        for i in range(pay.cost.n_pieces):
            row = np.zeros(ncols)
            for sigma, key in enumerate(keys, start=1):
                row[offset[key]:offset[key] + n] = \
                    pay.cost.pieces_c[i, (sigma - 1) * n:sigma * n]
            row[offset[rec.key] + n] = -1.0
            ub_rows.append(row)
            ub_rhs.append(-pay.cost.pieces_d[i])
    res = scipy.optimize.linprog(
        c,
        A_eq=np.vstack(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rows else None,
        A_ub=np.vstack(ub_rows) if ub_rows else None,
        b_ub=np.array(ub_rhs) if ub_rows else None,
        bounds=list(zip(lower, upper)), method="highs")
    if res.status == 2:
        return math.inf
    if res.status != 0:
        raise OracleError(f"extensive-form solve failed: {res.message}")
    return float(res.fun)


def _require_expectation(problem: Problem) -> None:
    for spec in _risk_specs(problem):
        if spec.kind != "expectation":
            raise OracleError(
                "the extensive form covers expectation instances only; use "
                "exact_nested_decomposition for risk-averse specs")


def _risk_specs(problem: Problem):
    topo = problem.topology
    for key in topo.keys:
        if not topo.terminal(key):
            yield topo.risk(key)


# ---------------------------------------------------------------------------
# exact nested decomposition
# ---------------------------------------------------------------------------

class _StageSolves:
    """Nested decomposition's stage solves: each distinct stage LP solved once, cold.

    A stage LP is fixed by its position, its history and the rows of its
    pool; pools only grow, so the pool's optimality and feasibility counts
    identify those rows.  Asked for an LP it has solved, :meth:`solve`
    returns that earlier cold solve, which is the solve
    :func:`~riskdp.engine.solve_node` would return again.  It keeps the
    solves the current and the previous sweep produced or used
    (:meth:`next_sweep` ages them), so it does not grow with the sweep count.
    """

    def __init__(self, problem: Problem, pools: PoolSet):
        self.problem = problem
        self.pools = pools
        self.current: dict = {}
        self.previous: dict = {}
        self.lps = 0
        self.lps_reused = 0

    def solve(self, where, history: np.ndarray) -> NodeSolution:
        pool = self.pools.rows_for(where)
        key = (where, history.tobytes(), len(pool.optimality), len(pool.feasibility))
        ns = self.current.get(key)
        if ns is None:
            ns = self.previous.get(key)
        if ns is None:
            ns = solve_node(self.problem, where, history, self.pools)
            self.lps += 1
        else:
            self.lps_reused += 1
        self.current[key] = ns
        return ns

    def next_sweep(self) -> None:
        self.previous, self.current = self.current, {}


def exact_nested_decomposition(problem: Problem, max_sweeps: int = MAX_SWEEPS) -> NDResult:
    """Sampling-free nested decomposition to convergence.

    Each sweep makes a forward pass visiting every node of the (expanded)
    tree, then a backward pass building one cut per visited history.  The
    pool's one dedup rule (:meth:`~riskdp.cuts.CutPool.append_optimality`)
    skips a cut whose LP row — ``beta`` and ``<beta, anchor> - theta`` within
    :data:`~riskdp.cuts.CUT_ROW_TOL` — is already pooled, whatever its anchor
    and ``theta``; the anchor-equality check still runs on every built cut,
    and pools only grow, so the first-stage value is monotone.  The run stops
    when that value repeats within ``1e-10`` and a sweep appends no cut.  With
    finitely many LP bases this terminates at the exact value.

    Each distinct stage LP is solved once and cold (:class:`_StageSolves`):
    the last-stage backward solves are the forward pass's leaf solves, the
    first-stage value solve is the next sweep's first forward solve, and a
    position whose pool gained no cut is met again at an unchanged history.
    """
    topo = problem.topology
    pools = PoolSet(problem)
    solves = _StageSolves(problem, pools)
    records = _scenario_records(problem)
    n = problem.dim
    value_prev = None
    n_cuts = 0
    for sweep in range(1, max_sweeps + 1):
        histories = _forward_all(problem, solves, records)
        added = 0
        for t in range(problem.horizon, 1, -1):
            for rec in records:
                if rec.depth != t - 1:
                    continue
                hist = histories[rec.key]
                key = topo.pool(rec.where)
                sols = [solves.solve(w, hist) for w in topo.children(key)]
                cut = build_optimality_cut(
                    [s.value for s in sols], [s.pi for s in sols], topo.probs(key),
                    topo.risk(key), hist[n:], stage=key, iteration=sweep)
                if pools.opt[key].append_optimality(cut):
                    added += 1
        n_cuts += added
        value = solves.solve(topo.first, problem.x0).value
        if (value_prev is not None and abs(value - value_prev) <= VALUE_REPEAT_TOL
                and added == 0):
            logger.info("nested decomposition: value %r after %d sweeps, %d cuts, "
                        "%d LPs solved (%d reused)", value, sweep, n_cuts,
                        solves.lps, solves.lps_reused)
            return NDResult(value=value, sweeps=sweep, n_cuts=n_cuts,
                            lps=solves.lps, lps_reused=solves.lps_reused)
        value_prev = value
        solves.next_sweep()
    raise OracleError(f"nested decomposition did not settle in {max_sweeps} sweeps")


def _forward_all(problem: Problem, solves: _StageSolves, records: list[_Rec]) -> dict:
    """Histories of every scenario-tree node after one all-node forward pass.

    Keyed by record key; the value stored for a node is the history
    *including* the node's decision.
    """
    histories: dict = {(): problem.x0}
    for rec in records:
        base = histories[rec.parent]
        ns = solves.solve(rec.where, base)
        histories[rec.key] = np.concatenate([base, ns.x])
    return histories


# ---------------------------------------------------------------------------
# conditioning on a history
# ---------------------------------------------------------------------------

def _conditioned_payload(pay: Realization, t: int, tau: int, n: int,
                         history: np.ndarray) -> Realization:
    """Re-root a stage-``tau`` payload at stage ``t``: fold ``x_{0:t-1}`` in.

    The reduced payload's stage index is ``tau - t + 1`` and its block-0
    (initial state) columns are zero — the fixed prefix moves into the
    right-hand sides and cost offsets.
    """
    dec_hist = history[n:]
    q = pay.b.shape[0]
    if q:
        a_blocks = [np.zeros((q, n))] + [pay.a_blocks[s] for s in range(t, tau + 1)]
        b = pay.b - np.hstack(pay.a_blocks[:t]) @ history
    else:
        a_blocks, b = [], pay.b
    r = pay.h.shape[0]
    if r:
        g = np.hstack([np.zeros((r, n)), pay.g[:, t * n:]])
        h = pay.h - pay.g[:, :t * n] @ history
    else:
        g, h = np.zeros((0, 0)), pay.h
    keep = pay.cost.pieces_c[:, (t - 1) * n:]
    d = pay.cost.pieces_d + pay.cost.pieces_c[:, :(t - 1) * n] @ dec_hist
    cost = PwlConvexCost(pieces_c=keep, pieces_d=d, dim=n)
    return Realization(prob=1.0, cost=cost, a_blocks=a_blocks, b=b, g=g, h=h,
                       lb=pay.lb.copy(), ub=pay.ub.copy())


def conditioned_problem(problem: Problem, where, history: np.ndarray) -> Problem:
    """Tail problem started at position ``where`` under ``history``.

    On a lattice (``where = (t, j)``) the reduced instance has horizon
    ``T - t + 1``, a deterministic first stage (the chosen realization), and
    the original deeper stages with the fixed prefix folded into their data.
    On a tree it is the subtree below the node (:func:`conditioned_subtree`).
    """
    if problem.form == TREE:
        return conditioned_subtree(problem, where, history)
    t, j = where
    n = problem.dim
    history = np.asarray(history, dtype=float).reshape(-1)
    if history.shape[0] != t * n:
        raise ModelError(f"history must have {t * n} coordinates at stage {t}")
    first_pay = _conditioned_payload(problem.stages[t - 1].realizations[j],
                                     t, t, n, history)
    stages = [Stage([first_pay])]
    for tau in range(t + 1, problem.horizon + 1):
        stage = problem.stages[tau - 1]
        reals = []
        for pay in stage.realizations:
            reduced = _conditioned_payload(pay, t, tau, n, history)
            reduced.prob = pay.prob
            reals.append(reduced)
        stages.append(Stage(reals, risk=stage.risk))
    return Problem(horizon=problem.horizon - t + 1, dim=n, x0=np.zeros(n),
                   stages=stages,
                   lower_value_bound=problem.lower_value_bound[t - 1:])


def conditioned_subtree(problem: Problem, node_id: int,
                        history: np.ndarray) -> Problem:
    """Tail problem rooted at one tree node under ``history`` (tree form)."""
    if problem.form != TREE:
        raise OracleError("conditioning on a node applies to tree form")
    n = problem.dim
    t = problem.depth(node_id)
    history = np.asarray(history, dtype=float).reshape(-1)
    if history.shape[0] != t * n:
        raise ModelError(f"history must have {t * n} coordinates at depth {t}")
    nodes = [Node(id=0, parent=None)]
    mapping = {node_id: 1}
    queue = [node_id]
    next_id = 1
    while queue:
        mid = queue.pop(0)
        node = problem.node(mid)
        tau = problem.depth(mid)
        reduced = _conditioned_payload(node.payload, t, tau, n, history)
        nodes.append(Node(id=mapping[mid],
                          parent=0 if mid == node_id else mapping[node.parent],
                          prob=1.0 if mid == node_id else node.prob,
                          payload=reduced, risk=node.risk))
        for kid in problem.children(mid):
            next_id += 1
            mapping[kid] = next_id
            queue.append(kid)
    return Problem(horizon=problem.horizon - t + 1, dim=n, x0=np.zeros(n),
                   form=TREE, nodes=nodes,
                   lower_value_bound=problem.lower_value_bound[t - 1:])


def true_recourse_value(problem: Problem, where, history) -> float:
    """Exact risk-adjusted recourse aggregated at one history.

    ``where`` is a pool key (a stage on a lattice, a node id on a tree) and
    ``history`` is ``x_{0:s}`` for the stage ``s`` of the subproblems that
    carry its rows; the result is the key's risk of the tail values of its
    children.  Terminal keys report 0, infeasible histories ``+inf``.
    """
    history = np.asarray(history, dtype=float).reshape(-1)
    topo = problem.topology
    if topo.terminal(where):
        return 0.0
    values = [reference_value(conditioned_problem(problem, kid, history))
              for kid in topo.children(where)]
    if any(math.isinf(v) for v in values):
        return math.inf
    value, _ = risk_value_and_density(topo.risk(where), topo.probs(where),
                                      np.asarray(values))
    return value


def nested_decomposition_value(problem: Problem) -> float:
    """:func:`exact_nested_decomposition`'s value; ``+inf`` when the instance is infeasible.

    Nested decomposition has no feasibility cuts: at a history where some
    subproblem is infeasible it stops with :class:`EngineError`.  The
    constraints do not depend on the risk specs, so the risk-neutral extensive
    form of the same problem then decides.  If it is infeasible too, the value
    is ``+inf``; otherwise the instance is feasible but lacks relatively
    complete recourse, which nested decomposition cannot handle, and
    :class:`OracleError` says so.
    """
    try:
        return exact_nested_decomposition(problem).value
    except EngineError as exc:
        if math.isinf(extensive_form_value(apply_risk_override(problem, RiskSpec()))):
            return math.inf
        raise OracleError(
            "nested decomposition has no feasibility cuts: it met an infeasible "
            "subproblem of a feasible instance that lacks relatively complete "
            "recourse, so there is no exact reference for it") from exc


def reference_value(problem: Problem) -> float:
    """Ground-truth optimal value by the most direct available route; ``+inf`` when infeasible."""
    for spec in _risk_specs(problem):
        if spec.kind != "expectation":
            return nested_decomposition_value(problem)
    return extensive_form_value(problem)
