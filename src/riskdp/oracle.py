"""Independent reference solvers for desk-scale instances.

Two routes compute ground truth:

* :func:`extensive_form_value` — the nested-risk extensive form: the whole
  scenario tree as one LP, with a value column per node and the one-step
  risk of its children written as rows, for every supported risk spec.  It
  shares with the cutting-plane drivers only the payload's history fold
  (:meth:`~riskdp.model.Realization.fold_map`), and is solved by HiGHS
  through the binding scipy vendors (``scipy.optimize._highspy``, which
  ``linprog`` itself calls; the only place the package relies on an
  external solver); :func:`reference_value` is this route;
* :func:`exact_nested_decomposition` — the paper's sampling-free method:
  sweep-based nested decomposition that visits *every* node each sweep and
  stops only when the first-stage value repeats and a full sweep adds no cut
  to any pool.  It runs the sampled drivers' own stage-solve memo and cut
  step, with every miss solved cold.

:func:`true_recourse_value` evaluates the exact risk-adjusted recourse
function of a pool at a stack of histories: the children's tails, stacked
under the pool's risk rows with the history as a parameter, make one HiGHS
model, built and passed once and re-solved per history from its last basis
with only the moved right-hand sides changed; infeasible histories report
``+inf``.  :func:`conditioned_problem` builds one child's tail as a
problem of its own; only the test suite's per-child nested-decomposition
reference calls it.  Nested decomposition has no feasibility cuts, so on a
feasible instance without relatively complete recourse
:func:`nested_decomposition_value` raises :class:`OracleError` rather than
calling it infeasible; the extensive form covers that case.

Every LP nested decomposition solves is the cold
:func:`~riskdp.engine.solve_node` (no persistent stage LP), so it stays a
reference for the cold simplex path.  A stage LP it meets again, at the
same position and history with the same pool rows, is handed back from the
driver's memo (:meth:`~riskdp.engine._Driver._solve`); a cold solve is
deterministic, so that is the solve a fresh one would return.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .engine import EngineError, RunConfig, _Driver
from .model import (TREE, Node, Problem, PwlConvexCost, Realization, Stage,
                    history_vector)
from .risk import RiskSpec

logger = logging.getLogger(__name__)

MAX_SWEEPS = 10_000
VALUE_REPEAT_TOL = 1e-10
# HiGHS's default feasibility tolerances (1e-7) are looser than the 1e-6
# audits and 1e-9 agreements the oracle referees; 1e-10 is their floor
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


class OracleError(RuntimeError):
    """Reference computation failed or was asked for an unsupported case."""


@dataclass
class NDResult:
    """``lps`` stage LPs solved and ``lps_reused`` repeats handed back, from the driver's tally."""

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


def _scenario_records(problem: Problem, where=None) -> list[_Rec]:
    """Every scenario-tree node below ``where`` (default stage 1), breadth first.

    A lattice expands into its paths.  The root record is ``where``'s own.
    """
    topo = problem.topology
    where = topo.first if where is None else where
    records = [_Rec(key=(0,), parent=(), where=where, depth=topo.stage(where),
                    payload=topo.payload(where))]
    for rec in records:  # grows while iterated: children follow their parents
        key = topo.pool(rec.where)
        for j, kid in enumerate(topo.children(key)):
            records.append(_Rec(key=rec.key + (j,), parent=rec.key, where=kid,
                                depth=rec.depth + 1, payload=topo.payload(kid)))
    return records


def _highs_core():
    """scipy's vendored HiGHS binding, the one ``linprog(method="highs")`` calls itself."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise OracleError("the oracle solves through scipy's vendored HiGHS binding "
                          "scipy.optimize._highspy._core, which this scipy lacks") from exc
    return _core


class _NestedRiskLp:
    """A nested-risk LP over a ``k``-entry history parameter, built once and solved by HiGHS.

    Columns are appended with :meth:`columns`, inequality (``<=``) and
    equality rows as dense blocks over chosen columns with :meth:`rows`.  A
    row's right-hand side is ``rhs - hist @ h``, affine in the history
    ``h``; the matrix, bounds and cost do not depend on it, so
    :meth:`minimize` passes one HiGHS model and re-solves it per history.
    """

    def __init__(self, k: int):
        self.k = k
        self.ncols = 0
        self.lower: list[np.ndarray] = []
        self.upper: list[np.ndarray] = []
        self.blocks: dict[bool, list] = {False: [], True: []}  # is-equality -> blocks

    def columns(self, k: int, lower=-np.inf, upper=np.inf) -> np.ndarray:
        idx = np.arange(self.ncols, self.ncols + k)
        self.ncols += k
        self.lower.append(np.full(k, lower))
        self.upper.append(np.full(k, upper))
        return idx

    def rows(self, cols, block, rhs, eq: bool = False, hist=None) -> None:
        """Add ``block @ x[cols] <= rhs - hist @ h`` (``==`` with ``eq``); ``cols`` has no repeats.

        ``hist`` defaults to zero: a right-hand side that ignores the history.
        """
        rhs = np.atleast_1d(rhs)
        hist = np.zeros((rhs.shape[0], self.k)) if hist is None else hist
        self.blocks[eq].append((cols, np.atleast_2d(block), rhs, hist))

    def _model(self, core, col: int):
        """The column-wise ``HighsLp`` minimising ``x[col]`` at a zero history.

        Also returns the count of inequality rows (stacked first), and every
        row's right-hand side constant and history coefficients.
        """
        blocks = self.blocks[False] + self.blocks[True]
        n_ub = sum(b.shape[0] for _, b, _, _ in self.blocks[False])
        n_rows = sum(b.shape[0] for _, b, _, _ in blocks)
        a = np.zeros((n_rows, self.ncols))
        rhs = np.empty(n_rows)
        hist = np.empty((n_rows, self.k))
        i = 0
        for cols, block, r, h in blocks:
            a[i:i + block.shape[0], cols] = block
            rhs[i:i + block.shape[0]] = r
            hist[i:i + block.shape[0]] = h
            i += block.shape[0]
        model = core.HighsLp()
        model.num_col_, model.num_row_ = self.ncols, n_rows
        cost = np.zeros(self.ncols)
        cost[col] = 1.0
        model.col_cost_ = cost
        model.col_lower_ = np.concatenate(self.lower)
        model.col_upper_ = np.concatenate(self.upper)
        model.row_lower_ = np.concatenate([np.full(n_ub, -np.inf), rhs[n_ub:]])
        model.row_upper_ = rhs
        matrix = scipy.sparse.csc_array(a)
        model.a_matrix_.format_ = core.MatrixFormat.kColwise
        model.a_matrix_.num_col_, model.a_matrix_.num_row_ = self.ncols, n_rows
        model.a_matrix_.start_ = matrix.indptr
        model.a_matrix_.index_ = matrix.indices
        model.a_matrix_.value_ = matrix.data
        return model, n_ub, rhs, hist

    def minimize(self, col: int, histories: np.ndarray) -> np.ndarray:
        """Minimum of column ``col`` at each history, a row of ``histories``.

        One HiGHS model with its options set once, passed once: each history
        then changes only the row bounds that moved, and HiGHS re-solves from
        its last basis.  An infeasible history gives ``+inf``; any other
        non-optimal status raises :class:`OracleError`.
        """
        core = _highs_core()
        model, n_ub, rhs0, hist = self._model(core, col)
        highs = core._Highs()
        for key, value in {**HIGHS_OPTIONS, "output_flag": False, "simplex_strategy":
                           core.simplex_constants.SimplexStrategy.kSimplexStrategyDual}.items():
            highs.setOptionValue(key, value)
        highs.passModel(model)
        values = np.empty(histories.shape[0])
        held = rhs0
        for p, rhs in enumerate(rhs0 - histories @ hist.T):
            for j in np.flatnonzero(rhs != held).tolist():
                highs.changeRowBounds(j, -np.inf if j < n_ub else rhs[j], rhs[j])
            held = rhs
            highs.run()
            status = highs.getModelStatus()
            if status == core.HighsModelStatus.kOptimal:
                values[p] = highs.getObjectiveValue()
            elif status == core.HighsModelStatus.kInfeasible:
                values[p] = math.inf
            else:
                raise OracleError("nested-risk LP solve failed: "
                                  f"{highs.modelStatusToString(status)}")
        return values

    def risk(self, spec: RiskSpec, probs: np.ndarray, values: np.ndarray) -> int:
        """A column ``R >= rho(V[values])`` for the one-step measure ``spec``.

        Expectation: ``R >= sum_j phi_j V_j``.  CVaR and mixture, by
        Rockafellar–Uryasev: ``R >= (1-lam) sum_j phi_j V_j + lam (u +
        sum_j phi_j s_j / eps)`` with ``s_j >= V_j - u``, ``s_j >= 0``
        (``lam = 1`` for CVaR).  Polytope, by duality of the density LP
        ``max {sum_j p_j phi_j V_j : sum_j p_j phi_j = 1, A p <= rhs, p >= 0}``:
        ``R >= mu + rhs . lam`` with ``mu phi_j + (A^T lam)_j >= phi_j V_j``,
        ``lam >= 0``.  Each is tight at the minimum, where ``R`` is the risk.
        """
        m = len(values)
        r = self.columns(1)
        if spec.kind == "polytope":
            a = np.array([np.asarray(row, dtype=float) for row, _ in spec.rows])
            rhs = np.array([b for _, b in spec.rows])
            mu = self.columns(1)
            lam = self.columns(len(rhs), lower=0.0)
            self.rows(np.concatenate([values, mu, lam]),
                      np.hstack([np.diag(probs), -probs[:, None], -a.T]), np.zeros(m))
            self.rows(np.concatenate([mu, lam, r]),
                      np.concatenate([[1.0], rhs, [-1.0]]), 0.0)
            return int(r[0])
        lam = {"expectation": 0.0, "cvar": 1.0, "mixture": spec.lam}[spec.kind]
        if lam == 0.0:
            self.rows(np.concatenate([values, r]), np.append(probs, -1.0), 0.0)
            return int(r[0])
        u = self.columns(1)
        s = self.columns(m, lower=0.0)
        self.rows(np.concatenate([values, u, s]),
                  np.hstack([np.eye(m), -np.ones((m, 1)), -np.eye(m)]), np.zeros(m))
        self.rows(np.concatenate([values, u, s, r]),
                  np.concatenate([(1.0 - lam) * probs, [lam],
                                  lam * probs / spec.epsilon, [-1.0]]), 0.0)
        return int(r[0])

    def tail(self, problem: Problem, where) -> int:
        """Add the nested epigraph below position ``where``, after the history parameter.

        Returns the value column of ``where``'s node.  Every scenario node
        ``m`` below it gets its decision columns ``x_m`` and a value column
        ``V_m >= cost_m(x_{1:m}) + R_m``, one row per cost piece (the cost's
        epigraph column folded into ``V_m``), where ``R_m`` (:meth:`risk`) is
        the one-step risk of its children's values under its pool's spec and
        is absent at a leaf.  Its rows are its payload's over the decisions
        along its path from ``where``, after ``x_0`` and the ``k``-entry
        history ``x_{1:t-1}``, which stays a parameter: each right-hand side
        carries the affine parts of :meth:`~riskdp.model.Realization.fold_map`.
        """
        topo = problem.topology
        records = _scenario_records(problem, where)
        x_cols: dict = {(): np.zeros(0, dtype=int)}
        v_col: dict = {}
        kids: dict = {}
        for rec in records:
            pay = rec.payload
            x_cols[rec.key] = np.concatenate(
                [x_cols[rec.parent], self.columns(problem.dim, pay.lb, pay.ub)])
            v_col[rec.key] = int(self.columns(1)[0])
            kids.setdefault(rec.parent, []).append(v_col[rec.key])
        for rec in records:
            rows, b_hist, h_hist, d_hist = rec.payload.fold_map(problem.x0, self.k)
            path = x_cols[rec.key]
            self.rows(path, rows.a, rows.b, eq=True, hist=b_hist)
            self.rows(path, rows.g, rows.h, hist=h_hist)
            n_p = rows.pieces_d.shape[0]
            value = [v_col[rec.key]]
            pieces = [rows.pieces_c, -np.ones((n_p, 1))]
            if rec.key in kids:
                key = topo.pool(rec.where)
                value.append(self.risk(topo.risk(key), topo.probs(key),
                                       np.array(kids[rec.key])))
                pieces.append(np.ones((n_p, 1)))
            self.rows(np.concatenate([path, value]), np.hstack(pieces), -rows.pieces_d,
                      hist=d_hist)
        return v_col[(0,)]


def extensive_form_value(problem: Problem) -> float:
    """Optimal value of the nested-risk extensive form, for every supported risk spec.

    One LP over the whole scenario tree (a lattice expands into its paths):
    a decision and a value column per node, the value bounded below by the
    node's cost plus the one-step risk of its children's values, written as
    rows (:meth:`_NestedRiskLp.risk`).  Coherent measures are monotone, so
    minimising the stage-1 node's value makes every epigraph tight.  One
    HiGHS solve at :data:`HIGHS_OPTIONS` (:meth:`_NestedRiskLp.minimize`),
    the only place the package relies on an external solver.  Its history
    parameter is empty.  Returns ``+inf`` when the instance is infeasible.
    """
    lp = _NestedRiskLp(0)
    return float(lp.minimize(lp.tail(problem, problem.topology.first), np.zeros((1, 0)))[0])


# ---------------------------------------------------------------------------
# exact nested decomposition
# ---------------------------------------------------------------------------

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

    The stage solves and the cut step are the sampled drivers' own
    (:meth:`~riskdp.engine._Driver._solve` and
    :meth:`~riskdp.engine._Driver._build_cut_at`), on a driver whose misses
    solve cold.  So each distinct stage LP is solved once and cold: the
    last-stage backward solves are the forward pass's leaf solves, the
    first-stage value solve is the next sweep's first forward solve, and a
    position whose pool gained no cut is met again at an unchanged history.
    """
    topo = problem.topology
    driver = _Driver(problem, RunConfig(), warm=False)
    records = _scenario_records(problem)
    value_prev = None
    n_cuts = 0
    for sweep in range(1, max_sweeps + 1):
        histories = _forward_all(driver, records)
        counters: dict = {}
        for t in range(problem.horizon, 1, -1):
            for rec in records:
                if rec.depth == t - 1:
                    driver._build_cut_at(topo.pool(rec.where), histories[rec.key], sweep,
                                         counters, {})
        added = sum(counters.values())
        n_cuts += added
        value = driver._solve_stage1().value
        if (value_prev is not None and abs(value - value_prev) <= VALUE_REPEAT_TOL
                and added == 0):
            lps, reused = driver.tally["lps"], driver.tally["lps_reused"]
            logger.info("nested decomposition: value %r after %d sweeps, %d cuts, "
                        "%d LPs solved (%d reused)", value, sweep, n_cuts, lps, reused)
            return NDResult(value=value, sweeps=sweep, n_cuts=n_cuts, lps=lps,
                            lps_reused=reused)
        value_prev = value
    raise OracleError(f"nested decomposition did not settle in {max_sweeps} sweeps")


def _forward_all(driver: _Driver, records: list[_Rec]) -> dict:
    """Histories of every scenario-tree node after one all-node forward pass.

    Keyed by record key; the value stored for a node is the history
    *including* the node's decision, ``x_{1:t}`` at a stage-t node.
    """
    histories: dict = {(): np.zeros(0)}
    for rec in records:
        base = histories[rec.parent]
        ns = driver._solve(rec.where, base)
        histories[rec.key] = np.concatenate([base, ns.x])
    return histories


# ---------------------------------------------------------------------------
# conditioning on a history
# ---------------------------------------------------------------------------

def _conditioned_payload(pay: Realization, x0: np.ndarray, history: np.ndarray) -> Realization:
    """Re-root a payload after ``x0`` and ``history = x_{1:t-1}``: :meth:`Realization.fold` it.

    The reduced payload's block-0 (initial state) columns are zero — the
    fixed prefix moves into the right-hand sides and cost offsets.
    """
    n = pay.cost.dim
    rows = pay.fold(x0, history)
    a = np.hstack([np.zeros((rows.a.shape[0], n)), rows.a])
    return Realization(prob=1.0, cost=PwlConvexCost(rows.pieces_c, rows.pieces_d, dim=n),
                       a_blocks=np.hsplit(a, a.shape[1] // n), b=rows.b,
                       g=np.hstack([np.zeros((rows.g.shape[0], n)), rows.g]), h=rows.h,
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
    history = history_vector(history, t, n)
    first_pay = _conditioned_payload(problem.stages[t - 1].realizations[j], problem.x0,
                                     history)
    stages = [Stage([first_pay])]
    for tau in range(t + 1, problem.horizon + 1):
        stage = problem.stages[tau - 1]
        reals = []
        for pay in stage.realizations:
            reduced = _conditioned_payload(pay, problem.x0, history)
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
    history = history_vector(history, t, n)
    nodes = [Node(id=0, parent=None)]
    mapping = {node_id: 1}
    queue = [node_id]
    next_id = 1
    while queue:
        mid = queue.pop(0)
        node = problem.node(mid)
        reduced = _conditioned_payload(node.payload, problem.x0, history)
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


def true_recourse_value(problem: Problem, where, history):
    """Exact risk-adjusted recourse aggregated at one history, or at each of a stack.

    ``where`` is a pool key (a stage on a lattice, a node id on a tree) and
    ``history`` is the decisions ``x_{1:s}`` for the stage ``s`` of the
    subproblems that carry its rows (a cut's argument), or a ``(p, k)``
    stack of such histories; the result is
    the key's risk of the tail values of its children, a float for one
    history and ``p`` values for a stack.  The nested epigraphs of the
    children's tails, with the history as a parameter
    (:meth:`_NestedRiskLp.tail`), are stacked with the key's risk rows over
    their value columns: one HiGHS model per pool, re-solved per history
    from its last basis (:meth:`_NestedRiskLp.minimize`).  Terminal keys
    report 0, infeasible histories ``+inf``.
    """
    topo = problem.topology
    points = np.asarray(history, dtype=float)
    if topo.terminal(where):
        return 0.0 if points.ndim == 1 else np.zeros(points.shape[0])
    kids = topo.children(where)
    t, n = topo.stage(kids[0]), problem.dim
    k = (t - 1) * n
    stack = np.array([history_vector(h, t, n) for h in np.atleast_2d(points)]).reshape(-1, k)
    lp = _NestedRiskLp(k)
    values = [lp.tail(problem, kid) for kid in kids]
    risk = lp.risk(topo.risk(where), topo.probs(where), np.array(values))
    out = lp.minimize(risk, stack)
    return float(out[0]) if points.ndim == 1 else out


def nested_decomposition_value(problem: Problem) -> float:
    """:func:`exact_nested_decomposition`'s value; ``+inf`` when the instance is infeasible.

    Nested decomposition has no feasibility cuts: at a history where some
    subproblem is infeasible it stops with :class:`EngineError`.  The extensive
    form then decides: if it is infeasible too, the value is ``+inf``;
    otherwise the instance is feasible but lacks relatively complete recourse,
    which nested decomposition cannot handle, and :class:`OracleError` says so.
    """
    try:
        return exact_nested_decomposition(problem).value
    except EngineError as exc:
        if math.isinf(extensive_form_value(problem)):
            return math.inf
        raise OracleError(
            "nested decomposition has no feasibility cuts: it met an infeasible "
            "subproblem of a feasible instance that lacks relatively complete "
            "recourse; --method extensive-form gives its exact value") from exc


# the ground-truth optimal value (``+inf`` when infeasible) for every instance
reference_value = extensive_form_value
