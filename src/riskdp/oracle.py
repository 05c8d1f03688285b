"""Independent reference solvers for desk-scale instances.

Two routes compute ground truth:

* :func:`extensive_form_value` — the nested-risk extensive form: the whole
  scenario tree as one LP, with a value column per node and the one-step
  risk of its children written as rows, for every supported risk spec.  It
  shares with the cutting-plane drivers only the history fold
  (:func:`~riskdp.model.fold_rows`), and is solved by HiGHS through the
  binding scipy vendors (``scipy.optimize._highspy._core``, which
  ``linprog`` itself calls; the only place the package relies on an
  external solver).  :func:`_highs_core` loads that extension module alone,
  not the ``scipy.optimize`` package around it: a ``riskdp check-cuts``
  process then peaks at about 42 MB of RSS and exits in about 0.2 s, where
  the package import took it to about 80 MB and 0.58 s
  (``tests/footprint.py`` on a 2-core x86-64 host);
  :func:`reference_value` is this route;
* :func:`exact_nested_decomposition` — the paper's sampling-free method:
  sweep-based nested decomposition that visits *every* node each sweep and
  stops only when the first-stage value repeats and a full sweep adds no cut
  to any pool.  Each sweep is the sampled drivers' own
  (:meth:`~riskdp.engine._Driver._forward` and
  :meth:`~riskdp.engine._Driver._backward`) over every scenario node, with
  every miss solved cold.

:func:`true_recourse_values` evaluates the exact risk-adjusted recourse
functions of several pools, each at a stack of histories: each pool's
children's tails, stacked under its risk rows with its history as its own
slice of one parameter, lie side by side in one HiGHS model, built and
passed once and re-solved per point from its last basis with only the
moved right-hand sides changed; infeasible histories report ``+inf``, and
a point where the joint model is infeasible is solved again pool by pool.
:func:`true_recourse_value` is its one-pool case, the model of one pool.
These models and the extensive form are built by one builder
(:meth:`_NestedRiskLp.nested`) one layer at a time, not one scenario node
at a time: the nodes of every tail that share a fold length and a path
length are one group, whose payloads are stacked and folded once and whose
equality, inequality and cost-piece rows are one block each, each row
naming its own columns and its own history offset; the risk rows of every
node and pool are one block per kind of measure and outcome count.  So the
numpy calls of a build grow with the layers of the tails, not with their
nodes.  The models reach HiGHS the same way: the matrix row-wise, the
nonzeros of each block of rows as it is added, solved by the dual simplex
with presolve off (:meth:`_NestedRiskLp.minimize` says why).
:func:`conditioned_problem` builds one child's tail as a tree problem of
its own, on lattices and trees alike; only the test suite's per-child
nested-decomposition reference calls it.  Every route walks the scenario tree by
:meth:`~riskdp.model.Topology.scenarios`, which expands a lattice into its
paths: the nested epigraphs, nested decomposition's all-node forward pass
and the conditioned tails.  Nested decomposition has no feasibility cuts,
so on a feasible instance without relatively complete recourse
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

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .engine import EngineError, RunConfig, _Driver, backward_order
from .model import (TREE, ModelError, Node, Problem, PwlConvexCost, Realization, fold_rows,
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

HIGHS_BINDING = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's vendored HiGHS binding, the one ``linprog(method="highs")`` calls itself.

    It is loaded on its own, from the folder that
    :func:`importlib.util.find_spec` reports for ``scipy`` without importing
    it, so the ``scipy.optimize`` package around it (``scipy.linalg``,
    ``scipy.sparse`` and the other optimizers) is never run.  The module is
    entered in :data:`sys.modules` under its own name before it runs; a later
    ``import scipy.optimize`` finds that entry and does not load the
    extension again, and one already there (``scipy.optimize`` imported
    first) is returned.  An entry of ``None``, Python's mark of a blocked
    import, no such file, or a file that does not load raises
    :class:`OracleError`.
    """
    missing = OracleError("the oracle solves through scipy's vendored HiGHS binding "
                          f"{HIGHS_BINDING}, which this scipy lacks")
    if HIGHS_BINDING not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            HIGHS_BINDING, [os.path.join(folder, "optimize", "_highspy")
                            for folder in scipy.submodule_search_locations])
        if spec is None:
            raise missing
        try:
            core = importlib.util.module_from_spec(spec)
            sys.modules[HIGHS_BINDING] = core
            spec.loader.exec_module(core)
        except BaseException as exc:
            sys.modules.pop(HIGHS_BINDING, None)
            if isinstance(exc, ImportError):
                raise missing from exc
            raise
    core = sys.modules[HIGHS_BINDING]
    if core is None:
        raise missing
    return core


class _NestedRiskLp:
    """A nested-risk LP over a history parameter of ``k`` entries, built once and solved by HiGHS.

    Columns are appended with :meth:`columns`, inequality (``<=``) and
    equality rows as dense blocks with :meth:`rows`, over columns that the
    block's rows share or that each row names for itself; it keeps only each
    block's nonzeros, row by row, for the row-wise matrix of :meth:`_model`.
    A row's right-hand side is ``rhs - hist @ h[first:]``, affine in the
    history ``h``, and each row may read the parameter from an entry
    ``first`` of its own; the matrix, bounds and cost do not depend on it, so
    :meth:`minimize` passes one HiGHS model and re-solves it per history.
    The parameter is empty at first and grows with each pool that
    :meth:`nested` adds, which reads a slice of its own, so the recourse LPs
    of several pools lie side by side in one model.

    :meth:`nested` builds the model one layer at a time, not one scenario
    node at a time: the nodes of every tail that share a fold length and a
    path length get one block of rows per kind (:meth:`_layer`), and the
    risk rows of every node and pool one block per kind of measure and
    outcome count (:meth:`_risks`), so the count of numpy calls grows with
    the layers of the tails, not with their nodes.
    """

    def __init__(self):
        self.k = 0
        self.ncols = 0
        self.bounds: list = []  # (first column, end column, lower, upper)
        # is-equality -> blocks: (nonzeros per row, their columns and values
        # row by row, right-hand side, history coefficients or None, and the
        # parameter entry they start at: one for the block or one per row)
        self.blocks: dict[bool, list] = {False: [], True: []}

    def columns(self, k: int, lower=None, upper=None) -> np.ndarray:
        """``k`` new columns; ``lower`` and ``upper`` (scalars or ``k``-vectors) default to free."""
        if lower is not None or upper is not None:
            self.bounds.append((self.ncols, self.ncols + k, lower, upper))
        self.ncols += k
        return np.arange(self.ncols - k, self.ncols)

    def rows(self, cols, block, rhs, eq: bool = False, hist=None, first=0) -> None:
        """Add ``block @ x[cols] <= rhs - hist @ h[first:]`` (``==`` with ``eq``), row by row.

        ``cols`` is one column list for every row of ``block`` or, 2-D, a
        list per row; no row names a column twice.  ``hist`` defaults to
        zero: a right-hand side that ignores the history; otherwise each row
        reads ``hist.shape[1]`` parameter entries from ``first`` on, an
        ``int`` for the whole block or an array with one entry per row.  The
        block's zeros are dropped; its nonzeros are kept row by row.
        """
        block = np.atleast_2d(block)
        cols = np.asarray(cols)
        r, c = block.nonzero()
        self.blocks[eq].append((np.bincount(r, minlength=block.shape[0]),
                                cols[r, c] if cols.ndim == 2 else cols[c], block[r, c],
                                np.atleast_1d(rhs), hist, first))

    def _model(self, core, cols):
        """The ``HighsLp`` minimising ``sum(x[cols])`` at a zero history, its matrix row-wise.

        Also returns the count of inequality rows (stacked first), and every
        row's right-hand side constant and history coefficients: a block's
        coefficients are placed row by row from its ``first`` on, the
        block's one offset or each row's own.
        """
        blocks = self.blocks[False] + self.blocks[True]
        n_ub = sum(b[0].shape[0] for b in self.blocks[False])
        counts = np.concatenate([b[0] for b in blocks])
        n_rows = counts.shape[0]
        start = np.zeros(n_rows + 1, dtype=int)
        np.cumsum(counts, out=start[1:])
        rhs = np.concatenate([b[3] for b in blocks])
        hist = np.zeros((n_rows, self.k))
        i = 0
        for per_row, _, _, _, h, first in blocks:
            end = i + per_row.shape[0]
            if h is not None and h.shape[1]:
                hist[np.arange(i, end)[:, None],
                     np.reshape(first, (-1, 1)) + np.arange(h.shape[1])] = h
            i = end
        lower, upper = np.full(self.ncols, -np.inf), np.full(self.ncols, np.inf)
        for first, end, lo, hi in self.bounds:
            if lo is not None:
                lower[first:end] = lo
            if hi is not None:
                upper[first:end] = hi
        model = core.HighsLp()
        model.num_col_, model.num_row_ = self.ncols, n_rows
        cost = np.zeros(self.ncols)
        cost[cols] = 1.0
        model.col_cost_ = cost
        model.col_lower_, model.col_upper_ = lower, upper
        model.row_lower_ = np.concatenate([np.full(n_ub, -np.inf), rhs[n_ub:]])
        model.row_upper_ = rhs
        matrix = model.a_matrix_
        matrix.format_ = core.MatrixFormat.kRowwise
        matrix.num_col_, matrix.num_row_ = self.ncols, n_rows
        # the binding copies these three element by element, from a list fastest
        matrix.start_ = start.tolist()
        matrix.index_ = np.concatenate([b[1] for b in blocks]).tolist()
        matrix.value_ = np.concatenate([b[2] for b in blocks]).tolist()
        return model, n_ub, rhs, hist

    def minimize(self, cols, histories: np.ndarray) -> np.ndarray:
        """Each of the columns ``cols`` at the minimum of their sum, at each history.

        ``histories`` holds one history per row; the result is a ``(p,
        len(cols))`` array.  One HiGHS model with its options set once,
        passed once: each history then changes only the row bounds that
        moved, and HiGHS re-solves from its last basis.  A column's value is
        read from the primal solution.  Presolve is off: only the first solve
        would run it, since every later one starts from a basis, and on
        models this small it costs that solve more than it saves.  It is a
        native option, kept apart from the linprog-compatible
        :data:`HIGHS_OPTIONS`, since linprog reads ``presolve`` as a boolean
        and warns at ``"off"``.  An infeasible history gives ``+inf`` in
        every column; any other non-optimal status raises
        :class:`OracleError`.
        """
        core = _highs_core()
        model, n_ub, rhs0, hist = self._model(core, cols)
        highs = core._Highs()
        for key, value in {**HIGHS_OPTIONS, "output_flag": False, "presolve": "off",
                           "simplex_strategy":
                           core.simplex_constants.SimplexStrategy.kSimplexStrategyDual}.items():
            highs.setOptionValue(key, value)
        highs.passModel(model)
        values = np.empty((histories.shape[0], len(cols)))
        held = rhs0
        for p, rhs in enumerate(rhs0 - histories @ hist.T):
            for j in np.flatnonzero(rhs != held).tolist():
                highs.changeRowBounds(j, -np.inf if j < n_ub else rhs[j], rhs[j])
            held = rhs
            highs.run()
            status = highs.getModelStatus()
            if status == core.HighsModelStatus.kOptimal:
                solution = highs.getSolution().col_value
                # + 0.0 as in HiGHS's objective sum: a column at -0.0 reads 0.0
                values[p] = [solution[col] + 0.0 for col in cols]
            elif status == core.HighsModelStatus.kInfeasible:
                values[p] = math.inf
            else:
                raise OracleError("nested-risk LP solve failed: "
                                  f"{highs.modelStatusToString(status)}")
        return values

    def nested(self, problem: Problem, keys=None) -> list[int]:
        """Add the recourse of each pool of ``keys``, or the whole tree; return their columns.

        With ``keys``, each pool reads a new slice of the history parameter,
        its cut argument ``x_{1:s}``, and gets the nested epigraphs of its
        children's tails under its risk rows over their value columns; its
        risk column is returned.  With none, the history is empty and the one
        tail is the stage-1 position's: the extensive form, whose value
        column is returned.

        Every scenario node ``m`` of a tail
        (:meth:`~riskdp.model.Topology.scenarios`) gets its decision columns
        ``x_m`` and a value column ``V_m >= cost_m(x_{1:m}) + R_m``, one row
        per cost piece (the cost's epigraph column folded into ``V_m``),
        where ``R_m`` is the one-step risk of its children's values under
        its pool's spec and is absent at a leaf.  Its rows are its payload's
        over the decisions along its path from the tail's first node, after
        ``x_0`` and that node's history ``x_{1:t-1}``, which stays the
        parameter: each right-hand side carries the affine parts of the
        history fold (:func:`~riskdp.model.fold_rows`).

        The build goes by layers, not by nodes.  One walk lists every node of
        every tail; the decision and value columns of all of them are two
        :meth:`columns` calls; the risk rows of every inner node and every
        pool are batched by kind of measure and outcome count
        (:meth:`_risks`); and the nodes that share a fold length and a path
        length, whatever their pool, are one group whose payload rows are
        one block per kind (:meth:`_layer`).
        """
        topo, n = problem.topology, problem.dim
        tails = []  # per pool, or for the whole tree: its tails' first positions, its offset
        if keys is None:
            tails.append(([topo.first], 0))
        for key in keys or ():
            tails.append((topo.children(key), self.k))
            self.k += topo.arg_dim(key)
        # every node of every tail: its position, the nodes on its path from
        # the tail's first node, its children, its history length and offset
        where, path, kids, fold, first, roots = [], [], [], [], [], []
        for starts, offset in tails:
            roots.append([])
            for start in starts:
                k = (topo.stage(start) - 1) * n
                index: dict = {}
                for node in topo.scenarios(start):
                    m = index[node.key] = len(where)
                    if node.parent:
                        up = index[node.parent]
                        path.append(path[up] + (m,))
                        kids[up].append(m)
                    else:
                        path.append((m,))
                        roots[-1].append(m)
                    where.append(node.where)
                    kids.append([])
                    fold.append(k)
                    first.append(offset)
        pays = [topo.payload(w) for w in where]
        x = self.columns(len(where) * n, np.concatenate([p.lb for p in pays]),
                         np.concatenate([p.ub for p in pays])).reshape(-1, n)
        v0 = int(self.columns(len(where))[0])  # node m's value column is v0 + m
        inner = [m for m in range(len(where)) if kids[m]]
        risk = self._risks(topo, [(topo.pool(where[m]), [v0 + j for j in kids[m]]) for m in inner]
                           + [(key, [v0 + j for j in ms]) for key, ms in zip(keys or (), roots)])
        risk_of = dict(zip(inner, risk))
        groups: dict = {}
        for m in range(len(where)):
            groups.setdefault((fold[m], len(path[m]), bool(kids[m])), []).append(m)
        first = np.array(first)
        for (k, _, has_kids), ms in groups.items():
            value = [[v0 + m] + ([risk_of[m]] if has_kids else []) for m in ms]
            self._layer(problem, k, [where[m] for m in ms],
                        x[np.array([path[m] for m in ms])].reshape(len(ms), -1),
                        np.array(value), first[ms])
        return [v0] if keys is None else risk[len(inner):]

    def _layer(self, problem: Problem, k: int, where: list, cols: np.ndarray, value: np.ndarray,
               first: np.ndarray) -> None:
        """The payload rows of scenario nodes at positions ``where``, one block per kind.

        The nodes share the history length ``k`` and the path length, so
        their payloads, all of one stage, give rows of one width: each
        distinct position's rows are stacked once (a lattice meets a position
        once per path into it), ``x_0`` is folded into each stack in one
        product, and on a lattice each node's rows are indexed out of its
        position's.  A node's rows read its path's decision columns (its row
        of ``cols``) and the history from its ``first`` on; its cost pieces
        also read its value column and, when it has children, its risk
        column (its row of ``value``), with the coefficients ``-1`` and
        ``+1``.
        """
        topo, n, x0 = problem.topology, problem.dim, problem.x0
        slot: dict = {}
        of = [slot.setdefault(w, len(slot)) for w in where]
        pays = [topo.payload(w) for w in slot]
        a = np.concatenate([p.a_blocks for p in pays], axis=1)  # (t + 1, rows, n)
        rows, b_hist, h_hist, d_hist = fold_rows(
            a.transpose(1, 0, 2).reshape(a.shape[1], a.shape[0] * n),
            np.concatenate([p.b for p in pays]), np.concatenate([p.g for p in pays]),
            np.concatenate([p.h for p in pays]), np.concatenate([p.cost.pieces_c for p in pays]),
            np.concatenate([p.cost.pieces_d for p in pays]), x0, k)
        # per kind: is-equality, rows per position, the stacked rows and
        # their right-hand sides and history maps, and the coefficients of
        # the value and risk columns (the cost pieces' V_m >= piece + R_m)
        kinds = ((True, [p.b.shape[0] for p in pays], rows.a, rows.b, b_hist, None),
                 (False, [p.h.shape[0] for p in pays], rows.g, rows.h, h_hist, None),
                 (False, [p.cost.pieces_d.shape[0] for p in pays], rows.pieces_c,
                  -rows.pieces_d, d_hist, [-1.0, 1.0][:value.shape[1]]))
        nodes = np.arange(len(where))
        for eq, counts, block, rhs, hist, coef in kinds:
            counts = np.array(counts)
            if len(slot) < len(where):  # a node's j-th row is its position's j-th row
                per_node = counts[of]
                ends = np.cumsum(per_node)
                src = np.arange(ends[-1]) + np.repeat(
                    (np.cumsum(counts) - counts)[of] - (ends - per_node), per_node)
                block, rhs, hist, counts = block[src], rhs[src], hist[src], per_node
            node = np.repeat(nodes, counts)
            row_cols = cols[node]
            if coef is not None:
                row_cols = np.hstack([row_cols, value[node]])
                block = np.hstack([block, np.broadcast_to(coef, (node.shape[0], len(coef)))])
            self.rows(row_cols, block, rhs, eq=eq, hist=hist, first=first[node])

    def _risks(self, topo, aggregates: list) -> list[int]:
        """A column ``R >= rho(V[values])`` for each ``(key, values)``, with pool ``key``'s measure.

        Expectation: ``R >= sum_j phi_j V_j``.  CVaR and mixture, by
        Rockafellar–Uryasev: ``R >= (1-lam) sum_j phi_j V_j + lam (u +
        sum_j phi_j s_j / eps)`` with ``s_j >= V_j - u``, ``s_j >= 0``
        (``lam = 1`` for CVaR).  The expectation rows of every aggregate
        with ``m`` outcomes are one block, and so are the tail rows of
        every CVaR and mixture with ``m`` outcomes, with ``lam`` and ``eps``
        read row by row.  A polytope spec gets its rows one aggregate at a
        time (:meth:`_polytope`).  Each is tight at the minimum, where ``R``
        is the risk.
        """
        out = [0] * len(aggregates)
        batches: dict = {}
        probs: dict = {}
        for i, (key, values) in enumerate(aggregates):
            spec = topo.risk(key)
            if key not in probs:
                probs[key] = topo.probs(key)
            if spec.kind == "polytope":
                out[i] = self._polytope(spec, probs[key], np.array(values))
                continue
            lam = {"expectation": 0.0, "cvar": 1.0, "mixture": spec.lam}[spec.kind]
            batches.setdefault((lam != 0.0, len(values)), []).append(
                (i, values, probs[key], lam, spec.epsilon))
        for (tail, m), batch in batches.items():
            which, values, phi, lam, eps = zip(*batch)
            values, phi, b = np.array(values), np.array(phi), len(batch)
            r = self.columns(b)
            minus = np.full((b, 1), -1.0)
            if not tail:
                self.rows(np.hstack([values, r[:, None]]), np.hstack([phi, minus]), np.zeros(b))
            else:
                lam, eps = np.array(lam)[:, None], np.array(eps, dtype=float)[:, None]
                u = self.columns(b)
                s = self.columns(b * m, lower=0.0).reshape(b, m)
                self.rows(np.column_stack([values.ravel(), np.repeat(u, m), s.ravel()]),
                          np.tile([1.0, -1.0, -1.0], (b * m, 1)), np.zeros(b * m))
                self.rows(np.hstack([values, u[:, None], s, r[:, None]]),
                          np.hstack([(1.0 - lam) * phi, lam, lam * phi / eps, minus]),
                          np.zeros(b))
            for i, col in zip(which, r.tolist()):
                out[i] = col
        return out

    def _polytope(self, spec: RiskSpec, probs: np.ndarray, values: np.ndarray) -> int:
        """A column ``R >= rho(V[values])`` for one polytope spec, by duality of its density LP.

        The density LP ``max {sum_j p_j phi_j V_j : sum_j p_j phi_j = 1, A p
        <= rhs, p >= 0}`` gives ``R >= mu + rhs . lam`` with ``mu phi_j +
        (A^T lam)_j >= phi_j V_j``, ``lam >= 0``, tight at the minimum.
        """
        m = len(values)
        r = self.columns(1)
        a = np.array([np.asarray(row, dtype=float) for row, _ in spec.rows])
        rhs = np.array([b for _, b in spec.rows])
        mu = self.columns(1)
        lam = self.columns(len(rhs), lower=0.0)
        self.rows(np.concatenate([values, mu, lam]),
                  np.hstack([np.diag(probs), -probs[:, None], -a.T]), np.zeros(m))
        self.rows(np.concatenate([mu, lam, r]), np.concatenate([[1.0], rhs, [-1.0]]), 0.0)
        return int(r[0])


def extensive_form_value(problem: Problem) -> float:
    """Optimal value of the nested-risk extensive form, for every supported risk spec.

    One LP over the whole scenario tree (a lattice expands into its paths):
    a decision and a value column per node, the value bounded below by the
    node's cost plus the one-step risk of its children's values, written as
    rows (:meth:`_NestedRiskLp.nested`).  Coherent measures are monotone, so
    minimising the stage-1 node's value makes every epigraph tight.  One
    HiGHS solve at :data:`HIGHS_OPTIONS` (:meth:`_NestedRiskLp.minimize`),
    the only place the package relies on an external solver.  Its history
    parameter is empty.  Returns ``+inf`` when the instance is infeasible.
    """
    lp = _NestedRiskLp()
    return float(lp.minimize(lp.nested(problem), np.zeros((1, 0)))[0, 0])


# ---------------------------------------------------------------------------
# exact nested decomposition
# ---------------------------------------------------------------------------

def exact_nested_decomposition(problem: Problem) -> NDResult:
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

    Each sweep is the sampled drivers' own, run over every node of
    :meth:`~riskdp.model.Topology.scenarios` instead of a sampled path: the
    forward half (:meth:`~riskdp.engine._Driver._forward`) and the backward
    half (:meth:`~riskdp.engine._Driver._backward`), whose fresh stage-1
    solve gives the sweep's value, on a driver whose misses solve cold.
    Its stage-1 solve is dropped before each sweep, so the forward half
    solves stage 1 through the memo, as it does every node.  So each
    distinct stage LP is solved once and cold: the last-stage backward
    solves are the forward pass's leaf solves, the first-stage value solve
    is the next sweep's first forward solve, and a position whose pool
    gained no cut is met again at an unchanged history.
    """
    driver = _Driver(problem, RunConfig(), warm=False)
    nodes = problem.topology.scenarios()
    inner = backward_order(nodes, problem.horizon)
    value_prev = None
    n_cuts = 0
    for sweep in range(1, MAX_SWEEPS + 1):
        counters: dict = {}
        driver.stage1 = None  # solved through the memo, as every node is
        out = driver._forward(nodes, sweep, counters, {}, {})
        driver._backward(inner, out, sweep, counters, {})
        added = sum(counters.values())
        n_cuts += added
        value = driver.stage1.value
        if (value_prev is not None and abs(value - value_prev) <= VALUE_REPEAT_TOL
                and added == 0):
            lps, reused = driver.tally["lps"], driver.tally["lps_reused"]
            logger.info("nested decomposition: value %r after %d sweeps, %d cuts, "
                        "%d LPs solved (%d reused)", value, sweep, n_cuts, lps, reused)
            return NDResult(value=value, sweeps=sweep, n_cuts=n_cuts, lps=lps,
                            lps_reused=reused)
        value_prev = value
    raise OracleError(f"nested decomposition did not settle in {MAX_SWEEPS} sweeps")


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
    """Tail problem started at position ``where`` under ``history``, in tree form.

    Its nodes are the scenario-tree nodes below ``where``
    (:meth:`~riskdp.model.Topology.scenarios`), numbered in that
    breadth-first order after a synthetic root ``0``: ``where``'s own node
    ``1`` is the deterministic first stage, and the horizon is ``T - t + 1``.
    Each node keeps its probability and its pool's risk spec, with the fixed
    prefix folded into its payload.  On a tree that is the subtree below the
    node; on a lattice, the scenario tree of the paths from ``where``.
    """
    topo = problem.topology
    n = problem.dim
    t = topo.stage(where)
    history = history_vector(history, t, n)
    nodes = topo.scenarios(where)
    ids = {node.key: i for i, node in enumerate(nodes, start=1)} | {(): 0}
    tail = [Node(id=0, parent=None)]
    for node in nodes:
        prob = float(topo.probs(topo.parent(node.where))[node.key[-1]]) if node.parent else 1.0
        tail.append(Node(id=ids[node.key], parent=ids[node.parent], prob=prob,
                         payload=_conditioned_payload(topo.payload(node.where), problem.x0,
                                                      history),
                         risk=topo.risk(topo.pool(node.where))))
    return Problem(horizon=problem.horizon - t + 1, dim=n, x0=np.zeros(n), form=TREE,
                   nodes=tail, lower_value_bound=problem.lower_value_bound[t - 1:])


def conditioned_subtree(problem: Problem, node_id: int,
                        history: np.ndarray) -> Problem:
    """Tail problem rooted at one tree node under ``history``: :func:`conditioned_problem`."""
    if problem.form != TREE:
        raise OracleError("conditioning on a node applies to tree form")
    return conditioned_problem(problem, node_id, history)


def true_recourse_values(problem: Problem, stacks: dict) -> dict:
    """Exact risk-adjusted recourse of several pools, each at every history of its stack.

    ``stacks`` maps a pool key (a stage on a lattice, a node id on a tree)
    to a ``(p, k)`` stack of histories, the decisions ``x_{1:s}`` for the
    stage ``s`` of the subproblems that carry its rows (a cut's argument),
    with the same ``p`` for every key.  Returns each key's ``p`` values: its
    risk of the tail values of its children, ``0`` at a terminal key.  The
    recourse LPs of all inner keys lie side by side in one HiGHS model
    (:meth:`_NestedRiskLp.nested`), each reading its own slice of the
    history parameter, which minimises the sum of their risk columns and is
    re-solved from its last basis at each point index
    (:meth:`_NestedRiskLp.minimize`); the LPs share no column or row, so
    each risk column sits at its own pool's minimum.  Where that model is
    infeasible, which needs some pool without relatively complete
    recourse, each pool is solved again on its own at those points, so a
    pool reads ``+inf`` exactly where its own LP is infeasible.
    """
    topo = problem.topology
    out, inner = {}, {}
    for key, history in stacks.items():
        stack = np.atleast_2d(np.asarray(history, dtype=float))
        out[key] = np.zeros(stack.shape[0])
        if topo.terminal(key):
            continue
        k, width = topo.arg_dim(key), math.prod(stack.shape[1:])
        if width != k:  # history_vector's check, once for the whole stack
            raise ModelError(f"history must have {k} coordinates at stage "
                             f"{k // problem.dim + 1}, got {width}")
        inner[key] = stack.reshape(stack.shape[0], k)
    if not inner:
        return out
    lp = _NestedRiskLp()
    values = lp.minimize(lp.nested(problem, list(inner)), np.hstack(list(inner.values())))
    infeasible = np.isinf(values[:, 0])
    if len(inner) > 1 and infeasible.any():
        for j, (key, stack) in enumerate(inner.items()):
            one = _NestedRiskLp()
            values[infeasible, j] = one.minimize(one.nested(problem, [key]),
                                                 stack[infeasible])[:, 0]
    return out | {key: values[:, j] for j, key in enumerate(inner)}


def true_recourse_value(problem: Problem, where, history):
    """Exact risk-adjusted recourse of one pool at one history, or at each of a stack.

    ``where`` is a pool key and ``history`` one cut argument or a ``(p,
    k)`` stack of them, as in :func:`true_recourse_values`, whose one-pool
    case this is: the result is a float for one history and ``p`` values
    for a stack.  The nested epigraphs of the children's tails, with the
    history as a parameter, are stacked with the key's risk rows over their
    value columns: one HiGHS model, re-solved per history from its last
    basis.  Terminal keys report 0, infeasible histories ``+inf``.
    """
    points = np.asarray(history, dtype=float)
    out = true_recourse_values(problem, {where: points})[where]
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
