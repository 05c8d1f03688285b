"""Algorithm drivers for risk-averse nested Benders decomposition.

Three sampled cutting-plane algorithms over the problems of :mod:`riskdp.model`:

* ``alg1`` — shared per-stage cut pools on lattice (interstage independent)
  problems with relatively complete recourse;
* ``alg2`` — ``alg1`` plus feasibility cuts and a backtracking forward pass
  for instances *without* relatively complete recourse (restricted to the
  linear-cost, equality-plus-box form);
* ``alg3`` — per-node cut pools on general scenario trees with per-node risk
  measures.

All three work on the problem's :class:`~riskdp.model.Topology`: the pool
keys are stages on a lattice and nodes on a tree, and one
:class:`~riskdp.cuts.CutPool` per key holds both cut kinds.  Each iteration
is one sweep over a list of scenario nodes
(:class:`~riskdp.model.ScenarioNode`), parents before children, in two
halves: the forward half solves each node at its parent's history
(:meth:`_Driver._forward`), the backward half builds the cut of every inner
node at the node's history, deepest stage first, and solves stage 1 afresh
(:meth:`_Driver._backward`).  An iteration sweeps its sampled path, written
as a chain of nodes, built once per distinct walk with its backward order
(:meth:`_Driver._chain`); the oracle's nested decomposition sweeps every
node of the scenario tree with the same two halves.  The drivers differ
only in the algorithm/form check of :func:`run` and in whether the forward
half is gated by feasibility cuts.

All three share one subproblem layout.  A stage-t solve has variables
``[x_t, w, z]`` with objective ``w + z``: ``w`` is the epigraph of the
piecewise-linear stage cost, ``z`` under-estimates the risk-adjusted recourse
through the optimality-cut rows.  Its right-hand side is one affine map
``b0 - M h`` of the history ``h = x_{1:t-1}`` (:func:`build_stage_lp`), and
its value's subgradient is ``M^T`` applied to the row duals
(:mod:`riskdp.valuefn`).  The value past the horizon is 0 (the paper's
``Q_{T+1} = 0``), held by ``z``'s lower bound alone
(:meth:`~riskdp.model.Problem.z_lower`): the terminal pools, which the
last-stage subproblems read, never gain a cut, so a last-stage LP has no
cut row and its ``z`` sits at 0.

Cut timing is configurable: the default ``backward`` timing builds cuts in
the backward half, stage by stage descending (each stage's cut then sees the
next stage's pool already updated this iteration); the ``forward`` timing
builds each cut inline during the forward half from the previous-generation
pools.  The anchor-equality assertion of
:mod:`riskdp.cuts` is valid under both orderings because pools only grow.

Sampling is counter-based: one uniform draw per (seed, iteration, stage),
so replay is exact and independent of execution order.  The driver sums
each pool's child probabilities once per run (:func:`pool_edges`).

Stage solves and cuts: the history and the pool's cut counts fix a
position's stage LP (:func:`stage_lp_key`).  The driver keeps every solve a
position made since its pool last grew and hands it back, touching no LP,
when the same key comes again (``lps_reused``).  One cut step solves every
child of a pool at one history through that memo and offers their cut
(:meth:`_Driver._build_cut_at`).  The sampled drivers and the oracle's
nested decomposition share both; they differ in what a miss solves.  The
sampled drivers hold one :class:`StageLp` per position, built on its first
solve and kept for the run with its map: between two solves only the
right-hand side moves, to ``b0 - M h``, and the pool's new cut rows are
appended, which is what :class:`riskdp.lp.PersistentLp` re-solves in place.
The subproblems of one stage share the layout and the objective, so a
position's first solve starts from the latest optimal basis of a
same-stage LP of its shape; the first LP of its stage and shape starts from
a dual feasible crash basis of its own (:func:`epigraph_basis`).  Either
start skips phase 1; one that is singular or from which the re-solve
declines gives way to the cold two-phase solve.  Nested decomposition
solves every miss cold.  So do the probe's ``resolve`` (it must not
disturb the driver's LPs) and :func:`phase_one`.  A solve in place, or a solve handed back, may be
another optimal vertex of a degenerate LP than the cold one, hence another
dual vertex and another valid cut; replay is still exact, because the
stage LPs, their start bases and the memo evolve deterministically.

Iterations: with finitely many scenarios only finitely many cuts are new,
and an iteration at a path already run, with no cut added to any pool
since, repeats that run exactly: every solve is handed back and every cut
offered is a skipped repeat.  The driver records such iterations by path
and answers the repeat from its record, touching no LP, memo or pool
(:meth:`_Driver._replay`, ``IterationReport.replayed``).  Under a stall
rule most runs stop soon after the bound settles, so few iterations are
replayed; at a fixed iteration budget most of the late ones are.
"""

from __future__ import annotations

import logging
import math
import time
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

import numpy as np

from . import lp
from .cuts import PHASE1_THRESHOLD, CutPool, build_feasibility_cut, build_optimality_cut
from .model import (LATTICE, TREE, Problem, ScenarioNode, SubproblemData, assemble_subproblem,
                    history_vector, validate_problem)
from .valuefn import assemble_pi

logger = logging.getLogger(__name__)

ALGORITHMS = ("alg1", "alg2", "alg3")
CUT_TIMINGS = ("forward", "backward")
STATUS_STALL = "converged_by_stall"
STATUS_ITER_LIMIT = "iter_limit"
STATUS_INFEASIBLE = "infeasible"

MAX_BACKTRACKS_PER_ITERATION = 10_000
TALLIES = ("lps", "lps_warm", "lps_dual", "lps_reused", "pivots")  # the LP counts of a report
_UINT64_MASK = (1 << 64) - 1


class EngineError(RuntimeError):
    """Hard failure inside a driver (violated preconditions, bad bounds)."""


class ConfigError(ValueError):
    """Invalid run configuration or problem/algorithm mismatch."""


@dataclass
class RunConfig:
    """Run parameters.

    ``oracle_check`` is ``"off"``, ``"final"`` or ``"every:K"`` (the reference
    value is solved once per run, when first needed); ``probe`` is
    an optional callable invoked at every cut-construction child solve with a
    dict (keys ``stage``, ``realization``, ``history``, ``value``, ``pi``,
    ``resolve``), where ``history`` is the decisions ``x_{1:t-1}`` the child
    was solved at.  The event's solution may be one the driver handed back
    (``lps_reused``, see :class:`_Driver`); the event then carries the same
    ``value`` and ``pi`` as the earlier event of that solve.
    ``resolve(history)`` solves the event's subproblem cold at ``history``
    against the run's pools as they are when it is called, and
    leaves the driver's stage LPs unchanged.  Called inside the probe, those
    are the event's pools, and ``value + pi . (history - event history)`` is
    at most its result (``pi`` is a subgradient of that value function).
    Called later, the pools have only grown, so its result is at least the
    value against the event's pools: the same inequality holds, but it is
    implied by the first and checks less.  While a probe is set, no
    iteration is replayed (:meth:`_Driver._replay`): every iteration runs,
    so that the probe sees every cut-construction solve.
    """

    algorithm: str = "alg1"
    max_iters: int = 100
    seed: int = 0
    stall_window: int = 10
    stall_tol: float = 1e-9
    cut_timing: str = "backward"
    oracle_check: str = "off"
    probe: object | None = None


@dataclass
class IterationReport:
    """One iteration of a run.

    ``cuts_opt`` and ``cuts_feas`` count the cuts that entered a pool, by
    stage; ``cuts_skipped`` counts, by pool key, the optimality cuts offered
    but not appended because their LP row was already pooled, including the
    repeats of an earlier offer that the driver does not build again
    (:meth:`_Driver._build_cut_at`).  ``lps`` counts the
    LPs the driver solved (stage LPs and phase-I LPs, not the probe's
    re-solves), ``lps_warm`` the stage LPs solved in place from a basis,
    skipping phase 1: re-solves from their held basis and first solves
    started from another position's or from the epigraph basis
    (:class:`StageLp`).  ``lps_dual`` counts
    those of them that first took dual simplex pivots to primal
    feasibility, and ``pivots`` the simplex
    pivots of them all.  ``lps_reused`` counts the stage solves that were
    not LPs: earlier solves of the same LP that the driver handed back
    (:meth:`_Driver._solve`).  ``lps + lps_reused`` is the number of stage
    and phase-I solves the algorithm asked for.  ``replayed`` is set when
    the iteration repeated an earlier one at the same path and pools and
    was answered from its record (:meth:`_Driver._replay`): it solved no
    LP, its solves count as ``lps_reused`` and its offers as
    ``cuts_skipped``, as running it again would have counted them.
    """

    k: int
    path: tuple
    lower_bound: float
    x1: np.ndarray
    cuts_opt: dict[int, int] = field(default_factory=dict)
    cuts_feas: dict[int, int] = field(default_factory=dict)
    cuts_skipped: dict = field(default_factory=dict)
    backtracks: int = 0
    lps: int = 0
    lps_warm: int = 0
    lps_dual: int = 0
    lps_reused: int = 0
    pivots: int = 0
    replayed: bool = False
    wall_ms: float = 0.0

    @property
    def n_cuts_opt(self) -> int:
        return sum(self.cuts_opt.values())

    @property
    def n_cuts_skipped(self) -> int:
        return sum(self.cuts_skipped.values())

    @property
    def n_cuts_feas(self) -> int:
        return sum(self.cuts_feas.values())


@dataclass
class RunResult:
    status: str
    reports: list[IterationReport]
    pools: "PoolSet"
    final_lower_bound: float | None = None
    final_x1: np.ndarray | None = None
    iters: int = 0
    diagnostics: dict = field(default_factory=dict)
    oracle_value: float | None = None
    oracle_gap: float | None = None


@dataclass
class NodeSolution:
    """One subproblem solve: decision, value, LP duals, history subgradient and its norm."""

    x: np.ndarray
    value: float
    duals: lp.LpSolution
    pi: np.ndarray
    pi_norm: float


class PoolSet:
    """Every cut pool of one run, one :class:`CutPool` per pool key.

    ``opt`` maps every pool key of the problem's topology to its pool, which
    holds both the optimality and the feasibility cuts of that key: a stage
    on a lattice (key ``t`` holds cuts over ``x_{1:t-1}`` whose rows enter
    every stage-``(t-1)`` subproblem), a node on a tree (node ``m``'s pool
    holds cuts over ``x_{1:depth(m)}`` aggregating ``m``'s children).  The
    pools of the terminal keys (``T+1`` on a lattice, the leaves of a tree)
    stay empty.
    """

    def __init__(self, problem: Problem):
        self.topology = topo = problem.topology
        self.opt: dict[object, CutPool] = {key: CutPool(topo.arg_dim(key)) for key in topo.keys}

    def rows_for(self, where) -> CutPool:
        """The pool whose cuts appear as rows inside the given subproblem."""
        return self.opt[self.topology.pool(where)]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

_PHILOX = np.random.Philox(0)  # re-keyed by every draw of _stage_uniform
_PHILOX_COUNTER = np.zeros(4, dtype=np.uint64)
_PHILOX_KEY = np.zeros(2, dtype=np.uint64)
_PHILOX_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": _PHILOX_COUNTER, "key": _PHILOX_KEY},
    "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
    "has_uint32": 0, "uinteger": 0,
}


def _stage_uniform(seed: int, k: int, t: int) -> float:
    """One deterministic uniform draw keyed by (seed, iteration, stage).

    ``Generator(Philox(counter=[0, 0, k, t], key=seed)).random()``, bit for
    bit, without building either: one held Philox is set to that fresh state
    (empty buffer), and the top 53 bits of its first word are scaled to
    ``[0, 1)``.  The state is one held dict whose counter and key arrays are
    rewritten in place; setting it copies their values into the Philox.
    """
    _PHILOX_COUNTER[2] = k
    _PHILOX_COUNTER[3] = t
    _PHILOX_KEY[0] = seed & _UINT64_MASK
    _PHILOX.state = _PHILOX_STATE
    return (int(_PHILOX.random_raw()) >> 11) * 2.0 ** -53


def _edges(probs: np.ndarray) -> list:
    """The running sums of ``probs``: the same sequential float additions as ``np.cumsum``."""
    return list(accumulate(probs.tolist()))


def _pick(probs: np.ndarray | None, u: float, edges: list | None = None) -> int:
    """The first child whose cumulative probability exceeds ``u``, else the last.

    ``np.searchsorted(np.cumsum(probs), u, side="right")`` bit for bit.
    ``edges``, when given, is ``_edges(probs)`` computed beforehand, and
    ``probs`` is not read.
    """
    if edges is None:
        edges = _edges(probs)
    return min(bisect_right(edges, u), len(edges) - 1)


def pool_edges(problem: Problem) -> dict:
    """Each pool key's cumulative child probabilities (:func:`_edges`), for :func:`sample_path`.

    Read from the problem's probabilities as they are now: a later edit to
    them is seen only by edges computed after it.
    """
    topo = problem.topology
    return {key: _edges(topo.probs(key)) for key in topo.keys if not topo.terminal(key)}


def sample_path(problem: Problem, seed: int, k: int, edges: dict | None = None) -> list:
    """Sampled positions for iteration ``k``; entry ``path[t]`` is the stage-t position.

    Starts at the stage-1 position and draws each next position among the
    children of the current position's pool.  A pure function of its
    arguments.  ``edges`` is :func:`pool_edges` of the problem, computed
    once per run by the driver; without it each draw sums its key's
    probabilities.  The path is the same either way.
    """
    topo = problem.topology
    path: list = [None] * (problem.horizon + 1)
    path[1] = current = topo.first
    for t in range(2, problem.horizon + 1):
        key = topo.pool(current)
        u = _stage_uniform(seed, k, t)
        j = _pick(topo.probs(key), u) if edges is None else _pick(None, u, edges[key])
        current = topo.children(key)[j]
        path[t] = current
    return path


# ---------------------------------------------------------------------------
# subproblem solves
# ---------------------------------------------------------------------------

def _cut_rows(beta2: np.ndarray, z_coef: float) -> np.ndarray:
    """Cut rows over ``[x_t, w, z]``: ``beta2 . x_t + z_coef z``.

    ``z_coef`` is -1 for optimality cuts and 0 for feasibility cuts.
    """
    k, n = beta2.shape
    rows = np.zeros((k, n + 2))
    rows[:, :n] = beta2
    rows[:, n + 1] = z_coef
    return rows


def build_stage_lp(sub: SubproblemData, view, z_lo: float,
                   history: np.ndarray) -> tuple[lp.LpProblem, np.ndarray, np.ndarray]:
    """Canonical stage LP at ``history`` and its right-hand side map ``(b0, hist)``.

    Variables ``[x_t, w, z]``, objective ``w + z``.  Rows: ``sub``'s, then the
    view's optimality-cut rows ``beta2 . x_t - z`` and feasibility-cut rows
    ``beta2 . x_t``, each with its constant and the history row ``beta1``.
    At a history ``h`` the right-hand side is ``b0 - hist @ h``, equality rows first.
    """
    n = sub.lb.shape[0]
    q = sub.a_cur.shape[0]
    r = sub.g_cur.shape[0]
    o = r + sub.piece_cur.shape[0]  # the first optimality-cut row of a_ub
    f = o + view.n_opt  # the first feasibility-cut row
    b0 = np.concatenate([sub.b0, view.opt_rhs_const, view.feas_rhs_const])
    hist = np.concatenate([sub.hist, view.opt_beta1, view.feas_beta1])
    b = b0 - hist.dot(history)
    a_eq = np.zeros((q, n + 2))
    a_eq[:, :n] = sub.a_cur
    a_ub = np.zeros((f + view.n_feas, n + 2))
    a_ub[:r, :n] = sub.g_cur
    a_ub[r:o, :n] = sub.piece_cur
    a_ub[r:o, n] = -1.0
    a_ub[o:f, :n] = view.opt_beta2
    a_ub[o:f, n + 1] = -1.0
    a_ub[f:, :n] = view.feas_beta2
    c = np.zeros(n + 2)
    c[n:] = 1.0
    lower = np.full(n + 2, -np.inf)
    lower[:n] = sub.lb
    lower[n + 1] = z_lo
    upper = np.full(n + 2, np.inf)
    upper[:n] = sub.ub
    prob = lp.LpProblem(c=c, a_eq=a_eq, b_eq=b[:q], a_ub=a_ub, b_ub=b[q:], lower=lower,
                        upper=upper)
    return prob, b0, hist


def _pivot_columns(a: np.ndarray) -> list | None:
    """Columns ``J``, one per row, with ``a[:, J]`` nonsingular; None when ``a`` has no such set.

    Gaussian elimination with complete pivoting on a copy of ``a``: each
    step takes the largest remaining entry and eliminates its row and
    column.  A largest entry at the noise floor (``PIVOT_REL_TOL`` of the
    largest entry of ``a``, at least ``PIVOT_TOL``) means the remaining rows
    are dependent, or outnumber the columns.
    """
    a = np.array(a, dtype=float)
    floor = max(lp.PIVOT_TOL, lp.PIVOT_REL_TOL * np.abs(a).max(initial=0.0))
    cols = []
    for _ in range(a.shape[0]):
        i, j = divmod(int(np.abs(a).argmax()), a.shape[1])
        if abs(a[i, j]) <= floor:
            return None
        cols.append(j)
        a -= np.multiply.outer(a[:, j] / a[i, j], a[i])
    return cols


def epigraph_basis(sub: SubproblemData, view) -> np.ndarray | None:
    """A dual feasible basis of the stage LP of :func:`build_stage_lp`; None when it has none.

    One column state per structural and slack column of that LP's layout
    (``[x_t, w, z]``, then the slacks of the ``g_cur``, cost-piece,
    optimality-cut and feasibility-cut rows):

    * ``w`` is basic and the slack of the first cost-piece row is nonbasic at
      0, so that row is tight and its dual is -1;
    * with optimality cuts, ``z`` is basic and the slack of the newest cut
      row is nonbasic at 0 (dual -1); without them, ``z`` sits at its lower
      bound, with reduced cost 1;
    * one ``x_t`` column per equality row is basic (:func:`_pivot_columns`),
      which fixes the equality duals ``y``; every other ``x_t`` sits at the
      bound its reduced cost ``d = c_piece + beta_cut - y a_cur`` names (the
      lower one at ``d >= 0``), and the box is finite (:func:`validate_problem`);
    * every other slack is basic.

    The basis matrix is block triangular with the block ``a_cur[:, J]``, so
    it is nonsingular, and every reduced cost is on the side its column may
    move to: the dual simplex takes the LP from here to its optimum without
    phase 1 (Bixby's crash basis, ORSA J. Computing 1992, in the dual form).
    None when the equality rows are dependent or outnumber the columns.
    """
    n, r, n_p = sub.lb.shape[0], sub.g_cur.shape[0], sub.piece_cur.shape[0]
    cols = _pivot_columns(sub.a_cur)
    if cols is None:
        return None
    grad = sub.piece_cur[0].copy()
    if view.n_opt:
        grad += view.opt_beta2[-1]
    y = np.linalg.solve(sub.a_cur[:, cols].T, grad[cols]) if cols else np.zeros(0)
    states = np.full(n + 2 + r + n_p + view.n_opt + view.n_feas, lp.BASIC, dtype=np.int8)
    states[:n] = np.where(grad - y.dot(sub.a_cur) < 0.0, lp.AT_UPPER, lp.AT_LOWER)
    states[cols] = lp.BASIC
    slack = n + 2 + r  # the first cost-piece row's slack
    states[slack] = lp.AT_LOWER
    if view.n_opt:
        states[slack + n_p + view.n_opt - 1] = lp.AT_LOWER
    else:
        states[n + 1] = lp.AT_LOWER
    return states


def stage_lp_key(history: np.ndarray, pool: CutPool) -> tuple:
    """What fixes a position's stage LP: the history's bytes and the pool's cut counts.

    A stage LP is built from its position's data, the history ``h`` and the
    cut rows of the position's pool.  Pools only grow, so the pool's
    optimality and feasibility counts name its rows, and two solves of one
    position with equal keys solve the same LP.  Any optimal solution of that
    LP is a valid solve of it: its value is the LP's value, and its duals
    give a subgradient and hence a valid cut.  :meth:`_Driver._solve` hands
    back earlier solves by this key.
    """
    return history.tobytes(), len(pool.optimality), len(pool.feasibility)


class StageLp:
    """One position's stage LP and its right-hand side map, kept for the run.

    The first solve builds the LP and its map with :func:`build_stage_lp`
    and offers :func:`riskdp.lp.solve` its starts in order: the basis
    ``starts`` holds for the same stage and shape (equality and inequality
    row counts) when there is one, then the LP's :func:`epigraph_basis`,
    computed only when no earlier start served.  The solve from a start runs
    in place, phase 2 from a primal feasible start and dual simplex pivots
    first from a dual feasible one, and the :class:`riskdp.lp.PersistentLp`
    it ran in (``LpSolution.held``) is held.  When no start is a basis of
    this LP (singular, or a state naming an infinite bound) whose re-solve
    does not decline, or there is none (the equality rows are dependent),
    the solve is the cold two-phase one, and its final basis is held
    instead.  Each later solve inserts the pool's
    new cut rows, with their map rows, in the layout of
    :func:`build_stage_lp` (new optimality rows after the held ones, before
    the feasibility rows; new feasibility rows at the end), hands the held
    LP the whole right-hand side ``b0 - hist @ h`` in one vector and
    re-solves in place; when
    :meth:`riskdp.lp.PersistentLp.resolve` declines, the LP is built again
    and solved cold, with no start.  Every solve that leaves a held LP
    records its optimal basis in ``starts``, a record shared by the run's
    stage LPs, under ``(stage, n_eq, n_ub)``: a first solve is offered the
    latest basis of its stage and shape.  ``b0`` and ``hist`` are the map of
    the LP last solved, ``n_opt`` and ``n_feas`` count its cut rows.
    """

    def __init__(self, starts: dict):
        self.lp: lp.PersistentLp | None = None
        self.starts = starts
        self.b0: np.ndarray | None = None
        self.hist: np.ndarray | None = None
        self.n_opt = 0
        self.n_feas = 0

    def _insert(self, rows: np.ndarray, b0: np.ndarray, beta1: np.ndarray, before: int,
                history: np.ndarray) -> None:
        """Insert cut rows and their map rows ahead of the held LP's last ``before`` rows."""
        at = self.b0.shape[0] - before
        self.b0 = np.concatenate([self.b0[:at], b0, self.b0[at:]])
        self.hist = np.concatenate([self.hist[:at], beta1, self.hist[at:]])
        self.lp.append_rows(rows, b0 - beta1.dot(history), at - self.lp.n_eq)

    def _first_starts(self, shape: tuple, sub: SubproblemData, view):
        """A first solve's starts: the basis held for its ``shape``, then its epigraph basis."""
        yield self.starts.get(shape)
        yield epigraph_basis(sub, view)

    def solve(self, problem: Problem, where, history: np.ndarray, view,
              z_lo: float) -> lp.LpSolution:
        held, sol = self.lp, None
        stage = problem.topology.stage(where)
        if held is not None:
            if view.n_opt > self.n_opt:
                new = slice(self.n_opt, None)
                self._insert(_cut_rows(view.opt_beta2[new], -1.0), view.opt_rhs_const[new],
                             view.opt_beta1[new], self.n_feas, history)
            if view.n_feas > self.n_feas:
                new = slice(self.n_feas, None)
                self._insert(_cut_rows(view.feas_beta2[new], 0.0), view.feas_rhs_const[new],
                             view.feas_beta1[new], 0, history)
            self.n_opt, self.n_feas = view.n_opt, view.n_feas
            held.set_rhs(self.b0 - self.hist.dot(history))
            sol = held.resolve()
        if sol is None:
            sub = assemble_subproblem(problem, where)
            prob, self.b0, self.hist = build_stage_lp(sub, view, z_lo, history)
            self.n_opt, self.n_feas = view.n_opt, view.n_feas
            starts = ()
            if held is None:
                starts = self._first_starts((stage, prob.a_eq.shape[0], prob.a_ub.shape[0]),
                                            sub, view)
            sol = lp.solve(prob, starts)
            self.lp = sol.held
            if sol.held is None and sol.basis is not None:
                self.lp = lp.PersistentLp(prob, sol.basis)
        if sol.basis is not None:  # optimal, and held by self.lp
            self.starts[stage, self.lp.n_eq, self.lp.n_ub] = sol.basis
        return sol


def solve_node(problem: Problem, where, history, pools: PoolSet,
               stage_lp: StageLp | None = None) -> NodeSolution:
    """Solve one stage subproblem and assemble its history subgradient.

    ``where`` is a position of the problem's topology and ``history`` the
    decisions ``x_{1:t-1}`` before its stage ``t``.  The LP includes the
    optimality- and feasibility-cut rows of the position's pool; ``z`` is
    bounded below by the certified recourse bound for the next stage.

    ``stage_lp`` is the position's optional persistent LP: when given, the
    solve goes through it (:meth:`StageLp.solve`); without it, the solve is
    the cold :func:`riskdp.lp.solve` of :func:`build_stage_lp`.  Either way
    ``pi`` is :func:`~riskdp.valuefn.assemble_pi` on the solved LP's map.
    """
    n = problem.dim
    t = problem.topology.stage(where)
    history = history_vector(history, t, n)
    view = pools.rows_for(where).view(n)
    z_lo = problem.z_lower(t)
    if stage_lp is None:
        prob, _b0, hist = build_stage_lp(assemble_subproblem(problem, where), view, z_lo,
                                         history)
        sol = lp.solve(prob)
    else:
        sol = stage_lp.solve(problem, where, history, view, z_lo)
        hist = stage_lp.hist
    if sol.status == lp.INFEASIBLE:
        raise EngineError(
            f"stage-{t} subproblem infeasible at position {where}: "
            "the instance lacks relatively complete recourse (use the feasibility-cut "
            "algorithm) or carries inconsistent data")
    if sol.status == lp.UNBOUNDED:
        raise EngineError(
            f"stage-{t} subproblem unbounded: lower_value_bound for stage "
            f"{t + 1} does not bound the recourse from below")
    pi = assemble_pi(hist, sol)
    # the norm as np.linalg.norm forms it for a 1-d float array
    return NodeSolution(x=sol.x[:n].copy(), value=sol.objective, duals=sol, pi=pi,
                        pi_norm=math.sqrt(pi.dot(pi)))


def backward_order(nodes: list[ScenarioNode], horizon: int) -> list[ScenarioNode]:
    """The inner nodes of ``nodes`` (above the horizon) in backward order.

    Deepest stage first and, within a stage, in the order of ``nodes``.
    """
    return sorted((node for node in nodes if node.depth < horizon), key=lambda node: -node.depth)


def _count_lp(tally: Counter, sol: lp.LpSolution) -> None:
    """Add one LP solve to ``tally``: its count, whether it ran warm and dual, its pivots."""
    tally["lps"] += 1
    tally["lps_warm"] += sol.warm_start
    tally["lps_dual"] += sol.dual_start
    tally["pivots"] += sol.pivots


def phase_one(problem: Problem, where, history, pools: PoolSet,
              tally: Counter | None = None):
    """Elastic feasibility measure of one stage system at a fixed history.

    Minimizes the l1 norm of equality violations subject to the box and the
    accumulated feasibility-cut rows (kept hard).  When the hard cut rows
    themselves conflict with the box — possible at a history no cut has
    excluded yet — the program is re-solved with the cut rows elasticized as
    well, which is always feasible and still yields a positive value with
    valid multipliers for a new cut.  The program's right-hand side is the
    affine map of the stage system's equality rows and of the cut rows, as
    in :func:`build_stage_lp`.  Returns ``(value, slope)``: the optimal value
    and its subgradient over the decision history
    (:func:`~riskdp.valuefn.assemble_pi` on that map).  Its LPs are always
    solved cold; each one is counted in ``tally`` when given
    (:func:`_count_lp`).
    """
    n = problem.dim
    sub = assemble_subproblem(problem, where)
    fview = pools.rows_for(where).view(n)
    q = sub.a_cur.shape[0]
    k_rows = fview.n_feas
    hist = np.vstack([sub.hist[:q], fview.feas_beta1])
    b = np.concatenate([sub.b0[:q], fview.feas_rhs_const]) - hist @ history
    for elastic_rows in (False, True):
        n_extra = k_rows if elastic_rows else 0
        c = np.concatenate([np.zeros(n), np.ones(2 * q + n_extra)])
        a_eq = np.hstack([sub.a_cur, np.eye(q), -np.eye(q), np.zeros((q, n_extra))])
        a_ub = np.hstack([fview.feas_beta2, np.zeros((k_rows, 2 * q)), -np.eye(k_rows, n_extra)])
        prob = lp.LpProblem(c=c, a_eq=a_eq, b_eq=b[:q], a_ub=a_ub, b_ub=b[q:],
                            lower=np.concatenate([sub.lb, np.zeros(2 * q + n_extra)]),
                            upper=np.concatenate([sub.ub,
                                                  np.full(2 * q + n_extra, np.inf)]))
        sol = lp.solve(prob)
        if tally is not None:
            _count_lp(tally, sol)
        if sol.status == lp.OPTIMAL:
            return sol.objective, assemble_pi(hist, sol)
        if sol.status == lp.UNBOUNDED:  # pragma: no cover - c >= 0 forbids this
            raise EngineError("phase-I program unbounded")
    raise EngineError(  # pragma: no cover - the elastic program is always feasible
        f"phase-I program at stage {sub.t} infeasible even with elastic cut rows")


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

class _Driver:
    """One run's state: the pools, the stage solves and the LP tally.

    Its drivers run sweeps: :meth:`_forward`, then :meth:`_backward`, which
    leaves in ``stage1`` the stage-1 solve the next sweep starts from.
    Every stage solve goes through :meth:`_solve`.  ``solves`` maps each
    position to its memo: the :class:`NodeSolution` of every LP it solved
    since its pool last grew, by :func:`stage_lp_key`.  With ``warm`` (the
    sampled drivers) a miss goes through the position's :class:`StageLp` in
    ``stage_lps``; without it (nested decomposition) a miss is the cold
    :func:`solve_node`.  The stage LPs share ``starts``, the latest optimal
    basis of each stage and shape, from which a position's first solve
    starts (the first of its stage and shape from its
    :func:`epigraph_basis`).  The probe's ``resolve`` and the phase-I LPs
    of the feasibility gate stay cold and leave all three alone.  ``tally`` holds
    the running LP totals (:func:`_count_lp`) and the solves handed back
    (``lps_reused``).  ``offers`` holds, per pool key, the pool's
    optimality-cut count and the child solutions of every anchor offered to
    that pool since the count last moved (:meth:`_offered`).  ``edges`` are
    the pools' cumulative child probabilities, summed once at the start of
    the run for :func:`sample_path`.  ``replays`` holds, per sampled path,
    the record of an iteration that added no cut, emptied whenever a cut
    enters a pool (:meth:`_replay`).  ``chains`` holds, per sampled path,
    its chain of scenario nodes and their backward order (:meth:`_chain`).
    """

    def __init__(self, problem: Problem, cfg: RunConfig, warm: bool = True):
        self.problem = problem
        self.cfg = cfg
        self.warm = warm
        self.topology = problem.topology
        self.pools = PoolSet(problem)
        self.starts: dict = {}
        self.stage_lps: defaultdict = defaultdict(partial(StageLp, self.starts))
        self.solves: defaultdict = defaultdict(dict)
        self.tally: Counter = Counter()
        self.stage1 : NodeSolution | None = None
        self.pi_norm_max: dict[int, float] = {}
        self.pi_norm_first: dict[int, float] = {}
        self.offers: dict = {}
        self.feas_counter = 0
        self.edges = pool_edges(problem)
        self.replays: dict = {}
        self.chains: dict = {}

    # -- small helpers -----------------------------------------------------

    def _solve(self, where, history: np.ndarray) -> NodeSolution:
        """Solve one stage LP, or hand back the position's earlier solve of it, and tally it.

        A hit needs an equal :func:`stage_lp_key`, which fixes the LP, so the
        solve handed back is an optimal solution of it, though a re-solve of
        a degenerate LP might stop at another vertex; the memo is a
        deterministic function of the run, so replay stays exact.  A hit
        counts as ``lps_reused``, a miss as an LP.  A position's memo is
        emptied when its pool's counts move: pools only grow, so the LPs of
        older counts never recur.
        """
        key = stage_lp_key(history, self.pools.rows_for(where))
        memo = self.solves[where]
        ns = memo.get(key)
        if ns is not None:
            self.tally["lps_reused"] += 1
            return ns
        if memo and next(iter(memo))[1:] != key[1:]:
            memo.clear()
        ns = solve_node(self.problem, where, history, self.pools,
                        stage_lp=self.stage_lps[where] if self.warm else None)
        _count_lp(self.tally, ns.duals)
        memo[key] = ns
        return ns

    def _record_pi(self, k: int, t: int, ns: NodeSolution) -> None:
        """Fold ``ns.pi_norm`` into stage ``t``'s norm maxima.

        A solution handed back again (``lps_reused``) folds the norm computed
        at its solve once more, which leaves a maximum as it was.
        """
        self.pi_norm_max[t] = max(self.pi_norm_max.get(t, 0.0), ns.pi_norm)
        if k <= 5:
            self.pi_norm_first[t] = max(self.pi_norm_first.get(t, 0.0), ns.pi_norm)

    def _offered(self, key) -> dict:
        """The anchors (as bytes) offered to ``key``'s pool since its optimality-cut count
        last moved, each with the children's solutions its cut was built from."""
        count = len(self.pools.opt[key].optimality)
        held, offered = self.offers.get(key, (None, None))
        if held != count:
            offered = {}
            self.offers[key] = (count, offered)
        return offered

    def _repeats_offer(self, key, sols: list, anchor: bytes) -> bool:
        """Whether the cut of ``sols`` at ``anchor`` was offered to ``key``'s pool already.

        It was when :meth:`_offered` holds the anchor with the children's
        solutions, by identity: some cut offered since the pool's
        optimality-cut count last moved was built from these very solutions
        at this anchor.  A handed-back solution is the same object
        (:meth:`_solve`), so identity means every child was reused.  In this
        driver the identity implies the rest (a solution is handed back only
        at its own :func:`stage_lp_key`, and every optimality cut enters a
        pool here); the count and the anchor keep the rule true on its own
        terms.
        """
        old = self._offered(key).get(anchor)
        return old is not None and all(ns is was for ns, was in zip(sols, old))

    def _build_cut_at(self, key, hist: np.ndarray, k: int, counters: dict[int, int],
                      skipped: dict):
        """Solve every child of pool ``key`` at ``hist`` and offer their cut, of iteration ``k``.

        The one cut step of the sampled drivers and of nested decomposition.
        The cut counts in ``counters`` (by the children's stage) when it
        enters the pool and in ``skipped`` (by pool key) when the pool
        already holds its LP row.
        A repeat of any cut offered to the pool since its optimality-cut
        count last moved (:meth:`_repeats_offer`) is not built again, and it
        counts as skipped: the build is deterministic, so its cut is that
        cut, whose row the pool then took or already held.  Its anchor check
        is known too, since the pool's optimality cuts have not changed
        since that cut passed it.  The children are still solved (and
        tallied and probed) as for any cut.

        Returns the child positions and their solutions so the forward timing
        can reuse the sampled child's decision without a second solve.
        """
        p, topo = self.problem, self.topology
        wheres = topo.children(key)
        t = topo.stage(wheres[0])
        sols = []
        for where in wheres:
            ns = self._solve(where, hist)
            sols.append(ns)
            self._record_pi(k, t, ns)
            if self.cfg.probe is not None:
                self.cfg.probe({
                    "stage": t, "realization": where, "history": hist.copy(),
                    "value": ns.value, "pi": ns.pi.copy(),
                    "resolve": lambda h, w=where: solve_node(p, w, h, self.pools).value,
                })
        anchor = hist.tobytes()
        if self._repeats_offer(key, sols, anchor):
            skipped[key] = skipped.get(key, 0) + 1
            return wheres, sols
        pool = self.pools.opt[key]
        cut = build_optimality_cut([ns.value for ns in sols], [ns.pi for ns in sols],
                                   topo.probs(key), topo.risk(key), hist,
                                   stage=key, iteration=k)
        if pool.append_optimality(cut):
            counters[t] = counters.get(t, 0) + 1
            self.replays.clear()
        else:
            skipped[key] = skipped.get(key, 0) + 1
        self._offered(key)[anchor] = sols
        return wheres, sols

    def _gate(self, where, hist: np.ndarray, k: int, counters: dict[int, int]) -> bool:
        """Run the phase-I gates for every sibling of ``where``; append a cut on failure.

        Returns True when all of them are feasible at the history ``hist``.
        """
        t = self.topology.stage(where)
        key = self.topology.parent(where)
        for sibling in self.topology.children(key):
            value, slope = phase_one(self.problem, sibling, hist, self.pools, self.tally)
            if value > PHASE1_THRESHOLD:
                if t == 1:  # nothing earlier to cut; the problem is infeasible
                    return False
                self.feas_counter += 1
                cut = build_feasibility_cut(value, slope, hist, stage=key,
                                            index=self.feas_counter, iteration=k)
                self.pools.opt[key].append_feasibility(cut)
                counters[t] = counters.get(t, 0) + 1
                self.replays.clear()
                logger.debug("iteration %d: feasibility cut %d at stage %d "
                             "(phase-I value %.3e)", k, self.feas_counter, t, value)
                return False
        return True

    # -- one sweep ---------------------------------------------------------

    def _forward(self, nodes: list[ScenarioNode], k: int, opt: dict, feas: dict,
                 skipped: dict) -> dict | None:
        """Solve each of ``nodes``, parents before children, at its parent's history.

        Returns, by node key, the node's history through its decision and
        its :class:`NodeSolution` (with ``()``, above the first node, the
        empty history); None when alg2 proves stage 1 infeasible.  The
        stage-1 node's solve is ``stage1`` when that is held.  With forward
        cut timing, a later node's solve comes from its parent's cut
        (:meth:`_build_cut_at`, counted in ``opt`` and ``skipped``).  Under
        alg2 each node's siblings are gated first (:meth:`_gate`, counted in
        ``feas``, which starts empty); a failed gate appends one feasibility
        cut and returns to the parent node, resetting ``stage1`` when that
        is at stage 1, so a sweep's backtracks are its feasibility cuts.
        """
        alg2, forward_cuts = self.cfg.algorithm == "alg2", self.cfg.cut_timing == "forward"
        out: dict = {(): (np.zeros(0), None)}
        i = 0
        while i < len(nodes):
            node = nodes[i]
            hist = out[node.parent][0]
            if alg2 and not self._gate(node.where, hist, k, feas):
                if node.depth == 1:
                    return None
                if sum(feas.values()) > MAX_BACKTRACKS_PER_ITERATION:
                    raise EngineError("backtracking loop exceeded its safety limit")
                i = [m.key for m in nodes].index(node.parent)
                if nodes[i].depth == 1:
                    self.stage1 = None  # its feasible region changed
                continue
            if node.depth == 1:
                if self.stage1 is None:
                    self.stage1 = self._solve(node.where, hist)
                ns = self.stage1
            elif forward_cuts:
                wheres, sols = self._build_cut_at(self.topology.parent(node.where), hist, k,
                                                  opt, skipped)
                ns = sols[wheres.index(node.where)]
            else:
                ns = self._solve(node.where, hist)
            out[node.key] = (np.concatenate([hist, ns.x]), ns)
            i += 1
        return out

    def _backward(self, inner: list[ScenarioNode], out: dict, k: int, opt: dict,
                  skipped: dict) -> None:
        """Build the cuts of a :meth:`_forward` pass, then solve stage 1 afresh into ``stage1``.

        ``inner`` is the pass's inner nodes in backward order
        (:func:`backward_order`).  With backward cut timing, each of them in
        turn gets the cut of its children at its history.  The fresh stage-1
        solve is the bound the next sweep starts from.
        """
        if self.cfg.cut_timing == "backward":
            for node in inner:
                self._build_cut_at(self.topology.pool(node.where), out[node.key][0], k,
                                   opt, skipped)
        self.stage1 = self._solve(self.topology.first, np.zeros(0))

    def _chain(self, walk: tuple) -> tuple[list, list]:
        """A sampled walk as a chain of scenario nodes, and its :func:`backward_order`.

        Each node is keyed by the walk up to it.  Built once per distinct
        walk and held in ``chains``.
        """
        chain = self.chains.get(walk)
        if chain is None:
            nodes, parent = [], ()
            for depth, where in enumerate(walk, start=1):
                key = parent + (where,)
                nodes.append(ScenarioNode(key=key, parent=parent, where=where, depth=depth))
                parent = key
            chain = self.chains[walk] = nodes, backward_order(nodes, self.problem.horizon)
        return chain

    # -- one iteration -----------------------------------------------------

    def _replay(self, k: int, path: tuple, started: float) -> IterationReport | None:
        """Iteration ``k``'s report from the record of an earlier iteration at ``path``, if any.

        ``replays`` holds, per sampled path, the stage solves asked for and
        the cuts skipped by an iteration that appended no cut, ran no
        phase-I gate and called no probe; it is emptied whenever a cut
        enters a pool.  A record therefore dates from the current pools, and
        running its iteration again would hand back every one of its solves
        (each is still in its position's memo), repeat every offer (each is
        still in ``offers``) and fold the same norms into the maxima, which
        leaves them as they are: the same report, with every solve reused.
        So the report is made without touching a memo, an offer, a
        :class:`StageLp` or a pool; the bound is the current ``stage1``.
        """
        record = self.replays.get(path)
        if record is None:
            return None
        solves, skipped = record
        self.tally["lps_reused"] += solves
        ns = self.stage1
        return IterationReport(k=k, path=path, lower_bound=ns.value, x1=ns.x.copy(),
                               cuts_skipped=dict(skipped), lps_reused=solves, replayed=True,
                               wall_ms=(time.perf_counter() - started) * 1000.0)

    def iterate(self, k: int) -> IterationReport | None:
        """Run iteration k: one sweep over its sampled path; None when alg2 proves infeasibility."""
        cfg = self.cfg
        started = time.perf_counter()
        walk = tuple(sample_path(self.problem, cfg.seed, k, self.edges)[1:])
        report = self._replay(k, walk, started)
        if report is not None:
            return report
        before = [self.tally[key] for key in TALLIES]
        opt, feas, skipped = {}, {}, {}
        path, inner = self._chain(walk)
        out = self._forward(path, k, opt, feas, skipped)
        if out is None:
            return None
        first = out[path[0].key][1]
        self._backward(inner, out, k, opt, skipped)
        tally = {key: self.tally[key] - old for key, old in zip(TALLIES, before)}
        if not (cfg.algorithm == "alg2" or opt or cfg.probe is not None):
            self.replays[walk] = (tally["lps"] + tally["lps_reused"], skipped)
        return IterationReport(k=k, path=walk, lower_bound=first.value, x1=first.x.copy(),
                               cuts_opt=opt, cuts_feas=feas, cuts_skipped=skipped,
                               backtracks=sum(feas.values()), lps=tally["lps"],
                               lps_warm=tally["lps_warm"], lps_dual=tally["lps_dual"],
                               lps_reused=tally["lps_reused"], pivots=tally["pivots"],
                               wall_ms=(time.perf_counter() - started) * 1000.0)


def _check_config(problem: Problem, cfg: RunConfig) -> tuple[str, int]:
    """Check ``cfg`` against ``problem``; returns the parsed ``oracle_check``."""
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
    if cfg.cut_timing not in CUT_TIMINGS:
        raise ConfigError(f"unknown cut timing {cfg.cut_timing!r}")
    if cfg.max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if not (math.isfinite(cfg.stall_tol) and cfg.stall_tol >= 0.0):
        raise ConfigError(f"stall_tol must be finite and >= 0, got {cfg.stall_tol}")
    if cfg.stall_window < 1:
        raise ConfigError("stall_window must be >= 1")
    oracle_check = _parse_oracle_check(cfg.oracle_check)
    violations = validate_problem(problem)
    if violations:
        raise ConfigError("invalid problem: " + "; ".join(violations))
    if cfg.algorithm in ("alg1", "alg2") and problem.form != LATTICE:
        raise ConfigError(f"{cfg.algorithm} requires lattice form")
    if cfg.algorithm == "alg3" and problem.form != TREE:
        raise ConfigError("alg3 requires tree form")
    if cfg.algorithm == "alg2":
        for s, stage in enumerate(problem.stages, start=1):
            for j, real in enumerate(stage.realizations):
                if real.cost.n_pieces != 1:
                    raise ConfigError(
                        "the feasibility-cut algorithm supports linear (single-piece) "
                        f"costs only; stage {s} realization {j} has {real.cost.n_pieces}")
                if real.h.shape[0]:
                    raise ConfigError(
                        "the feasibility-cut algorithm supports the equality-plus-box "
                        f"form only; stage {s} realization {j} carries static inequality rows")
    return oracle_check


def _parse_oracle_check(value: str) -> tuple[str, int]:
    if value == "off":
        return ("off", 0)
    if value == "final":
        return ("final", 0)
    if value.startswith("every:"):
        try:
            k = int(value.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad oracle-check interval in {value!r}")
        if k < 1:
            raise ConfigError("oracle-check interval must be >= 1")
        return ("every", k)
    raise ConfigError(f"oracle_check must be off, final or every:K, got {value!r}")


def _oracle_value(problem: Problem) -> float:
    from . import oracle
    return oracle.reference_value(problem)


def run(problem: Problem, cfg: RunConfig) -> RunResult:
    """Run the configured algorithm to stall, iteration limit, or infeasibility.

    The reported per-iteration lower bound is the first-stage value computed
    with the pools available *entering* the iteration; after the final
    iteration one fresh first-stage solve provides ``final_lower_bound`` and
    ``final_x1``.  Stopping: the run stalls when the improvement of the fresh
    post-iteration bound stays at or below ``stall_tol`` for ``stall_window``
    consecutive iterations.
    """
    mode, every = _check_config(problem, cfg)
    driver = _Driver(problem, cfg)
    reports: list[IterationReport] = []
    status = STATUS_ITER_LIMIT
    stall_run = 0
    oracle_value = None
    for k in range(1, cfg.max_iters + 1):
        report = driver.iterate(k)
        if report is None:
            status = STATUS_INFEASIBLE
            logger.info("iteration %d: first stage infeasible; stopping", k)
            break
        reports.append(report)
        fresh = driver.stage1.value
        improvement = fresh - report.lower_bound
        logger.info("iteration %d: lower bound %.12g (+%.3g), %d optimality "
                    "(%d duplicates skipped) / %d feasibility cuts, %d backtracks, "
                    "%d LPs (%d warm, %d dual), %d reused, %d pivots%s",
                    k, report.lower_bound, improvement, report.n_cuts_opt,
                    report.n_cuts_skipped, report.n_cuts_feas, report.backtracks,
                    report.lps, report.lps_warm, report.lps_dual, report.lps_reused,
                    report.pivots, " (replayed)" if report.replayed else "")
        if mode == "every" and k % every == 0:
            if oracle_value is None:  # the problem does not change: solve it once
                oracle_value = _oracle_value(problem)
            logger.info("iteration %d: oracle %.12g, gap %.3e", k, oracle_value,
                        oracle_value - fresh)
        if improvement <= cfg.stall_tol:
            stall_run += 1
            if stall_run >= cfg.stall_window:
                status = STATUS_STALL
                break
        else:
            stall_run = 0
    topo = problem.topology
    skipped = {key: 0 for key in topo.keys if not topo.terminal(key)}
    for report in reports:
        for key, count in report.cuts_skipped.items():
            skipped[key] += count
    diagnostics = {
        "pi_norm_max": dict(sorted(driver.pi_norm_max.items())),
        "pi_norm_first5": dict(sorted(driver.pi_norm_first.items())),
        "cuts_skipped": skipped,
        **{key: driver.tally[key] for key in TALLIES},
        "iterations_replayed": sum(report.replayed for report in reports),
    }
    for t, total in driver.pi_norm_max.items():
        first = driver.pi_norm_first.get(t, 0.0)
        if first > 0.0 and total > 10.0 * first:
            logger.warning("stage %d subgradient norms grew beyond 10x their "
                           "first-5-iteration maximum (%.3g vs %.3g)", t, total, first)
    if status == STATUS_INFEASIBLE:
        return RunResult(status=status, reports=reports, pools=driver.pools,
                         iters=k, diagnostics=diagnostics)
    final = driver.stage1
    gap = None
    if mode in ("final", "every"):
        if oracle_value is None:
            oracle_value = _oracle_value(problem)
        gap = oracle_value - final.value
        logger.info("final lower bound %.12g, oracle %.12g, gap %.3e",
                    final.value, oracle_value, gap)
    return RunResult(status=status, reports=reports, pools=driver.pools,
                     final_lower_bound=final.value, final_x1=final.x.copy(),
                     iters=len(reports), diagnostics=diagnostics,
                     oracle_value=oracle_value, oracle_gap=gap)
