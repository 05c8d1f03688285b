"""Cut pools and cut construction for the nested decomposition algorithms.

Two cut families live here:

* **Optimality cuts** under-estimate a risk-aggregated recourse function:
  ``Q(x) >= theta + <beta, x - anchor>`` over the decision history
  ``x = x_{1:t-1}``.  They are built from one complete set of child
  subproblem solves: the risk measure supplies a maximizing density ``p``
  over the children and the cut is the ``p``-weighted combination of child
  values and child subgradients.
* **Feasibility cuts** ``<beta~, x> <= theta~`` separate histories for which
  a stage system has no feasible decision; they are built from the duals of
  an elastic (phase-I) program and cut the anchor off by exactly the phase-I
  infeasibility measure.

Pools are append-only (no pruning): the lower approximations they induce are
then monotone in the iteration index, which the convergence argument and the
anchor-equality runtime assertion both rely on.  One dedup rule applies to
optimality cuts, keyed by the LP row a cut contributes: a cut whose ``beta``
and intercept ``<beta, anchor> - theta`` both lie within :data:`CUT_ROW_TOL`
of a pooled cut's is the same affine function as that cut, so it is not
appended (:meth:`CutPool.append_optimality` returns False).  Skipping it
leaves the pool's maximum unchanged, so monotonicity holds, and the anchor
check below still runs on it first.

Every optimality-cut append asserts that the pool evaluated at the new cut's
anchor, the new cut included, equals the new theta to within
:data:`ANCHOR_EQ_TOL` — older cuts were built from dominated approximations,
so none of them may exceed the fresh value at its own anchor.  A skipped
duplicate is held to the same check: its pooled twin attains the same value
there, so a duplicate that breaks anchor equality still raises.  The engine
does not build or offer a repeat of any cut it offered a pool since the
pool's optimality cuts last changed (the same child solutions at the same
anchor) and counts it as skipped: that cut's check already passed against
the same cuts, and its row is pooled, as itself or as its twin.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .risk import RiskSpec, risk_value_and_density

logger = logging.getLogger(__name__)

ANCHOR_EQ_TOL = 1e-9      # pool-at-anchor must equal the new theta within this
CUT_ROW_TOL = 1e-11       # optimality cuts whose LP rows agree within this are one cut
FEAS_DUP_TOL = 1e-12      # two feasibility cuts closer than this are duplicates
PHASE1_THRESHOLD = 1e-7   # phase-I values above this mean "infeasible history"


class CutError(RuntimeError):
    """Cut construction or pool-consistency failure."""


@dataclass
class OptimalityCut:
    """``Q(x) >= theta + <beta, x - anchor>`` over the history ``x``.

    ``stage`` holds the stage index (shared-pool algorithms) or the owning
    node id (per-node pools); ``iteration`` is the engine iteration that
    built the cut.
    """

    theta: float
    beta: np.ndarray
    anchor: np.ndarray
    iteration: int = 0
    stage: int = 0

    def value_at(self, x: np.ndarray) -> float:
        return self.theta + float(self.beta.dot(np.asarray(x, dtype=float) - self.anchor))

    @cached_property
    def rhs_const(self) -> float:
        """``<beta, anchor> - theta``: the cut's LP row is ``<beta, x> - z <= rhs_const``.

        Formed once, when first read (a pool reads it when the cut is
        offered), and held: a cut is not changed after it is built.
        """
        return float(self.beta.dot(self.anchor)) - self.theta


@dataclass
class FeasibilityCut:
    """``<beta_tilde, x> <= theta_tilde`` over the history ``x``."""

    theta_tilde: float
    beta_tilde: np.ndarray
    stage: int = 0
    index: int = 0
    iteration: int = 0


@dataclass
class PoolView:
    """Frozen matrix view of a pool, split for use inside one subproblem.

    For a pool whose cuts take arguments of dimension ``d`` (the parent
    subproblem's history plus its decision), ``*_beta1`` holds the first
    ``d - n`` columns (history blocks) and ``*_beta2`` the last ``n``
    (current-decision blocks).  ``opt_rhs_const`` is ``<beta, anchor> - theta``
    per cut, the history-independent part of the LP row right-hand side;
    ``feas_rhs_const`` is ``theta_tilde``.
    """

    opt_beta1: np.ndarray
    opt_beta2: np.ndarray
    opt_rhs_const: np.ndarray
    feas_beta1: np.ndarray
    feas_beta2: np.ndarray
    feas_rhs_const: np.ndarray

    @property
    def n_opt(self) -> int:
        return self.opt_beta1.shape[0]

    @property
    def n_feas(self) -> int:
        return self.feas_beta1.shape[0]


class CutPool:
    """Append-only pool of optimality and feasibility cuts for one stage/node.

    ``arg_dim`` is the dimension of the cut argument (length of ``beta``).
    """

    def __init__(self, arg_dim: int):
        self.arg_dim = arg_dim
        self.optimality: list[OptimalityCut] = []
        self.feasibility: list[FeasibilityCut] = []
        self._view_cache: tuple[int, int, int, PoolView] | None = None

    def append_optimality(self, cut: OptimalityCut) -> bool:
        """Append ``cut`` unless its LP row is already pooled; True when appended.

        Raises :class:`CutError` on a malformed cut or when anchor equality
        fails, whether or not the cut is a duplicate.
        """
        if cut.beta.shape[0] != self.arg_dim or cut.anchor.shape[0] != self.arg_dim:
            raise CutError(f"cut dimension {cut.beta.shape[0]} != pool dimension {self.arg_dim}")
        if not math.isfinite(cut.theta) or not np.isfinite(cut.beta).all():
            raise CutError("non-finite optimality cut")
        check = max(evaluate_pool(self, cut.anchor), cut.theta)
        if abs(check - cut.theta) > ANCHOR_EQ_TOL:
            raise CutError(
                f"pool-at-anchor mismatch: pool value {check!r} vs new theta {cut.theta!r} "
                f"(stage {cut.stage}, iteration {cut.iteration})")
        rhs = cut.rhs_const
        for old in self.optimality:
            if (abs(old.rhs_const - rhs) <= CUT_ROW_TOL
                    and np.max(np.abs(old.beta - cut.beta), initial=0.0) <= CUT_ROW_TOL):
                return False
        self.optimality.append(cut)
        return True

    def append_feasibility(self, cut: FeasibilityCut) -> None:
        if cut.beta_tilde.shape[0] != self.arg_dim:
            raise CutError(f"cut dimension {cut.beta_tilde.shape[0]} != pool dimension {self.arg_dim}")
        for old in self.feasibility:
            if (abs(old.theta_tilde - cut.theta_tilde) <= FEAS_DUP_TOL
                    and np.max(np.abs(old.beta_tilde - cut.beta_tilde), initial=0.0) <= FEAS_DUP_TOL):
                raise CutError(
                    f"duplicate feasibility cut at stage {cut.stage} "
                    f"(existing index {old.index}): the backtracking loop is not making progress")
        self.feasibility.append(cut)

    def view(self, n: int) -> PoolView:
        """Matrix view with current-decision blocks of width ``n`` (cached)."""
        key = (len(self.optimality), len(self.feasibility), n)
        if self._view_cache is not None and self._view_cache[:3] == key:
            return self._view_cache[3]
        d = self.arg_dim
        opt_beta = np.array([c.beta for c in self.optimality]).reshape(-1, d)
        opt_rhs = np.array([c.rhs_const for c in self.optimality])
        feas_beta = np.array([c.beta_tilde for c in self.feasibility]).reshape(-1, d)
        feas_rhs = np.array([c.theta_tilde for c in self.feasibility])
        view = PoolView(opt_beta1=opt_beta[:, :d - n], opt_beta2=opt_beta[:, d - n:],
                        opt_rhs_const=opt_rhs,
                        feas_beta1=feas_beta[:, :d - n], feas_beta2=feas_beta[:, d - n:],
                        feas_rhs_const=feas_rhs)
        self._view_cache = (*key, view)
        return view


def evaluate_pool(pool: CutPool, x) -> float:
    """Max over the pool's optimality cuts at ``x``; ``-inf`` when empty."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return max((cut.value_at(x) for cut in pool.optimality), default=-math.inf)


def build_optimality_cut(child_values, child_pis, probs, risk_spec: RiskSpec,
                         anchor, stage: int = 0, iteration: int = 0) -> OptimalityCut:
    """Aggregate one complete set of child solves into a cut.

    ``theta`` is the risk value of the child values (exactly the dot product
    of the maximizing density); ``beta`` is the same density applied to the
    child subgradients.

    Raises
    ------
    CutError
        If the child set is incomplete (missing entries / length mismatch).
    """
    probs = np.asarray(probs, dtype=float).reshape(-1)
    m = probs.shape[0]
    if len(child_values) != m or len(child_pis) != m or m == 0:
        raise CutError(f"incomplete child set: {len(child_values)} values, "
                       f"{len(child_pis)} subgradients, {m} probabilities")
    if any(v is None for v in child_values) or any(p is None for p in child_pis):
        raise CutError("incomplete child set: missing child solve")
    values = np.asarray(child_values, dtype=float)
    pis = np.vstack([np.asarray(p, dtype=float).reshape(-1) for p in child_pis])
    anchor = np.asarray(anchor, dtype=float).reshape(-1)
    if not (np.isfinite(values).all() and np.isfinite(pis).all()):
        raise CutError("child solves contain non-finite values or subgradients")
    if pis.shape[1] != anchor.shape[0]:
        raise CutError(f"subgradient dimension {pis.shape[1]} != anchor dimension {anchor.shape[0]}")
    theta, density = risk_value_and_density(risk_spec, probs, values)
    weights = density * probs
    beta = weights.dot(pis)
    return OptimalityCut(theta=theta, beta=beta, anchor=anchor.copy(),
                         iteration=iteration, stage=stage)


def build_feasibility_cut(phase1_value: float, slope, anchor, stage: int = 0,
                          index: int = 0, iteration: int = 0) -> FeasibilityCut:
    """Turn a positive phase-I solve into a separating cut.

    Parameters
    ----------
    phase1_value : float
        Optimal value of the elastic program; must exceed
        :data:`PHASE1_THRESHOLD` (a feasible history needs no cut).
    slope : (d,) array
        A subgradient of the phase-I value over the history at ``anchor``
        (:func:`riskdp.valuefn.assemble_pi` on the phase-I rows).
    anchor : (d,) array
        The infeasible history.

    Returns
    -------
    FeasibilityCut
        ``beta_tilde = slope``, violated at the anchor by exactly
        ``phase1_value``: ``<beta_tilde, anchor> - theta_tilde == phase1_value``.
    """
    if phase1_value <= PHASE1_THRESHOLD:
        raise CutError(f"phase-I value {phase1_value!r} is below the infeasibility "
                       "threshold; the history is feasible and needs no cut")
    anchor = np.asarray(anchor, dtype=float).reshape(-1)
    s = np.asarray(slope, dtype=float).reshape(-1)
    theta_tilde = -phase1_value + float(s @ anchor)
    return FeasibilityCut(theta_tilde=theta_tilde, beta_tilde=s, stage=stage,
                          index=index, iteration=iteration)
