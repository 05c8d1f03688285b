"""Dense bounded-variable primal simplex solver with exact duals.

Solves  min c.x  s.t.  a_eq x = b_eq,  a_ub x <= b_ub,  lower <= x <= upper.

The solver is deliberately self-contained (two-phase revised simplex with an
explicitly maintained basis inverse) so that pivot order, tie-breaking and the
returned dual vectors are fully deterministic and under our control.  Duals
follow a fixed sign convention used throughout the package:

* ``dual_eq[i]``   is the derivative (a subgradient) of the optimal value with
  respect to ``b_eq[i]``.
* ``dual_ineq[i]`` is the nonnegative Lagrange multiplier of row i of
  ``a_ub x <= b_ub`` (equivalently, minus the derivative of the optimal value
  with respect to ``b_ub[i]``).

Multipliers of the variable box never appear in the returned duals.

Pricing uses Dantzig's rule and switches permanently to Bland's rule after a
run of degenerate pivots; :func:`solve_with_bland` uses Bland's rule from the
start and therefore cannot cycle.

Persistent LPs: every optimal solve returns its final basis
(``LpSolution.basis``), and :class:`PersistentLp` holds an LP with such a
basis and its inverse across re-solves; a basis of another LP of the same
shape serves too, as does a crash basis built to be dual feasible, and
starts a solve without phase 1.  :func:`solve` takes such a start: it
solves the LP in place from it, hands back the held LP with the solution
(``LpSolution.held``) and falls back to the cold solve when the start is
not a basis of the LP or the re-solve declines.  Between two
re-solves, inequality rows can be inserted (each new row's slack enters the
basis, so the inverse is bordered in closed form) and the right-hand side
moved (only the basic values are recomputed).  Neither touches the
reduced costs, so a held optimal basis stays dual feasible.  The re-solve
runs in place: while the held basis is primal feasible, to
:data:`PHASE1_TOL` in its bounds and in the row residual (or, for the
residual, to :data:`RESIDUAL_REL_TOL` of the products forming each row),
it goes straight to the phase-2 loop; when
only its bounds fail, dual simplex pivots on the held inverse, bordered or
not, first restore primal feasibility.  Only a failed row residual makes
the re-solve factorize a bordered inverse afresh before it goes on.  It
declines when the basis is not dual
feasible either, when the LP is primal infeasible or when the dual pivots
break down, and the caller solves the LP cold with :func:`solve`.

A held LP's re-solve costs what its pivots cost.  Pricing is done once
per inverse (``_pricing``): the LP holds the duals ``y`` and reduced costs
``d`` of its last phase-2 pricing until the next exchange, factorization,
row insert or cost move, so a re-solve that only moved the right-hand side
and stays primal feasible reads its solution from them.  The dual simplex
prices on entry and then carries ``d`` along the tableau row of each pivot
(``d -= (d_j / alpha_j) alpha``, ``d_j = 0``), pricing afresh only after a
scheduled factorization; phase 2 then factorizes the moved basis once and
prices it once.

The cold two-phase solve, the in-place primal re-solve and the dual
re-solve share one set of simplex rules, each stated once in
:class:`_Simplex`:

* placement (``_place``): a nonbasic column sits at the bound its state
  names, a free one at 0;
* factorization (``_refactor``): a fresh inverse every
  :data:`REFACTOR_EVERY` pivots, before optimality is declared (a bordered
  inverse counts as fresh: only pivots and bound flips move a basis) and
  wherever exact values are needed, and between two of them the
  product-form update of each exchange (``_exchange``);
* dual feasibility (``_dual_infeasibility``): a reduced cost past
  :data:`RC_TOL` on a side its column may move to breaks it, a fixed column
  never moves, and an entering column moves against the sign of its reduced
  cost (the masks of the columns that may rise and fall are held across
  pivots, each placement or exchange updating its column's entries);
* the noise floor (``_noise_floor``): a tableau entry at or below
  ``max(PIVOT_TOL, PIVOT_REL_TOL * |B^-1[r]| |A_j|)`` is rounding noise and
  never a pivot, in the primal and dual ratio tests and in the drive-out of
  artificials;
* the tie rule (``_largest_pivot``): among ratio-test ties within
  :data:`RATIO_TIE_TOL`, the largest ``|pivot|`` (within 1e-12), then the
  smallest index.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Statuses reported to callers.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Numerical tolerances (problems in this package are desk scale, entries O(1e2)).
RC_TOL = 1e-9           # reduced-cost threshold for optimality
PIVOT_TOL = 1e-10       # smallest usable pivot element magnitude
DRIVE_OUT_REL_TOL = 1e-9  # artificial drive-out: pivot floor relative to its column
PIVOT_REL_TOL = 1e-9    # ratio test: pivot floor relative to the products forming it
RATIO_TIE_TOL = 1e-9    # ratio-test tie window
STEP_TOL = 1e-12        # steps below this count as degenerate
PHASE1_TOL = 1e-9       # residual infeasibility above this means infeasible
RESIDUAL_REL_TOL = 1e-12  # held-basis row residual: rounding noise relative to |A| |x|
REFACTOR_EVERY = 64     # pivots between explicit refactorizations
STALL_SWITCH = 100      # consecutive degenerate pivots before Bland takes over
MAX_PIVOTS = 200_000    # hard safety limit per solve

# Column states, one per structural, slack and artificial column.
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
NB_FREE = 3            # nonbasic free variable, parked at value 0


class SimplexError(RuntimeError):
    """Hard numerical failure inside the simplex (not a model status)."""


def _as_matrix(a, n: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, n), dtype=float)
    out = np.asarray(a, dtype=float)
    if out.size == 0:
        return out.reshape((0, n))
    if out.ndim != 2 or out.shape[1] != n:
        raise ValueError(f"constraint matrix must be 2-d with {n} columns, got shape {out.shape}")
    return out


def _as_vector(b, rows: int, name: str) -> np.ndarray:
    if b is None:
        out = np.zeros(0, dtype=float)
    else:
        out = np.asarray(b, dtype=float).reshape(-1)
    if out.shape[0] != rows:
        raise ValueError(f"{name} has {out.shape[0]} entries, expected {rows}")
    return out


@dataclass
class LpProblem:
    """A bounded-variable linear program in the fixed layout above.

    Parameters
    ----------
    c : array_like, shape (n,)
        Objective coefficients.
    a_eq, b_eq : array_like
        Equality system ``a_eq x = b_eq`` (may be empty / None).
    a_ub, b_ub : array_like
        Inequality system ``a_ub x <= b_ub`` (may be empty / None).
    lower, upper : array_like, shape (n,)
        Variable box; entries may be ``-inf`` / ``+inf``.
    """

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        n = self.c.shape[0]
        if n == 0:
            raise ValueError("LpProblem needs at least one variable")
        self.a_eq = _as_matrix(self.a_eq, n)
        self.b_eq = _as_vector(self.b_eq, self.a_eq.shape[0], "b_eq")
        self.a_ub = _as_matrix(self.a_ub, n)
        self.b_ub = _as_vector(self.b_ub, self.a_ub.shape[0], "b_ub")
        self.lower = (np.full(n, -np.inf) if self.lower is None
                      else np.asarray(self.lower, dtype=float).reshape(-1))
        self.upper = (np.full(n, np.inf) if self.upper is None
                      else np.asarray(self.upper, dtype=float).reshape(-1))
        if self.lower.shape[0] != n or self.upper.shape[0] != n:
            raise ValueError("bound vectors must match the number of variables")
        # One pass over the data, which NaN bounds fail too; only a fault
        # runs the checks one array at a time, to name the first at fault.
        if not (np.isfinite(np.concatenate([self.c, self.a_eq.ravel(), self.b_eq,
                                            self.a_ub.ravel(), self.b_ub])).all()
                and (self.lower <= self.upper + 1e-12).all()):
            self._raise_fault()

    def _raise_fault(self) -> None:
        for name, arr in (("c", self.c), ("a_eq", self.a_eq), ("b_eq", self.b_eq),
                          ("a_ub", self.a_ub), ("b_ub", self.b_ub)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("bounds contain NaN")
        raise ValueError("lower bound exceeds upper bound")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class LpSolution:
    """Result of a simplex solve.

    ``x``, ``objective`` and the dual vectors are only meaningful when
    ``status == "optimal"``.  ``basis`` is the final basis as one
    column state per structural and slack column (:data:`BASIC`,
    :data:`AT_LOWER`, :data:`AT_UPPER` or :data:`NB_FREE`), ready to be held
    by a :class:`PersistentLp`; it is None unless the solve is optimal with
    no artificial column left basic.  ``warm_start`` says whether the solve
    ran in place from a held basis (:meth:`PersistentLp.resolve`), skipping
    phase 1, and ``dual_start`` whether such a re-solve first took dual
    simplex pivots because the held basis had lost primal feasibility.
    ``held`` is the :class:`PersistentLp` a solve from a start ran in
    (:func:`solve`), holding the LP at this solution's basis for later
    re-solves; it is None for every other solve.
    """

    status: str
    x: np.ndarray | None = None
    objective: float = math.nan
    dual_eq: np.ndarray | None = None
    dual_ineq: np.ndarray | None = None
    pivots: int = 0
    basis: np.ndarray | None = None
    warm_start: bool = False
    dual_start: bool = False
    held: PersistentLp | None = None


class _Simplex:
    """The working arrays of one LP and the two phases of the simplex."""

    def __init__(self, prob: LpProblem, bland_always: bool):
        self.bland_always = bland_always
        n = prob.n_vars
        q = prob.a_eq.shape[0]
        r = prob.a_ub.shape[0]
        self.n_struct = n
        self.n_eq = q
        self.n_ub = r
        m = q + r
        self.m = m
        # Columns: [structural n][slack r]; artificials appended in phase 1.
        a = np.zeros((m, n + r), dtype=float)
        a[:q, :n] = prob.a_eq
        a[q:, :n] = prob.a_ub
        a[q:, n:] = np.eye(r)
        self.a = a
        self.b = np.concatenate([prob.b_eq, prob.b_ub])
        self.lower = np.concatenate([prob.lower, np.zeros(r)])
        self.upper = np.concatenate([prob.upper, np.full(r, np.inf)])
        self.cost = np.concatenate([prob.c, np.zeros(r)])  # phase 2's, one entry per column
        self.d = None  # the held pricing: phase 2's reduced costs at this inverse (_pricing)
        self.n_real = self.ncols = n + r
        self.status_col = np.empty(n + r, dtype=np.int8)
        self.moves = None  # the held (rise, fall) masks of _dual_infeasibility
        self.x = np.zeros(n + r)
        self.allowed = np.ones(n + r, dtype=bool)  # phase 1 may set noise columns aside
        self._set_movable()
        self.redundant = np.zeros(m, dtype=bool)  # rows whose artificial stays basic
        self.pivots = 0
        self.degenerate_run = 0
        self.bland_mode = bland_always
        self.moved = False  # a pivot or a bound flip since the last factorization
        self.stale = 0  # rows bordered onto the inverse since it was factorized

    @property
    def c(self) -> np.ndarray:
        """The objective: the structural part of the phase-2 cost ``cost``."""
        return self.cost[:self.n_struct]

    @c.setter
    def c(self, c) -> None:
        """Move the objective; the held pricing is dropped."""
        self.cost = np.concatenate([np.asarray(c, dtype=float), self.cost[self.n_struct:]])
        self.d = None

    # -- setup -------------------------------------------------------------

    def _place(self, j: int, state: int) -> None:
        """Put column ``j`` in the column ``state``, at the bound it names (free or basic: 0)."""
        self.status_col[j] = state
        self._remask(j)
        self.x[j] = (self.lower[j] if state == AT_LOWER
                     else self.upper[j] if state == AT_UPPER else 0.0)

    def _place_all(self, states: np.ndarray) -> None:
        """:meth:`_place` every structural and slack column in one assignment."""
        k = self.n_real
        self.status_col[:k] = states
        self.moves = None
        self.x[:k] = np.where(states == AT_LOWER, self.lower[:k],
                              np.where(states == AT_UPPER, self.upper[:k], 0.0))

    def _remask(self, j: int) -> None:
        """Bring column ``j``'s entries of the held masks of :meth:`_dual_infeasibility` up to date."""
        if self.moves is not None:
            state, movable = self.status_col[j], self.movable[j]
            self.moves[0][j] = movable and state in (AT_LOWER, NB_FREE)
            self.moves[1][j] = movable and state in (AT_UPPER, NB_FREE)

    def _set_movable(self) -> None:
        """Recompute ``movable``, the columns that may leave their bound: allowed and not fixed.

        Called wherever ``allowed``, ``lower`` or ``upper`` change as a whole,
        and drops the held masks of :meth:`_dual_infeasibility`; a change to
        one column updates its entry in place, and the masks' with
        :meth:`_remask`.
        """
        self.movable = self.allowed & (self.lower < self.upper)
        self.moves = None

    def _install_artificials(self) -> None:
        """Choose a starting basis: slacks where possible, artificials elsewhere."""
        m, q = self.m, self.n_eq
        resid = self.b - self.a @ self.x
        # an inequality row's slack can absorb a nonnegative residual
        art_rows = np.flatnonzero((np.arange(m) < q) | (resid < 0.0))
        k = art_rows.size
        extra = np.zeros((m, k), dtype=float)
        extra[art_rows, np.arange(k)] = np.where(resid[art_rows] >= 0.0, 1.0, -1.0)
        self.a = np.hstack([self.a, extra])
        self.lower = np.concatenate([self.lower, np.zeros(k)])
        self.upper = np.concatenate([self.upper, np.full(k, np.inf)])
        self.cost = np.concatenate([self.cost, np.zeros(k)])
        self.status_col = np.concatenate([self.status_col, np.empty(k, dtype=np.int8)])
        self.x = np.concatenate([self.x, np.zeros(k)])
        self.artificials = self.n_real + np.arange(k)
        self.basis = self.n_struct - q + np.arange(m)  # row i's slack, for i >= q
        self.basis[art_rows] = self.artificials
        self.status_col[self.basis] = BASIC
        self.ncols = self.a.shape[1]
        self.allowed = np.ones(self.ncols, dtype=bool)
        self._set_movable()
        self._refactor()

    # -- linear algebra ----------------------------------------------------

    def _refactor(self) -> None:
        """Invert the basis matrix afresh and recompute the basic values from it."""
        try:
            self.b_inv = np.linalg.inv(self.a[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise SimplexError(f"singular basis {self.basis.tolist()}") from exc
        self.moved = False
        self.stale = 0
        self.d = None
        self._recompute_basic_values()

    def _recompute_basic_values(self) -> None:
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.b_inv @ (self.b - self.a @ xn)

    def _exchange(self, row: int, j: int, w: np.ndarray) -> None:
        """Column ``j`` (``w = B^-1 A[:, j]``) replaces the basic column of ``row``.

        The inverse takes the product-form update; the caller places the leaving column.
        """
        piv = w[row]
        if abs(piv) <= PIVOT_TOL:  # pragma: no cover - guarded by the noise floors
            raise SimplexError(f"pivot element {piv:.3e} too small")
        self.status_col[j] = BASIC
        self._remask(j)
        self.basis[row] = j
        self.b_inv[row, :] /= piv
        other = np.arange(self.m) != row
        self.b_inv[other, :] -= np.outer(w[other], self.b_inv[row, :])
        self.pivots += 1
        self.moved = True
        self.d = None

    def _noise_floor(self, rows, cols) -> np.ndarray:
        """Entries of ``B^-1[rows] A[:, cols]`` at or below this are rounding noise, not pivots."""
        formed = np.abs(self.b_inv[rows]) @ np.abs(self.a[:, cols])
        return np.maximum(PIVOT_TOL, PIVOT_REL_TOL * formed)

    @staticmethod
    def _largest_pivot(cand: np.ndarray, pivots: np.ndarray, index: np.ndarray) -> int:
        """The tie rule: the candidate with the largest ``pivots`` (within 1e-12), then the smallest ``index``."""
        top = pivots >= pivots.max() - 1e-12
        return int(cand[top][np.argmin(index[top])])

    # -- pricing -----------------------------------------------------------

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        """Reduced costs ``cost - y A``; keeps the duals ``y = cost_B B^-1`` in ``self.y``."""
        self.y = cost[self.basis] @ self.b_inv
        return cost - self.y @ self.a

    def _pricing(self) -> np.ndarray:
        """The reduced costs of the phase-2 cost at this inverse, priced once per inverse.

        The pricing (``d``, with its duals in ``y``) is held until the next
        exchange, factorization, row insert or cost move, which drop it:
        until then the basis and its inverse, and so ``y`` and ``d``, are
        unchanged.  A bound flip or a new right-hand side moves neither.
        """
        if self.d is None:
            self.d = self._reduced_costs(self.cost)
        return self.d

    def _dual_infeasibility(self, d: np.ndarray):
        """``(viol, rise, fall)`` for the reduced costs ``d``.

        ``rise`` and ``fall`` mark the columns that may increase and decrease;
        a fixed column, or one that phase 1 set aside, does neither
        (``movable``, kept by :meth:`_set_movable`).
        ``viol[j]`` is ``|d_j|`` where moving column ``j`` by ``-sign(d_j)`` is
        allowed and ``|d_j| > RC_TOL``, and 0 elsewhere.  The masks are held
        in ``moves`` across calls: a write to one column's state or
        ``movable`` entry updates that column's entries (:meth:`_remask`),
        so pivots keep them, and a write to either array as a whole drops
        them.
        """
        if self.moves is None:
            st, movable = self.status_col, self.movable
            free = st == NB_FREE
            self.moves = (movable & ((st == AT_LOWER) | free),
                          movable & ((st == AT_UPPER) | free))
        rise, fall = self.moves
        viol = np.maximum(-d * rise, d * fall)  # the cost decrease of a unit move
        viol[viol <= RC_TOL] = 0.0
        return viol, rise, fall

    def _price(self, d: np.ndarray):
        """Return (entering column, direction) at the reduced costs ``d``, or None when optimal."""
        viol = self._dual_infeasibility(d)[0]
        if not viol.any():
            return None
        j = int(np.flatnonzero(viol)[0]) if self.bland_mode else int(np.argmax(viol))
        return j, (1.0 if d[j] < 0.0 else -1.0)

    # -- ratio test and pivot ---------------------------------------------

    def _ratio_test(self, j: int, direction: float):
        """Return (step, leaving_row, landing_status, kind, w).

        ``kind`` is ``"flip"`` (entering variable runs to its other bound),
        ``"pivot"`` (a basic variable leaves first) or ``"unbounded"``.
        """
        w = self.b_inv @ self.a[:, j]
        dw = direction * w
        bas = self.basis
        xb, lo, up = self.x[bas], self.lower[bas], self.upper[bas]
        # a basic variable moving towards a finite bound limits the step, unless
        # its entry is noise: every entry of a redundant row is
        rows = np.flatnonzero(((dw > 0.0) & np.isfinite(lo) | (dw < 0.0) & np.isfinite(up))
                              & ~self.redundant)
        rows = rows[np.abs(w[rows]) > self._noise_floor(rows, j)]
        dec, inc = rows[dw[rows] > 0.0], rows[dw[rows] < 0.0]  # drop to lower, rise to upper
        limits = np.full(self.m, np.inf)
        limits[dec] = (xb[dec] - lo[dec]) / dw[dec]
        limits[inc] = (xb[inc] - up[inc]) / dw[inc]
        limits = np.maximum(limits, 0.0)
        row_min = float(limits.min(initial=np.inf))
        own = self.upper[j] - self.lower[j]
        if own <= row_min:
            return own, -1, 0, ("flip" if np.isfinite(own) else "unbounded"), w
        cand = np.flatnonzero(limits <= row_min + RATIO_TIE_TOL)
        if self.bland_mode:
            # smallest basis-column index among ties
            leave = int(cand[np.argmin(self.basis[cand])])
        else:
            leave = self._largest_pivot(cand, np.abs(dw[cand]), self.basis[cand])
        leave_to = AT_LOWER if dw[leave] > 0 else AT_UPPER
        return row_min, leave, leave_to, "pivot", w

    def _apply_flip(self, j: int, direction: float, step: float, w: np.ndarray) -> None:
        self.x[self.basis] -= step * direction * w
        self._place(j, AT_UPPER if direction > 0 else AT_LOWER)
        self.moved = True

    def _apply_pivot(self, j: int, direction: float, step: float,
                     leave: int, leave_to: int, w: np.ndarray) -> None:
        self.x[self.basis] -= step * direction * w
        self.x[j] += direction * step
        # snap the leaving variable exactly onto the bound it reached
        self._place(self.basis[leave], leave_to)
        self._exchange(leave, j, w)
        if self.pivots % REFACTOR_EVERY == 0:
            self._refactor()

    # -- main loop ---------------------------------------------------------

    def _optimize(self, phase: int, cost1: np.ndarray | None = None) -> str:
        """Primal simplex pivots to optimality: phase 1 on ``cost1``, phase 2 on ``cost``."""
        while True:
            if self.pivots > MAX_PIVOTS:
                raise SimplexError(f"pivot limit exceeded (phase {phase})")
            picked = self._price(self._reduced_costs(cost1) if phase == 1 else self._pricing())
            if picked is None:
                if not self.moved:
                    return OPTIMAL
                # Optimality is declared on a fresh inverse only: the
                # product-form updates of an ill-conditioned basis can hide
                # a reduced cost that a fresh factorization shows.
                self._refactor()
                continue
            j, direction = picked
            step, leave, leave_to, kind, w = self._ratio_test(j, direction)
            if kind == "unbounded":
                if phase == 2:
                    return UNBOUNDED
                # The phase-1 objective is bounded below, so the entries that
                # would have limited this column were rounding noise, and so is
                # its reduced cost: it does not improve phase 1.
                self.allowed[j] = self.movable[j] = False
                self._remask(j)
                continue
            if step < STEP_TOL:
                self.degenerate_run += 1
                if (not self.bland_always and not self.bland_mode
                        and self.degenerate_run >= STALL_SWITCH):
                    logger.debug("switching to Bland's rule after %d degenerate pivots",
                                 self.degenerate_run)
                    self.bland_mode = True
            else:
                self.degenerate_run = 0
            if kind == "flip":
                self._apply_flip(j, direction, step, w)
            else:
                self._apply_pivot(j, direction, step, leave, leave_to, w)

    def _drive_out_artificials(self) -> None:
        real = slice(None, self.n_real)
        for row in np.flatnonzero(self.basis >= self.n_real):
            col = self.basis[row]
            tableau = self.b_inv @ self.a[:, real]
            tab_row = np.abs(tableau[row])
            # an entry under the noise floor, or tiny against its own tableau
            # column, is rounding noise of a redundant row, not a pivot
            floor = np.maximum(DRIVE_OUT_REL_TOL * np.abs(tableau).max(axis=0),
                               self._noise_floor(row, real))
            size = np.where((tab_row > floor) & (self.status_col[real] != BASIC), tab_row, 0.0)
            if not size.any():
                # Redundant row: freeze the artificial at zero, basic for good.
                self.upper[col] = 0.0
                self.redundant[row] = True
                continue
            j = int(np.argmax(size))  # the largest pivot, first index on ties
            self._place(col, AT_LOWER)
            self._exchange(row, j, self.b_inv @ self.a[:, j])
        if self.moved:
            self._refactor()

    def run(self) -> LpSolution:
        """The cold two-phase solve from a slack-and-artificial basis."""
        self._place_all(np.where(np.isfinite(self.lower), AT_LOWER,
                                 np.where(np.isfinite(self.upper), AT_UPPER, NB_FREE)))
        self._install_artificials()
        if self.artificials.size:
            cost1 = np.zeros(self.ncols)
            cost1[self.artificials] = 1.0
            status = self._optimize(1, cost1)
            assert status == OPTIMAL
            phase1_val = float(cost1 @ self.x)
            if phase1_val > PHASE1_TOL:
                return LpSolution(status=INFEASIBLE, pivots=self.pivots)
            self._drive_out_artificials()
            self.allowed[:] = True  # phase 1 may have set noise columns aside
            self.allowed[self.artificials] = False
            self._set_movable()
            for col in self.artificials:  # park nonbasic artificials exactly at zero
                if self.status_col[col] != BASIC:
                    self._place(col, AT_LOWER)
        return self._phase2(warm=False)

    def _phase2(self, warm: bool, dual: bool = False) -> LpSolution:
        """Phase 2 from the current primal feasible basis, and the solution it ends at.

        A basis that pivots moved since its factorization (the dual pivots of
        a re-solve) is factorized afresh first, and then priced.
        """
        if self.moved:
            self._refactor()
        self.degenerate_run = 0
        status = self._optimize(2)
        if status == UNBOUNDED:
            return LpSolution(status=UNBOUNDED, pivots=self.pivots, warm_start=warm,
                              dual_start=dual)
        # optimality was declared on a fresh inverse, so the basic values are
        # exact and the held pricing's duals are those of this very inverse
        n, q, y = self.n_struct, self.n_eq, self.y
        x = self.x[:n].copy()
        dual_eq = y[:q].copy()
        dual_ineq = np.maximum(-y[q:], 0.0)
        basis = (None if (self.basis >= self.n_real).any()
                 else self.status_col[:self.n_real].copy())
        return LpSolution(status=OPTIMAL, x=x, objective=float(self.c @ x),
                          dual_eq=dual_eq, dual_ineq=dual_ineq, pivots=self.pivots,
                          basis=basis, warm_start=warm, dual_start=dual)


class PersistentLp(_Simplex):
    """One LP kept across re-solves, with an optimal basis and its inverse.

    Built from an :class:`LpProblem` and a basis of it: one column state per
    structural and slack column, as in ``LpSolution.basis``.  It is usually
    an optimal basis of that LP (the ``basis`` of :func:`solve`), but any
    basis will do, such as an optimal basis of another LP of the same shape
    or a crash basis; construction raises :class:`SimplexError` when
    ``basis`` is not a basis of this LP: it does not hold one state per
    column, a state names an infinite bound (or :data:`NB_FREE` a column
    with a finite one), or the basic columns are singular.  Between two
    re-solves, inequality rows can be inserted (:meth:`append_rows`) and the
    right-hand side moved (:meth:`set_rhs`); the cost, the box and the
    existing rows stay as built, so a dual feasible basis stays dual
    feasible.  :meth:`resolve` re-solves in place, with dual simplex pivots
    first when the basis is not primal feasible, and declines when it
    cannot, leaving the cold solve to the caller.

    The LP holds the pricing of its last optimal re-solve: the duals ``y``
    and reduced costs ``d`` of the phase-2 cost ``cost`` (structural ``c``,
    zero on the slacks) at the held inverse.  :meth:`set_rhs` keeps them;
    :meth:`append_rows`, a pivot, a factorization and a new ``c`` drop
    them (``d`` is None), and the next pricing computes them again.
    """

    def __init__(self, prob: LpProblem, basis: np.ndarray):
        super().__init__(prob, bland_always=False)
        basis = np.asarray(basis, dtype=np.int8)
        if basis.shape != (self.n_real,):
            raise SimplexError(f"{basis.size} column states for {self.n_real} columns")
        self._place_all(basis)
        st = self.status_col
        lo_inf, up_inf = np.isinf(self.lower), np.isinf(self.upper)
        if (((st == AT_LOWER) & lo_inf) | ((st == AT_UPPER) & up_inf)
                | ((st == NB_FREE) & ~(lo_inf & up_inf))).any():
            raise SimplexError("a column state names an infinite bound or parks a bounded "
                               "column as free")
        self.basis = np.flatnonzero(st == BASIC)
        self._refactor()

    def append_rows(self, a_rows: np.ndarray, b_rows: np.ndarray, at: int) -> None:
        """Insert the rows ``a_rows x <= b_rows`` before inequality row ``at``.

        Each new row's slack column enters the basis, at the new row's
        position.  Up to that placement the basis matrix becomes
        ``[[B, 0], [r_B, I]]`` (``r_B``: the new rows at the basic columns),
        so the inverse is bordered in closed form with
        ``[[B^-1, 0], [-r_B B^-1, I]]``.
        """
        k = a_rows.shape[0]
        n, m = self.n_struct, self.m
        p, s = self.n_eq + at, n + at  # the first new row and its slack column
        rows = np.zeros((k, self.n_real + k))
        rows[:, :n] = a_rows
        rows[:, s:s + k] = np.eye(k)
        a = np.hstack([self.a[:, :s], np.zeros((m, k)), self.a[:, s:]])
        self.a = np.vstack([a[:p], rows, a[p:]])
        self.b = np.concatenate([self.b[:p], b_rows, self.b[p:]])
        self.lower = np.concatenate([self.lower[:s], np.zeros(k), self.lower[s:]])
        self.upper = np.concatenate([self.upper[:s], np.full(k, np.inf), self.upper[s:]])
        self.cost = np.concatenate([self.cost[:s], np.zeros(k), self.cost[s:]])
        self.d = None
        basis = np.where(self.basis >= s, self.basis + k, self.basis)
        border = -(rows[:, basis] @ self.b_inv)
        b_inv = np.hstack([self.b_inv[:, :p], np.zeros((m, k)), self.b_inv[:, p:]])
        border = np.hstack([border[:, :p], np.eye(k), border[:, p:]])
        self.b_inv = np.vstack([b_inv[:p], border, b_inv[p:]])
        self.basis = np.concatenate([basis[:p], np.arange(s, s + k), basis[p:]])
        self.status_col = np.concatenate([self.status_col[:s], np.full(k, BASIC, dtype=np.int8),
                                          self.status_col[s:]])
        self.x = np.concatenate([self.x[:s], b_rows - a_rows @ self.x[:n], self.x[s:]])
        self.stale += k
        self.m += k
        self.n_ub += k
        self.n_real += k
        self.ncols = self.n_real
        self.allowed = np.ones(self.ncols, dtype=bool)
        self._set_movable()
        self.redundant = np.zeros(self.m, dtype=bool)

    def set_rhs(self, b_eq: np.ndarray, b_ub: np.ndarray) -> None:
        """Move the right-hand side; only the basic values change."""
        b = np.concatenate([b_eq, b_ub])
        if b.shape[0] != self.m:
            raise ValueError(f"right-hand side has {b.shape[0]} entries, the LP {self.m} rows")
        self.b = b
        self._recompute_basic_values()

    def resolve(self) -> LpSolution | None:
        """Re-solve in place from the held basis; None when it declines.

        The row residual of the held basis must fit (:meth:`_fits`).
        When its basic values are within :data:`PHASE1_TOL` of their bounds
        too, the phase-2 loop runs from it, and with the held pricing when
        only the right-hand side moved: a re-solve with no pivot prices
        nothing.  Otherwise :meth:`_dual_simplex` first pivots it back to
        primal feasibility, starting on the held inverse as it is, bordered
        or not, and phase 2 factorizes the moved basis once, then prices it.
        Either way the solution's ``warm_start`` is True, and ``dual_start``
        says whether dual pivots ran.  The inverse is refactored on the
        :data:`REFACTOR_EVERY` schedule, and a row residual that fails on an
        inverse bordered or updated since its factorization is checked again
        on a fresh one.  After a None the object is spent: solve the LP cold
        and hold the new basis in a new :class:`PersistentLp`.
        """
        self.pivots = 0
        self.bland_mode = False
        if self.stale >= REFACTOR_EVERY and not self._try_refactor():
            return None
        residual_ok, primal_ok = self._fits()
        if not residual_ok and (self.stale or self.moved):
            if not self._try_refactor():
                return None
            residual_ok, primal_ok = self._fits()
        if not residual_ok:
            return None
        if not primal_ok:
            try:
                if not self._dual_simplex():
                    return None
            except SimplexError:
                return None
        return self._phase2(warm=True, dual=not primal_ok)

    def _try_refactor(self) -> bool:
        try:
            self._refactor()
        except SimplexError:
            return False
        return True

    def _fits(self) -> tuple[bool, bool]:
        """Whether the row residual, and whether the basic bounds, are within :data:`PHASE1_TOL`.

        A row's residual also fits within :data:`RESIDUAL_REL_TOL` of the
        products forming it, ``|A| |x|``: at large basic values the absolute
        tolerance is below the rounding of ``A x``.
        """
        bas = self.basis
        xb = self.x[bas]
        resid = np.abs(self.a @ self.x - self.b)
        residual_ok = resid.max(initial=0.0) <= PHASE1_TOL
        if not residual_ok:  # |A| |x| is formed only here, off the common path
            formed = np.abs(self.a) @ np.abs(self.x)
            residual_ok = (resid <= np.maximum(PHASE1_TOL, RESIDUAL_REL_TOL * formed)).all()
        return (bool(residual_ok), bool(((xb >= self.lower[bas] - PHASE1_TOL)
                                         & (xb <= self.upper[bas] + PHASE1_TOL)).all()))

    def _dual_simplex(self) -> bool:
        """Dual simplex pivots until the basis is primal feasible; False to decline.

        Each pivot takes the basic variable with the largest bound violation
        out to the bound it violates.  On its tableau row
        ``alpha_r = B^-1[r] A`` the dual ratio test picks, among the columns
        that may move and whose entry is above the noise floor, the one that
        keeps every reduced cost on its side; ties go by the shared tie rule.
        The reduced costs ``d`` are priced once on entry (the held pricing
        when there is one) and then updated along that same row, the
        standard dual update: ``d -= (d_j / alpha_j) alpha`` with ``d_j = 0``
        for the entering column ``j``.  The pivots go through
        :meth:`_apply_pivot`, so the inverse is refactored on its schedule,
        and ``d`` is priced afresh after each factorization.  Declines when
        the basis is not dual feasible (checked on ``d`` before every pivot),
        when no column can enter (the LP is primal infeasible), after
        :data:`STALL_SWITCH` dual-degenerate pivots in a row or past
        :data:`MAX_PIVOTS`.
        """
        d = self._pricing()
        degenerate_run = 0
        while True:
            bas = self.basis
            xb = self.x[bas]
            above = xb - self.upper[bas]
            viol = np.maximum(self.lower[bas] - xb, above)
            r = int(np.argmax(viol))
            if viol[r] <= PHASE1_TOL:
                return True
            if self.pivots >= MAX_PIVOTS or degenerate_run >= STALL_SWITCH:
                return False
            infeasible, rise, fall = self._dual_infeasibility(d)
            if infeasible.any():
                return False
            sigma = 1.0 if above[r] > 0.0 else -1.0  # +1: x_r leaves for its upper bound
            alpha = self.b_inv[r] @ self.a
            s_alpha = sigma * alpha
            big = np.abs(alpha) > self._noise_floor(r, slice(None))
            cand = np.flatnonzero(big & ((rise & (s_alpha > 0.0)) | (fall & (s_alpha < 0.0))))
            if not cand.size:
                return False
            ratio = np.maximum(d[cand] / s_alpha[cand], 0.0)
            step_d = float(ratio.min())
            ties = cand[ratio <= step_d + RATIO_TIE_TOL]
            j = self._largest_pivot(ties, np.abs(alpha[ties]), ties)
            w = self.b_inv @ self.a[:, j]
            direction = 1.0 if s_alpha[j] > 0.0 else -1.0
            target = self.upper[bas[r]] if sigma > 0.0 else self.lower[bas[r]]
            step = (xb[r] - target) / (direction * w[r])
            degenerate_run = degenerate_run + 1 if step_d < STEP_TOL else 0
            self._apply_pivot(j, direction, step, r, AT_UPPER if sigma > 0.0 else AT_LOWER, w)
            if self.moved:  # the update of d along the tableau row: d_j becomes 0
                d -= (d[j] / alpha[j]) * alpha
                d[j] = 0.0
            else:  # refactored on its schedule: price afresh
                d = self._pricing()


def solve(prob: LpProblem, starts=()) -> LpSolution:
    """Solve an :class:`LpProblem` with Dantzig pricing (Bland fallback on stall).

    Without ``starts`` the solve is the cold two-phase simplex.  ``starts``
    is an iterable of bases of ``prob``, each one column state per
    structural and slack column (as in ``LpSolution.basis``), tried in order
    and only as far as needed; a None entry is skipped.  The LP is held in a
    :class:`PersistentLp` at a start and re-solved in place, phase 2 from a
    primal feasible start and dual simplex pivots first from a dual feasible
    one; the first start whose re-solve does not decline gives the solution,
    which then carries that LP as ``held``.  When no start is a basis of
    ``prob`` (:class:`SimplexError`) whose re-solve does not decline, the
    solve is the cold one, as without a start.

    Returns
    -------
    LpSolution
        Status is one of ``"optimal"``, ``"infeasible"``, ``"unbounded"``.
        Identical inputs produce identical outputs (all tie-breaking is by
        first index).
    """
    for start in starts:
        if start is None:
            continue
        try:
            held = PersistentLp(prob, start)
            sol = held.resolve()
        except SimplexError:
            continue
        if sol is not None:
            sol.held = held
            return sol
    return _Simplex(prob, bland_always=False).run()


def solve_with_bland(prob: LpProblem) -> LpSolution:
    """Solve with Bland's smallest-index rule throughout (cycle-proof)."""
    return _Simplex(prob, bland_always=True).run()
