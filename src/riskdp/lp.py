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

Warm starts: every optimal solve returns its final basis (``LpSolution.basis``,
one state per structural and slack column).  ``solve(prob, start=basis)``
installs such a basis, typically one from an earlier solve of a related LP
whose right-hand side moved and whose new rows have their slacks basic, and
factorizes it once.  If every basic value lies within its bounds (to
:data:`PHASE1_TOL`) the basis is primal feasible: the artificials and phase 1
are skipped and the phase-2 loop runs from it.  Otherwise, and whenever the
start does not fit the LP or its basis matrix is singular, the start is
declined and the solve is the cold two-phase solve.  There is no dual simplex:
a start that lost primal feasibility buys nothing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

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
BINDING_TOL = 1e-9      # slack below this marks an inequality row binding
REFACTOR_EVERY = 64     # pivots between explicit refactorizations
STALL_SWITCH = 100      # consecutive degenerate pivots before Bland takes over
MAX_PIVOTS = 200_000    # hard safety limit per solve

# Column states; an ``LpSolution.basis`` holds one per structural and slack column.
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
NB_FREE = 3            # nonbasic free variable, parked at value 0


class SimplexError(RuntimeError):
    """Hard numerical failure inside the simplex (not a model status)."""


def _as_matrix(a, rows_hint: int, n: int) -> np.ndarray:
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
        self.a_eq = _as_matrix(self.a_eq, 0, n)
        self.b_eq = _as_vector(self.b_eq, self.a_eq.shape[0], "b_eq")
        self.a_ub = _as_matrix(self.a_ub, 0, n)
        self.b_ub = _as_vector(self.b_ub, self.a_ub.shape[0], "b_ub")
        self.lower = (np.full(n, -np.inf) if self.lower is None
                      else np.asarray(self.lower, dtype=float).reshape(-1))
        self.upper = (np.full(n, np.inf) if self.upper is None
                      else np.asarray(self.upper, dtype=float).reshape(-1))
        if self.lower.shape[0] != n or self.upper.shape[0] != n:
            raise ValueError("bound vectors must match the number of variables")
        for name, arr in (("c", self.c), ("a_eq", self.a_eq), ("b_eq", self.b_eq),
                          ("a_ub", self.a_ub), ("b_ub", self.b_ub)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("bounds contain NaN")
        if np.any(self.lower > self.upper + 1e-12):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class LpSolution:
    """Result of a simplex solve.

    ``x``, ``objective`` and the dual vectors are only meaningful when
    ``status == "optimal"``.  ``binding_ineq[i]`` flags inequality rows with
    slack below :data:`BINDING_TOL`.  ``basis`` is the final basis as one
    column state per structural and slack column (:data:`BASIC`,
    :data:`AT_LOWER`, :data:`AT_UPPER` or :data:`NB_FREE`), ready to be
    handed back to :func:`solve` as a start; it is None unless the solve is
    optimal with no artificial column left basic.  ``warm_start`` says
    whether the solve ran from the supplied start basis.
    """

    status: str
    x: np.ndarray | None = None
    objective: float = math.nan
    dual_eq: np.ndarray | None = None
    dual_ineq: np.ndarray | None = None
    binding_ineq: np.ndarray | None = None
    pivots: int = 0
    basis: np.ndarray | None = None
    warm_start: bool = False


class _Simplex:
    """One solve; builds the working arrays and runs the two phases."""

    def __init__(self, prob: LpProblem, bland_always: bool):
        self.prob = prob
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
        if q:
            a[:q, :n] = prob.a_eq
        if r:
            a[q:, :n] = prob.a_ub
            a[q:, n:n + r] = np.eye(r)
        self.a = a
        self.b = np.concatenate([prob.b_eq, prob.b_ub])
        self.lower = np.concatenate([prob.lower, np.zeros(r)])
        self.upper = np.concatenate([prob.upper, np.full(r, np.inf)])
        self.n_real = n + r
        self.pivots = 0
        self.degenerate_run = 0
        self.bland_mode = bland_always

    # -- setup -------------------------------------------------------------

    def _initial_point(self) -> None:
        ncols = self.n_real
        self.status_col = np.empty(ncols, dtype=np.int8)
        self.x = np.zeros(ncols, dtype=float)
        for j in range(ncols):
            lo, up = self.lower[j], self.upper[j]
            if np.isfinite(lo):
                self.status_col[j] = AT_LOWER
                self.x[j] = lo
            elif np.isfinite(up):
                self.status_col[j] = AT_UPPER
                self.x[j] = up
            else:
                self.status_col[j] = NB_FREE
                self.x[j] = 0.0

    def _install_artificials(self) -> None:
        """Choose a starting basis: slacks where possible, artificials elsewhere."""
        m, q = self.m, self.n_eq
        resid = self.b - self.a @ self.x
        basis = np.full(m, -1, dtype=int)
        art_cols: list[int] = []
        art_data: list[tuple[int, float, float]] = []  # (row, sign, value)
        for i in range(m):
            if i >= q and resid[i] >= 0.0:
                # Inequality row: its slack can absorb the residual.
                s = self.n_struct + (i - q)
                basis[i] = s
                self.x[s] = resid[i]
                self.status_col[s] = BASIC
            else:
                sign = 1.0 if resid[i] >= 0.0 else -1.0
                art_data.append((i, sign, abs(resid[i])))
        if art_data:
            extra = np.zeros((m, len(art_data)), dtype=float)
            for k, (i, sign, _val) in enumerate(art_data):
                extra[i, k] = sign
            self.a = np.hstack([self.a, extra])
            self.lower = np.concatenate([self.lower, np.zeros(len(art_data))])
            self.upper = np.concatenate([self.upper, np.full(len(art_data), np.inf)])
            add_status = np.full(len(art_data), BASIC, dtype=np.int8)
            self.status_col = np.concatenate([self.status_col, add_status])
            vals = np.array([v for (_i, _s, v) in art_data])
            self.x = np.concatenate([self.x, vals])
            for k, (i, _sign, _val) in enumerate(art_data):
                col = self.n_real + k
                basis[i] = col
                art_cols.append(col)
        self.basis = basis
        self.artificials = np.array(art_cols, dtype=int)
        self.ncols = self.a.shape[1]
        self.allowed = np.ones(self.ncols, dtype=bool)
        self.redundant = np.zeros(m, dtype=bool)  # rows whose artificial stays basic
        self._refactor()

    def _install_start(self, start) -> bool:
        """Install a start basis; True when it is primal feasible, so phase 1 is skipped.

        Returns False, for the cold two-phase solve to take over, when the
        start does not fit this LP's columns and rows, parks a column at an
        infinite bound, has a singular basis matrix, or gives a point that
        misses a row or a basic bound by more than :data:`PHASE1_TOL` (a
        nearly singular basis shows up as the row residual).
        """
        if start is None:
            return False
        state = np.asarray(start, dtype=np.int8)
        if state.shape != (self.n_real,):
            return False
        basis = np.flatnonzero(state == BASIC)
        at_lo, at_up, free = state == AT_LOWER, state == AT_UPPER, state == NB_FREE
        self.x = np.where(at_lo, self.lower, np.where(at_up, self.upper, 0.0))
        bounded = np.isfinite(self.lower) | np.isfinite(self.upper)
        if (basis.size != self.m or not np.isfinite(self.x).all() or (free & bounded).any()
                or basis.size + np.count_nonzero(at_lo | at_up | free) != self.n_real):
            return False
        self.status_col = state.copy()
        self.basis = basis
        try:
            self._refactor()
        except SimplexError:
            return False
        if self.m:
            xb = self.x[basis]
            if (np.abs(self.a @ self.x - self.b).max() > PHASE1_TOL
                    or ((xb < self.lower[basis] - PHASE1_TOL)
                        | (xb > self.upper[basis] + PHASE1_TOL)).any()):
                return False
        self.artificials = np.zeros(0, dtype=int)
        self.ncols = self.n_real
        self.allowed = np.ones(self.ncols, dtype=bool)
        self.redundant = np.zeros(self.m, dtype=bool)
        return True

    # -- linear algebra ----------------------------------------------------

    def _refactor(self) -> None:
        if self.m == 0:
            self.b_inv = np.zeros((0, 0), dtype=float)
            return
        bmat = self.a[:, self.basis]
        try:
            self.b_inv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SimplexError(f"singular basis {self.basis.tolist()}") from exc
        self._recompute_basic_values()

    def _recompute_basic_values(self) -> None:
        if self.m == 0:
            return
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.b_inv @ (self.b - self.a @ xn)

    # -- pricing -----------------------------------------------------------

    def _price(self, cost: np.ndarray):
        """Return (entering column, direction) or None when optimal."""
        if self.m:
            y = cost[self.basis] @ self.b_inv
            d = cost - y @ self.a
        else:
            d = cost.copy()
        st = self.status_col
        viol = np.zeros(self.ncols, dtype=float)
        low_mask = (st == AT_LOWER) & self.allowed & (d < -RC_TOL)
        up_mask = (st == AT_UPPER) & self.allowed & (d > RC_TOL)
        free_mask = (st == NB_FREE) & self.allowed & (np.abs(d) > RC_TOL)
        viol[low_mask] = -d[low_mask]
        viol[up_mask] = d[up_mask]
        viol[free_mask] = np.abs(d[free_mask])
        if not viol.any():
            return None
        if self.bland_mode:
            j = int(np.flatnonzero(viol > 0.0)[0])
        else:
            j = int(np.argmax(viol))
        if st[j] == AT_LOWER:
            direction = 1.0
        elif st[j] == AT_UPPER:
            direction = -1.0
        else:
            direction = 1.0 if d[j] < 0.0 else -1.0
        return j, direction

    # -- ratio test and pivot ---------------------------------------------

    def _ratio_test(self, j: int, direction: float):
        """Return (step, leaving_row, landing_status, kind, w).

        ``kind`` is ``"flip"`` (entering variable runs to its other bound),
        ``"pivot"`` (a basic variable leaves first) or ``"unbounded"``.
        """
        a_j = self.a[:, j]
        w = self.b_inv @ a_j if self.m else np.zeros(0)
        dw = direction * w
        if self.m:
            bas = self.basis
            xb = self.x[bas]
            lo = self.lower[bas]
            up = self.upper[bas]
            limits = np.full(self.m, np.inf)
            # a redundant row's tableau entries are rounding noise: it never limits
            dec_ok = (dw > PIVOT_TOL) & np.isfinite(lo) & ~self.redundant  # drops to lower
            inc_ok = (dw < -PIVOT_TOL) & np.isfinite(up) & ~self.redundant  # rises to upper
            # so is an entry that is tiny against the products that formed it
            rows = np.flatnonzero(dec_ok | inc_ok)
            formed = np.abs(self.b_inv[rows]) @ np.abs(a_j)
            noise = rows[np.abs(w[rows]) <= PIVOT_REL_TOL * formed]
            dec_ok[noise] = inc_ok[noise] = False
            limits[dec_ok] = (xb[dec_ok] - lo[dec_ok]) / dw[dec_ok]
            limits[inc_ok] = (xb[inc_ok] - up[inc_ok]) / dw[inc_ok]
            limits = np.maximum(limits, 0.0)
            row_min = float(limits.min()) if limits.size else np.inf
        else:
            limits = np.zeros(0)
            row_min = np.inf
        own = np.inf
        if np.isfinite(self.lower[j]) and np.isfinite(self.upper[j]):
            own = self.upper[j] - self.lower[j]
        if own <= row_min:
            if not np.isfinite(own):
                return np.inf, -1, 0, "unbounded", w
            return own, -1, 0, "flip", w
        if not np.isfinite(row_min):
            return np.inf, -1, 0, "unbounded", w
        cand = np.flatnonzero(limits <= row_min + RATIO_TIE_TOL)
        if self.bland_mode:
            # smallest basis-column index among ties
            leave = int(cand[np.argmin(self.basis[cand])])
        else:
            # stability: largest |pivot| among ties, then smallest column index
            piv = np.abs(dw[cand])
            sub = cand[piv >= piv.max() - 1e-12]
            leave = int(sub[np.argmin(self.basis[sub])])
        leave_to = AT_LOWER if dw[leave] > 0 else AT_UPPER
        return row_min, leave, leave_to, "pivot", w

    def _apply_flip(self, j: int, direction: float, step: float, w: np.ndarray) -> None:
        if self.m:
            self.x[self.basis] -= step * direction * w
        if direction > 0:
            self.x[j] = self.upper[j]
            self.status_col[j] = AT_UPPER
        else:
            self.x[j] = self.lower[j]
            self.status_col[j] = AT_LOWER

    def _apply_pivot(self, j: int, direction: float, step: float,
                     leave: int, leave_to: int, w: np.ndarray) -> None:
        bas = self.basis
        if self.m:
            self.x[bas] -= step * direction * w
        self.x[j] += direction * step
        out_col = bas[leave]
        # snap the leaving variable exactly onto the bound it reached
        self.x[out_col] = self.lower[out_col] if leave_to == AT_LOWER else self.upper[out_col]
        self.status_col[out_col] = leave_to
        self.status_col[j] = BASIC
        bas[leave] = j
        piv = w[leave]
        if abs(piv) <= PIVOT_TOL:  # pragma: no cover - guarded by ratio test
            raise SimplexError(f"pivot element {piv:.3e} too small")
        self.b_inv[leave, :] /= piv
        other = np.arange(self.m) != leave
        self.b_inv[other, :] -= np.outer(w[other], self.b_inv[leave, :])
        self.pivots += 1
        if self.pivots % REFACTOR_EVERY == 0:
            self._refactor()

    # -- main loop ---------------------------------------------------------

    def _optimize(self, cost: np.ndarray, phase: int) -> str:
        while True:
            if self.pivots > MAX_PIVOTS:
                raise SimplexError(f"pivot limit exceeded (phase {phase})")
            picked = self._price(cost)
            if picked is None:
                return OPTIMAL
            j, direction = picked
            step, leave, leave_to, kind, w = self._ratio_test(j, direction)
            if kind == "unbounded":
                if phase == 1:  # pragma: no cover - phase-1 objective is bounded
                    raise SimplexError("phase-1 reported unbounded")
                return UNBOUNDED
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
        a_real = self.a[:, :self.n_real]
        for row in range(self.m):
            col = self.basis[row]
            if col < self.n_real:
                continue
            tableau = self.b_inv @ a_real
            tab_row = np.abs(tableau[row])
            # an entry that is tiny against its own tableau column is rounding
            # noise of a redundant row, not a pivot
            noise = DRIVE_OUT_REL_TOL * np.abs(tableau).max(axis=0)
            size = np.where((tab_row > np.maximum(PIVOT_TOL, noise))
                            & (self.status_col[:self.n_real] != BASIC), tab_row, 0.0)
            if not size.any():
                # Redundant row: freeze the artificial at zero, basic for good.
                self.upper[col] = 0.0
                self.redundant[row] = True
                continue
            j = int(np.argmax(size))  # the largest pivot, first index on ties
            w = self.b_inv @ self.a[:, j]
            self.status_col[col] = AT_LOWER
            self.x[col] = 0.0
            self.status_col[j] = BASIC
            self.basis[row] = j
            piv = w[row]
            self.b_inv[row, :] /= piv
            other = np.arange(self.m) != row
            self.b_inv[other, :] -= np.outer(w[other], self.b_inv[row, :])
            self.pivots += 1
        self._refactor()

    def run(self, start=None) -> LpSolution:
        warm = self._install_start(start)
        if not warm:
            self._initial_point()
            self._install_artificials()
        if self.artificials.size:
            cost1 = np.zeros(self.ncols)
            cost1[self.artificials] = 1.0
            status = self._optimize(cost1, phase=1)
            assert status == OPTIMAL
            self._refactor()
            phase1_val = float(cost1 @ self.x)
            if phase1_val > PHASE1_TOL:
                return LpSolution(status=INFEASIBLE, pivots=self.pivots)
            self._drive_out_artificials()
            self.allowed[self.artificials] = False
            # Park nonbasic artificials exactly at zero.
            for col in self.artificials:
                if self.status_col[col] != BASIC:
                    self.x[col] = 0.0
                    self.status_col[col] = AT_LOWER
        cost2 = np.zeros(self.ncols)
        cost2[:self.n_struct] = self.prob.c
        self.degenerate_run = 0
        status = self._optimize(cost2, phase=2)
        if status == UNBOUNDED:
            return LpSolution(status=UNBOUNDED, pivots=self.pivots, warm_start=warm)
        self._refactor()  # polish: exact basic values off a fresh inverse
        n, q = self.n_struct, self.n_eq
        x = self.x[:n].copy()
        if self.m:
            y = cost2[self.basis] @ self.b_inv
        else:
            y = np.zeros(0)
        dual_eq = y[:q].copy()
        dual_ineq = np.maximum(-y[q:], 0.0)
        if self.n_ub:
            slack = self.prob.b_ub - self.prob.a_ub @ x
            binding = slack <= BINDING_TOL
        else:
            binding = np.zeros(0, dtype=bool)
        basis = (None if (self.basis >= self.n_real).any()
                 else self.status_col[:self.n_real].copy())
        return LpSolution(status=OPTIMAL, x=x, objective=float(self.prob.c @ x),
                          dual_eq=dual_eq, dual_ineq=dual_ineq,
                          binding_ineq=binding, pivots=self.pivots,
                          basis=basis, warm_start=warm)


def solve(prob: LpProblem, start: np.ndarray | None = None) -> LpSolution:
    """Solve an :class:`LpProblem` with Dantzig pricing (Bland fallback on stall).

    ``start`` is an optional start basis in the form of
    :attr:`LpSolution.basis`.  When it is primal feasible for ``prob`` the
    solve skips phase 1 and runs phase 2 from it; otherwise it is declined
    and the solve is the cold two-phase solve, bit for bit.

    Returns
    -------
    LpSolution
        Status is one of ``"optimal"``, ``"infeasible"``, ``"unbounded"``.
        Identical inputs produce identical outputs (all tie-breaking is by
        first index).
    """
    return _Simplex(prob, bland_always=False).run(start)


def solve_with_bland(prob: LpProblem) -> LpSolution:
    """Solve with Bland's smallest-index rule throughout (cycle-proof)."""
    return _Simplex(prob, bland_always=True).run()
