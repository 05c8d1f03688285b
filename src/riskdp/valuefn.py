"""Subgradient assembly for parametric LP value functions.

A stage subproblem's optimal value, viewed as a function of the decision
history it was assembled against, is convex and piecewise linear.  This module
assembles a subgradient of that map from the subproblem data and the LP duals,
using the package-wide sign convention of module :mod:`riskdp.lp`:

``s = cost_term + eq_term + g_term + cut_term`` with

* ``cost_term = sum_i mu_i c_i,hist`` — the dual-weighted history blocks of the
  cost pieces (the epigraph-row multipliers sum to one at optimality, so this
  is a convex combination supported on active pieces);
* ``eq_term = -A_hist^T dual_eq`` — the equality system's history blocks;
* ``g_term = G_hist^T mu_G`` — static inequality rows;
* ``cut_term = sum_l mu_l beta1_l + sum_l mu~_l beta~1_l`` — history blocks of
  the optimality- and feasibility-cut rows.

Multipliers of the variable box never appear: box constraints carry no history
dependence.  Tiny multipliers (below :data:`MU_ZERO_TOL`) are zeroed before
assembly so that only rows active at the solution contribute.
"""

from __future__ import annotations

import numpy as np

from .lp import LpSolution, OPTIMAL
from .model import SubproblemData

MU_ZERO_TOL = 1e-9   # inequality multipliers below this are treated as inactive


def assemble_pi(sub: SubproblemData, sol: LpSolution, view) -> np.ndarray:
    """Assemble a subgradient of the subproblem value w.r.t. its history.

    Parameters
    ----------
    sub : SubproblemData
        The assembled subproblem (provides the history-block matrices).
    sol : LpSolution
        Optimal solution of the subproblem LP whose inequality rows are
        ordered [g rows][cost-piece rows][optimality-cut rows][feasibility-cut
        rows].
    view : PoolView
        The cut rows the LP was built with (provides their history blocks).

    Returns
    -------
    numpy.ndarray
        ``s`` over the decision history ``x_{1:t-1}``; satisfies the
        subgradient inequality for the subproblem value at the anchor history.
    """
    if sol.status != OPTIMAL:
        raise ValueError(f"cannot assemble a subgradient from status {sol.status!r}")
    n_g = sub.g_cur.shape[0]
    n_p = sub.piece_cur.shape[0]
    n_opt = view.opt_beta1.shape[0]
    n_feas = view.feas_beta1.shape[0]
    mu = sol.dual_ineq.copy()
    if mu.shape[0] != n_g + n_p + n_opt + n_feas:
        raise ValueError(f"dual vector has {mu.shape[0]} rows, layout expects "
                         f"{n_g}+{n_p}+{n_opt}+{n_feas}")
    mu[mu < MU_ZERO_TOL] = 0.0
    mu_g = mu[:n_g]
    mu_p = mu[n_g:n_g + n_p]
    mu_opt = mu[n_g + n_p:n_g + n_p + n_opt]
    mu_feas = mu[n_g + n_p + n_opt:]
    cost_term = mu_p @ sub.piece_hist
    eq_term = -(sub.a_hist.T @ sol.dual_eq)
    g_term = sub.g_hist.T @ mu_g
    cut_term = view.opt_beta1.T @ mu_opt + view.feas_beta1.T @ mu_feas
    return cost_term + eq_term + g_term + cut_term
