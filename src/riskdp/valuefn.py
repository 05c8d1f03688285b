"""The history subgradient of a stage LP's value: one formula.

A stage LP's right-hand side is affine in the history ``h = x_{1:t-1}``,
``b(h) = b0 - M h`` over its rows (equality rows first), and nothing else in
the LP moves with ``h``.  Its optimal value is then convex and piecewise
linear in ``h``.  In the sign convention of :mod:`riskdp.lp` (the value
grows by ``dual_eq`` per unit of an equality right-hand side and falls by
``dual_ineq >= 0`` per unit of an inequality one), a subgradient over the
history is

    ``pi = M^T [-dual_eq; mu]``

where ``mu`` is ``dual_ineq`` with the multipliers below :data:`MU_ZERO_TOL`
zeroed, so that only rows active at the solution contribute.  Multipliers of
the variable box never appear: the box does not move with the history.
"""

from __future__ import annotations

import numpy as np

from .lp import LpSolution, OPTIMAL

MU_ZERO_TOL = 1e-9   # inequality multipliers below this are treated as inactive


def assemble_pi(hist: np.ndarray, sol: LpSolution) -> np.ndarray:
    """``pi = hist^T [-dual_eq; mu]`` for an optimal ``sol`` of an LP whose rows map ``hist``."""
    if sol.status != OPTIMAL:
        raise ValueError(f"cannot assemble a subgradient from status {sol.status!r}")
    mu = sol.dual_ineq
    if sol.dual_eq.shape[0] + mu.shape[0] != hist.shape[0]:
        raise ValueError(f"the LP has {sol.dual_eq.shape[0]}+{mu.shape[0]} rows, "
                         f"its history map {hist.shape[0]}")
    y = np.concatenate([-sol.dual_eq, np.where(mu < MU_ZERO_TOL, 0.0, mu)])
    return hist.T.dot(y)
