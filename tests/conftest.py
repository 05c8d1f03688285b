"""Shared instance builders for the test suite.

Hand instances mirror the worked examples used across the unit tests.  The
random lattice generator is certified by interval arithmetic: every stage
system stays solvable at every history in the box product (so the plain
sampled driver never meets an infeasible subproblem), and the shipped
``lower_value_bound`` entries are sums of per-stage piece minima over the
full history box, which bound the recourse below for every risk measure in
the family (all of them dominate the essential infimum).
"""

import numpy as np

from riskdp import model
from riskdp.risk import RiskSpec


def payload(t, n, *, prob=1.0, pieces=None, a=None, b=None, g=None, h=None,
            lb=None, ub=None):
    if pieces is None:
        pieces = model.PwlConvexCost(np.zeros((1, t * n)), np.zeros(1), dim=n)
    return model.Realization(
        prob=prob, cost=pieces,
        a_blocks=a if a is not None else [],
        b=b if b is not None else np.zeros(0),
        g=g if g is not None else np.zeros((0, 0)),
        h=h if h is not None else np.zeros(0),
        lb=lb if lb is not None else np.zeros(n),
        ub=ub if ub is not None else np.ones(n))


def linear_cost(t, coeffs):
    c = np.zeros(t)
    c[-len(coeffs):] = coeffs
    return model.PwlConvexCost(c.reshape(1, -1), np.zeros(1), dim=1)


def stage1(cost=1.0, ub=2.0):
    return model.Stage([payload(1, 1, pieces=linear_cost(1, [cost]),
                                ub=np.array([ub]))])


def make_newsvendor(risk=None):
    """min_x x + rho[(d - x)+] with d in {1, 2} equally likely; EV optimum 1.5."""
    second = [payload(2, 1, prob=0.5, pieces=linear_cost(2, [1.0]),
                      g=np.array([[0.0, -1.0, -1.0]]), h=np.array([-d]),
                      lb=np.zeros(1), ub=np.array([10.0]))
              for d in (1.0, 2.0)]
    return model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                         stages=[stage1(), model.Stage(second, risk=risk or RiskSpec())],
                         lower_value_bound=np.array([0.0]))


def make_newsvendor_tree(risk=None):
    """The same instance in tree form: synthetic root, one stage-1 node, two leaves."""
    risk = risk or RiskSpec()
    nodes = [model.Node(id=0, parent=None),
             model.Node(id=1, parent=0, prob=1.0,
                        payload=payload(1, 1, pieces=linear_cost(1, [1.0]),
                                        ub=np.array([2.0])),
                        risk=risk)]
    for nid, d in ((2, 1.0), (3, 2.0)):
        nodes.append(model.Node(
            id=nid, parent=1, prob=0.5,
            payload=payload(2, 1, prob=0.5, pieces=linear_cost(2, [1.0]),
                            g=np.array([[0.0, -1.0, -1.0]]), h=np.array([-d]),
                            lb=np.zeros(1), ub=np.array([10.0]))))
    return model.Problem(horizon=2, dim=1, x0=np.zeros(1), form=model.TREE,
                         nodes=nodes, lower_value_bound=np.array([0.0]))


def make_feasibility_instance(stage1_ub=2.0):
    """x1 + x2 = 1.5 with x2 in [0, 0.5]: forces the cut x1 >= 1; optimum 1.5."""
    second = model.Stage([payload(
        2, 1, pieces=linear_cost(2, [1.0]),
        a=[np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]])],
        b=np.array([1.5]), lb=np.zeros(1), ub=np.array([0.5]))])
    return model.Problem(horizon=2, dim=1, x0=np.zeros(1),
                         stages=[stage1(ub=stage1_ub), second],
                         lower_value_bound=np.array([0.0]))


def make_chain_instance(stage1_ub=2.0):
    """Two chained equalities that force x1 >= 1.5 through two backtracks.

    With ``stage1_ub < 1.5`` the instance is infeasible.
    """
    second = model.Stage([payload(
        2, 1, pieces=linear_cost(2, [0.1]),
        a=[np.zeros((1, 1)), np.array([[-1.0]]), np.array([[1.0]])],
        b=np.zeros(1), lb=np.zeros(1), ub=np.array([2.0]))])
    third = model.Stage([payload(
        3, 1, pieces=linear_cost(3, [1.0]),
        a=[np.zeros((1, 1)), np.zeros((1, 1)), np.array([[-1.0]]), np.array([[1.0]])],
        b=np.array([-1.5]), lb=np.zeros(1), ub=np.array([0.5]))])
    return model.Problem(horizon=3, dim=1, x0=np.zeros(1),
                         stages=[stage1(ub=stage1_ub), second, third],
                         lower_value_bound=np.array([0.0, 0.0]))


def make_cvar_without_complete_recourse(stage2_ub=2.0):
    """A CVaR instance whose stage-3 system ``x2 + x3 = 2``, ``x3 in [0, 1]``
    is infeasible for ``x2 < 1``: stage 2 must pick ``x2 >= 1``.

    Stage 2 costs ``x2``; the two stage-3 realizations cost ``x3`` and
    ``3 x3`` under ``cvar:0.5``.  With ``stage2_ub = 2`` every stage-1
    decision has a feasible tail of value 2 (``x2 = 2``, ``x3 = 0``); with
    ``stage2_ub < 1`` no history has one.
    """
    second = model.Stage([payload(2, 1, pieces=linear_cost(2, [1.0]),
                                  lb=np.zeros(1), ub=np.array([stage2_ub]))])
    third = model.Stage(
        [payload(3, 1, prob=0.5, pieces=linear_cost(3, [c]),
                 a=[np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1))],
                 b=np.array([2.0]), lb=np.zeros(1), ub=np.ones(1))
         for c in (1.0, 3.0)],
        risk=RiskSpec(kind="cvar", epsilon=0.5))
    return model.Problem(horizon=3, dim=1, x0=np.zeros(1),
                         stages=[stage1(), second, third],
                         lower_value_bound=np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# certified random lattice instances
# ---------------------------------------------------------------------------

def _min_linear_over_box(c, lo, hi):
    """min over the box of ``c . x`` by interval arithmetic."""
    return float(np.sum(np.minimum(c * lo, c * hi)))


def random_lattice_instance(rng, horizon, branching, dim, risk=None,
                            max_pieces=3):
    """A random instance with interval-certified recourse and value bounds.

    Every stage ``t >= 2`` carries per-realization demand rows
    ``x_{t,0} + x_{t-1,0} >= d`` with ``d`` small enough to be coverable by
    the current box alone, and (for ``dim >= 2``) one equality
    ``x_{t,1} - alpha x_{t-1,0} = b`` whose right-hand side interval keeps a
    solution strictly inside the box for every feasible history.  Costs are
    random convex piecewise-linear functions, some pieces with a small
    history coefficient.
    """
    n = dim
    risk = risk or RiskSpec()
    boxes = []  # one (lb, ub) per stage, shared by that stage's realizations
    ub1 = rng.uniform(1.0, 2.0, n)
    boxes.append((np.zeros(n), ub1))
    for _ in range(2, horizon + 1):
        boxes.append((np.zeros(n), rng.uniform(2.0, 4.0, n)))

    def _cost(t):
        n_pieces = int(rng.integers(1, max_pieces + 1))
        cs, ds = [], []
        for i in range(n_pieces):
            c = np.zeros(t * n)
            if i == 0:
                c[(t - 1) * n:] = rng.uniform(0.05, 1.0, n)
            else:
                c[(t - 1) * n:] = rng.uniform(-0.3, 1.0, n)
                if t >= 2:
                    c[int(rng.integers(0, (t - 1) * n))] = rng.uniform(-0.2, 0.2)
            cs.append(c)
            ds.append(rng.uniform(-0.3, 0.3))
        return model.PwlConvexCost(np.asarray(cs), np.asarray(ds), dim=n)

    stages = [model.Stage([model.Realization(
        prob=1.0, cost=_cost(1), a_blocks=[], b=np.zeros(0),
        g=np.zeros((0, 0)), h=np.zeros(0), lb=boxes[0][0], ub=boxes[0][1])])]
    stage_min = [None]  # per-stage certified minimum of the stage cost
    hist_lo, hist_hi = boxes[0][0].copy(), boxes[0][1].copy()
    for t in range(2, horizon + 1):
        lb_t, ub_t = boxes[t - 1]
        u_prev0 = boxes[t - 2][1][0]
        weights = rng.uniform(0.2, 1.0, branching)
        probs = weights / weights.sum()
        reals = []
        mins = []
        for j in range(branching):
            cost = _cost(t)
            g_rows, h_vals = [], []
            d_j = rng.uniform(0.2, 1.5)
            row = np.zeros((t + 1) * n)
            row[t * n] = -1.0
            row[(t - 1) * n] = -1.0
            g_rows.append(row)
            h_vals.append(-d_j)
            a_blocks, b_vals = [], []
            if n >= 2:
                alpha = rng.uniform(-0.15, 0.15)
                lo_shift = min(0.0, alpha * u_prev0)
                hi_shift = max(0.0, alpha * u_prev0)
                b_j = rng.uniform(-lo_shift + 0.05, ub_t[1] - hi_shift - 0.05)
                a_blocks = [np.zeros((1, n)) for _ in range(t + 1)]
                a_blocks[t - 1] = a_blocks[t - 1].copy()
                a_blocks[t - 1][0, 0] = -alpha
                a_blocks[t] = a_blocks[t].copy()
                a_blocks[t][0, 1] = 1.0
                b_vals = [b_j]
            reals.append(model.Realization(
                prob=float(probs[j]), cost=cost,
                a_blocks=a_blocks, b=np.asarray(b_vals),
                g=np.asarray(g_rows), h=np.asarray(h_vals),
                lb=lb_t, ub=ub_t))
            full_lo = np.concatenate([hist_lo, lb_t])
            full_hi = np.concatenate([hist_hi, ub_t])
            mins.append(min(_min_linear_over_box(c, full_lo, full_hi) + d
                            for c, d in zip(cost.pieces_c, cost.pieces_d)))
        stages.append(model.Stage(reals, risk=risk))
        stage_min.append(min(mins))
        hist_lo = np.concatenate([hist_lo, lb_t])
        hist_hi = np.concatenate([hist_hi, ub_t])
    lvb = np.array([sum(stage_min[t - 1] for t in range(s, horizon + 1))
                    for s in range(2, horizon + 1)])
    return model.Problem(horizon=horizon, dim=n, x0=np.zeros(n),
                         stages=stages, lower_value_bound=lvb)


def lattice_to_tree(p):
    """Expand a lattice problem into the equivalent explicit tree.

    Every depth-``t`` node receives the full stage-``t+1`` realization set as
    children, node risks copy the stage risks, and a synthetic root anchors
    the single stage-1 node, so the tree describes the exact same process.
    """
    nodes = [model.Node(id=0, parent=None)]
    next_id = 1
    frontier = [0]
    for t in range(1, p.horizon + 1):
        stage = p.stages[t - 1]
        risk = p.stages[t].risk if t < p.horizon else RiskSpec()
        new_frontier = []
        for parent in frontier:
            for r in stage.realizations:
                nodes.append(model.Node(id=next_id, parent=parent, prob=r.prob,
                                        payload=r, risk=risk))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return model.Problem(horizon=p.horizon, dim=p.dim, x0=p.x0, form=model.TREE,
                         nodes=nodes, lower_value_bound=p.lower_value_bound)
