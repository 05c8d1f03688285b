"""Tests for the problem data model and subproblem assembly."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from checks import evaluate_cost_and_history_subgradient, nodes_at_depth, validate_problem_by_loop
from conftest import (lattice_to_tree, make_newsvendor, make_newsvendor_tree,
                      random_lattice_instance)
from riskdp import model
from riskdp.risk import PROB_TOL, RiskSpec


def _payload(t, n, *, prob=1.0, pieces=None, a=None, b=None, g=None, h=None, lb=None, ub=None):
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


def test_evaluate_cost_single_piece():
    cost = model.PwlConvexCost([[1.0, 1.0]], [0.0], dim=1)
    value, sub = evaluate_cost_and_history_subgradient(cost, [2.0, 3.0])
    assert value == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(sub, [1.0])


def test_evaluate_cost_tie_breaks_lowest_index():
    cost = model.PwlConvexCost([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0], dim=1)
    value, sub = evaluate_cost_and_history_subgradient(cost, [0.0, 7.0])
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sub, [1.0])


def test_evaluate_cost_two_pieces():
    cost = model.PwlConvexCost([[2.0, 1.0], [0.0, 3.0]], [0.0, -1.0], dim=1)
    value, sub = evaluate_cost_and_history_subgradient(cost, [1.0, 1.0])
    assert value == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(sub, [2.0])


def test_cost_partial_subgradient_inequality():
    rng = np.random.default_rng(3)
    n, t = 2, 3
    cost = model.PwlConvexCost(rng.normal(size=(4, t * n)), rng.normal(size=4), dim=n)
    x = rng.normal(size=t * n)
    value, sub = evaluate_cost_and_history_subgradient(cost, x)
    for _ in range(100):
        xp = x.copy()
        xp[:(t - 1) * n] = rng.normal(size=(t - 1) * n)  # perturb the history block only
        vp, _ = evaluate_cost_and_history_subgradient(cost, xp)
        assert vp >= value + sub @ (xp[:(t - 1) * n] - x[:(t - 1) * n]) - 1e-9


def test_assemble_stage1():
    # A_{1,0} = 1, A_{1,1} = 1, b = 2, x0 = 0  ->  x_1 = 2
    pay = _payload(1, 1, a=[np.array([[1.0]]), np.array([[1.0]])], b=np.array([2.0]))
    prob = model.Problem(horizon=1, dim=1, x0=[0.0], stages=[model.Stage([pay])])
    sub = model.assemble_subproblem(prob, (1, 0))
    assert np.allclose(sub.a_cur, [[1.0]])
    # the equality row, the piece row
    assert np.allclose(sub.b0 - sub.hist @ np.zeros(0), [2.0, 0.0])
    assert sub.hist.shape == (2, 0)  # stage 1: an empty history, x_0 folded into b0


def test_assemble_stage2_history_folding():
    # t=2: A_{2,0}=0, A_{2,1}=I, A_{2,2}=I, b=(3): with x_1=(1) the equality is x_2 = 2
    pay = _payload(2, 1, a=[np.zeros((1, 1)), np.eye(1), np.eye(1)], b=np.array([3.0]))
    stage1 = model.Stage([_payload(1, 1)])
    prob = model.Problem(horizon=2, dim=1, x0=[0.0],
                         stages=[stage1, model.Stage([pay], risk=RiskSpec())],
                         lower_value_bound=[0.0])
    sub = model.assemble_subproblem(prob, (2, 0))
    assert np.allclose((sub.b0 - sub.hist @ [1.0])[:1], [2.0])
    assert np.allclose(sub.hist[:1], [[1.0]])  # the x_1 block


def test_assemble_constant_absorption():
    # cost piece c=(1,2), d=0 over (x_1, x_2), at x_1 = 5: piece becomes c'=(2), d'=5
    cost = model.PwlConvexCost([[1.0, 2.0]], [0.0], dim=1)
    pay = _payload(2, 1, pieces=cost)
    prob = model.Problem(horizon=2, dim=1, x0=[0.0],
                         stages=[model.Stage([_payload(1, 1)]), model.Stage([pay])],
                         lower_value_bound=[0.0])
    sub = model.assemble_subproblem(prob, (2, 0))
    assert np.allclose(sub.piece_cur, [[2.0]])
    # the piece row reads 2 x_2 - w <= -d' over the epigraph column w
    assert np.allclose(sub.b0 - sub.hist @ [5.0], [-5.0])
    assert np.allclose(sub.hist, [[1.0]])  # the x_1 block of the cost


def test_assemble_is_pure():
    pay = _payload(2, 2, a=[np.zeros((1, 2)), np.ones((1, 2)), np.eye(2)[:1]], b=np.array([3.0]))
    prob = model.Problem(horizon=2, dim=2, x0=[0.0, 0.0],
                         stages=[model.Stage([_payload(1, 2)]), model.Stage([pay])],
                         lower_value_bound=[0.0])
    s1 = model.assemble_subproblem(prob, (2, 0))
    s2 = model.assemble_subproblem(prob, (2, 0))
    assert s1.b0.tobytes() == s2.b0.tobytes()
    assert s1.hist.tobytes() == s2.hist.tobytes()


def test_assemble_feasible_set_convex_in_history():
    # affine data: if y_i is feasible for history h_i then the blend stays feasible
    rng = np.random.default_rng(11)
    pay = _payload(2, 1,
                   a=[np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]])],
                   b=np.array([2.0]), lb=np.array([-10.0]), ub=np.array([10.0]))
    prob = model.Problem(horizon=2, dim=1, x0=[0.0],
                         stages=[model.Stage([_payload(1, 1)]), model.Stage([pay])],
                         lower_value_bound=[0.0])
    sub = model.assemble_subproblem(prob, (2, 0))
    for _ in range(20):
        h1, h2 = rng.uniform(-3, 3, size=2)
        lam = rng.uniform()
        # the unique feasible x_2 values
        y1, y2 = [(sub.b0 - sub.hist @ [h])[0] for h in (h1, h2)]
        yb = lam * y1 + (1 - lam) * y2
        eq_rhs = (sub.b0 - sub.hist @ [lam * h1 + (1 - lam) * h2])[:1]
        assert np.allclose(sub.a_cur @ [yb], eq_rhs, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(t=st.integers(1, 3), n=st.integers(1, 3), q=st.integers(0, 2), r=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_fold_matches_the_block_formulas(t, n, q, r, seed):
    # a stage-t payload folded after x_0 and x_{1:k-1}, at every split point k, against
    # the block sums written out; q = 0 or r = 0 leaves that system missing
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(q, n)) for _ in range(t + 1)]
    g = rng.normal(size=(r, (t + 1) * n))
    cost = model.PwlConvexCost(rng.normal(size=(2, t * n)), rng.normal(size=2), dim=n)
    pay = _payload(t, n, pieces=cost, a=blocks if q else None, b=rng.normal(size=q),
                   g=g if r else None, h=rng.normal(size=r))
    x = rng.normal(size=(t + 1) * n)  # (x_0, ..., x_t)
    xs = np.split(x, t + 1)
    g_blocks = np.hsplit(g, t + 1)
    c_blocks = np.hsplit(cost.pieces_c, t)  # over x_1..x_t
    for k in range(1, t + 1):
        rows = pay.fold(x[:n], x[n:k * n])
        assert rows.a.shape == (q, (t + 1 - k) * n)
        assert rows.g.shape == (r, (t + 1 - k) * n)
        assert rows.pieces_c.shape == (2, (t + 1 - k) * n)
        assert np.array_equal(rows.a, np.hstack(blocks[k:]))
        assert np.array_equal(rows.g, np.hstack(g_blocks[k:]))
        assert np.array_equal(rows.pieces_c, np.hstack(c_blocks[k - 1:]))
        b = pay.b - sum((blocks[tau] @ xs[tau] for tau in range(k)), np.zeros(q))
        h = pay.h - sum((g_blocks[tau] @ xs[tau] for tau in range(k)), np.zeros(r))
        d = cost.pieces_d + sum((c_blocks[tau - 1] @ xs[tau] for tau in range(1, k)), np.zeros(2))
        assert np.allclose(rows.b, b, rtol=1e-12, atol=1e-12)
        assert np.allclose(rows.h, h, rtol=1e-12, atol=1e-12)
        assert np.allclose(rows.pieces_d, d, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("fields, message", [
    (dict(g=np.ones((1, 3))), "G has shape (1, 3), expected (0, 3)"),
    (dict(h=np.ones(1)), "G has shape (0, 0), expected (1, 3)"),
    (dict(a=[np.ones((1, 1))] * 3), "equality block 0 has shape (1, 1), expected (0, 1)"),
    (dict(b=np.ones(1)), "expected 3 equality blocks, found 0"),
    (dict(a=[np.ones((1, 1))] * 2, b=np.ones(1)), "expected 3 equality blocks, found 2"),
], ids=["G-without-h", "h-without-G", "A-without-b", "b-without-A", "block-count"])
def test_validate_reports_a_malformed_system(fields, message):
    bad = _payload(2, 1, **fields)
    prob = model.Problem(horizon=2, dim=1, x0=[0.0],
                         stages=[model.Stage([_payload(1, 1)]), model.Stage([bad])],
                         lower_value_bound=[0.0])
    assert f"stage 2 realization 0: {message}" in model.validate_problem(prob)


def test_validate_good_lattice():
    stage2 = model.Stage([_payload(2, 1, prob=0.5), _payload(2, 1, prob=0.5)],
                         risk=RiskSpec(kind="cvar", epsilon=0.5))
    prob = model.Problem(horizon=2, dim=1, x0=[0.0],
                         stages=[model.Stage([_payload(1, 1)]), stage2],
                         lower_value_bound=[0.0])
    assert model.validate_problem(prob) == []


def test_validate_bad_probabilities():
    stage2 = model.Stage([_payload(2, 1, prob=0.6), _payload(2, 1, prob=0.6)])
    prob = model.Problem(horizon=2, dim=1, x0=[0.0],
                         stages=[model.Stage([_payload(1, 1)]), stage2],
                         lower_value_bound=[0.0])
    assert any("sum != 1" in v for v in model.validate_problem(prob))


def test_validate_non_compact_box():
    bad = _payload(2, 1, ub=np.array([np.inf]))
    prob = model.Problem(horizon=2, dim=1, x0=[0.0],
                         stages=[model.Stage([_payload(1, 1)]), model.Stage([bad])],
                         lower_value_bound=[0.0])
    assert any("non-compact" in v for v in model.validate_problem(prob))


def test_validate_stage1_must_be_deterministic():
    s1 = model.Stage([_payload(1, 1, prob=0.5), _payload(1, 1, prob=0.5)])
    prob = model.Problem(horizon=1, dim=1, x0=[0.0], stages=[s1])
    assert any("stage 1: must have exactly one child" in v
               for v in model.validate_problem(prob))


def _lattice(*stages, horizon=None):
    """A lattice problem over ``stages`` (``horizon`` defaults to their count)."""
    horizon = len(stages) if horizon is None else horizon
    return model.Problem(horizon=horizon, dim=1, x0=[0.0], stages=list(stages),
                         lower_value_bound=[0.0] * (horizon - 1))


def _stage(t, probs=(1.0,), risk=None):
    return model.Stage([_payload(t, 1, prob=q) for q in probs], risk=risk or RiskSpec())


def _tree(*nodes, horizon=2):
    """A tree problem; each node is ``(id, parent, prob, depth)``, depth None for no payload."""
    return model.Problem(horizon=horizon, dim=1, x0=[0.0], form=model.TREE,
                         nodes=[model.Node(id=i, parent=up, prob=q,
                                           payload=None if d is None else _payload(d, 1))
                                for i, up, q, d in nodes],
                         lower_value_bound=[0.0] * (horizon - 1))


def _tiny_tree(*extra, horizon=2, kids=(0.5, 0.5), risk=None):
    """Root 0, stage-1 node 1, its children 2.. with probabilities ``kids``, then ``extra``."""
    prob = _tree((0, None, 1.0, None), (1, 0, 1.0, 1),
                 *[(2 + i, 1, q, 2) for i, q in enumerate(kids)], *extra, horizon=horizon)
    if risk is not None:
        prob.nodes[1].risk = risk
    return prob


def test_validate_good_tree():
    prob = _tiny_tree()
    assert model.validate_problem(prob) == []
    assert prob.topology.root == 0
    assert prob.children(1) == [2, 3]
    assert prob.depth(3) == 2
    assert nodes_at_depth(prob, 2) == [2, 3]


def test_validate_tree_errors():
    # leaf at the wrong depth
    nodes = [model.Node(id=0, parent=None),
             model.Node(id=1, parent=0, payload=_payload(1, 1)),
             model.Node(id=2, parent=1, prob=1.0, payload=_payload(2, 1)),
             model.Node(id=3, parent=2, prob=1.0, payload=_payload(3, 1))]
    prob = model.Problem(horizon=2, dim=1, x0=[0.0], form=model.TREE,
                         nodes=nodes, lower_value_bound=[0.0])
    assert any("beyond the horizon" in v for v in model.validate_problem(prob))
    # two roots
    nodes2 = [model.Node(id=0, parent=None), model.Node(id=1, parent=None)]
    prob2 = model.Problem(horizon=1, dim=1, x0=[0.0], form=model.TREE, nodes=nodes2)
    assert any("one root" in v for v in model.validate_problem(prob2))


BAD_CVAR = RiskSpec(kind="cvar", epsilon=1.5)


@pytest.mark.parametrize("make, parts", [
    (lambda: _lattice(_stage(1), _stage(2), horizon=3), ["expected 3 stages"]),
    (lambda: _lattice(_stage(1), _stage(2), _stage(3), horizon=2), ["expected 2 stages"]),
    (lambda: _lattice(_stage(1), model.Stage([])), ["stage 2:"]),
    (lambda: _lattice(model.Stage([]), _stage(2)), ["stage 1", "deterministic first stage"]),
    (lambda: _lattice(_stage(1), _stage(2, (1.5, -0.5))),
     ["stage 2:", "probabilities must be strictly positive"]),
    (lambda: _tiny_tree(kids=(1.5, -0.5)),
     ["node 1:", "probabilities must be strictly positive"]),
    (lambda: _lattice(_stage(1), _stage(2, (0.5, 0.5), BAD_CVAR)),
     ["stage 2:", "risk spec invalid", "epsilon"]),
    (lambda: _tiny_tree(risk=BAD_CVAR), ["node 1:", "risk spec invalid", "epsilon"]),
    (lambda: _tiny_tree((3, 1, 0.5, 2)), ["duplicate node ids"]),
    (lambda: _tree((1, 0, 1.0, 1), (2, 1, 1.0, 2)), ["exactly one root, found 0"]),
    (lambda: _tiny_tree((4, 9, 1.0, 2)), ["not a connected acyclic tree"]),
    (lambda: _tiny_tree((4, 5, 1.0, 2), (5, 4, 1.0, 2)), ["not a connected acyclic tree"]),
    (lambda: _tree((0, None, 1.0, None), (1, 0, 1.0, 1), (2, 1, 1.0, None)),
     ["node 2: missing payload"]),
    (lambda: _lattice(_stage(1), model.Stage([None])),
     ["stage 2 realization 0: missing payload"]),
    (lambda: _tiny_tree((4, 2, 1.0, 3), horizon=3), ["node 3: leaf at"]),
    (lambda: _lattice(_stage(1), horizon=0), ["horizon must be >= 1"]),
    (lambda: dataclasses.replace(_lattice(_stage(1)), dim=0), ["dim must be >= 1"]),
    (lambda: dataclasses.replace(_lattice(_stage(1), _stage(2)),
                                 lower_value_bound=np.array([np.nan])),
     ["lower_value_bound entries must be finite"]),
    (lambda: dataclasses.replace(_lattice(_stage(1)), form="ring"), ["unknown form 'ring'"]),
], ids=["lattice-too-few-stages", "lattice-too-many-stages", "lattice-empty-stage",
        "lattice-empty-stage-1", "lattice-non-positive-prob", "tree-non-positive-prob",
        "lattice-risk-set", "tree-risk-set", "duplicate-ids", "no-root", "disconnected",
        "cyclic", "missing-payload", "lattice-missing-payload", "leaf-before-horizon",
        "horizon-0", "dim-0", "non-finite-value-bound", "unknown-form"])
def test_validate_rejects_each_defect_on_both_forms(make, parts):
    violations = model.validate_problem(make())
    assert any(all(part in v for part in parts) for v in violations), violations


@pytest.mark.parametrize("make, message", [
    (lambda: model.history_vector([0.0, 1.0], 2, 1), "history must have 1 coordinates at stage 2"),
    (lambda: model.PwlConvexCost(np.zeros((0, 1)), np.zeros(0), dim=1),
     "cost needs at least one piece"),
    (lambda: model.PwlConvexCost(np.zeros((2, 1)), np.zeros(1), dim=1),
     "piece coefficient/offset counts differ"),
], ids=["history-length", "no-cost-piece", "piece-count"])
def test_model_inputs_of_the_wrong_shape_raise(make, message):
    with pytest.raises(model.ModelError, match=message):
        make()


def test_nan_probability_fails_both_checks_of_its_key():
    # nan <= 0 and |nan - 1| > tol are both False: written that way, both
    # checks let a NaN probability through
    violations = model.validate_problem(_tiny_tree(kids=(0.5, np.nan)))
    assert "node 1: probabilities must be strictly positive" in violations
    assert "node 1: probabilities sum != 1" in violations


POLYTOPE = RiskSpec(kind="polytope", rows=[(np.array([1.0, 0.0]), 2.0)])
EMPTY_POLYTOPE = RiskSpec(kind="polytope", rows=[(np.array([1.0, 0.0]), 0.5),
                                                 (np.array([0.0, 1.0]), 0.5)])


@pytest.mark.parametrize("risk", [None, BAD_CVAR, POLYTOPE, EMPTY_POLYTOPE],
                         ids=["expectation", "bad-cvar", "polytope", "empty-polytope"])
@pytest.mark.parametrize("excess", [0.0, 0.4, 0.6, -0.6, 1.5, -1.5])
def test_probabilities_near_the_tolerance_get_the_per_key_verdict(excess, risk):
    # the one-pass check passes a key only when its sum is within half of
    # PROB_TOL; between that and PROB_TOL, and whenever a spec fails, the
    # per-key checks word the messages
    p = _tiny_tree(kids=(0.5, 0.5 + excess * PROB_TOL), risk=risk)
    violations = model.validate_problem(p)
    assert violations == validate_problem_by_loop(p)
    assert ("node 1: probabilities sum != 1" in violations) == (abs(excess) > 1.0)
    invalid = risk in (BAD_CVAR, EMPTY_POLYTOPE) and abs(excess) <= 1.0
    assert any("node 1: risk spec invalid" in v for v in violations) == invalid


def _random_payload(rng, t, n, q, r, prob):
    pieces = model.PwlConvexCost(rng.normal(size=(2, t * n)), rng.normal(size=2), dim=n)
    return _payload(t, n, prob=prob, pieces=pieces,
                    a=[rng.normal(size=(q, n)) for _ in range(t + 1)] if q else None,
                    b=rng.normal(size=q) if q else None,
                    g=rng.normal(size=(r, (t + 1) * n)) if r else None,
                    h=rng.normal(size=r) if r else None,
                    lb=-rng.uniform(size=n), ub=rng.uniform(size=n))


def _random_problem(seed, tree, horizon=3, n=2):
    """A sound problem whose every position has a payload of its own.

    Stage 1 has one realization, later stages two equally likely ones;
    ``q`` equality and ``r`` inequality rows (zero included) per payload.
    """
    rng = np.random.default_rng(seed)
    q, r = (int(k) for k in rng.integers(0, 3, size=2))

    def make(t):
        return _random_payload(rng, t, n, q, r, 1.0 if t == 1 else 0.5)

    lvb = np.zeros(horizon - 1)
    if not tree:
        stages = [model.Stage([make(t) for _ in range(1 if t == 1 else 2)])
                  for t in range(1, horizon + 1)]
        return model.Problem(horizon=horizon, dim=n, x0=rng.normal(size=n), stages=stages,
                             lower_value_bound=lvb)
    nodes, frontier = [model.Node(id=0, parent=None)], [0]
    for t in range(1, horizon + 1):
        kids = []
        for parent in frontier:
            for _ in range(1 if t == 1 else 2):
                pay = make(t)
                nodes.append(model.Node(id=len(nodes), parent=parent, prob=pay.prob,
                                        payload=pay))
                kids.append(nodes[-1].id)
        frontier = kids
    return model.Problem(horizon=horizon, dim=n, x0=rng.normal(size=n), form=model.TREE,
                         nodes=nodes, lower_value_bound=lvb)


DEFECTS = ("none", "nan", "inf", "-inf", "shape", "box", "prob", "missing", "blocks")


def _plant(draw, p, defect):
    """Plant ``defect`` in one field of one payload of ``p`` (before its topology is built)."""
    tree = p.form == model.TREE
    if tree:
        node = draw(st.sampled_from([node for node in p.nodes if node.payload is not None]))
        pay = node.payload
    else:
        stage, j = draw(st.sampled_from([(stage, j) for stage in p.stages
                                         for j in range(len(stage.realizations))]))
        pay = stage.realizations[j]
    n = p.dim
    if defect == "missing":
        if tree:
            node.payload = None
        else:
            stage.realizations[j] = None
    elif defect == "prob":
        pay.prob = draw(st.sampled_from([0.0, -0.25, np.nan]))
        if tree:
            node.prob = pay.prob
    elif defect == "blocks":
        pay.a_blocks = draw(st.sampled_from([pay.a_blocks[:-1],
                                             pay.a_blocks + pay.a_blocks[-1:]]))
    elif defect == "box":
        i = draw(st.integers(0, n - 1))
        pay.lb = pay.lb.copy()
        pay.lb[i] = pay.ub[i] + 1.0
    elif defect == "shape":
        field = draw(st.sampled_from(["a", "pieces_c", "g", "b", "h", "lb", "ub"]))
        if field == "a":
            k = draw(st.integers(0, len(pay.a_blocks) - 1))
            pay.a_blocks[k] = np.zeros((pay.b.shape[0], n + 1))
        elif field in ("pieces_c", "g"):
            owner = pay.cost if field == "pieces_c" else pay
            arr = getattr(owner, field)
            setattr(owner, field, np.hstack([arr, np.zeros((arr.shape[0], 1))]))
        else:
            setattr(pay, field, np.append(getattr(pay, field), 0.0))
    else:  # a non-finite entry
        fields = [(pay, "a_blocks", k) for k, blk in enumerate(pay.a_blocks) if blk.size]
        fields += [(owner, name, None) for owner, name in
                   ((pay.cost, "pieces_c"), (pay.cost, "pieces_d"), (pay, "g"), (pay, "b"),
                    (pay, "h"), (pay, "lb"), (pay, "ub")) if getattr(owner, name).size]
        owner, name, k = draw(st.sampled_from(fields))
        arr = (getattr(owner, name) if k is None else getattr(owner, name)[k]).copy()
        arr.flat[draw(st.integers(0, arr.size - 1))] = {"nan": np.nan, "inf": np.inf,
                                                          "-inf": -np.inf}[defect]
        if k is None:
            setattr(owner, name, arr)
        else:
            getattr(owner, name)[k] = arr


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_validation_matches_the_per_payload_loop(data):
    tree = data.draw(st.booleans())
    p = _random_problem(data.draw(st.integers(0, 10_000)), tree)
    defect = data.draw(st.sampled_from(DEFECTS))
    if defect != "none":
        _plant(data.draw, p, defect)
    want = validate_problem_by_loop(p)
    assert model.validate_problem(p) == want
    assert (want == []) == (defect == "none"), (defect, want)


def test_z_lower_indexing():
    prob = model.Problem(horizon=3, dim=1, x0=[0.0], stages=[], lower_value_bound=[-5.0, -2.0])
    assert prob.z_lower(1) == -5.0   # bound on the stage-2 recourse
    assert prob.z_lower(2) == -2.0
    assert prob.z_lower(3) == 0.0    # beyond the horizon


# ---------------------------------------------------------------------------
# the topology's scenario-tree walk and risk specs
# ---------------------------------------------------------------------------

def test_scenario_walk_of_a_lattice_is_the_order_of_its_tree():
    # breadth first, children in rank order: the walk meets a lattice's paths
    # in the order lattice_to_tree numbers its nodes, and walks that tree alike
    lattice = random_lattice_instance(np.random.default_rng(3), 4, 3, 2)
    tree = lattice_to_tree(lattice)
    paths, nodes = lattice.topology.scenarios(), tree.topology.scenarios()
    assert len(paths) == len(nodes) == len(tree.nodes) - 1 == 1 + 3 + 9 + 27
    for i, (path, node) in enumerate(zip(paths, nodes), start=1):
        assert (path.key, path.parent, path.depth) == (node.key, node.parent, node.depth)
        assert node.where == i and tree.depth(i) == node.depth == path.where[0]
        assert tree.node(i).payload is lattice.topology.payload(path.where)
        assert path.key[-1] == path.where[1] and len(path.key) == path.depth


def test_scenario_walk_starts_at_any_position():
    lattice = random_lattice_instance(np.random.default_rng(3), 3, 2, 1)
    below = lattice.topology.scenarios((2, 1))
    assert [(s.key, s.parent, s.where) for s in below] == [
        ((0,), (), (2, 1)), ((0, 0), (0,), (3, 0)), ((0, 1), (0,), (3, 1))]
    tree = lattice_to_tree(lattice)
    assert [s.where for s in tree.topology.scenarios(3)] == [3, 6, 7]


@pytest.mark.parametrize("make", [make_newsvendor, make_newsvendor_tree],
                         ids=["lattice", "tree"])
def test_every_key_has_a_risk_spec(make):
    # a terminal key's spec is the default expectation on both forms, as
    # lattice_to_tree gives its leaves; an inner key's is its stage's or node's
    spec = RiskSpec(kind="cvar", epsilon=0.5)
    topo = make(spec).topology
    inner = [key for key in topo.keys if not topo.terminal(key)]
    terminal = [key for key in topo.keys if topo.terminal(key)]
    assert len(inner) == 1 and len(terminal) == (1 if topo.root == 1 else 2)
    assert topo.risk(inner[0]) is spec
    assert all(topo.risk(key) == RiskSpec() for key in terminal)
