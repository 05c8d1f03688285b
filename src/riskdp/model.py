"""Problem data model: multistage stochastic LPs on lattices and trees.

A problem has ``T`` decision stages with decision vectors of dimension ``n``.
Stage-t data (one entry per realization of the stage-t noise) consists of

* a piecewise-linear convex cost over the concatenated decisions ``x_{1:t}``
  (max of affine pieces),
* an equality system ``sum_{tau=0..t} A_tau x_tau = b`` linking the current
  decision to the fixed initial vector ``x_0`` and the decision history,
* optional affine inequalities ``G . (x_0, x_1, ..., x_t) <= h``,
* a compact per-coordinate box for ``x_t``.

Two layouts are supported: ``lattice`` (interstage independent — every stage-t
node sees the same realization list) and ``tree`` (general finite scenario
tree with per-node data; the root holds ``x_0`` and has the single
deterministic stage-1 node as its only child).

The history before stage t is the decisions ``x_{1:t-1}`` (empty at stage
1), of length ``(t-1) * n``: the same vector as a cut's argument and anchor.
The initial vector ``x_0`` is fixed data.  A payload's rows are stored over
``x_{0:t}`` as the file gives them (cost pieces over ``x_{1:t}``, ``G`` and
the ``A`` blocks over ``x_{0:t}``), and :func:`fold_rows` is the one place
that reads the ``x_0`` block: it folds ``A_0 x_0`` and ``G_0 x_0`` into the
constant right-hand sides once, and keeps the rest of the history as a
parameter.  A payload without equality or inequality rows holds that
system with zero rows, so every payload has one layout.  The stage
subproblems (:func:`assemble_subproblem`, through
:meth:`Realization.fold_map`) and the oracle's extensive forms (on the
stacked rows of the payloads of one stage) read their right-hand sides off
that map as affine maps ``b0 - M h`` of the history ``h``, and
:meth:`Realization.fold` evaluates it at one history.

Risk attachment conventions (documented in the README): in lattice form the
stage-s risk spec governs how stage-s realization values are aggregated when
seen from stage s-1 (stage 1's spec is unused — the first stage is
deterministic); in tree form a node's risk spec governs how its *children*
are aggregated (leaf specs are unused).

Everything downstream of the file format sees a problem through its
:class:`Topology` (the policy-graph view): *positions* address stage
subproblems, *pool keys* name cost-to-go approximations.  A pool key is a
stage on a lattice (all nodes of a stage share one cost-to-go) and a node on
a tree (every node has its own).  :meth:`Topology.scenarios` is the one walk
of the scenario tree, a lattice's expanded into its paths, for the oracle's
exact references.  :func:`validate_problem` walks that view too, so the form
itself is read only by parsing, the :class:`Topology` constructor, the
algorithm/form check and the oracle's tails, which are trees on both forms.

Every problem is validated on each load and again by each run, so
:func:`validate_problem` checks all payloads in one array pass and the
probabilities of all pool keys in one pass over Python floats, and reads a
payload or a key on its own only to word the messages of a fault.  The
payload constructors convert each field to its own float array; the file
reader (:mod:`riskdp.io`) hands them a document's lists and checks the
entry types of all of them in one pass of its own.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .risk import PROB_TOL, RiskConfigError, RiskSpec, validate_risk_set

logger = logging.getLogger(__name__)

LATTICE = "lattice"
TREE = "tree"


class ModelError(ValueError):
    """Structural problem-data error raised by assembly helpers."""


def _matrix(a) -> np.ndarray:
    """``a`` as a float array of at least two dimensions, converted once."""
    a = np.asarray(a, dtype=float)
    return a if a.ndim >= 2 else a.reshape(1, -1)


def _vector(v) -> np.ndarray:
    """``v`` as a flat float vector, converted once."""
    v = np.asarray(v, dtype=float)
    return v if v.ndim == 1 else v.reshape(-1)


@dataclass
class PwlConvexCost:
    """Max-of-affine cost ``max_i <c_i, x_{1:t}> + d_i``.

    ``dim`` is the per-stage decision dimension ``n`` (needed to split the
    coefficient vectors into history and current blocks).
    """

    pieces_c: np.ndarray   # (P, t*n)
    pieces_d: np.ndarray   # (P,)
    dim: int

    def __post_init__(self) -> None:
        self.pieces_c = _matrix(self.pieces_c)
        self.pieces_d = _vector(self.pieces_d)
        if self.pieces_c.shape[0] == 0:
            raise ModelError("cost needs at least one piece")
        if self.pieces_c.shape[0] != self.pieces_d.shape[0]:
            raise ModelError("piece coefficient/offset counts differ")

    @property
    def n_pieces(self) -> int:
        return self.pieces_c.shape[0]


class Folded(NamedTuple):
    """A payload's rows over the decisions after a history (folded into b, h and pieces_d)."""

    a: np.ndarray         # (q, m) equality rows
    b: np.ndarray         # (q,)
    g: np.ndarray         # (r, m) inequality rows
    h: np.ndarray         # (r,)
    pieces_c: np.ndarray  # (P, m) cost-piece rows
    pieces_d: np.ndarray  # (P,)


class FoldMap(NamedTuple):
    """A payload's rows after ``x_0`` and a ``k``-entry history ``x``, as affine maps of ``x``.

    ``rows`` holds the rows at a zero history, ``x_0`` folded in; at ``x``
    the right-hand sides are ``b - b_hist @ x`` and ``h - h_hist @ x``, and
    the piece offsets ``pieces_d + d_hist @ x``.
    """

    rows: Folded
    b_hist: np.ndarray    # (q, k)
    h_hist: np.ndarray    # (r, k)
    d_hist: np.ndarray    # (P, k)


def fold_rows(a: np.ndarray, b: np.ndarray, g: np.ndarray, h: np.ndarray, pieces_c: np.ndarray,
              pieces_d: np.ndarray, x0: np.ndarray, k: int) -> FoldMap:
    """Payload rows after ``x0`` and a ``k``-entry history, as affine maps of the history.

    The one history fold and the one reader of the ``x_0`` block: ``a`` and
    ``g`` are rows over ``x_{0:t}``, ``pieces_c`` over ``x_{1:t}``; ``A_0
    x0`` and ``G_0 x0`` enter the constant right-hand sides, and the next
    ``k`` columns become the history maps.  The rows may be one payload's
    (:meth:`Realization.fold_map`) or the stacked rows of several payloads
    of one stage (the oracle's nested-risk models).
    """
    n = x0.shape[0]
    return FoldMap(Folded(a=a[:, n + k:], b=b - a[:, :n] @ x0, g=g[:, n + k:],
                          h=h - g[:, :n] @ x0, pieces_c=pieces_c[:, k:], pieces_d=pieces_d),
                   b_hist=a[:, n:n + k], h_hist=g[:, n:n + k], d_hist=pieces_c[:, :k])


@dataclass
class Realization:
    """One stage-t realization (or tree-node) payload.

    A missing system is stored empty: with no equality system ``a_blocks``
    is ``t+1`` blocks of shape ``(0, n)``, with no inequality system ``g``
    has shape ``(0, (t+1)*n)`` (``t`` read off the cost pieces' width).
    Every other shape is kept as given, for :meth:`violations` to report.
    """

    prob: float
    cost: PwlConvexCost
    a_blocks: list[np.ndarray]          # t+1 matrices, each (q, n); index 0 is the x_0 block
    b: np.ndarray                       # (q,)
    g: np.ndarray                       # (r, (t+1)*n) including the x_0 block
    h: np.ndarray                       # (r,)
    lb: np.ndarray                      # (n,)
    ub: np.ndarray                      # (n,)

    def __post_init__(self) -> None:
        n = self.cost.dim
        width = self.cost.pieces_c.shape[1] + n  # columns over x_{0:t}
        # a block with no rows (``[]`` in a file) spans the n columns of its decision
        self.a_blocks = [_matrix(a) if len(a) else np.zeros((0, n)) for a in self.a_blocks]
        self.lb, self.ub = _vector(self.lb), _vector(self.ub)
        self.b, self.h = _vector(self.b), _vector(self.h)
        if not self.a_blocks and not self.b.size:  # no equality system
            self.a_blocks = [np.zeros((0, n)) for _ in range(width // max(n, 1))]
        g = np.asarray(self.g, dtype=float)
        if not g.size:  # no G and no h: no inequality system
            g = np.zeros((0, 0 if self.h.size else width))
        self.g = g if g.ndim >= 2 else g.reshape(1, -1)

    def fold_map(self, x0: np.ndarray, k: int) -> FoldMap:
        """The rows over the decisions after ``x0`` and a ``k``-entry history, affine in it.

        :func:`fold_rows` of this payload's rows: the stage subproblems
        (:func:`assemble_subproblem`) keep the history ``x_{1:s}`` as a
        parameter through it, and :meth:`fold` evaluates it at one history.
        """
        return fold_rows(np.hstack(self.a_blocks), self.b, self.g, self.h,
                         self.cost.pieces_c, self.cost.pieces_d, x0, k)

    def fold(self, x0: np.ndarray, history: np.ndarray) -> Folded:
        """The rows over the decisions after ``x0`` and ``history = (x_1, ..., x_s)``."""
        rows, b_hist, h_hist, d_hist = self.fold_map(x0, history.shape[0])
        return Folded(rows.a, rows.b - b_hist @ history, rows.g, rows.h - h_hist @ history,
                      rows.pieces_c, rows.pieces_d + d_hist @ history)

    def violations(self, t: int, n: int, where: str) -> list[str]:
        out = []
        q = self.b.shape[0]
        if len(self.a_blocks) != t + 1:
            out.append(f"{where}: expected {t + 1} equality blocks, found {len(self.a_blocks)}")
        else:
            misshaped = [tau for tau, a in enumerate(self.a_blocks) if a.shape != (q, n)]
            for tau in misshaped:
                out.append(f"{where}: equality block {tau} has shape "
                           f"{self.a_blocks[tau].shape}, expected {(q, n)}")
            if not (misshaped or np.isfinite(np.hstack(self.a_blocks)).all()):
                out.append(f"{where}: equality blocks contain non-finite entries")
        if self.cost.dim != n or self.cost.pieces_c.shape[1:] != (t * n,):
            out.append(f"{where}: cost pieces must have {t * n} coordinates")
        if not (np.isfinite(self.cost.pieces_c).all() and np.isfinite(self.cost.pieces_d).all()):
            out.append(f"{where}: cost pieces contain non-finite entries")
        r = self.h.shape[0]
        if self.g.shape != (r, (t + 1) * n):
            out.append(f"{where}: G has shape {self.g.shape}, expected {(r, (t + 1) * n)}")
        if not np.isfinite(self.g).all():
            out.append(f"{where}: G contains non-finite entries")
        if self.lb.shape[0] != n or self.ub.shape[0] != n:
            out.append(f"{where}: box must have {n} coordinates")
        elif not (np.isfinite(self.lb).all() and np.isfinite(self.ub).all()):
            out.append(f"{where}: non-compact decision set (box must be finite)")
        elif (self.lb > self.ub).any():
            out.append(f"{where}: box lower exceeds upper")
        if not (np.isfinite(self.b).all() and np.isfinite(self.h).all()):
            out.append(f"{where}: right-hand sides must be finite")
        if not (self.prob > 0.0):
            out.append(f"{where}: probability must be strictly positive")
        return out


@dataclass
class Stage:
    """Lattice stage: shared realization list plus the stage's risk spec."""

    realizations: list[Realization]
    risk: RiskSpec = field(default_factory=RiskSpec)


@dataclass
class Node:
    """Tree node; ``payload`` is None only for the root (which holds no decision)."""

    id: int
    parent: int | None
    prob: float = 1.0
    payload: Realization | None = None
    risk: RiskSpec = field(default_factory=RiskSpec)


@dataclass
class Problem:
    """A validated multistage problem (see module docstring for conventions)."""

    horizon: int
    dim: int
    x0: np.ndarray
    form: str = LATTICE
    stages: list[Stage] = field(default_factory=list)
    nodes: list[Node] = field(default_factory=list)
    lower_value_bound: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        self.lower_value_bound = np.asarray(self.lower_value_bound, dtype=float).reshape(-1)

    @cached_property
    def topology(self) -> Topology:
        """Positions and pool keys of this problem, built on first use.

        The stage, realization and node lists must not be replaced after
        that; edits to their fields are seen.
        """
        return Topology(self)

    # -- tree index (tree form) --------------------------------------------

    def node(self, node_id: int) -> Node:
        return self.topology.by_id[node_id]

    def children(self, node_id: int) -> list[int]:
        return self.topology.children(node_id)

    def depth(self, node_id: int) -> int:
        return self.topology.depth[node_id]

    def z_lower(self, t: int) -> float:
        """Certified lower bound on the stage-(t+1) recourse value (0 past the horizon)."""
        if t >= self.horizon:
            return 0.0
        return float(self.lower_value_bound[t - 1])


class ScenarioNode(NamedTuple):
    """One node of the scenario tree: a path of positions from the walk's start."""

    key: tuple    # child ranks along the path; the start's node is (0,)
    parent: tuple  # the parent node's key; () above the start
    where: object  # the position the path ends at
    depth: int     # its stage


class Topology:
    """Positions and cut pools of one problem: its policy-graph view.

    A *position* addresses one stage subproblem: ``(t, j)`` (stage ``t``,
    realization ``j``) on a lattice, a node id on a tree.  A *pool key* names
    one cost-to-go approximation.  The pool with key ``k`` aggregates its
    child positions under its risk spec, and its cut rows enter the
    subproblems of the positions it is the pool of:

    * lattice: key ``t`` aggregates the stage-``t`` realizations and its rows
      enter every stage-``(t-1)`` subproblem; key ``T+1`` is terminal;
    * tree: key ``m`` aggregates node ``m``'s children and its rows enter
      node ``m``'s own subproblem; leaf keys are terminal.

    A terminal key aggregates nothing: the value past the horizon is 0,
    which :meth:`Problem.z_lower` states.

    The root key (``1`` on a lattice, the synthetic root node on a tree)
    aggregates the single stage-1 position and owns no pool.  Every key has
    a risk spec; a terminal one's is unused (the default expectation on a
    lattice).  :meth:`scenarios` walks the scenario tree these positions
    span: a tree's own nodes, a lattice's paths.

    Only structure is stored: probabilities, risk specs and payloads are read
    from the problem's own realization, stage and node objects on every call,
    so edits to those fields after construction are seen.
    """

    def __init__(self, p: Problem):
        self.dim = p.dim
        self._stage: dict = {}    # position -> stage
        self._item: dict = {}     # position -> the object holding its ``prob``
        self._payload: dict = {}  # position -> its Realization
        self._pool: dict = {}     # position -> key of the pool its subproblem reads
        self._kids: dict = {}     # key -> child positions
        self._risk_of: dict = {}  # key -> the object holding its ``risk``
        self.defects: list[str] = []  # why a node list is not one rooted tree
        if p.form == TREE:
            self._index_tree(p.nodes)
        else:
            self._index_lattice(p.stages)
        self._parent = {w: key for key, kids in self._kids.items() for w in kids}
        self._holders: dict = {}  # key -> positions whose subproblems read it
        for w, key in self._pool.items():
            self._holders.setdefault(key, []).append(w)
        self.keys = list(self._holders)
        self.positions = list(self._pool)

    def _index_lattice(self, stages: list[Stage]) -> None:
        self.root = 1
        self._noun = "stage"
        for t, stage in enumerate(stages, start=1):
            self._risk_of[t] = stage
            self._kids[t] = []
            for j, real in enumerate(stage.realizations):
                self._kids[t].append((t, j))
                self._stage[t, j] = t
                self._item[t, j] = self._payload[t, j] = real
                self._pool[t, j] = t + 1
        self._kids[len(stages) + 1] = []
        self._risk_of[len(stages) + 1] = Stage([])  # the terminal key: the default spec

    def _index_tree(self, nodes: list[Node]) -> None:
        self._noun = "node"
        self.by_id = {node.id: node for node in nodes}
        self._kids = {node.id: [] for node in nodes}
        roots = [node.id for node in nodes if node.parent is None]
        for node in nodes:
            if node.parent in self._kids:
                self._kids[node.parent].append(node.id)
        self.root = roots[0] if roots else None
        self.depth: dict[int, int] = {}
        if len(self.by_id) != len(nodes):
            self.defects.append("duplicate node ids")
        elif len(roots) != 1:
            self.defects.append(f"expected exactly one root, found {len(roots)}")
        else:  # distinct ids and one parent each: every node is met at most once
            frontier = [(self.root, 0)]
            while frontier:
                nid, d = frontier.pop()
                self.depth[nid] = d
                frontier.extend((c, d + 1) for c in self._kids[nid])
            if len(self.depth) != len(nodes):
                self.defects.append("node set is not a connected acyclic tree")
        for node in nodes:
            self._risk_of[node.id] = node
            if node.parent is not None and node.id in self.depth:
                self._stage[node.id] = self.depth[node.id]
                self._item[node.id] = node
                self._payload[node.id] = node.payload
                self._pool[node.id] = node.id

    def label(self, x) -> str:
        """A position or pool key as messages name it (``stage 2 realization 0``, ``node 5``)."""
        if isinstance(x, tuple):
            return f"stage {x[0]} realization {x[1]}"
        return f"{self._noun} {x}"

    # -- positions ---------------------------------------------------------

    @property
    def first(self):
        """The stage-1 position."""
        return self._kids[self.root][0]

    def stage(self, where) -> int:
        return self._stage[where]

    def payload(self, where) -> Realization:
        return self._payload[where]

    def pool(self, where):
        """Key of the pool whose cut rows enter the subproblem at ``where``."""
        return self._pool[where]

    def parent(self, where):
        """Key of the pool that aggregates ``where`` (the root key at stage 1)."""
        return self._parent[where]

    def scenarios(self, where=None) -> list[ScenarioNode]:
        """Every scenario-tree node below ``where`` (default stage 1), breadth first.

        A lattice expands into its paths: a stage-``t`` position is met once
        per path into it.  The first node is ``where``'s own.
        """
        where = self.first if where is None else where
        nodes = [ScenarioNode(key=(0,), parent=(), where=where, depth=self._stage[where])]
        for node in nodes:  # grows while iterated: children follow their parents
            for j, kid in enumerate(self._kids[self._pool[node.where]]):
                nodes.append(ScenarioNode(key=node.key + (j,), parent=node.key, where=kid,
                                          depth=node.depth + 1))
        return nodes

    # -- pool keys ---------------------------------------------------------

    def children(self, key) -> list:
        return self._kids[key]

    def probs(self, key) -> np.ndarray:
        return np.array([self._item[w].prob for w in self._kids[key]])

    def risk(self, key) -> RiskSpec:
        return self._risk_of[key].risk

    def set_risk(self, key, spec: RiskSpec) -> None:
        """Replace the risk spec of ``key`` on the problem's own stage or node."""
        self._risk_of[key].risk = spec

    def arg_dim(self, key) -> int:
        """Length of the cut argument ``x_{1:s}`` (s = stage of its subproblems)."""
        return self._stage[self._holders[key][0]] * self.dim

    def terminal(self, key) -> bool:
        """True for keys that aggregate nothing: the keys past the horizon, whose value is 0."""
        return not self._kids[key]

    def history_positions(self, key) -> list[list]:
        """Stage by stage, the positions on some path into ``key``'s subproblems."""
        layers = []
        layer = self._holders.get(key, [])
        while layer:
            layers.append(layer)
            ups = dict.fromkeys(self._parent[w] for w in layer)
            layer = [w for up in ups for w in self._holders.get(up, [])]
        return layers[::-1]


@dataclass
class SubproblemData:
    """One position's stage rows over its decision ``x_t``, affine in the history.

    The rows are the equality system ``a_cur x_t = .``, then the static
    inequalities ``g_cur x_t <= .`` and the cost pieces, which the stage LP
    writes ``piece_cur x_t - w <= .`` with the cost's epigraph column ``w``.
    At a history ``h = x_{1:t-1}`` their right-hand sides, in that order, are
    ``b0 - hist @ h``, with ``x_0`` folded into ``b0``.  Nothing else in the
    rows moves with the history.  The ``g_cur`` and ``piece_cur`` blocks and
    the box are views of the payload: read them, never write them.
    """

    t: int
    a_cur: np.ndarray        # (q, n)
    g_cur: np.ndarray        # (r, n)
    piece_cur: np.ndarray    # (P, n)
    b0: np.ndarray           # (q + r + P,)
    hist: np.ndarray         # (q + r + P, (t-1)*n)
    lb: np.ndarray
    ub: np.ndarray


def history_vector(history, t: int, n: int) -> np.ndarray:
    """``history`` as a float vector, checked to be the decisions ``(x_1, ..., x_{t-1})``."""
    history = np.asarray(history, dtype=float).reshape(-1)
    if history.shape[0] != (t - 1) * n:
        raise ModelError(f"history must have {(t - 1) * n} coordinates at stage {t}, "
                         f"got {history.shape[0]}")
    return history


def assemble_subproblem(p: Problem, where) -> SubproblemData:
    """The rows of position ``where`` and their history map, from :meth:`Realization.fold_map`.

    ``where`` is a position of ``p.topology`` (``(t, j)`` on a lattice, a node
    id on a tree).  A pure function of its inputs: identical inputs give
    bit-identical outputs.
    """
    n = p.dim
    t = p.topology.stage(where)
    payload = p.topology.payload(where)
    rows, b_hist, h_hist, d_hist = payload.fold_map(p.x0, (t - 1) * n)
    return SubproblemData(t=t, a_cur=rows.a, g_cur=rows.g, piece_cur=rows.pieces_c,
                          b0=np.concatenate([rows.b, rows.h, -rows.pieces_d]),
                          hist=np.vstack([b_hist, h_hist, d_hist]),
                          lb=payload.lb, ub=payload.ub)


def validate_problem(p: Problem) -> list[str]:
    """Return a list of violation messages (empty list = valid problem).

    The checks follow the paper's standing assumptions: finitely many
    realizations with strictly positive probabilities (a NaN fails), compact
    boxes and finite data.  The top level and the stages of the pool keys
    are checked on their own.  The probabilities and risk specs of all pool
    keys are checked in one pass (:func:`_probabilities_sound`), and so are
    the payloads (:func:`_payloads_sound`); only when such a pass finds a
    fault does each key, or each payload (:meth:`Realization.violations`),
    run its own checks.  So a valid problem costs a few numpy calls in all
    and a faulty one gets every message, in key and position order.
    """
    out: list[str] = []
    if p.horizon < 1:
        out.append("horizon must be >= 1")
    if p.dim < 1:
        out.append("dim must be >= 1")
    if p.x0.shape[0] != p.dim:
        out.append(f"x0 must have {p.dim} coordinates")
    elif not np.isfinite(p.x0).all():
        out.append("x0 entries must be finite")
    expected_l = max(p.horizon - 1, 0)
    if p.lower_value_bound.shape[0] != expected_l:
        out.append(f"lower_value_bound must list {expected_l} values (stages 2..T)")
    elif not np.all(np.isfinite(p.lower_value_bound)):
        out.append("lower_value_bound entries must be finite")
    if p.form not in (LATTICE, TREE):
        return out + [f"unknown form {p.form!r}"]
    topo = p.topology
    if topo.defects:
        return out + topo.defects
    root, horizon = topo.root, p.horizon
    if len(topo.children(root)) != 1:
        out.append(f"{topo.label(root)}: must have exactly one child (deterministic first stage)")
    reader_stage = {root: 0} | {topo.pool(w): topo.stage(w) for w in topo.positions}
    # keys with a child that has no payload: a lattice reads its probabilities there
    bare = {topo.parent(w) for w in topo.positions if topo.payload(w) is None}
    sound = _probabilities_sound(topo, [key for key in reader_stage
                                        if not (topo.terminal(key) or key in bare)])
    for key, s in reader_stage.items():  # s: the stage of the subproblems reading key
        if topo.terminal(key):
            if s < horizon:
                out.append(f"{topo.label(key)}: leaf at stage {s}, expected {horizon} stages")
            continue
        where = topo.label(key)
        if s >= horizon:
            out.append(f"{where}: children beyond the horizon, expected {horizon} stages")
        if sound or key in bare:  # the missing payloads are reported below
            continue
        probs = topo.probs(key)
        total = probs.sum()
        if not (probs > 0.0).all():  # written so that NaN fails both checks
            out.append(f"{where}: probabilities must be strictly positive")
        if not abs(total - 1.0) <= PROB_TOL:
            out.append(f"{where}: probabilities sum != 1")
        elif key != root:
            try:
                validate_risk_set(topo.risk(key), probs / total)
            except RiskConfigError as exc:
                out.append(f"{where}: risk spec invalid: {exc}")
    if not _payloads_sound(p):
        for w in topo.positions:
            payload = topo.payload(w)
            if payload is None:
                out.append(f"{topo.label(w)}: missing payload")
            else:
                out.extend(payload.violations(topo.stage(w), p.dim, topo.label(w)))
    return out


def _probabilities_sound(topo: Topology, keys: list) -> bool:
    """True when :func:`validate_problem` finds no probability or risk fault at any of ``keys``.

    Each key's probabilities are read as Python floats: their least must be
    positive and their exact sum (``math.fsum``; a NaN makes it NaN) within
    half of ``PROB_TOL`` of 1, so that the rounding of the key's own
    ``probs.sum()`` cannot fail it.  A risk spec other than a polytope
    depends on the probabilities only through those checks, so
    :meth:`RiskSpec.validate` stands in for :func:`validate_risk_set`; a
    polytope's dual set is tested on its key's own probabilities.  Any doubt
    returns False, and the per-key checks then word the messages.
    """
    item = topo._item
    try:
        for key in keys:
            probs = [item[w].prob for w in topo.children(key)]
            if not (min(probs) > 0.0 and abs(math.fsum(probs) - 1.0) <= 0.5 * PROB_TOL):
                return False
            if key == topo.root:
                continue
            spec = topo.risk(key)
            if spec.kind == "polytope":
                probs = topo.probs(key)
                validate_risk_set(spec, probs / probs.sum())
            else:
                spec.validate()
    except (RiskConfigError, OverflowError):  # fsum overflows on huge probabilities
        return False
    return True


def _payloads_sound(p: Problem) -> bool:
    """True when every position has a payload and no :meth:`Realization.violations` entry.

    One pass for all payloads, with the checks of ``violations``: their
    structure in plain Python on shape tuples and ``prob``, their numbers
    with one ``isfinite`` over one concatenation, and their boxes with one
    ``lb <= ub``.  The equality blocks, all ``(q, n)`` once the shapes pass,
    are stacked into one array first, so that they need no ``ravel`` each.
    """
    topo, n = p.topology, p.dim
    blocks, numbers, lbs, ubs = [], [], [], []
    for w in topo.positions:
        pay, t = topo.payload(w), topo.stage(w)
        if pay is None or not pay.prob > 0.0:
            return False
        a, cost, g = pay.a_blocks, pay.cost, pay.g
        if (cost.dim != n or cost.pieces_c.shape[1:] != (t * n,) or len(a) != t + 1
                or g.shape != (pay.h.shape[0], (t + 1) * n)
                or pay.lb.shape[0] != n or pay.ub.shape[0] != n):
            return False
        qn = (pay.b.shape[0], n)
        for blk in a:
            if blk.shape != qn:
                return False
        blocks += a
        numbers += (cost.pieces_c.ravel(), cost.pieces_d, g.ravel(), pay.b, pay.h)
        lbs.append(pay.lb)
        ubs.append(pay.ub)
    if not lbs:
        return True
    lb, ub = np.concatenate(lbs), np.concatenate(ubs)
    numbers += (np.concatenate(blocks).ravel(), lb, ub)
    return bool(np.isfinite(np.concatenate(numbers)).all() and (lb <= ub).all())
