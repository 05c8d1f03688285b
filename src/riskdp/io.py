"""Problem files, run artifacts, and stable numeric formatting.

Problem instances travel as JSON documents.  The top level carries
``horizon``, ``dim``, ``x0``, ``form`` (``"lattice"`` or ``"tree"``), the
certified recourse bounds ``lower_value_bound`` (one value per stage
``2..T``; the bound past the horizon is implicitly zero), an optional
default ``risk`` fragment, and either ``stages`` (lattice form) or
``nodes`` (tree form).  Each realization/node payload uses the keys
``prob``, ``cost_pieces`` (objects ``{"c": [...], "d": f}``), ``A`` (a list
of equality blocks, one per decision ``x_0..x_t``), ``b``, ``G`` (a single
matrix over the full history), ``h``, ``lb``, ``ub``.  ``A``/``b`` and
``G``/``h`` may be omitted when a payload has no such rows, and
``lower_value_bound`` when the horizon is 1; only a missing key or ``null``
means absent, and any other non-list value there is an error.  In tree form
the root row is a synthetic anchor: ``parent`` is ``null``, it carries no
payload, and its single child is the stage-1 node.  Tree nodes may come in
any order; validation checks that they form one rooted tree.

Problem files and cut dumps are read as UTF-8.  A document is read in one
walk: each payload's lists go to its constructors, which convert every
field to its own float array, and the entry types of all the document's
lists are checked together, one nesting depth at a time
(:func:`_check_arrays`), before :func:`riskdp.model.validate_problem`.
Every number field must sit at the depth the format writes it at: a bare
number where a list belongs, or a list where a number belongs or nested
deeper, is an error that names the field (:func:`_check_depths`).  A
cut dump's numbers are converted in one pass and checked finite in one.
Only a fault makes either reader walk its input piece by piece, to name
the first piece at fault.

Run artifacts are CSV and JSON files written for byte-stable replay diffs:
all floats are printed with 17 significant digits, CSV uses ``.`` as the
decimal mark and ``,`` as the separator, and every CSV starts with a header
row.  The iteration log carries one row per iteration plus a terminal row
``k = K + 1`` holding the final fresh first-stage bound, so the summary's
``lower_bound`` always equals the last CSV row's value exactly.  The cut
dump holds one cut per line, ``kind,stage,iter,theta`` followed by the
``beta`` coefficients and — for optimality cuts only — the anchor
coefficients.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .model import (LATTICE, TREE, ModelError, Node, Problem, PwlConvexCost,
                    Realization, Stage, validate_problem)
from .risk import RiskConfigError, RiskSpec, _json_number

SIG_DIGITS = 17

CUT_KIND_OPTIMALITY = "optimality"
CUT_KIND_FEASIBILITY = "feasibility"

CUTS_CSV_HEADER = "kind,stage,iter,theta,beta...,anchor..."


class IoError(ValueError):
    """Malformed problem file or artifact."""


# ---------------------------------------------------------------------------
# numeric formatting
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """``x`` printed with 17 significant digits (bit-exact float64 round trip)."""
    s = format(float(x), f".{SIG_DIGITS}g")
    if not any(ch in s for ch in ".en"):  # integral finite value: keep float typing
        s += ".0"
    return s


def _dump_json(obj, indent: int = 0) -> str:
    """Serialize with every float printed via :func:`format_float`."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(k)}: {_dump_json(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(_dump_json(v) for v in obj) + "]"
        rows = [f"{pad}  {_dump_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    return json.dumps(obj)


def dump_json(obj) -> str:
    return _dump_json(obj) + "\n"


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

# what the format writes each number field as; a payload's cost pieces
# each hold one "c" and one "d", and its "A" holds one matrix per decision
FIELD_FORMS = {"x0": "a list of numbers", "lower_value_bound": "a list of numbers",
               "c": "a list of numbers", "d": "a number", "A": "a list of matrices",
               "b": "a list of numbers", "G": "a matrix", "h": "a list of numbers",
               "lb": "a list of numbers", "ub": "a list of numbers"}
_PAYLOAD_FIELDS = ("d", "b", "h", "lb", "ub", "c", "G")  # then "A", once per block


def _is_vector(value) -> bool:
    """Whether ``value`` is a list that holds no list."""
    return type(value) is list and list not in map(type, value)


def _check_depths(what: str, vectors: list, matrices: list, names: tuple) -> None:
    """Raise :class:`IoError` naming the first field not written at the format's depth.

    Each of ``vectors`` must be a list that holds no list (:func:`_is_vector`),
    and each of ``matrices`` a list of such lists: a matrix is a list of
    rows, and the fields gathered over a payload's cost pieces or ``A``
    blocks are lists of their entries.  ``names`` names each of ``vectors +
    matrices`` by its key in :data:`FIELD_FORMS`.  An empty list is at any
    depth.  The entries' types are not checked.
    """
    fits = ([_is_vector(vector) for vector in vectors]
            + [type(matrix) is list and all(map(_is_vector, matrix)) for matrix in matrices])
    for name, fit in zip(names, fits):
        if not fit:
            raise IoError(f"{what}: {name!r} must be {FIELD_FORMS[name]}")


def _check_arrays(arrays: list) -> None:
    """Raise :class:`IoError` unless every ``(what, vectors, matrices, names)`` is numbers.

    Each of ``vectors`` must be a list of JSON numbers and each of
    ``matrices`` a list of such lists.  The format fixes each field's depth,
    so the fields of a whole document are checked in two ``set(map(type,
    ...))`` passes: one over the lists, one over their entries (a bool's
    type is ``bool``, not ``int``).  Only when that fails are the entries
    walked one by one, to name the one at fault: first each field's depth
    (:func:`_check_depths`), then each number
    (:func:`riskdp.risk._json_number`).
    """
    vectors = list(chain.from_iterable(entry[1] for entry in arrays))
    matrices = list(chain.from_iterable(entry[2] for entry in arrays))
    try:
        lists = vectors + list(chain.from_iterable(matrices))
        if (set(map(type, lists + matrices)) <= {list}
                and set(map(type, chain.from_iterable(lists))) <= {int, float}):
            return
    except TypeError:  # a matrix that is not a list
        pass
    for what, vectors, matrices, names in arrays:
        _check_depths(what, vectors, matrices, names)
        rows = chain.from_iterable(matrices)
        try:
            for entry in chain(chain.from_iterable(vectors), chain.from_iterable(rows)):
                _json_number(entry)
        except TypeError as exc:
            raise IoError(f"{what}: {exc}") from exc


def _list_field(raw: dict, key: str) -> list:
    """``raw[key]``, ``[]`` when the key is missing or null; another non-list raises TypeError."""
    value = raw.get(key)
    if value is None:
        return []
    if type(value) is not list:
        raise TypeError(f"{key!r} must be a list, not {value!r}")
    return value


def _parse_payload(raw: dict, n: int, where: str, arrays: list) -> Realization:
    """The payload ``raw`` at ``where``; its lists join ``arrays`` (:func:`_check_arrays`).

    When the constructors fail on a payload whose lists are all gathered, a
    field at the wrong depth is named first (:func:`_check_depths`).
    """
    what, entry = f"{where}: malformed payload", None
    try:
        pieces = raw["cost_pieces"]
        if not pieces:
            raise IoError(f"{where}: cost_pieces must be non-empty")
        pieces_c, pieces_d = [pc["c"] for pc in pieces], [pc["d"] for pc in pieces]
        a, b, g, h = (_list_field(raw, "A"), _list_field(raw, "b"), _list_field(raw, "G"),
                      _list_field(raw, "h"))
        lb, ub = raw["lb"], raw["ub"]
        entry = (what, [pieces_d, b, h, lb, ub], [pieces_c, g, *a],
                 _PAYLOAD_FIELDS + ("A",) * len(a))
        arrays.append(entry)
        cost = PwlConvexCost(pieces_c=pieces_c, pieces_d=pieces_d, dim=n)
        prob = float(_json_number(raw.get("prob", 1.0)))
        return Realization(prob=prob, cost=cost, a_blocks=a, b=b, g=g, h=h, lb=lb, ub=ub)
    except IoError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, ModelError) as exc:
        if entry is not None:
            _check_depths(*entry)
        raise IoError(f"{what}: {exc}") from exc


def _risk_from(raw: dict, default: RiskSpec, where: str) -> RiskSpec:
    frag = raw.get("risk")
    if frag is None:
        return default
    try:
        return RiskSpec.from_json_fragment(frag)
    except RiskConfigError as exc:
        raise IoError(f"{where}: {exc}") from exc


def _json_integer(value) -> int:
    """``value`` as given when it is a JSON integer; a float, bool or string raises TypeError."""
    if not isinstance(_json_number(value), int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _list_in(raw, key: str, where: str, default=None) -> list:
    """``raw[key]`` (``default`` when absent), where ``raw`` must be an object and it a list."""
    value = raw.get(key, default) if isinstance(raw, dict) else None
    if not isinstance(value, list):
        raise IoError(f"malformed {where}: expected an object with a {key!r} list")
    return value


def problem_from_dict(doc: dict) -> Problem:
    """Build a problem from its JSON document (see module docstring)."""
    what, arrays = "malformed problem document", []
    try:
        horizon = _json_integer(doc["horizon"])
        n = _json_integer(doc["dim"])
        x0, lvb = doc["x0"], _list_field(doc, "lower_value_bound")
        arrays.append((what, [x0, lvb], [], ("x0", "lower_value_bound")))
        x0, lvb = np.asarray(x0, dtype=float), np.asarray(lvb, dtype=float)
        form = doc.get("form", LATTICE)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if arrays:
            _check_depths(*arrays[0])
        raise IoError(f"{what}: {exc}") from exc
    default_risk = _risk_from(doc, RiskSpec(), "top-level risk")
    if form == LATTICE:
        stages = []
        for s, raw_stage in enumerate(_list_in(doc, "stages", "lattice document"), start=1):
            where = f"stage {s}"
            reals = [_parse_payload(raw, n, f"{where} realization {j}", arrays)
                     for j, raw in enumerate(_list_in(raw_stage, "realizations", where, []))]
            stages.append(Stage(reals, risk=_risk_from(raw_stage, default_risk, where)))
        problem = Problem(horizon=horizon, dim=n, x0=x0, form=LATTICE,
                          stages=stages, lower_value_bound=lvb)
    elif form == TREE:
        nodes = []
        for i, raw in enumerate(_list_in(doc, "nodes", "tree document")):
            try:
                nid, parent = _json_integer(raw["id"]), raw.get("parent")
                parent = None if parent is None else _json_integer(parent)
                prob = float(_json_number(raw.get("prob", 1.0)))
            except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
                raise IoError(f"malformed node entry {i}: expected an object with an "
                              f"integer 'id' and 'parent' and a number 'prob': {exc!r}") from exc
            where = f"node {nid}"
            nodes.append(Node(id=nid, parent=parent, prob=prob,
                              payload=(None if parent is None
                                       else _parse_payload(raw, n, where, arrays)),
                              risk=_risk_from(raw, default_risk, where)))
        problem = Problem(horizon=horizon, dim=n, x0=x0, form=TREE,
                          nodes=nodes, lower_value_bound=lvb)
    else:
        raise IoError(f"unknown form {form!r}")
    _check_arrays(arrays)
    violations = validate_problem(problem)
    if violations:
        raise IoError("invalid problem: " + "; ".join(violations))
    return problem


def _read_text(path) -> str:
    """The file at ``path`` decoded as UTF-8; a read or decode failure raises :class:`IoError`."""
    try:
        with open(path, "rb") as file:
            return file.read().decode("utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path} is not UTF-8 text: {exc}") from exc


def load_problem(path) -> Problem:
    """Load and validate a problem from a JSON file (a parsed one: :func:`problem_from_dict`)."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IoError(f"{path} is not valid JSON: {exc}") from exc
    return problem_from_dict(doc)


def _payload_to_dict(r: Realization, include_prob: bool = True) -> dict:
    out: dict = {
        "cost_pieces": [{"c": list(map(float, c)), "d": float(d)}
                        for c, d in zip(r.cost.pieces_c, r.cost.pieces_d)],
    }
    if include_prob:
        out["prob"] = float(r.prob)
    if r.b.shape[0]:
        out["A"] = [blk.tolist() for blk in r.a_blocks]
        out["b"] = r.b.tolist()
    if r.h.shape[0]:
        out["G"] = r.g.tolist()
        out["h"] = r.h.tolist()
    out["lb"] = r.lb.tolist()
    out["ub"] = r.ub.tolist()
    return out


def problem_to_dict(p: Problem) -> dict:
    """The JSON document form of a problem (inverse of :func:`problem_from_dict`)."""
    doc: dict = {"horizon": p.horizon, "dim": p.dim, "x0": p.x0.tolist(),
                 "form": p.form, "lower_value_bound": p.lower_value_bound.tolist()}
    if p.form == LATTICE:
        stages = []
        for s, stage in enumerate(p.stages, start=1):
            raw: dict = {}
            if s >= 2:
                raw["risk"] = stage.risk.to_json_fragment()
            raw["realizations"] = [_payload_to_dict(r) for r in stage.realizations]
            stages.append(raw)
        doc["stages"] = stages
    else:
        rows = []
        for node in p.nodes:
            raw = {"id": node.id, "parent": node.parent, "prob": float(node.prob)}
            if node.parent is not None and p.children(node.id):
                raw["risk"] = node.risk.to_json_fragment()
            if node.payload is not None:
                # node.prob is canonical for trees; keep the payload's copy out
                raw.update(_payload_to_dict(node.payload, include_prob=False))
            rows.append(raw)
        doc["nodes"] = rows
    return doc


def save_problem(p: Problem, path) -> None:
    Path(path).write_text(dump_json(problem_to_dict(p)))


# ---------------------------------------------------------------------------
# risk overrides
# ---------------------------------------------------------------------------

def parse_risk_override(text: str) -> RiskSpec:
    """Parse ``expectation``, ``cvar:EPS``, or ``mixture:LAMBDA,EPS``."""
    head, _, args = text.partition(":")
    try:
        if head == "expectation" and not args:
            return RiskSpec()
        if head == "cvar":
            spec = RiskSpec(kind="cvar", epsilon=float(args))
        elif head == "mixture":
            lam_s, _, eps_s = args.partition(",")
            spec = RiskSpec(kind="mixture", lam=float(lam_s), epsilon=float(eps_s))
        else:
            raise ValueError(f"unknown risk override {text!r} "
                             "(expected expectation, cvar:EPS, or mixture:LAMBDA,EPS)")
        spec.validate()
        return spec
    except (ValueError, RiskConfigError) as exc:
        raise ValueError(f"bad risk override {text!r}: {exc}") from exc


def apply_risk_override(p: Problem, spec: RiskSpec) -> Problem:
    """A copy of ``p`` with one risk spec at every pool key that aggregates children."""
    q = dataclasses.replace(p, stages=[copy.copy(stage) for stage in p.stages],
                            nodes=[copy.copy(node) for node in p.nodes])
    topo = q.topology
    for key in topo.keys:
        if not topo.terminal(key):
            topo.set_risk(key, spec)
    return q


# ---------------------------------------------------------------------------
# run artifacts
# ---------------------------------------------------------------------------

def iterations_csv_text(result, dim: int) -> str:
    """The per-iteration log, terminal row included (see module docstring)."""
    header = (["k", "lower_bound"] + [f"x1_{i}" for i in range(dim)]
              + ["cuts_opt_added", "cuts_feas_added", "backtracks", "wall_ms"])
    lines = [",".join(header)]
    for r in result.reports:
        lines.append(",".join([str(r.k), format_float(r.lower_bound)]
                              + [format_float(v) for v in r.x1]
                              + [str(r.n_cuts_opt), str(r.n_cuts_feas),
                                 str(r.backtracks), format_float(r.wall_ms)]))
    if result.final_lower_bound is not None:
        k_final = (result.reports[-1].k + 1) if result.reports else 1
        lines.append(",".join([str(k_final), format_float(result.final_lower_bound)]
                              + [format_float(v) for v in result.final_x1]
                              + ["0", "0", "0", format_float(0.0)]))
    return "\n".join(lines) + "\n"


def write_iterations_csv(path, result, dim: int) -> None:
    Path(path).write_text(iterations_csv_text(result, dim))


def cuts_csv_text(pools) -> str:
    """One cut per line: optimality pools first, then feasibility, each by ascending key."""
    lines = [CUTS_CSV_HEADER]
    keys = sorted(pools.opt)
    for key in keys:
        for cut in pools.opt[key].optimality:
            lines.append(",".join([CUT_KIND_OPTIMALITY, str(key), str(cut.iteration),
                                   format_float(cut.theta)]
                                  + [format_float(v) for v in cut.beta]
                                  + [format_float(v) for v in cut.anchor]))
    for key in keys:
        for fcut in pools.opt[key].feasibility:
            lines.append(",".join([CUT_KIND_FEASIBILITY, str(key), str(fcut.iteration),
                                   format_float(fcut.theta_tilde)]
                                  + [format_float(v) for v in fcut.beta_tilde]))
    return "\n".join(lines) + "\n"


def write_cuts_csv(path, pools) -> None:
    Path(path).write_text(cuts_csv_text(pools))


@dataclass
class CutRecord:
    """One parsed cut-dump row; ``anchor`` is ``None`` for feasibility cuts."""

    kind: str
    where: int
    iteration: int
    theta: float
    beta: np.ndarray
    anchor: np.ndarray | None


def read_cuts_csv(path) -> list[CutRecord]:
    """Parse a cut dump; a malformed row or a non-finite number in it raises :class:`IoError`.

    The whole dump is read by one :func:`_cut_records` call; only when that
    fails is each row read alone, to name the first one at fault.
    """
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != CUTS_CSV_HEADER:
        raise IoError(f"{path}: missing cut dump header")
    rows = [(ln, line.split(",")) for ln, line in enumerate(lines[1:], start=2) if line]
    try:
        return _cut_records([fields for _ln, fields in rows])
    except (IndexError, ValueError):
        for ln, fields in rows:
            try:
                _cut_records([fields])
            except (IndexError, ValueError) as exc:
                raise IoError(f"{path}:{ln}: malformed cut row: {exc}") from exc
        raise  # not reached: a dump that fails has a row that fails alone


def _cut_records(rows: list[list[str]]) -> list[CutRecord]:
    """The records of the split rows ``rows`` of a cut dump.

    Every number of the rows is converted in one pass (``theta`` is kept as
    ``float`` reads it) and checked finite in one; ``beta`` and ``anchor``
    are slices of the one array of them.  A malformed row raises
    ``IndexError`` or ``ValueError``; for a single row, that is the error of
    its first fault, in the order kind and counters, numbers, finiteness,
    ``theta``, then the kind's entry count.
    """
    heads = [(row[0], int(row[1]), int(row[2])) for row in rows]
    numbers = list(map(float, chain.from_iterable(row[3:] for row in rows)))
    values = np.array(numbers)
    if not np.isfinite(values).all():
        raise ValueError("theta, beta and anchor entries must be finite")
    out, i = [], 0
    for (kind, where, iteration), row in zip(heads, rows):
        m = len(row) - 4  # beta and anchor entries
        if m < 0:
            raise IndexError("list index out of range")  # no theta
        if kind == CUT_KIND_OPTIMALITY:
            if m % 2:
                raise ValueError("optimality row needs matching beta and anchor")
            d = i + 1 + m // 2
            out.append(CutRecord(kind, where, iteration, numbers[i], values[i + 1:d],
                                 values[d:i + 1 + m]))
        elif kind == CUT_KIND_FEASIBILITY:
            out.append(CutRecord(kind, where, iteration, numbers[i], values[i + 1:i + 1 + m],
                                 None))
        else:
            raise ValueError(f"unknown cut kind {kind!r}")
        i += m + 1
    return out


def summary_dict(result, seed: int) -> dict:
    """The run summary; ``lower_bound`` mirrors the last iteration-log row."""
    if result.final_lower_bound is not None:
        bound = result.final_lower_bound
    elif result.reports:
        bound = result.reports[-1].lower_bound
    else:
        bound = None
    x1 = result.final_x1
    return {"status": result.status,
            "lower_bound": None if bound is None else float(bound),
            "x1": None if x1 is None else [float(v) for v in x1],
            "iters": result.iters,
            "seed": seed}


def write_summary_json(path, result, seed: int) -> None:
    Path(path).write_text(dump_json(summary_dict(result, seed)))
