"""Tests for problem files, run artifacts, and numeric formatting."""

import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conftest
from checks import (n_optimality_cuts, perfbench_module, problem_from_dict_by_walk,
                    read_cuts_csv_by_row)
from conftest import (lattice_to_tree, make_chain_instance,
                      make_feasibility_instance, make_newsvendor,
                      make_newsvendor_tree, random_lattice_instance)
from riskdp import cli, engine, io, model, oracle
from riskdp.risk import RiskSpec

DEMO_INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"


def _cfg(**kw):
    base = dict(algorithm="alg1", max_iters=60, seed=7, stall_window=3,
                stall_tol=1e-9)
    base.update(kw)
    return engine.RunConfig(**base)


# ---------------------------------------------------------------------------
# numeric formatting
# ---------------------------------------------------------------------------

def test_format_float_round_trips_exactly():
    values = [0.0, -0.0, 1.5, 0.1, 1.0 / 3.0, 1e-17, -2.0, 1e300, 1.6499999999999999]
    for v in values:
        s = io.format_float(v)
        assert float(s) == v

def test_format_float_keeps_float_typing():
    assert io.format_float(2.0) == "2.0"
    assert io.format_float(-3.0) == "-3.0"
    assert io.format_float(1.5) == "1.5"
    assert "e" in io.format_float(1e300)


def test_dump_json_formats_floats_and_keeps_ints():
    text = io.dump_json({"a": 0.1, "iters": 3, "flag": None, "xs": [1.0, 2.5]})
    assert "0.10000000000000001" in text
    assert '"iters": 3' in text
    assert '"flag": null' in text
    doc = json.loads(text)
    assert doc["a"] == 0.1
    assert doc["xs"] == [1.0, 2.5]


# ---------------------------------------------------------------------------
# problem round trips
# ---------------------------------------------------------------------------

def test_lattice_round_trip(tmp_path):
    p = make_newsvendor(RiskSpec(kind="cvar", epsilon=0.5))
    path = tmp_path / "problem.json"
    io.save_problem(p, path)
    q = io.load_problem(path)
    assert model.validate_problem(q) == []
    assert io.problem_to_dict(q) == io.problem_to_dict(p)
    # a second round trip is textually identical
    path2 = tmp_path / "again.json"
    io.save_problem(q, path2)
    assert path.read_text() == path2.read_text()


def test_lattice_round_trip_with_equalities(tmp_path):
    p = make_chain_instance()
    path = tmp_path / "chain.json"
    io.save_problem(p, path)
    q = io.load_problem(path)
    assert model.validate_problem(q) == []
    assert io.problem_to_dict(q) == io.problem_to_dict(p)


def test_tree_round_trip(tmp_path):
    p = make_newsvendor_tree(RiskSpec(kind="mixture", lam=0.4, epsilon=0.25))
    path = tmp_path / "tree.json"
    io.save_problem(p, path)
    q = io.load_problem(path)
    assert q.form == model.TREE
    assert model.validate_problem(q) == []
    assert io.problem_to_dict(q) == io.problem_to_dict(p)


def _same_array(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("drop", [(), ("A", "b"), ("G", "h"), ("A", "b", "G", "h")],
                         ids=["full", "no-equalities", "no-inequalities", "neither"])
def test_loaded_payload_arrays_are_the_file_numbers(drop):
    # every field is converted once; the arrays are those of converting each
    # field on its own, and a missing system is held with zero rows
    p = random_lattice_instance(np.random.default_rng(5), 3, 2, 2)
    doc = io.problem_to_dict(p)
    for raw_stage in doc["stages"]:
        for raw in raw_stage["realizations"]:
            for key in drop:
                raw.pop(key, None)
    q = io.problem_from_dict(doc)
    n = q.dim
    for t, (raw_stage, stage) in enumerate(zip(doc["stages"], q.stages), start=1):
        for raw, pay in zip(raw_stage["realizations"], stage.realizations):
            pieces = raw["cost_pieces"]
            assert _same_array(pay.cost.pieces_c, np.asarray([pc["c"] for pc in pieces]))
            assert _same_array(pay.cost.pieces_d, np.asarray([pc["d"] for pc in pieces]))
            for key in ("lb", "ub"):
                assert _same_array(getattr(pay, key), np.asarray(raw[key]))
            if "A" in raw:
                assert len(pay.a_blocks) == len(raw["A"]) == t + 1
                for blk, want in zip(pay.a_blocks, raw["A"]):
                    assert _same_array(blk, np.asarray(want))
                assert _same_array(pay.b, np.asarray(raw["b"]))
            else:
                assert [blk.shape for blk in pay.a_blocks] == [(0, n)] * (t + 1)
                assert pay.b.shape == (0,)
            if "G" in raw:
                assert _same_array(pay.g, np.asarray(raw["G"]))
                assert _same_array(pay.h, np.asarray(raw["h"]))
            else:
                assert pay.g.shape == (0, (t + 1) * n) and pay.h.shape == (0,)
    assert model.validate_problem(q) == []


def test_tree_nodes_load_in_any_order():
    # children listed before their parents: the node list is indexed as a
    # whole, so it loads, validates and solves to the same value
    p = make_newsvendor_tree(RiskSpec(kind="cvar", epsilon=0.5))
    doc = io.problem_to_dict(p)
    doc["nodes"].reverse()
    q = io.problem_from_dict(doc)
    assert [node.id for node in q.nodes] == [3, 2, 1, 0]
    assert model.validate_problem(q) == []
    assert q.topology.root == 0 and q.depth(3) == 2 and q.children(1) == [3, 2]
    assert io.problem_to_dict(q) == doc
    assert oracle.reference_value(q) == pytest.approx(oracle.reference_value(p), abs=1e-12)


def test_polytope_risk_round_trips(tmp_path):
    rows = [(np.array([1.0, 0.0]), 2.0), (np.array([0.0, 1.0]), 2.0)]
    p = make_newsvendor(RiskSpec(kind="polytope", rows=rows))
    path = tmp_path / "poly.json"
    io.save_problem(p, path)
    q = io.load_problem(path)
    spec = q.stages[1].risk
    assert spec.kind == "polytope"
    assert [(list(a), r) for a, r in spec.rows] == [([1.0, 0.0], 2.0), ([0.0, 1.0], 2.0)]


def test_top_level_risk_is_the_default():
    doc = io.problem_to_dict(make_newsvendor())
    for raw in doc["stages"]:
        raw.pop("risk", None)
    doc["risk"] = {"type": "cvar", "epsilon": 0.25}
    p = io.problem_from_dict(doc)
    assert p.stages[1].risk.kind == "cvar"
    assert p.stages[1].risk.epsilon == 0.25


def test_load_rejects_malformed_documents(tmp_path):
    with pytest.raises(io.IoError, match="malformed problem"):
        io.problem_from_dict({"dim": 1})
    with pytest.raises(io.IoError, match="form"):
        io.problem_from_dict({"horizon": 1, "dim": 1, "x0": [0.0], "form": "ring"})
    with pytest.raises(io.IoError, match="stages"):
        io.problem_from_dict({"horizon": 1, "dim": 1, "x0": [0.0], "form": "lattice"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(io.IoError, match="not valid JSON"):
        io.load_problem(bad)
    with pytest.raises(io.IoError, match="cannot read"):
        io.load_problem(tmp_path / "missing.json")


@pytest.mark.parametrize("tree, damage", [
    (False, lambda doc: doc.update(horizon=2.7)),
    (False, lambda doc: doc.update(horizon="2")),
    (False, lambda doc: doc.update(horizon=True)),
    (False, lambda doc: doc.update(dim=1.9)),
    (False, lambda doc: doc["stages"][1]["realizations"][0].update(prob="0.5")),
    (True, lambda doc: doc["nodes"][1].update(id=1.0)),
    (True, lambda doc: doc["nodes"][2].update(parent=1.5)),
    (True, lambda doc: doc["nodes"][2].update(prob="0.5")),
], ids=["float-horizon", "string-horizon", "bool-horizon", "float-dim",
        "string-realization-prob", "float-node-id", "float-node-parent", "string-node-prob"])
def test_load_rejects_non_integer_counts_and_non_number_probs(tree, damage):
    # truncating 2.7 to 2 or reading "0.5" as 0.5 would load another problem
    # than the document states
    doc = io.problem_to_dict(make_newsvendor_tree() if tree else make_newsvendor())
    damage(doc)
    with pytest.raises(io.IoError, match="is not an integer|is not a number"):
        io.problem_from_dict(doc)


def _stage2(doc):
    return doc["stages"][1]["realizations"][0]


@pytest.mark.parametrize("feasibility, damage", [
    (False, lambda doc: doc.update(x0=["0.0"])),
    (False, lambda doc: doc.update(lower_value_bound=[True])),
    (False, lambda doc: _stage2(doc).update(lb=[False])),
    (False, lambda doc: _stage2(doc).update(ub=["5"])),
    (False, lambda doc: _stage2(doc)["G"][0].__setitem__(1, "-1")),
    (False, lambda doc: _stage2(doc).update(h=[None])),
    (False, lambda doc: _stage2(doc)["cost_pieces"][0]["c"].__setitem__(0, True)),
    (False, lambda doc: _stage2(doc)["cost_pieces"][0].update(d="0")),
    (True, lambda doc: _stage2(doc)["A"][1][0].__setitem__(0, "1")),
    (True, lambda doc: _stage2(doc).update(b=[True])),
], ids=["x0", "lower_value_bound", "lb", "ub", "G", "h", "cost-c", "cost-d", "A", "b"])
def test_load_rejects_non_number_array_entries(feasibility, damage):
    # np.asarray(..., dtype=float) would read "5" as 5.0 and true as 1.0
    doc = io.problem_to_dict(make_feasibility_instance() if feasibility else make_newsvendor())
    damage(doc)
    with pytest.raises(io.IoError, match="is not a number"):
        io.problem_from_dict(doc)


def _payload_from_lists(raw, n):
    """The payload that the constructor builds from one document payload's own lists."""
    pieces = raw["cost_pieces"]
    return model.Realization(
        prob=raw["prob"], cost=model.PwlConvexCost([pc["c"] for pc in pieces],
                                                   [pc["d"] for pc in pieces], dim=n),
        a_blocks=raw.get("A", []), b=raw.get("b", []), g=raw.get("G", []),
        h=raw.get("h", []), lb=raw["lb"], ub=raw["ub"])


@pytest.mark.parametrize("written", ["column", "empty"])
def test_loaded_equality_blocks_get_the_constructors_verdict(tmp_path, written):
    # an A block loads as written, as the constructor reads the same lists: a
    # block written as a column is reported, not re-read as a row, and blocks
    # written as [] are equality systems with no rows
    doc = io.problem_to_dict(random_lattice_instance(np.random.default_rng(5), 3, 2, 2))
    raw = _stage2(doc)
    if written == "column":
        raw["A"][1] = [[v] for v in raw["A"][1][0]]
    else:
        raw["A"], raw["b"] = [[] for _ in raw["A"]], []
    verdict = _payload_from_lists(raw, 2).violations(2, 2, "stage 2 realization 0")
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    if written == "column":
        assert verdict == ["stage 2 realization 0: equality block 1 has shape (2, 1), "
                           "expected (1, 2)"]
        with pytest.raises(io.IoError) as err:
            io.load_problem(path)
        assert str(err.value) == "invalid problem: " + verdict[0]
    else:
        assert verdict == []
        pay = io.load_problem(path).stages[1].realizations[0]
        assert [blk.shape for blk in pay.a_blocks] == [(0, 2)] * 3


def test_a_cost_piece_written_as_a_column_is_reported(tmp_path):
    # its pieces once loaded as a (P, t*n, 1) array, the solve then failing
    # with a numpy traceback and status 1, "proven infeasible"; validation
    # came to catch it, and now the loader names the field at the wrong depth
    doc = io.problem_to_dict(make_newsvendor())
    piece = _stage2(doc)["cost_pieces"][0]
    piece["c"] = [[v] for v in piece["c"]]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(io.IoError) as err:
        io.load_problem(path)
    assert str(err.value) == ("stage 2 realization 0: malformed payload: 'c' must be a list "
                              "of numbers")
    assert cli.main(["solve", str(path), "--out", str(tmp_path / "run")]) == cli.EXIT_FAILURE


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


OPTIONAL_KEYS = ("A", "b", "G", "h", "lower_value_bound")
S1 = ("stages", 0, "realizations", 0)  # the newsvendor's stage-1 payload
S2 = ("stages", 1, "realizations", 0)  # its first stage-2 payload


@pytest.mark.parametrize("path, value, what", [
    # a field of the top level, a vector of a payload, a cost piece's
    # coefficients and offset, a matrix and a list of matrices, each written
    # one level shallower and one deeper than the format writes it
    (("x0",), 0, "malformed problem document: 'x0' must be a list of numbers"),
    (("x0",), [[0.0]], "malformed problem document: 'x0' must be a list of numbers"),
    (("lower_value_bound",), 0.0,
     "malformed problem document: 'lower_value_bound' must be a list, not 0.0"),
    (("lower_value_bound",), [[0.0]],
     "malformed problem document: 'lower_value_bound' must be a list of numbers"),
    (S2 + ("lb",), 0, "stage 2 realization 0: malformed payload: 'lb' must be a list of numbers"),
    (S2 + ("lb",), [[0.0]],
     "stage 2 realization 0: malformed payload: 'lb' must be a list of numbers"),
    (S2 + ("ub",), 5, "stage 2 realization 0: malformed payload: 'ub' must be a list of numbers"),
    (S2 + ("h",), [[-1.0]],
     "stage 2 realization 0: malformed payload: 'h' must be a list of numbers"),
    (S1 + ("cost_pieces", 0, "c"), 0,
     "stage 1 realization 0: malformed payload: 'c' must be a list of numbers"),
    (S1 + ("cost_pieces", 0, "c"), [[1.0]],
     "stage 1 realization 0: malformed payload: 'c' must be a list of numbers"),
    (S1 + ("cost_pieces", 0, "d"), [0.0],
     "stage 1 realization 0: malformed payload: 'd' must be a number"),
    (S2 + ("G",), [0.0, -1.0, -1.0],
     "stage 2 realization 0: malformed payload: 'G' must be a matrix"),
    (S2 + ("G",), [[[0.0], [-1.0], [-1.0]]],
     "stage 2 realization 0: malformed payload: 'G' must be a matrix"),
    (S2 + ("A",), [[0.0], [1.0], [1.0]],
     "stage 2 realization 0: malformed payload: 'A' must be a list of matrices"),
    (S2 + ("A",), [[[[0.0]]], [[[1.0]]], [[[1.0]]]],
     "stage 2 realization 0: malformed payload: 'A' must be a list of matrices"),
    # depths that mix within one list, which numpy cannot convert
    (S2 + ("lb",), [0.0, [1.0]],
     "stage 2 realization 0: malformed payload: 'lb' must be a list of numbers"),
    (("x0",), [[0.0], 1.0], "malformed problem document: 'x0' must be a list of numbers"),
])
def test_a_number_field_at_another_depth_is_named(path, value, what):
    # each loaded as a flat array before, and the problem validated
    doc = json.loads((DEMO_INSTANCES / "newsvendor.json").read_text())
    if path[-1] == "A":
        _set(doc, S2 + ("b",), [1.0])
    _set(doc, path, value)
    reads = [io.problem_from_dict]
    if not (path[-1] in OPTIONAL_KEYS and type(value) is not list):
        reads.append(problem_from_dict_by_walk)  # it reads a falsy one as absent
    for read in reads:
        with pytest.raises(io.IoError) as err:
            read(json.loads(json.dumps(doc)))
        assert str(err.value) == what


def test_load_rejects_invalid_problems():
    doc = io.problem_to_dict(make_newsvendor())
    doc["stages"][1]["realizations"][0]["prob"] = 0.9  # probabilities no longer sum to 1
    with pytest.raises(io.IoError, match="sum"):
        io.problem_from_dict(doc)


# ---------------------------------------------------------------------------
# risk overrides
# ---------------------------------------------------------------------------

def test_parse_risk_override_forms():
    assert io.parse_risk_override("expectation").kind == "expectation"
    spec = io.parse_risk_override("cvar:0.25")
    assert (spec.kind, spec.epsilon) == ("cvar", 0.25)
    spec = io.parse_risk_override("mixture:0.4,0.1")
    assert (spec.kind, spec.lam, spec.epsilon) == ("mixture", 0.4, 0.1)
    for bad in ("cvar", "cvar:1.5", "mixture:0.4", "polytope:x", "expectation:1"):
        with pytest.raises(ValueError):
            io.parse_risk_override(bad)


def test_apply_risk_override_lattice_and_tree():
    spec = RiskSpec(kind="cvar", epsilon=0.5)
    p = io.apply_risk_override(make_newsvendor(), spec)
    assert p.stages[0].risk.kind == "expectation"  # stage 1 aggregates nothing
    assert p.stages[1].risk is spec
    q = io.apply_risk_override(make_newsvendor_tree(), spec)
    assert q.node(1).risk is spec          # internal stage-1 node
    assert q.node(2).risk.kind == "expectation"  # leaves aggregate nothing
    res = engine.run(q, _cfg(algorithm="alg3"))
    assert res.final_lower_bound == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# run artifacts
# ---------------------------------------------------------------------------

def test_iterations_csv_layout_and_terminal_row():
    res = engine.run(make_newsvendor(), _cfg())
    text = io.iterations_csv_text(res, dim=1)
    lines = text.strip().split("\n")
    assert lines[0] == "k,lower_bound,x1_0,cuts_opt_added,cuts_feas_added,backtracks,wall_ms"
    assert len(lines) == len(res.reports) + 2  # header + iterations + terminal row
    last = lines[-1].split(",")
    assert int(last[0]) == res.reports[-1].k + 1
    assert float(last[1]) == res.final_lower_bound
    assert last[1] == io.format_float(res.final_lower_bound)
    assert [float(v) for v in last[2:3]] == [float(res.final_x1[0])]
    assert last[3:6] == ["0", "0", "0"]
    for line, rep in zip(lines[1:], res.reports):
        fields = line.split(",")
        assert int(fields[0]) == rep.k
        assert float(fields[1]) == rep.lower_bound


def test_summary_matches_last_csv_row_exactly():
    res = engine.run(make_newsvendor(), _cfg())
    text = io.iterations_csv_text(res, dim=1)
    summary = io.summary_dict(res, seed=7)
    last_bound = text.strip().split("\n")[-1].split(",")[1]
    assert io.format_float(summary["lower_bound"]) == last_bound
    assert summary["status"] == engine.STATUS_STALL
    assert summary["iters"] == res.iters
    assert summary["seed"] == 7


def test_infeasible_run_artifacts():
    res = engine.run(make_chain_instance(stage1_ub=1.4), _cfg(algorithm="alg2"))
    assert res.status == engine.STATUS_INFEASIBLE
    text = io.iterations_csv_text(res, dim=1)
    assert text.strip().split("\n") == [
        "k,lower_bound,x1_0,cuts_opt_added,cuts_feas_added,backtracks,wall_ms"]
    summary = io.summary_dict(res, seed=0)
    assert summary == {"status": "infeasible", "lower_bound": None, "x1": None,
                       "iters": 1, "seed": 0}


def test_cuts_csv_round_trip_and_zero_pool_exclusion(tmp_path):
    res = engine.run(make_newsvendor(), _cfg())
    path = tmp_path / "cuts.csv"
    io.write_cuts_csv(path, res.pools)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == io.CUTS_CSV_HEADER
    records = io.read_cuts_csv(path)
    pool = res.pools.opt[2]
    assert len(records) == len(pool.optimality)  # terminal zero pool not dumped
    for rec, cut in zip(records, pool.optimality):
        assert rec.kind == io.CUT_KIND_OPTIMALITY
        assert rec.where == 2
        assert rec.iteration == cut.iteration
        assert rec.theta == cut.theta
        assert np.array_equal(rec.beta, cut.beta)
        assert np.array_equal(rec.anchor, cut.anchor)


@pytest.mark.parametrize("algorithm", ["alg1", "alg3"])
def test_logged_cut_counts_match_the_dump(tmp_path, monkeypatch, algorithm):
    built, offers = [], []

    def counting_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def counting_offer(self, *args, **kwargs):
        offers.append(args[0])  # the pool key of the cut offered
        return real_offer(self, *args, **kwargs)

    real_build = engine.build_optimality_cut
    real_offer = engine._Driver._build_cut_at
    monkeypatch.setattr(engine, "build_optimality_cut", counting_build)
    monkeypatch.setattr(engine._Driver, "_build_cut_at", counting_offer)
    problem = random_lattice_instance(np.random.default_rng(3), 3, 2, 2,
                                      risk=RiskSpec(kind="cvar", epsilon=0.5))
    if algorithm == "alg3":
        problem = lattice_to_tree(problem)
    res = engine.run(problem, _cfg(algorithm=algorithm, max_iters=30,
                                   stall_window=30))
    io.write_iterations_csv(tmp_path / "iterations.csv", res, problem.dim)
    io.write_cuts_csv(tmp_path / "cuts.csv", res.pools)
    lines = (tmp_path / "iterations.csv").read_text().strip().split("\n")
    column = lines[0].split(",").index("cuts_opt_added")
    added = sum(int(line.split(",")[column]) for line in lines[1:])
    dumped = [r for r in io.read_cuts_csv(tmp_path / "cuts.csv")
              if r.kind == io.CUT_KIND_OPTIMALITY]
    assert added == len(dumped) == n_optimality_cuts(res.pools)
    skipped = sum(r.n_cuts_skipped for r in res.reports)
    assert skipped > 0
    # a replayed iteration offers no cut: it repeats the offers, all
    # skipped, of an iteration recorded at the same pools
    replayed = sum(r.n_cuts_skipped for r in res.reports if r.replayed)
    assert replayed > 0
    n_offers = len(offers) + replayed
    assert added + skipped == n_offers
    # a repeat of an earlier offer counts as skipped without being built
    assert added <= len(built) < n_offers
    totals = res.diagnostics["cuts_skipped"]
    assert sum(totals.values()) == skipped
    for key, count in totals.items():
        assert count == sum(r.cuts_skipped.get(key, 0) for r in res.reports)


def test_cuts_csv_feasibility_rows_lack_anchor(tmp_path):
    res = engine.run(make_feasibility_instance(), _cfg(algorithm="alg2"))
    path = tmp_path / "cuts.csv"
    io.write_cuts_csv(path, res.pools)
    records = io.read_cuts_csv(path)
    feas = [r for r in records if r.kind == io.CUT_KIND_FEASIBILITY]
    assert len(feas) == 1
    assert feas[0].anchor is None
    assert feas[0].theta == pytest.approx(-1.0, abs=1e-9)
    assert np.allclose(feas[0].beta, [-1.0], atol=1e-9)
    opt_line = path.read_text().strip().split("\n")[1]
    assert len(opt_line.split(",")) == 4 + 2 * 1  # optimality rows carry the anchor
    feas_line = path.read_text().strip().split("\n")[-1]
    assert len(feas_line.split(",")) == 4 + 1


def test_read_cuts_csv_rejects_damage(tmp_path):
    path = tmp_path / "cuts.csv"
    path.write_text("wrong header\n")
    with pytest.raises(io.IoError, match="header"):
        io.read_cuts_csv(path)
    path.write_text(io.CUTS_CSV_HEADER + "\noptimality,2,1,0.5,1.0\n")
    with pytest.raises(io.IoError, match="matching beta and anchor"):
        io.read_cuts_csv(path)
    path.write_text(io.CUTS_CSV_HEADER + "\nsideways,2,1,0.5,1.0\n")
    with pytest.raises(io.IoError, match="unknown cut kind"):
        io.read_cuts_csv(path)


def test_summary_json_file(tmp_path):
    res = engine.run(make_newsvendor(), _cfg())
    path = tmp_path / "summary.json"
    io.write_summary_json(path, res, seed=7)
    doc = json.loads(path.read_text())
    assert set(doc) == {"status", "lower_bound", "x1", "iters", "seed"}
    assert doc["lower_bound"] == res.final_lower_bound
    assert doc["x1"] == [float(res.final_x1[0])]


def test_shipped_instances_round_trip():
    """Every instance file shipped under demos/ survives parse -> serialize
    -> parse with no validation violations and a stable document form."""
    paths = sorted(DEMO_INSTANCES.glob("*.json"))
    assert len(paths) >= 4
    for path in paths:
        problem = io.load_problem(path)          # validates on load
        doc = io.problem_to_dict(problem)
        again = io.problem_from_dict(doc)        # validates again
        assert io.problem_to_dict(again) == doc, path.name


# ---------------------------------------------------------------------------
# the one-pass reader against the reference reader (tests/checks.py)
# ---------------------------------------------------------------------------

def _assert_same_array(got, want, what):
    assert (got.dtype, got.shape, got.flags.c_contiguous) == \
        (want.dtype, want.shape, want.flags.c_contiguous), what
    assert got.tobytes() == want.tobytes(), what


def _payloads(p):
    if p.form == model.TREE:
        return [(f"node {node.id}", node.payload) for node in p.nodes if node.payload is not None]
    return [(f"stage {s} realization {j}", real) for s, stage in enumerate(p.stages, start=1)
            for j, real in enumerate(stage.realizations)]


def _assert_same_problem(got, want):
    """Every array of ``got`` equals ``want``'s bit for bit, in shape, dtype and contiguity."""
    assert io.problem_to_dict(got) == io.problem_to_dict(want)
    _assert_same_array(got.x0, want.x0, "x0")
    _assert_same_array(got.lower_value_bound, want.lower_value_bound, "lower_value_bound")
    got_payloads, want_payloads = _payloads(got), _payloads(want)
    assert len(got_payloads) == len(want_payloads)
    for (where, pay), (_where, ref) in zip(got_payloads, want_payloads):
        assert (pay.prob, pay.cost.dim) == (ref.prob, ref.cost.dim), where
        for name, field in (("pieces_c", pay.cost.pieces_c), ("pieces_d", pay.cost.pieces_d),
                            ("b", pay.b), ("g", pay.g), ("h", pay.h), ("lb", pay.lb),
                            ("ub", pay.ub)):
            _assert_same_array(field, getattr(ref.cost if name.startswith("pieces") else ref,
                                              name), f"{where} {name}")
        assert len(pay.a_blocks) == len(ref.a_blocks), where
        for tau, (blk, ref_blk) in enumerate(zip(pay.a_blocks, ref.a_blocks)):
            _assert_same_array(blk, ref_blk, f"{where} A block {tau}")


def _file_doc(p) -> dict:
    """The document of ``p`` as its problem file reads back."""
    return json.loads(io.dump_json(io.problem_to_dict(p)))


def test_demo_instances_load_as_the_reference_reads_them():
    paths = sorted(DEMO_INSTANCES.glob("*.json"))
    assert len(paths) >= 4
    for path in paths:
        _assert_same_problem(io.load_problem(path),
                             problem_from_dict_by_walk(json.loads(path.read_text())))


@pytest.mark.parametrize("name", ["lattice-mixture", "tree-cvar"])
def test_benchmark_instances_load_as_the_reference_reads_them(tmp_path, name):
    # the first 8 instances of the workload's seed-1101 stream, through their files
    wl = perfbench_module("workloads")
    w = wl.WORKLOADS[name]
    for index in range(8):
        problem, _engine_seed = wl.make_instance(w, conftest, 1101, index)
        path = tmp_path / f"i{index}.json"
        io.save_problem(problem, path)
        _assert_same_problem(io.load_problem(path),
                             problem_from_dict_by_walk(json.loads(path.read_text())))


def _drawn_problem(draw):
    """A random certified lattice instance or its tree, under a drawn risk measure."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    risk = draw(st.sampled_from([None, RiskSpec(kind="cvar", epsilon=0.5),
                                 RiskSpec(kind="mixture", lam=0.3, epsilon=0.25)]))
    p = random_lattice_instance(rng, draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                                draw(st.integers(1, 3)), risk=risk)
    return lattice_to_tree(p) if draw(st.booleans()) else p


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_drawn_instances_load_as_the_reference_reads_them(data):
    doc = _file_doc(_drawn_problem(data.draw))
    for raw in _payload_docs(doc):
        for pair in (("A", "b"), ("G", "h")):
            if data.draw(st.booleans()):
                for key in pair:
                    raw.pop(key, None)
    _assert_same_problem(io.problem_from_dict(doc),
                         problem_from_dict_by_walk(json.loads(json.dumps(doc))))


def _payload_docs(doc) -> list:
    if doc["form"] == model.TREE:
        return [raw for raw in doc["nodes"] if raw["parent"] is not None]
    return [raw for stage in doc["stages"] for raw in stage["realizations"]]


def _paths(value, path=()):
    """Every (path, value) below ``value``, containers and leaves, parents first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _owner(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _is_matrix(value) -> bool:
    return (isinstance(value, list) and value
            and all(isinstance(row, list) and row
                    and all(isinstance(v, (int, float)) for v in row) for row in value))


BAD_LEAVES = (True, "1", None, float("nan"), float("inf"))  # float("inf") is how 1e999 reads


def _damage(draw, doc) -> str:
    """Damage ``doc`` in place, once: a leaf, a row, a block, a list, a depth or a key; return which."""
    found = list(_paths(doc))[1:]
    spots = {
        "leaf": [path for path, value in found if not isinstance(value, (dict, list))],
        "ragged": [path for path, value in found if _is_matrix(value)],
        "column": [path for path, value in found if _is_matrix(value)],
        "empty": [path for path, value in found if isinstance(value, list) and value],
        "deeper": [path for path, value in found if isinstance(value, (int, float))
                   and not isinstance(value, bool) and isinstance(_owner(doc, path), list)],
        "shallower": [path for path, value in found if isinstance(value, list) and value
                      and not isinstance(value[0], (dict, list))
                      and path[-1] not in OPTIONAL_KEYS],
        "drop": [path for path, _value in found if isinstance(_owner(doc, path), dict)],
    }
    damage = draw(st.sampled_from([name for name, paths in spots.items() if paths]))
    path = draw(st.sampled_from(spots[damage]))
    owner, key = _owner(doc, path), path[-1]
    if damage == "leaf":
        owner[key] = draw(st.sampled_from(BAD_LEAVES))
    elif damage == "ragged":  # one row loses or gains an entry
        row = owner[key][draw(st.integers(0, len(owner[key]) - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(0.5)
    elif damage == "column":  # a matrix written transposed: a one-row block becomes a column
        owner[key] = [list(col) for col in zip(*owner[key])]
    elif damage == "empty":
        owner[key] = []
    elif damage == "deeper":  # a number in a list of them wrapped in a list of its own
        owner[key] = [owner[key]]
    elif damage == "shallower":  # a list of numbers written as its first number
        owner[key] = owner[key][0]
    else:
        del owner[key]
    return damage


def _read(read, arg):
    """``(result, None)`` or ``(None, the IoError text)``."""
    try:
        return read(arg), None
    except io.IoError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_damaged_documents_get_the_reference_verdict(data):
    # one damage per document: the same problem or the same error text
    base = data.draw(st.sampled_from(["newsvendor", "newsvendor-tree", "chain", "feasibility",
                                      "drawn"]))
    p = {"newsvendor": make_newsvendor, "newsvendor-tree": make_newsvendor_tree,
         "chain": make_chain_instance, "feasibility": make_feasibility_instance,
         "drawn": lambda: _drawn_problem(data.draw)}[base]()
    doc = _file_doc(p)
    damage = _damage(data.draw, doc)
    got, error = _read(io.problem_from_dict, json.loads(json.dumps(doc)))
    want, want_error = _read(problem_from_dict_by_walk, json.loads(json.dumps(doc)))
    assert error == want_error, damage
    if want is not None:
        _assert_same_problem(got, want)


@functools.cache
def _cut_dumps() -> tuple:
    """Cut dumps with optimality rows, feasibility rows and both, as text."""
    runs = [(make_feasibility_instance(), "alg2"), (make_newsvendor(), "alg1"),
            (lattice_to_tree(random_lattice_instance(np.random.default_rng(4), 3, 2, 2)),
             "alg3")]
    return tuple(io.cuts_csv_text(engine.run(problem, _cfg(algorithm=alg, max_iters=12,
                                                            stall_window=12)).pools)
                 for problem, alg in runs)


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for rec, ref in zip(got, want):
        assert (rec.kind, rec.where, rec.iteration) == (ref.kind, ref.where, ref.iteration)
        assert type(rec.theta) is type(ref.theta) and rec.theta == ref.theta
        _assert_same_array(rec.beta, ref.beta, "beta")
        if ref.anchor is None:
            assert rec.anchor is None
        else:
            _assert_same_array(rec.anchor, ref.anchor, "anchor")


CSV_DAMAGES = ("none", "field", "drop-field", "add-field", "no-numbers", "blank-line")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_cut_dumps_get_the_reference_verdict(tmp_path_factory, data):
    text = data.draw(st.sampled_from(_cut_dumps()))
    lines = text.splitlines()
    assert len(lines) > 1
    damage = data.draw(st.sampled_from(CSV_DAMAGES))
    ln = data.draw(st.integers(1, len(lines) - 1))
    fields = lines[ln].split(",")
    if damage == "field":
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
            st.sampled_from(["true", "1", "null", "NaN", "1e999", "", "x"]))
    elif damage == "drop-field":
        del fields[data.draw(st.integers(0, len(fields) - 1))]
    elif damage == "add-field":
        fields.insert(data.draw(st.integers(0, len(fields))), "0.5")
    elif damage == "no-numbers":
        fields = fields[:3]
    lines[ln] = ",".join(fields)
    if damage == "blank-line":
        lines.insert(ln, "")
    path = tmp_path_factory.mktemp("dump") / "cuts.csv"
    path.write_text("\n".join(lines) + "\n")
    got, error = _read(io.read_cuts_csv, path)
    want, want_error = _read(read_cuts_csv_by_row, path)
    assert error == want_error, damage
    if want is not None:
        _assert_same_records(got, want)


def test_cut_dumps_read_as_the_reference_reads_them(tmp_path):
    for i, text in enumerate(_cut_dumps()):
        path = tmp_path / f"cuts{i}.csv"
        path.write_text(text)
        records = io.read_cuts_csv(path)
        assert {rec.kind for rec in records} <= {io.CUT_KIND_OPTIMALITY, io.CUT_KIND_FEASIBILITY}
        _assert_same_records(records, read_cuts_csv_by_row(path))
    assert any(rec.kind == io.CUT_KIND_FEASIBILITY
               for rec in read_cuts_csv_by_row(tmp_path / "cuts0.csv"))


# ---------------------------------------------------------------------------
# fields that are present but not lists, and files that are not UTF-8
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fields", [{"G": False, "h": 0}, {"A": 0, "b": False},
                                    {"G": {}, "h": ""}, {"G": False}, {"h": 0.0}],
                         ids=["G-false-h-0", "A-0-b-false", "G-object-h-empty-string",
                              "G-false", "h-0"])
def test_a_falsy_system_field_is_not_read_as_absent(fields):
    # stage 2 of the shipped newsvendor has inequality rows; "G": false once
    # dropped them silently and the problem loaded without them
    doc = json.loads((DEMO_INSTANCES / "newsvendor.json").read_text())
    raw = doc["stages"][1]["realizations"][0]
    assert raw["G"] and raw["h"]
    raw.update(fields)
    with pytest.raises(io.IoError) as err:
        io.problem_from_dict(doc)
    key = next(iter(fields))
    assert str(err.value) == (f"stage 2 realization 0: malformed payload: {key!r} must be a "
                              f"list, not {fields[key]!r}")


@pytest.mark.parametrize("value", [0, False, "", {}, 0.0])
def test_a_falsy_lower_value_bound_is_not_read_as_absent(value):
    doc = io.problem_to_dict(make_newsvendor())
    doc["lower_value_bound"] = value
    with pytest.raises(io.IoError) as err:
        io.problem_from_dict(doc)
    assert str(err.value) == ("malformed problem document: 'lower_value_bound' must be a "
                              f"list, not {value!r}")


@pytest.mark.parametrize("key", ["A", "b", "G", "h", "lower_value_bound"])
def test_a_missing_or_null_field_is_absent(key):
    # a payload without a system and a one-stage problem's bound list load
    # the same whether the key is missing or null
    p = make_chain_instance() if key in ("A", "b") else make_newsvendor()
    doc = io.problem_to_dict(p)
    owner = doc if key == "lower_value_bound" else doc["stages"][1]["realizations"][0]
    if key == "lower_value_bound":
        doc["horizon"] = 1
        doc["stages"] = doc["stages"][:1]
    partner = {"A": "b", "b": "A", "G": "h", "h": "G"}.get(key)
    for name in (key, partner):
        owner.pop(name, None)
    missing = io.problem_from_dict(json.loads(json.dumps(doc)))
    for name in (key, partner):
        if name is not None:
            owner[name] = None
    _assert_same_problem(io.problem_from_dict(doc), missing)


@pytest.mark.parametrize("where", ["x0", "lb", "cost-d", "node-prob", "risk-rhs"])
def test_an_integer_too_large_for_a_float_is_an_io_error(where):
    # a JSON integer literal of 400 digits: float() overflows on it
    huge = 10 ** 400
    if where == "node-prob":
        doc = io.problem_to_dict(make_newsvendor_tree())
        doc["nodes"][2]["prob"] = huge
    else:
        rows = [(np.array([1.0, 0.0]), 2.0), (np.array([0.0, 1.0]), 2.0)]
        doc = io.problem_to_dict(make_newsvendor(RiskSpec(kind="polytope", rows=rows)))
        raw = _stage2(doc)
        if where == "x0":
            doc["x0"] = [huge]
        elif where == "lb":
            raw["lb"] = [huge]
        elif where == "cost-d":
            raw["cost_pieces"][0]["d"] = huge
        else:
            doc["stages"][1]["risk"]["rows"][0]["rhs"] = huge
    with pytest.raises(io.IoError, match="too large to convert to float"):
        io.problem_from_dict(doc)
