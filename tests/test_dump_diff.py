"""Tests for ``tests/dump_diff.py``, the number-by-number comparison of two kept dump trees."""

import json

import numpy as np
import pytest

import dump_diff
from riskdp import io

CUT_ROWS = ["optimality,2,1,1.5,-0.5,0.25", "optimality,2,3,1.75,-0.25,1.0",
            "feasibility,2,4,0.5,1.0"]
SUMMARY = {"status": "converged_by_stall", "lower_bound": 1.5, "x1": [1.0],
           "iters": 4, "seed": 0}


def _tree(root, rows=CUT_ROWS, summary=SUMMARY):
    """A kept tree with one instance, ``tiny-0``: its cut dump and its summary."""
    kept = root / "tiny-0"
    kept.mkdir(parents=True)
    (kept / "cuts.csv").write_text("\n".join([io.CUTS_CSV_HEADER, *rows]) + "\n")
    (kept / "summary.json").write_text(json.dumps(summary))
    return root


def _ulp_off(rows):
    """``rows`` with the second row's theta one ulp higher."""
    fields = rows[1].split(",")
    fields[3] = repr(float(np.nextafter(float(fields[3]), np.inf)))
    return [rows[0], ",".join(fields), *rows[2:]]


@pytest.mark.parametrize("other, code, line", [
    (lambda tmp: _tree(tmp / "b"), 0, "1 instances, 0 files differ"),
    (lambda tmp: _tree(tmp / "b", rows=_ulp_off(CUT_ROWS)), 0, "tiny-0 cuts.csv max_rel=1.27e-16"),
    (lambda tmp: _tree(tmp / "b", rows=CUT_ROWS[:2]), 1, "tiny-0 cuts.csv structure: 4 lines"),
    (lambda tmp: _tree(tmp / "b", summary=SUMMARY | {"iters": 5}), 1,
     "tiny-0 summary.json structure: iters"),
], ids=["identical", "one-ulp", "row-dropped", "iters-moved"])
def test_dump_diff_passes_rounding_and_fails_on_structure(tmp_path, capsys, other, code, line):
    tree_a = _tree(tmp_path / "a")
    assert dump_diff.main([str(tree_a), str(other(tmp_path))]) == code
    assert line in capsys.readouterr().out


def test_dump_diff_fails_a_difference_above_rtol(tmp_path, capsys):
    tree_a, tree_b = _tree(tmp_path / "a"), _tree(tmp_path / "b", rows=_ulp_off(CUT_ROWS))
    assert dump_diff.main([str(tree_a), str(tree_b), "--rtol", "1e-17"]) == 1
    assert "largest relative difference 1.27e-16" in capsys.readouterr().out
