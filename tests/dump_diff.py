"""Compare two trees of run artifacts kept by ``replay_digest.py --keep``, number by number.

Each tree holds one directory per instance, ``<workload>-<index>/``, with
its ``cuts.csv`` and ``summary.json``.  The two trees must name the same
instances.  Per instance each file is compared byte for byte first; where
the bytes differ, the file must still have the same structure:

* ``cuts.csv``: the same header and number of rows, and in each row the
  same kind, pool key, iteration and number of entries;
* ``summary.json``: the same keys, the same ``status``, ``iters`` and
  ``seed``, and as many ``x1`` entries.

Its numbers (a cut's ``theta``, ``beta`` and anchor; the summary's
``lower_bound`` and ``x1``) are then compared by their relative difference
``|a - b| / max(|a|, |b|)``.  One line is printed per file that differs,
with its largest relative difference or what differs in its structure,
then a total line with the largest relative difference of all.  The exit
code is 1 on a structural difference or a relative difference above
``--rtol``, else 0.

    python tests/replay_digest.py --seed 1101 --keep dumps-a > digest-a.txt
    python tests/replay_digest.py --seed 1101 --keep dumps-b > digest-b.txt  # other checkout
    python tests/dump_diff.py dumps-a dumps-b --rtol 1e-12

pytest does not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

COMPARED = ("cuts.csv", "summary.json")
SUMMARY_EXACT = ("status", "iters", "seed")


class StructuralDifference(Exception):
    """Two files differ in more than the values of their numbers."""


def rel_diff(a, b) -> float:
    """``|a - b| / max(|a|, |b|)``, 0 when equal; two values not both numbers must be equal."""
    if a == b:
        return 0.0
    if not (isinstance(a, float) and isinstance(b, float)):
        raise StructuralDifference(f"{a!r} != {b!r}")
    return abs(a - b) / max(abs(a), abs(b))


def cuts_diff(text_a: str, text_b: str) -> float:
    """The largest relative difference between two cut dumps of the same structure."""
    rows_a, rows_b = text_a.splitlines(), text_b.splitlines()
    if len(rows_a) != len(rows_b):
        raise StructuralDifference(f"{len(rows_a)} lines against {len(rows_b)}")
    if rows_a[:1] != rows_b[:1]:
        raise StructuralDifference("the headers differ")
    worst = 0.0
    for line, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        fields_a, fields_b = row_a.split(","), row_b.split(",")
        if fields_a[:3] != fields_b[:3] or len(fields_a) != len(fields_b):
            raise StructuralDifference(f"line {line}: the kind, key, iteration or entry count "
                                       "differ")
        for a, b in zip(fields_a[3:], fields_b[3:]):
            worst = max(worst, rel_diff(float(a), float(b)))
    return worst


def summary_diff(text_a: str, text_b: str) -> float:
    """The largest relative difference between two summaries of the same structure."""
    a, b = json.loads(text_a), json.loads(text_b)
    if a.keys() != b.keys():
        raise StructuralDifference("the keys differ")
    for key in SUMMARY_EXACT:
        if a[key] != b[key]:
            raise StructuralDifference(f"{key}: {a[key]!r} != {b[key]!r}")
    x1_a, x1_b = a["x1"] or [], b["x1"] or []
    if len(x1_a) != len(x1_b) or (a["x1"] is None) != (b["x1"] is None):
        raise StructuralDifference("x1 differs in length")
    pairs = [(a["lower_bound"], b["lower_bound"]), *zip(x1_a, x1_b)]
    return max(rel_diff(x, y) for x, y in pairs)


DIFFS = {"cuts.csv": cuts_diff, "summary.json": summary_diff}


def compare(tree_a: Path, tree_b: Path, rtol: float) -> tuple[list[str], bool]:
    """The report lines for two kept trees, and whether they agree within ``rtol``."""
    names_a = sorted(p.name for p in tree_a.iterdir() if p.is_dir())
    names_b = sorted(p.name for p in tree_b.iterdir() if p.is_dir())
    if names_a != names_b:
        only = sorted(set(names_a) ^ set(names_b))
        return [f"the trees name different instances: {' '.join(only)}"], False
    lines, ok, worst, differ = [], True, 0.0, 0
    for name in names_a:
        for artifact in COMPARED:
            bytes_a = (tree_a / name / artifact).read_bytes()
            bytes_b = (tree_b / name / artifact).read_bytes()
            if bytes_a == bytes_b:
                continue
            differ += 1
            try:
                diff = DIFFS[artifact](bytes_a.decode(), bytes_b.decode())
            except StructuralDifference as exc:
                lines.append(f"{name} {artifact} structure: {exc}")
                ok = False
                continue
            worst = max(worst, diff)
            ok = ok and diff <= rtol
            lines.append(f"{name} {artifact} max_rel={diff:.3g}")
    lines.append(f"{len(names_a)} instances, {differ} files differ, "
                 f"largest relative difference {worst:.3g} (rtol {rtol:g})")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="a --keep directory")
    parser.add_argument("tree_b", type=Path, help="the --keep directory to compare it with")
    parser.add_argument("--rtol", type=float, default=1e-12,
                        help="largest relative difference allowed (default 1e-12)")
    args = parser.parse_args(argv)
    lines, ok = compare(args.tree_a, args.tree_b, args.rtol)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
