"""Print a digest of every perfbench instance of one seed, to compare two checkouts.

Each instance of each workload is generated and solved the way perfbench
solves it (``perfbench/workloads.py``, loaded read-only): at the workload's
iteration budget with the stall rule off.  One line per instance gives the
workload, the instance index, the SHA-256 of ``cuts.csv`` followed by
``summary.json``, the run's ``lps``, ``lps_reused``, ``lps_warm``,
``lps_dual`` and ``pivots`` counts, ``solves=`` the sum
``lps + lps_reused``, and ``diag=`` a short SHA-256 of the run's
``pi_norm_max``, ``pi_norm_first5`` and ``cuts_skipped`` diagnostics.
``lps_reused`` counts the stage solves that handed back an earlier solve of
the same LP instead of solving one; ``solves=`` is every stage and phase-I
solve the run asked for.

Two checkouts that replay the same run must match on the hash, ``diag=``,
``solves=`` and the audit lines: the same cuts and summaries, the same
subgradient norms and skipped cuts, the same solves asked for, and the same
oracle verdicts.  The split of ``solves=`` into ``lps`` and ``lps_reused``,
and with it ``lps_warm``, ``lps_dual`` and ``pivots``, may move when a
checkout hands back more or fewer earlier solves.
After each solve line, an audit line gives the workload, the instance index,
``audit`` and the summary of the in-process ``check-cuts`` perfbench runs on
that cut dump (``workloads.audit``): ``checked N cuts at P points per pool:
V violations``, followed by any violation it reports.  Audit lines compare
the two checkouts' oracle verdicts; every one should read ``0 violations``.

With ``--keep DIR`` each instance's ``cuts.csv``, ``summary.json`` and
``iterations.csv`` are kept under ``DIR/<workload>-<index>/``, so the dumps
of two checkouts whose hashes differ can be compared number by number.

    python tests/replay_digest.py --seed 1101 > digest.txt
    python tests/replay_digest.py --seed 1101 --keep dumps > digest.txt

pytest does not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


KEPT = ("cuts.csv", "summary.json", "iterations.csv")
DIAGNOSTICS = ("pi_norm_max", "pi_norm_first5", "cuts_skipped")


def digest_lines(seed: int, keep: Path | None = None):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as wl

    gen = wl.load_generators(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for name, w in wl.WORKLOADS.items():
            for index in range(w.instances):
                problem, engine_seed = wl.make_instance(w, gen, seed, index)
                result, _seconds = wl.solve(problem, w, engine_seed)
                outdir = Path(tmp) / name / f"i{index}"
                wl.write_artifacts(outdir, result, problem, engine_seed)
                if keep is not None:
                    kept = keep / f"{name}-{index}"
                    kept.mkdir(parents=True, exist_ok=True)
                    for artifact in KEPT:
                        shutil.copyfile(outdir / artifact, kept / artifact)
                sha = hashlib.sha256()
                for artifact in ("cuts.csv", "summary.json"):
                    sha.update((outdir / artifact).read_bytes())
                diagnostics = result.diagnostics
                counts = " ".join(f"{key}={diagnostics[key]}"
                                  for key in ("lps", "lps_reused", "lps_warm", "lps_dual",
                                              "pivots"))
                solves = diagnostics["lps"] + diagnostics["lps_reused"]
                diag = hashlib.sha256(repr([diagnostics[key] for key in DIAGNOSTICS])
                                      .encode()).hexdigest()[:12]
                yield f"{name} {index} {sha.hexdigest()} {counts} solves={solves} diag={diag}"
                problem_file = outdir / "problem.json"
                wl.io.save_problem(problem, problem_file)
                _passed, _seconds, text = wl.audit(w, problem_file, outdir / "cuts.csv",
                                                   engine_seed)
                yield f"{name} {index} audit {text}"


def main(argv=None) -> int:
    # One BLAS thread, as perfbench runs, set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="perfbench instance seed")
    parser.add_argument("--keep", type=Path, default=None, metavar="DIR",
                        help="keep each instance's artifacts under DIR/<workload>-<index>/")
    args = parser.parse_args(argv)
    for line in digest_lines(args.seed, args.keep):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
