"""Print a digest of every perfbench instance of one seed, to compare two checkouts.

Each instance of each workload is generated, written, loaded back and
solved the way perfbench solves it (``perfbench/workloads.py``, loaded
read-only): the problem the run sees is the one ``io.load_problem`` reads
from the instance's file, and it is solved at the workload's iteration
budget with the stall rule off.  One line per instance gives the workload,
the instance index, the SHA-256 of ``cuts.csv`` followed by
``summary.json``, the run's ``lps``, ``lps_reused``, ``lps_warm``,
``lps_dual`` and ``pivots`` counts, ``solves=`` the sum
``lps + lps_reused``, ``diag=`` a short SHA-256 of the run's
``pi_norm_max``, ``pi_norm_first5`` and ``cuts_skipped`` diagnostics, and
``load=`` a short SHA-256 of every array of the loaded problem: its shape,
dtype and bytes, ``x0`` and ``lower_value_bound`` first, then each
payload's fields, payloads in position order.
``lps_reused`` counts the stage solves that handed back an earlier solve of
the same LP instead of solving one; ``solves=`` is every stage and phase-I
solve the run asked for.

After each solve line, an audit line gives the workload, the instance index,
``audit`` and the summary of the in-process ``check-cuts`` perfbench runs on
that cut dump (``workloads.audit``): ``checked N cuts at P points per pool:
V violations``, followed by any violation it reports.  Audit lines compare
the two checkouts' oracle verdicts; every one should read ``0 violations``.
An ``nd`` line then gives the instance's exact nested decomposition
(``oracle.exact_nested_decomposition``): ``repr`` of its value, its sweeps,
its cuts and its ``lps`` and ``lps_reused`` counts.

Perfbench runs only alg1 and alg3 at backward cut timing, so the last
lines cover the rest: one per demo instance (``demos/instances``), per
algorithm whose form and cost checks it passes and per cut timing, run at
``engine.RunConfig``'s defaults with the given seed.  Each gives ``demo``,
the instance, the algorithm, the timing, the SHA-256 of ``cuts.csv``
followed by ``summary.json``, the status, the iteration count, the ``lps``
and ``lps_reused`` counts and the backtracks summed over the iterations;
a run that stops with an ``EngineError`` (alg1 on an instance without
relatively complete recourse) gives ``error`` and its message instead.

Two checkouts that replay the same runs must match on every hash,
``diag=``, ``solves=``, ``load=``, audit line, ``nd`` line and demo line:
the same cuts and summaries, the same subgradient norms and skipped cuts,
the same solves asked for, the same arrays read from the same files, the
same oracle verdicts and the same sweeps of every driver.  On a perfbench
solve line the split of ``solves=`` into ``lps`` and ``lps_reused``, and
with it ``lps_warm``, ``lps_dual`` and ``pivots``, may move when a
checkout hands back more or fewer earlier solves.

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


def load_digest(problem) -> str:
    """A short SHA-256 of every array of ``problem``: shape, dtype and bytes, in position order."""
    arrays = [problem.x0, problem.lower_value_bound]
    for where in problem.topology.positions:
        pay = problem.topology.payload(where)
        arrays += [pay.cost.pieces_c, pay.cost.pieces_d, *pay.a_blocks, pay.b, pay.g, pay.h,
                   pay.lb, pay.ub]
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(repr((arr.shape, arr.dtype.str)).encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()[:12]


def digest_lines(seed: int, keep: Path | None = None):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as wl

    gen = wl.load_generators(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for name, w in wl.WORKLOADS.items():
            for index in range(w.instances):
                generated, engine_seed = wl.make_instance(w, gen, seed, index)
                outdir = Path(tmp) / name / f"i{index}"
                outdir.mkdir(parents=True)
                problem_file = outdir / "problem.json"
                wl.io.save_problem(generated, problem_file)
                problem = wl.io.load_problem(problem_file)
                result, _seconds = wl.solve(problem, w, engine_seed)
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
                yield (f"{name} {index} {sha.hexdigest()} {counts} solves={solves} diag={diag} "
                       f"load={load_digest(problem)}")
                _passed, _seconds, text = wl.audit(w, problem_file, outdir / "cuts.csv",
                                                   engine_seed)
                yield f"{name} {index} audit {text}"
                nd = wl.oracle.exact_nested_decomposition(problem)
                yield (f"{name} {index} nd {nd.value!r} sweeps={nd.sweeps} cuts={nd.n_cuts} "
                       f"lps={nd.lps} lps_reused={nd.lps_reused}")
        yield from demo_lines(seed, Path(tmp) / "demos")


def demo_lines(seed: int, tmp: Path):
    """One line per demo instance, algorithm that fits it and cut timing (see the docstring)."""
    from riskdp import engine, io

    for path in sorted((ROOT / "demos" / "instances").glob("*.json")):
        problem = io.load_problem(path)
        for algorithm in engine.ALGORITHMS:
            for timing in engine.CUT_TIMINGS:
                head = f"demo {path.stem} {algorithm} {timing}"
                cfg = engine.RunConfig(algorithm=algorithm, seed=seed, cut_timing=timing)
                try:
                    result = engine.run(problem, cfg)
                except engine.ConfigError:
                    continue
                except engine.EngineError as exc:
                    yield f"{head} error {exc}"
                    continue
                outdir = tmp / f"{path.stem}-{algorithm}-{timing}"
                outdir.mkdir(parents=True)
                io.write_cuts_csv(outdir / "cuts.csv", result.pools)
                io.write_summary_json(outdir / "summary.json", result, seed)
                sha = hashlib.sha256()
                for artifact in ("cuts.csv", "summary.json"):
                    sha.update((outdir / artifact).read_bytes())
                diagnostics = result.diagnostics
                yield (f"{head} {sha.hexdigest()} status={result.status} iters={result.iters} "
                       f"lps={diagnostics['lps']} lps_reused={diagnostics['lps_reused']} "
                       f"backtracks={sum(r.backtracks for r in result.reports)}")


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
