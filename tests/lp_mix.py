"""Print the stage-LP traffic of the perfbench workloads, by stage and kind of solve.

Each instance of each workload is generated, written, loaded back and
solved the way perfbench solves it (``perfbench/workloads.py``, loaded
read-only, as ``tests/replay_digest.py`` does): the workload's iteration
budget with the stall rule off.  Every ``engine.StageLp.solve`` call is
timed and sorted into one kind:

* ``first``: the position's first solve, which builds its LP;
* ``dual``: a re-solve of the held LP that took dual simplex pivots;
* ``nopiv``: a re-solve of the held LP with no pivot at all;
* ``other``: a held re-solve with primal pivots only, or one that declined
  and was solved again cold.

For each workload and seed one table follows, one line per stage and a
total: the solves of each kind and the pivots per instance, the mean row
count of the solved LPs and the median time in µs of each kind over all
instances (``-`` where a kind did not occur).  The times are scaled to
perfbench's reference host speed as perfbench scales its ops
(``perfbench/hostspeed.py``, loaded read-only): the fixed kernel is timed
before and after each instance's solve, and each of that solve's stage-LP
times is scaled by the mean of the two, so two checkouts run at different
moments of a shared host's drift compare.  A warm-up solve of the first
instance runs untimed before each table.

    python tests/lp_mix.py --seed 1101
    python tests/lp_mix.py --seed 1101 --seed 1102 --workload tree-cvar

Run it in two checkouts to see where a change to the stage solves saves
time: it imports ``riskdp`` from the ``src`` beside it.  pytest does not
collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("first", "dual", "nopiv", "other")


def classify(was_held: bool, sol) -> str:
    """The kind of one ``StageLp.solve`` call (see the module docstring)."""
    if not was_held:
        return "first"
    if not sol.warm_start:
        return "other"
    if sol.dual_start:
        return "dual"
    return "nopiv" if sol.pivots == 0 else "other"


def record_solves(engine, calls: list) -> None:
    """Wrap ``engine.StageLp.solve`` so each call appends its record to ``calls``.

    A record is ``(stage, kind, pivots, rows, seconds)``.
    """
    original = engine.StageLp.solve

    def timed(self, problem, where, history, view, z_lo):
        was_held = self.lp is not None
        started = time.perf_counter()
        sol = original(self, problem, where, history, view, z_lo)
        seconds = time.perf_counter() - started
        calls.append((problem.topology.stage(where), classify(was_held, sol), sol.pivots,
                      self.lp.m if self.lp is not None else len(self.b0), seconds))
        return sol

    engine.StageLp.solve = timed


def table(calls: list, instances: int) -> list[str]:
    """The table of ``calls`` (see the module docstring), one string per line."""
    by_stage = defaultdict(list)
    for call in calls:
        by_stage[call[0]].append(call)
    head = ("stage " + " ".join(f"{kind:>6}" for kind in KINDS) + "  pivots   rows  "
            + " ".join(f"{kind + '_us':>9}" for kind in KINDS[:3]))
    lines = [head]
    for stage, group in [*sorted(by_stage.items()), ("all", calls)]:
        counts = {kind: sum(1 for c in group if c[1] == kind) for kind in KINDS}
        pivots = sum(c[2] for c in group)
        rows = statistics.fmean(c[3] for c in group)
        medians = []
        for kind in KINDS[:3]:
            times = [c[4] for c in group if c[1] == kind]
            medians.append(f"{statistics.median(times) * 1e6:9.1f}" if times else f"{'-':>9}")
        lines.append(f"{stage!s:>5} " + " ".join(f"{counts[k] / instances:6.2f}" for k in KINDS)
                     + f"  {pivots / instances:6.2f} {rows:6.2f}  " + " ".join(medians))
    return lines


def main(argv=None) -> int:
    # One BLAS thread, as perfbench runs, set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="perfbench instance seed (repeatable)")
    parser.add_argument("--workload", action="append", default=None,
                        help="workload name (repeatable; default: every workload)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as wl
    from hostspeed import HostSpeed
    from riskdp import engine

    calls: list = []
    record_solves(engine, calls)
    gen = wl.load_generators(ROOT)
    speed = HostSpeed()
    for name in args.workload or list(wl.WORKLOADS):
        w = wl.WORKLOADS[name]
        for seed in args.seed:
            with tempfile.TemporaryDirectory() as tmp:
                problems = []
                for index in range(w.instances):
                    generated, engine_seed = wl.make_instance(w, gen, seed, index)
                    problem_file = Path(tmp) / f"i{index}.json"
                    wl.io.save_problem(generated, problem_file)
                    problems.append((wl.io.load_problem(problem_file), engine_seed))
            wl.solve(problems[0][0], w, problems[0][1])  # warm-up, untimed
            calls.clear()
            for problem, engine_seed in problems:
                first = len(calls)
                speed.refresh()
                wl.solve(problem, w, engine_seed)
                scale = speed.normalize(1.0)  # reference seconds per measured second
                calls[first:] = [(*call[:4], call[4] * scale) for call in calls[first:]]
            print(f"{name} seed {seed}: {w.instances} instances, {len(calls)} stage solves")
            for line in table(calls, w.instances):
                print("  " + line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
