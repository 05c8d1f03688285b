"""Print the wall time and peak RSS of each riskdp command, each in a new interpreter.

The four commands of ``demos/05_cli_walkthrough.sh`` run on
``demos/instances/inventory_mixture.json``: ``validate``, ``solve`` (alg1,
200 iterations, seed 42), ``check-cuts`` on that solve's cut dump (200
points, seed 0) and ``oracle --method extensive-form``, the oracle route
that solves through HiGHS.  Each command is one new ``python`` process that
calls ``riskdp.cli.main`` and then reads its own peak resident set
(``getrusage(RUSAGE_SELF).ru_maxrss``) and which of ``scipy`` and
``scipy.optimize`` it imported.  The wall time is the whole process's,
interpreter start-up included, timed around it; each figure is the median
of ``--repeat`` rounds of the four commands.

    python tests/footprint.py
    python tests/footprint.py --repeat 9

Run it in two checkouts to compare them: it imports ``riskdp`` from the
``src`` beside it.  pytest does not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INSTANCE = ROOT / "demos" / "instances" / "inventory_mixture.json"

CHILD = """
import json, resource, sys
from riskdp import cli

report, *argv = sys.argv[1:]
code = cli.main(argv)
with open(report, "w") as out:
    json.dump({"code": code,
               "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "scipy": "scipy" in sys.modules,
               "scipy.optimize": "scipy.optimize" in sys.modules}, out)
"""


def commands(run_dir: Path) -> dict[str, list[str]]:
    problem = str(INSTANCE)
    return {
        "validate": ["validate", problem],
        "solve": ["solve", problem, "--alg", "alg1", "--iters", "200", "--seed", "42",
                  "--out", str(run_dir)],
        "check-cuts": ["check-cuts", problem, str(run_dir / "cuts.csv"),
                       "--points", "200", "--seed", "0", "--tol", "1e-6"],
        "oracle": ["oracle", problem, "--method", "extensive-form"],
    }


def run_once(argv: list[str], report: Path, env: dict) -> dict:
    """One command in a new interpreter: its exit code, wall time, peak RSS and imports."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD, str(report), *argv], env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    wall_s = time.perf_counter() - started
    return {**json.loads(report.read_text()), "wall_s": wall_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="rounds of the four commands (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # One BLAS thread, as perfbench and tests/replay_digest.py run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    runs: dict[str, list[dict]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for _ in range(args.repeat):
            for name, command in commands(tmp / "run").items():
                runs.setdefault(name, []).append(run_once(command, tmp / "report.json", env))
    print(f"{'command':<11} {'exit':>4} {'wall_s':>7} {'peak_rss_mb':>11}  scipy  scipy.optimize")
    for name, results in runs.items():
        last = results[-1]
        print(f"{name:<11} {last['code']:>4} "
              f"{statistics.median(r['wall_s'] for r in results):>7.3f} "
              f"{statistics.median(r['rss_mb'] for r in results):>11.1f}  "
              f"{'yes' if last['scipy'] else 'no':<5}  "
              f"{'yes' if last['scipy.optimize'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
