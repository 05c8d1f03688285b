"""Seeded workloads: instance generation, oracle references, the timed ops.

Every workload is the same user loop over a stream of seeded instances:
write the instance with ``io.save_problem``, load it back (the set-up path),
run one ``engine.run`` at a fixed iteration budget with the stall rule off,
write the run artifacts, and audit the cut dump with ``riskdp check-cuts``.
The workloads differ in instance shape, risk measure, budget and audit depth,
which moves the cost between the stage-LP re-solves, per-call overhead and the
exact oracles.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from riskdp import cli, engine, io, oracle
from riskdp.risk import RiskSpec

GAP_RTOL = 1e-6       # the bound is "at the reference" within GAP_RTOL * max(1, |ref|)
SETUP_REPEATS = 5     # timed loads per instance; set-up time is their median
DISTINCT_TOL = 1e-11  # two cuts closer than this are duplicates (the oracle's rule)


@dataclass(frozen=True)
class Workload:
    name: str
    form: str            # "lattice" or "tree"
    horizon: int
    branching: int
    dim: int
    risk: str            # "mixture" or "node-cvar", see make_instance
    budget: int          # iterations per solve
    audit_points: int    # check-cuts points per pool
    instances: int       # instances per run, each measured once per pass

    @property
    def algorithm(self) -> str:
        return "alg3" if self.form == "tree" else "alg1"

    def key(self) -> str:
        """The instance parameters, as used in the reference cache."""
        return (f"{self.form}-T{self.horizon}-M{self.branching}-n{self.dim}-"
                f"{self.risk}")


# Why these workloads: see README.md.  Budgets leave a wide margin over the
# iterations the bound needs to reach the reference on these shapes.
WORKLOADS = {w.name: w for w in (
    Workload("lattice-mixture", form="lattice", horizon=3, branching=3, dim=4,
             risk="mixture", budget=60, audit_points=8, instances=16),
    Workload("tree-cvar", form="tree", horizon=3, branching=3, dim=2,
             risk="node-cvar", budget=60, audit_points=4, instances=32),
)}


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def load_generators(root: Path):
    """The test suite's certified instance generators, imported read-only."""
    path = root / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("riskdp_test_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_instance(w: Workload, gen, seed: int, index: int):
    """Instance ``index`` of the workload's stream and the engine seed to solve it with.

    The realizations of a stage are equally likely: a sampled solve visits a
    node with its path probability, so the iterations it needs to reach the
    reference grow with the inverse of the least probability.  With the
    generator's probabilities (down to 0.09 per stage) one tree instance in
    240 needed 73 iterations; with equal ones, none needed more than 31.

    ``mixture`` aggregates stage 2 with ``0.5·E + 0.5·CVaR_0.25`` and keeps
    the later stages risk neutral, so the audit's conditioned tails are exact
    LPs whose cost varies little between instances; ``node-cvar`` gives every
    inner tree node its own CVaR level, drawn from U(0.3, 0.9).
    """
    rng = np.random.default_rng([seed, index])
    problem = gen.random_lattice_instance(rng, w.horizon, w.branching, w.dim)
    for stage in problem.stages[1:]:
        for realization in stage.realizations:
            realization.prob = 1.0 / len(stage.realizations)
    if w.risk == "mixture":
        problem.stages[1].risk = RiskSpec(kind="mixture", lam=0.5, epsilon=0.25)
    if w.form == "tree":
        problem = gen.lattice_to_tree(problem)
        for node in problem.nodes:
            if node.parent is not None and problem.children(node.id):
                node.risk = RiskSpec(kind="cvar", epsilon=float(rng.uniform(0.3, 0.9)))
    return problem, int(rng.integers(0, 2**31 - 1))


class ReferenceCache:
    """Oracle values keyed by workload, instance parameters and seed.

    Each entry stores the SHA-256 of the problem file it was computed from;
    an entry whose file differs is recomputed, so a changed generator can
    never hand out a stale reference.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self.entries = json.loads(path.read_text())
        except (OSError, ValueError):
            self.entries = {}

    def value(self, key: str, problem_file: Path) -> float:
        digest = hashlib.sha256(problem_file.read_bytes()).hexdigest()
        entry = self.entries.get(key)
        if entry is None or entry["sha256"] != digest:
            ref = oracle.reference_value(io.load_problem(problem_file))
            entry = {"sha256": digest, "value": ref}
            self.entries[key] = entry
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
        return float(entry["value"])


# ---------------------------------------------------------------------------
# ops and their checks
# ---------------------------------------------------------------------------

def solve(problem, w: Workload, engine_seed: int):
    """One ``engine.run`` at the workload budget; returns (result, seconds)."""
    cfg = engine.RunConfig(algorithm=w.algorithm, max_iters=w.budget, seed=engine_seed,
                           stall_window=w.budget + 1, cut_timing="backward")
    started = time.perf_counter()
    result = engine.run(problem, cfg)
    return result, time.perf_counter() - started


def write_artifacts(outdir: Path, result, problem, engine_seed: int) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_iterations_csv(outdir / "iterations.csv", result, problem.dim)
    io.write_cuts_csv(outdir / "cuts.csv", result.pools)
    io.write_summary_json(outdir / "summary.json", result, engine_seed)


def gap_progress(result, ref: float):
    """(iterations, seconds) until the bound first reaches ``ref``; None if never.

    Entry ``i`` of the bound sequence (the iteration reports, then the final
    bound) is known after ``i`` iterations, so the time to it is the sum of
    the first ``i`` iterations' ``wall_ms``.
    """
    tol = GAP_RTOL * max(1.0, abs(ref))
    bounds = [r.lower_bound for r in result.reports] + [result.final_lower_bound]
    for i, bound in enumerate(bounds):
        if bound >= ref - tol:
            return i, sum(r.wall_ms for r in result.reports[:i]) / 1000.0
    return None


def solve_failures(result, ref: float) -> list[str]:
    """Reasons a solve fails the oracle gate (empty when it passes)."""
    tol = GAP_RTOL * max(1.0, abs(ref))
    problems = []
    if result.status != engine.STATUS_ITER_LIMIT:
        problems.append(f"status {result.status}")
    bounds = [r.lower_bound for r in result.reports] + [result.final_lower_bound]
    if max(bounds) > ref + tol:
        problems.append(f"lower bound {max(bounds)!r} above reference {ref!r}")
    if gap_progress(result, ref) is None:
        problems.append(f"bound {result.final_lower_bound!r} never reached "
                        f"reference {ref!r} within {len(result.reports)} iterations")
    return problems


def audit(w: Workload, problem_file: Path, cuts_file: Path, engine_seed: int):
    """One in-process ``check-cuts``; returns (passed, seconds, stdout)."""
    argv = ["check-cuts", str(problem_file), str(cuts_file),
            "--points", str(w.audit_points), "--seed", str(engine_seed)]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - started
    text = out.getvalue().strip()
    return code == 0 and text.endswith(": 0 violations"), seconds, text + err.getvalue()


def time_setup(problem_file: Path, cuts_file: Path) -> list[float]:
    """Timed loads of the instance file and its cut dump (the program's load path)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        io.load_problem(problem_file)
        io.read_cuts_csv(cuts_file)
        samples.append(time.perf_counter() - started)
    return samples


def replay_mismatches(first: Path, second: Path) -> list[str]:
    """Differences between two artifact sets that must replay byte for byte.

    ``iterations.csv`` may differ only in its last column, ``wall_ms``.
    """
    bad = [name for name in ("cuts.csv", "summary.json")
           if (first / name).read_bytes() != (second / name).read_bytes()]

    def without_wall(path: Path) -> list[str]:
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    if without_wall(first / "iterations.csv") != without_wall(second / "iterations.csv"):
        bad.append("iterations.csv")
    return bad


# ---------------------------------------------------------------------------
# pool statistics
# ---------------------------------------------------------------------------

def pool_stats(result) -> tuple[int, int, int]:
    """(pooled, distinct, largest pool) over the run's optimality-cut pools.

    Permanent zero pools are left out; ``distinct`` applies the oracle's
    duplicate rule (theta and beta within 1e-11) inside each pool.
    """
    pooled = distinct = largest = 0
    for pool in result.pools.opt.values():
        cuts = pool.optimality
        if len(cuts) == 1 and cuts[0].iteration == 0:
            continue
        kept: list = []
        for cut in cuts:
            if not any(abs(c.theta - cut.theta) <= DISTINCT_TOL
                       and np.max(np.abs(c.beta - cut.beta), initial=0.0) <= DISTINCT_TOL
                       for c in kept):
                kept.append(cut)
        pooled += len(cuts)
        distinct += len(kept)
        largest = max(largest, len(cuts))
    return pooled, distinct, largest


def iteration_growth(result) -> float:
    """Mean wall time of the last 10 iterations over that of the first 10."""
    walls = [r.wall_ms for r in result.reports]
    return statistics.fmean(walls[-10:]) / statistics.fmean(walls[:10])
