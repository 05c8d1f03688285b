"""riskdp benchmark: seeded solve-and-audit workloads with per-layer tracing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lattice-mixture --seed 1 --seconds 50 --trace 0

One run generates the workload's instances from ``--seed``, warms up on the
first one, and measures them in passes until ``--seconds`` have passed; a
host too slow for one whole pass measures a prefix of the instances.  A pass
puts every instance through the user loop of :mod:`workloads`: load, solve
at a fixed budget, write artifacts, audit the cut dump.  Every solve is
checked against the exact oracle reference, every audit must report no
violations, and every later solve of an instance must replay the artifacts
of its first.

Each timed op is scaled to a reference host speed by a fixed kernel timed
around it (see :mod:`hostspeed`), which cancels the drift in speed of a
shared machine; each metric is the mean over the instances of the
instance's median over the passes.

``--trace 0`` prints the end-to-end metrics, measured with nothing wrapped.
``--trace 1`` adds one traced pass and prints the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
TRACED_INSTANCES = 4  # instances the traced pass covers


@dataclass
class Instance:
    """One generated instance and its measurements across passes."""

    index: int
    dir: Path
    problem_file: Path
    engine_seed: int
    ref: float
    solve_s: list[float] = field(default_factory=list)  # measured, per pass
    audit_s: list[float] = field(default_factory=list)
    # The same ops scaled to the reference host speed (hostspeed.normalize).
    solve_n: list[float] = field(default_factory=list)
    audit_n: list[float] = field(default_factory=list)
    setup_n: list[float] = field(default_factory=list)
    best: object = None          # the run result of the fastest solve
    first: Path | None = None    # artifacts of the first solve, replayed by later ones


class Bench:
    """One benchmark run: the workload, its instances and the op accounting."""

    def __init__(self, w, wl, seed: int, run_dir: Path, speed):
        self.w, self.wl, self.seed, self.run_dir, self.speed = w, wl, seed, run_dir, speed
        self.attempted = 0
        self.failed = 0

    def fail(self, msg: str) -> None:
        self.failed += 1
        print(f"FAILED {self.w.name} seed {self.seed} {msg}", file=sys.stderr)

    def prepare(self, gen, refs, index: int) -> Instance:
        """Generate, write and reference one instance (untimed)."""
        wl = self.wl
        problem, engine_seed = wl.make_instance(self.w, gen, self.seed, index)
        inst_dir = self.run_dir / f"i{index}"
        inst_dir.mkdir()
        problem_file = inst_dir / "problem.json"
        wl.io.save_problem(problem, problem_file)
        ref = refs.value(f"{self.w.name}/{self.w.key()}/seed{self.seed}/i{index}",
                         problem_file)
        return Instance(index, inst_dir, problem_file, engine_seed, ref)

    def solve(self, inst: Instance, outdir: Path):
        """Load, solve and check one instance; write its artifacts to ``outdir``."""
        wl = self.wl
        problem = wl.io.load_problem(inst.problem_file)
        self.attempted += 1
        result, seconds = wl.solve(problem, self.w, inst.engine_seed)
        normalized = self.speed.normalize(seconds)
        for reason in wl.solve_failures(result, inst.ref):
            self.fail(f"instance {inst.index}: {reason}")
        wl.write_artifacts(outdir, result, problem, inst.engine_seed)
        if inst.first is None:
            inst.first = outdir
        else:
            for name in wl.replay_mismatches(inst.first, outdir):
                self.fail(f"instance {inst.index}: {outdir.name} {name} differs from "
                          f"{inst.first.name}")
        return result, seconds, normalized

    def audit(self, inst: Instance, cuts_file: Path) -> tuple[float, float]:
        self.attempted += 1
        passed, seconds, text = self.wl.audit(self.w, inst.problem_file, cuts_file,
                                              inst.engine_seed)
        normalized = self.speed.normalize(seconds)
        if not passed:
            self.fail(f"instance {inst.index}: check-cuts: {text}")
        return seconds, normalized

    def measure(self, inst: Instance, n_pass: int, record: bool = True) -> None:
        """One untraced pass over one instance; ``record=False`` for the warm-up."""
        outdir = inst.dir / f"pass{n_pass}"
        self.speed.refresh()
        result, seconds, solve_n = self.solve(inst, outdir)
        self.speed.refresh()  # after the artifact writes and replay check
        setup = statistics.median(self.wl.time_setup(inst.problem_file, outdir / "cuts.csv"))
        setup_n = self.speed.normalize(setup)
        audit_s, audit_n = self.audit(inst, outdir / "cuts.csv")
        if not record:
            return
        if not inst.solve_s or seconds < min(inst.solve_s):
            inst.best = result
        inst.solve_s.append(seconds)
        inst.solve_n.append(solve_n)
        inst.setup_n.append(setup_n)
        inst.audit_s.append(audit_s)
        inst.audit_n.append(audit_n)

    def traced_pass(self, tracer, inst: Instance) -> float:
        """Solve and audit once with the tracer armed; returns their wall time."""
        outdir = inst.dir / "traced"
        tracer.arm(f"i{inst.index}/setup")
        self.wl.io.load_problem(inst.problem_file)
        self.wl.io.read_cuts_csv(inst.first / "cuts.csv")
        tracer.arm(f"i{inst.index}/solve")
        result, seconds, _ = self.solve(inst, outdir)
        tracer.disarm()
        tracer.arm(f"i{inst.index}/audit")
        seconds += self.audit(inst, outdir / "cuts.csv")[0]
        tracer.disarm()
        tracer.iterations += result.iters
        return seconds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "riskdp" / "engine.py",
                           ROOT / "tests" / "conftest.py") if not p.is_file()]
    if missing:
        print("perfbench: the riskdp sources are missing: "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: numpy here uses a threaded OpenBLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl
    from hostspeed import HostSpeed
    from tracing import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(wl.WORKLOADS), file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    gen = wl.load_generators(ROOT)
    refs = wl.ReferenceCache(HERE / ".cache" / "references.json")
    run_dir = WORK / w.name  # only the latest run of a workload is kept
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(w, wl, args.seed, run_dir, HostSpeed())

    started = time.perf_counter()
    # Warm-up: one solve and audit, not timed, loads the lazily imported paths
    # (and makes instance 0's first timed solve a replay).
    instances = [bench.prepare(gen, refs, 0)]
    bench.measure(instances[0], 0, record=False)
    # Passes over the workload's instances until --seconds have passed; an
    # instance is prepared when it is first reached, so a slow host measures
    # a shorter prefix of the same stream instead of overrunning.
    n_pass = 0
    while n_pass == 0 or time.perf_counter() - started < args.seconds:
        n_pass += 1
        for index in range(w.instances):
            if index == len(instances):
                instances.append(bench.prepare(gen, refs, index))
            bench.measure(instances[index], n_pass)
            if time.perf_counter() - started >= args.seconds:
                break

    if args.trace:
        traced = instances[:TRACED_INSTANCES]
        tracer = Tracer(w.name)
        tracer.install()
        traced_s = sum(bench.traced_pass(tracer, inst) for inst in traced)
        tracer.uninstall()
        tracer.write(WORK / f"trace-{w.name}.json")
        untraced_s = sum(min(i.solve_s) + min(i.audit_s) for i in traced)
        metrics = layer_metrics(wl, tracer, traced, traced_s, untraced_s)
        metrics["host.kernel_s"] = (bench.speed.median_s(), "s")
    else:
        def mean_of_medians(samples):
            return statistics.fmean(statistics.median(samples(i)) for i in instances)

        metrics = {
            "solve_s": (mean_of_medians(lambda i: i.solve_n), "s"),
            "audit_s": (mean_of_medians(lambda i: i.audit_n), "s"),
            "setup_s": (mean_of_medians(lambda i: i.setup_n), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    print(f"{w.name} seed {args.seed}: {len(instances)} instances, {n_pass} passes, "
          f"{bench.attempted} ops, {bench.failed} failed", file=sys.stderr)
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def layer_metrics(wl, tracer, instances, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of the traced pass; times and counts are per instance."""
    n = float(len(instances))
    table = tracer.layer_table()
    c = tracer.counters

    def calls(name):
        return table[name]["calls"] if name in table else 0

    def self_s(name):
        return (table[name]["self_s"] if name in table else 0.0) / n

    lps = calls("lp.solve")
    views = calls("cuts.CutPool.view")
    solve_lps = sum(1 for span in tracer.spans
                    if span[0] == "lp.solve" and span[4].endswith("/solve"))
    pools = [wl.pool_stats(i.best) for i in instances]
    pooled = sum(p[0] for p in pools)
    gaps = [wl.gap_progress(i.best, i.ref) for i in instances]
    gaps = [g for g in gaps if g is not None]
    return {
        "lp.solve.calls": (lps / n, "count"),
        "lp.solve.self_s": (self_s("lp.solve"), "s"),
        "lp.solve.share": (self_s("lp.solve") * n / traced_s, "ratio"),
        "lp.solve.pivots_per_call": (c["lp.pivots"] / lps, "count"),
        "lp.solve.rows_mean": (c["lp.rows"] / lps, "count"),
        "lp.solve.rows_max": (c["lp.rows_max"], "count"),
        "lp.solve.nonoptimal": (c["lp.nonoptimal"] / n, "count"),
        "cuts.CutPool.view.calls": (views / n, "count"),
        "cuts.CutPool.view.self_s": (self_s("cuts.CutPool.view"), "s"),
        "cuts.view_cache_hit_ratio": (c["cuts.view_hits"] / views, "ratio"),
        "cuts.CutPool.append_optimality.self_s": (self_s("cuts.CutPool.append_optimality"), "s"),
        "cuts.evaluate_pool.self_s": (self_s("cuts.evaluate_pool"), "s"),
        "cuts.build_optimality_cut.self_s": (self_s("cuts.build_optimality_cut"), "s"),
        "cuts.pooled": (pooled / n, "count"),
        "cuts.distinct_ratio": (sum(p[1] for p in pools) / pooled, "ratio"),
        "cuts.pool_max": (max(p[2] for p in pools), "count"),
        "engine.solve_node.self_s": (self_s("engine.solve_node"), "s"),
        "engine.build_stage_lp.self_s": (self_s("engine.build_stage_lp"), "s"),
        "engine.iterations": (tracer.iterations / n, "count"),
        "engine.iters_to_gap": (statistics.fmean(g[0] for g in gaps) if gaps else 0.0, "count"),
        "engine.time_to_gap_s": (statistics.fmean(g[1] for g in gaps) if gaps else 0.0, "s"),
        "engine.lps_per_iteration": (solve_lps / tracer.iterations, "count"),
        "engine.iter_growth": (statistics.fmean(wl.iteration_growth(i.best)
                                                for i in instances), "ratio"),
        "model.assemble_subproblem.self_s": (self_s("model.assemble_subproblem"), "s"),
        "model.validate_problem.self_s": (self_s("model.validate_problem"), "s"),
        "valuefn.assemble_pi.self_s": (self_s("valuefn.assemble_pi"), "s"),
        "risk.risk_value_and_density.calls": (calls("risk.risk_value_and_density") / n, "count"),
        "risk.risk_value_and_density.self_s": (self_s("risk.risk_value_and_density"), "s"),
        "oracle.true_recourse_value.self_s": (self_s("oracle.true_recourse_value"), "s"),
        "oracle.exact_nested_decomposition.calls":
            (calls("oracle.exact_nested_decomposition") / n, "count"),
        "oracle.exact_nested_decomposition.self_s":
            (self_s("oracle.exact_nested_decomposition"), "s"),
        "oracle.nd_sweeps": (c["oracle.nd_sweeps"] / n, "count"),
        "oracle.extensive_form_value.self_s": (self_s("oracle.extensive_form_value"), "s"),
        "oracle.conditioned_problem.self_s": (self_s("oracle.conditioned_problem"), "s"),
        "oracle.conditioned_subtree.self_s": (self_s("oracle.conditioned_subtree"), "s"),
        "io.load_problem.self_s": (self_s("io.load_problem"), "s"),
        "io.read_cuts_csv.self_s": (self_s("io.read_cuts_csv"), "s"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1.0, "ratio"),
    }


if __name__ == "__main__":
    sys.exit(main())
