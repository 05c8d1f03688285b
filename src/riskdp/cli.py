"""Command-line interface: solve, validate, oracle, and check-cuts.

Exit codes: 0 on success, 1 when the problem is proven infeasible (or a
cut-dump check finds violations), 2 on usage errors, 3 on numerical or I/O
failures.  ``solve`` writes three artifacts into the output directory: the
per-iteration log ``iterations.csv``, the cut dump ``cuts.csv``, and
``summary.json`` (whose ``lower_bound`` equals the last log row's value
exactly).  Logging verbosity is controlled by the ``RISKDP_LOG`` environment
variable (``error``, ``info``, or ``debug``; default ``error``).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io, oracle
from .engine import (ALGORITHMS, CUT_TIMINGS, ConfigError, EngineError,
                     RunConfig, run)
from .io import IoError, format_float
from .lp import SimplexError
from .model import Problem
from .oracle import OracleError

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_FAILURE = 3

ORACLE_METHODS = ("extensive-form", "nested-decomposition")

logger = logging.getLogger(__name__)


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("RISKDP_LOG", "error").lower()
    if name not in levels:
        print(f"warning: unknown RISKDP_LOG level {name!r}; using 'error'",
              file=sys.stderr)
        name = "error"
    logging.basicConfig(level=levels[name], stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("riskdp").setLevel(levels[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskdp",
        description="Risk-averse multistage stochastic programming on scenario trees.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_solve = sub.add_parser("solve", help="run a sampled cutting-plane solve")
    p_solve.add_argument("input", help="problem JSON file")
    p_solve.add_argument("--alg", choices=ALGORITHMS, default="alg1")
    p_solve.add_argument("--iters", type=int, default=100)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--stall-window", type=int, default=10)
    p_solve.add_argument("--stall-tol", type=float, default=1e-9)
    p_solve.add_argument("--cut-timing", choices=CUT_TIMINGS, default="backward")
    p_solve.add_argument("--oracle-check", default="off",
                         help="off, final, or every:K")
    p_solve.add_argument("--out", default=".", help="artifact output directory")
    p_solve.add_argument("--risk-override", default=None,
                         help="expectation, cvar:EPS, or mixture:LAMBDA,EPS "
                              "((1-LAMBDA)*E + LAMBDA*CVaR_EPS) applied to every "
                              "stage/node")

    p_val = sub.add_parser("validate", help="parse and validate a problem file")
    p_val.add_argument("input", help="problem JSON file")

    p_orc = sub.add_parser("oracle", help="exact reference value (small instances)")
    p_orc.add_argument("input", help="problem JSON file")
    p_orc.add_argument("--method", choices=ORACLE_METHODS, required=True)

    p_chk = sub.add_parser("check-cuts",
                           help="replay a cut dump against exact recourse values")
    p_chk.add_argument("input", help="problem JSON file")
    p_chk.add_argument("cuts", help="cut dump CSV written by solve")
    p_chk.add_argument("--points", type=int, default=100,
                       help="random histories checked per pool")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--tol", type=float, default=1e-6)
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    if args.risk_override is not None:
        try:
            override = io.parse_risk_override(args.risk_override)
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    problem = io.load_problem(args.input)
    if args.risk_override is not None:
        problem = io.apply_risk_override(problem, override)
    cfg = RunConfig(algorithm=args.alg, max_iters=args.iters, seed=args.seed,
                    stall_window=args.stall_window, stall_tol=args.stall_tol,
                    cut_timing=args.cut_timing, oracle_check=args.oracle_check)
    result = run(problem, cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_iterations_csv(outdir / "iterations.csv", result, problem.dim)
    io.write_cuts_csv(outdir / "cuts.csv", result.pools)
    io.write_summary_json(outdir / "summary.json", result, args.seed)
    if result.status == "infeasible":
        print(f"infeasible: proven at iteration {result.iters} -> {outdir}")
        return EXIT_INFEASIBLE
    print(f"{result.status}: lower_bound {format_float(result.final_lower_bound)} "
          f"after {result.iters} iterations -> {outdir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    io.load_problem(args.input)  # raises IoError on any violation
    print("ok")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    problem = io.load_problem(args.input)
    if args.method == "extensive-form":
        value = oracle.extensive_form_value(problem)
    else:
        value = oracle.nested_decomposition_value(problem)
    if math.isinf(value):
        print("infeasible")
        return EXIT_INFEASIBLE
    print(format_float(value))
    return EXIT_OK


def _history_box(p: Problem, where) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the history block a pool's cuts are claimed valid on.

    Stage by stage, the intersection of the boxes of every position on some
    path into the pool's subproblems: all same-stage realizations on a
    lattice, whose pools share cuts across them; the one node per stage on
    a tree's path.
    """
    topo = p.topology
    layers = topo.history_positions(where)
    lo = np.concatenate([np.max([topo.payload(w).lb for w in layer], axis=0)
                         for layer in layers])
    hi = np.concatenate([np.min([topo.payload(w).ub for w in layer], axis=0)
                         for layer in layers])
    if np.any(lo > hi):
        raise IoError(f"pool {where}: empty history box intersection")
    return lo, hi


def _pool_violations(where, recs: list[io.CutRecord], points: np.ndarray,
                     trues: np.ndarray, tol: float) -> list[str]:
    """The violation lines of one pool's cuts at its sampled histories, in check order.

    Points in order, and at each point the cuts in dump order.  An
    optimality cut ``theta + beta . (x - anchor)`` must not exceed the exact
    recourse at ``x`` by more than ``tol``; a feasibility cut ``beta . x <=
    theta`` must keep (within ``tol``) every history of finite recourse.  A
    history of ``+inf`` recourse passes both: any lower bound is valid there,
    and excluding it is correct.  Every cut is judged at every point at once
    with arrays.  Their sums may round apart from the scalar dot product, so
    each cut that comes within a bound on that rounding of its limit is
    judged again by the scalar expression, whose value is printed: the
    verdicts are the scalar ones.
    """
    opt = np.array([rec.kind == io.CUT_KIND_OPTIMALITY for rec in recs])
    theta = np.array([rec.theta for rec in recs])
    zero = np.zeros(points.shape[1])
    anchor = np.array([zero if rec.anchor is None else rec.anchor for rec in recs])
    terms = np.array([rec.beta for rec in recs])[:, None, :] * (points - anchor[:, None, :])
    const = np.where(opt, theta, 0.0)[:, None]
    lhs = const + terms.sum(axis=2)
    limit = np.where(opt[:, None], trues + tol, (theta + tol)[:, None])
    rounding = (4 * (points.shape[1] + 2) * np.finfo(float).eps
                * (np.abs(const) + np.abs(terms).sum(axis=2)))
    near = (lhs > limit - rounding) & np.isfinite(trues)
    lines = []
    for p, i in zip(*np.nonzero(near.T)):
        rec, x, true = recs[i], points[p], float(trues[p])
        if rec.kind == io.CUT_KIND_OPTIMALITY:
            val = rec.theta + float(rec.beta @ (x - rec.anchor))
            if val > true + tol:
                lines.append(f"violation: optimality cut (pool {where}, iteration "
                             f"{rec.iteration}) claims {format_float(val)} above "
                             f"exact recourse {format_float(true)}")
        elif float(rec.beta @ x) > rec.theta + tol:
            lines.append(f"violation: feasibility cut (pool {where}, iteration "
                         f"{rec.iteration}) excludes a history with finite "
                         f"recourse {format_float(true)}")
    return lines


def _cmd_check_cuts(args) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol}")
    problem = io.load_problem(args.input)
    records = io.read_cuts_csv(args.cuts)
    topo = problem.topology
    rng = np.random.default_rng(args.seed)
    by_where: dict[int, list[io.CutRecord]] = {}
    for rec in records:
        if rec.where not in topo.keys:
            raise IoError(f"{args.cuts}: pool {rec.where} is not a pool of the problem")
        if rec.beta.shape[0] != topo.arg_dim(rec.where):
            raise IoError(f"{args.cuts}: pool {rec.where} cuts need {topo.arg_dim(rec.where)} "
                          f"coefficients, a row has {rec.beta.shape[0]}")
        by_where.setdefault(rec.where, []).append(rec)
    n_violations = 0
    for where in sorted(by_where):
        lo, hi = _history_box(problem, where)
        points = rng.uniform(lo, hi, size=(args.points, lo.shape[0]))
        trues = oracle.true_recourse_value(problem, where, points)
        for line in _pool_violations(where, by_where[where], points, trues, args.tol):
            n_violations += 1
            print(line, file=sys.stderr)
    print(f"checked {len(records)} cuts at {args.points} points per pool: "
          f"{n_violations} violations")
    return EXIT_OK if n_violations == 0 else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DISPATCH = {"solve": _cmd_solve, "validate": _cmd_validate,
             "oracle": _cmd_oracle, "check-cuts": _cmd_check_cuts}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one :func:`build_parser` parser; each parse gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors via exit code 2
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _DISPATCH[args.cmd](args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IoError, OracleError, EngineError, SimplexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
