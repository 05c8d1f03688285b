"""Feasibility cuts discovered by backtracking, and a proof of infeasibility.

The chained equalities x2 = x1 and x3 = x2 - 1.5 (with x3 capped at 0.5) only
admit continuations when x1 >= 1.5, but nothing at stage 1 says so.  The
gated forward pass discovers this the hard way: stage 3 rejects the history,
emits a cut on (x1, x2), the pass backtracks, stage 2 then rejects, and the
resulting cut on x1 finally constrains the first decision.  With the stage-1
box capped below 1.5 the same gate fails at stage 1, which is a certificate
that no feasible policy exists at all.
"""

import copy
from pathlib import Path

from riskdp import engine, io, oracle

HERE = Path(__file__).resolve().parent


def main():
    problem = io.load_problem(HERE / "instances" / "three_stage_chain.json")
    cfg = engine.RunConfig(algorithm="alg2", max_iters=100, seed=1,
                           stall_window=10, stall_tol=1e-10)
    result = engine.run(problem, cfg)

    print(f"status {result.status}, value {result.final_lower_bound:.10f}, "
          f"x1 = {result.final_x1[0]:.6f}")
    exact = oracle.extensive_form_value(problem)
    assert abs(result.final_lower_bound - exact) <= 1e-8
    print(f"exact value {exact:.10f}")
    backtracks = sum(r.backtracks for r in result.reports)
    print(f"backtracks during the run: {backtracks}")
    print("\nfeasibility cuts (rows  beta . x_history <= rhs):")
    for where in sorted(result.pools.opt):
        for cut in result.pools.opt[where].feasibility:
            beta = ", ".join(f"{b:+.4f}" for b in cut.beta_tilde)
            print(f"  stage {where}: [{beta}] <= {cut.theta_tilde:+.4f}"
                  f"   (iteration {cut.iteration})")

    capped = copy.deepcopy(problem)
    capped.stages[0].realizations[0].ub[0] = 1.4
    result2 = engine.run(capped, cfg)
    print(f"\nwith the stage-1 box capped at 1.4: status {result2.status} "
          f"after {result2.iters} iteration(s)")
    assert result2.status == engine.STATUS_INFEASIBLE


if __name__ == "__main__":
    main()
