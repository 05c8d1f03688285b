"""Solve the two-stage ordering problem and check it against ground truth.

The sampled cutting-plane solver only ever sees one scenario per iteration,
yet its lower bound climbs to the exact optimum because every backward pass
builds a cut that is valid for all scenarios at once (and pools it unless the
pool already holds the same row).  The instance is tiny, so
the flattened single LP over all scenarios gives an independent exact answer.
"""

from pathlib import Path

from riskdp import engine, io, oracle

HERE = Path(__file__).resolve().parent


def main():
    problem = io.load_problem(HERE / "instances" / "newsvendor.json")
    cfg = engine.RunConfig(algorithm="alg1", max_iters=100, seed=7,
                           stall_window=10, stall_tol=1e-10)
    result = engine.run(problem, cfg)

    print("iter   lower bound      first-stage order")
    for r in result.reports:
        print(f"{r.k:4d}   {r.lower_bound:<14.10f}   {r.x1[0]:.6f}")
    print(f"final  {result.final_lower_bound:<14.10f}   "
          f"{result.final_x1[0]:.6f}   ({result.status})")

    exact = oracle.extensive_form_value(problem)
    gap = abs(result.final_lower_bound - exact)
    print(f"\nexact value (single flattened LP): {exact:.10f}")
    print(f"absolute gap:                      {gap:.2e}")
    assert gap <= 1e-8


if __name__ == "__main__":
    main()
