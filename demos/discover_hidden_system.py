"""From a table of outcome frequencies to a quantum model, or a refusal.

Suppose an agent only has a table: q[k][m][j], the probability of
outcome j when measurement k is applied to preparation m. Is there a
dimension-d quantum system behind it? The search alternates exact line
searches on states and effects, polishes near-solutions with a local
least-squares refinement, and only reports success after rounding to
an exactly valid model that still reproduces every table entry. The
script recovers a hidden qubit model from its own table, then shows a
table no qubit model can produce being ruled out before any search: its
preparations are pairwise perfectly distinguishable, and four such
states need four dimensions.
"""

import numpy as np

from mftk import (
    OutcomeDistribution,
    ProbabilityTable,
    born_probabilities,
    computational_povm,
    discover_system,
    pure_state,
    random_state,
    xbasis_povm,
)


def main():
    # The hidden model: three preparations, two projective measurements.
    states = [
        pure_state([1, 0]),
        pure_state([1, 1]),
        random_state(2, seed=5),
    ]
    povms = [computational_povm(2), xbasis_povm()]
    table = ProbabilityTable.from_model(states, povms, labels=["Z", "X"])

    print("hidden qubit model -> probability table:")
    for label, row in zip(table.measurement_labels, table.distributions):
        print(f"  {label}: " + "  ".join(str(np.round(q.probs, 4)) for q in row))

    result = discover_system(table, 2, seed=0)
    print(f"\ndiscovery: feasible={result.feasible}  "
          f"residual={result.residual:.3e}  restarts used={result.restarts_used}")

    # Independent check: the fitted model must reproduce the table via
    # the trace rule, not merely score well inside the optimizer.
    worst = 0.0
    for fitted_povm, row in zip(result.povms, table.distributions):
        for rho, q in zip(result.states, row):
            got = born_probabilities(rho, fitted_povm).probs
            worst = max(worst, float(np.max(np.abs(got - q.probs))))
    print(f"worst table reproduction error of the fitted model: {worst:.3e}")
    print("(the fitted model need not equal the hidden one; any model")
    print(" reproducing the table is an acceptable explanation)\n")

    # A table with no qubit explanation: every pair of the four
    # preparations is told apart with certainty by measurement A or B, so
    # their states are pairwise orthogonal, which takes four dimensions.
    rows_a = [[1, 0], [0, 1], [1, 0], [0, 1]]
    rows_b = [[1, 0], [0, 1], [0, 1], [1, 0]]
    contradictory = ProbabilityTable(
        n_preparations=4,
        measurement_labels=("A", "B"),
        distributions=tuple(
            tuple(OutcomeDistribution(("0", "1"), np.array(p, float)) for p in rows)
            for rows in (rows_a, rows_b)
        ),
    )
    print("contradictory table (A and B together tell every pair of preparations apart):")
    for d in (2, 4):
        result = discover_system(contradictory, d, seed=0)
        print(f"  dim {d}: verdict {result.verdict}, restarts used {result.restarts_used}")
        if result.certificate is not None:
            cert = result.certificate
            print(f"    {cert['bound']} bound: d >= {cert['value']:.5f} on preparations "
                  f"{cert['preparations']}, so no dimension-{d} model exists")
    print("  (a search that merely gave up would say 'not_found', which proves nothing)")

if __name__ == "__main__":
    main()
