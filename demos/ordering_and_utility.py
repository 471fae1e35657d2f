"""When is one measurement at least as useful as another?

One measurement dominates another when classical post-processing of
its outcomes can reproduce the other's effects; the check either
produces the post-processing table as a witness or a guessing game
that the other wins and every post-processing loses, which proves that
none exists. The order has a decision-theoretic face:
a dominating measurement is worth at least as much in every betting
problem, whatever the utility function. The script walks through a
dominated pair, an incomparable pair, and the utility cross-check.
"""

import numpy as np

from mftk import (
    StochasticMatrix,
    basis_state,
    blackwell_consistency,
    compare,
    computational_povm,
    decision_model_for,
    post_process,
    trivial_povm,
    u_max,
    xbasis_povm,
)


def main():
    z = computational_povm(2)
    x = xbasis_povm()

    # Feeding Z's outcomes through a binary symmetric channel with 20%
    # flip probability yields a noisy version that Z trivially dominates.
    flip = StochasticMatrix(2, 2, [[0.8, 0.2], [0.2, 0.8]])
    noisy = post_process(z, flip, labels=["0~", "1~"])

    verdict = compare(z, noisy)
    print("standard basis vs its 20%-flipped version:")
    print(f"  relation: {verdict.relation}")
    print(f"  witness (recovered post-processing table):\n"
          f"{np.round(verdict.witness_forward.entries, 6)}")
    print(f"  witness residual {verdict.residual_forward:.3e}\n")

    verdict = compare(z, x)
    print("standard basis vs diagonal basis:")
    print(f"  relation: {verdict.relation}")
    print(f"  every post-processing z -> x misses by at least {verdict.residual_forward:.3e}")
    print(f"  every post-processing x -> z misses by at least {verdict.residual_backward:.3e}")
    print("  neither side can simulate the other by reshuffling outcomes.\n")

    # Decision problem: nature prepares |0><0| or |1><1| with equal odds,
    # the agent bets on which; correct guesses pay 1.
    states = [basis_state(2, 0), basis_state(2, 1)]
    payoff = np.eye(2)
    for name, povm in (("standard basis", z), ("20%-flipped", noisy),
                       ("diagonal basis", x), ("one-outcome (blind)", trivial_povm(2))):
        best = u_max(decision_model_for(povm, states, payoff))
        print(f"  best expected payoff with {name:<20}: {best.value:.3f}")
    print("\n  dominance shows up as a guaranteed ordering of these values;")
    print("  the diagonal basis is incomparable to the standard one and here")
    print("  earns only the blind rate, yet no post-processing of Z yields X.\n")

    # Cross-check over many random utilities: wherever the order certifies
    # dominance, no sampled decision problem may prefer the dominated side.
    report = blackwell_consistency(z, noisy, states, n_utilities=200, seed=3)
    print(f"z vs noisy over {report.n_utilities} random utilities: "
          f"dominance holds={report.geq_holds}, reversals={report.reversals}, "
          f"consistent={report.consistent}")
    report = blackwell_consistency(x, z, states, n_utilities=200, seed=4)
    print(f"x vs z over {report.n_utilities} random utilities: "
          f"dominance holds={report.geq_holds}, reversals={report.reversals} "
          f"(reversals are allowed because the relation fails)")


if __name__ == "__main__":
    main()
