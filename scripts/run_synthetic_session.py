#!/usr/bin/env python3
"""Run the checker loop against a matched synthetic conversation.

Builds a sticky 3-state chain, generates an exactly-representative
bootstrap (so the session's first estimate equals the chain), then drives
the predict/check/update loop against a seed-matched oracle and prints the
per-iteration error table.

Usage:
    python scripts/run_synthetic_session.py --seed 11 --length 300 --iterations 7
"""

import argparse

import numpy as np

from convstate.controller import SessionConfig, Thresholds, run_session
from convstate.harness import matched_chain_oracle, sequence_with_exact_counts
from convstate.markov import Sampled, normalize
from convstate.storage import table_to_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--length", type=int, default=300)
    parser.add_argument("--iterations", type=int, default=7)
    parser.add_argument("--diagonal", type=int, default=86,
                        help="per-state self-transition count out of 100")
    parser.add_argument("--candidates", type=int, default=5)
    args = parser.parse_args()

    off = (100 - args.diagonal) // 2
    counts = np.full((3, 3), off, dtype=int)
    np.fill_diagonal(counts, args.diagonal)
    truth = normalize(counts)
    print("truth chain rows:")
    for row in truth.probs:
        print("  ", np.round(row, 3))

    bootstrap = sequence_with_exact_counts(truth.counts)
    oracle = matched_chain_oracle(
        truth,
        length=args.length,
        initial=0,
        seed=args.seed,
        iterations=args.iterations + 1,
        bootstrap=bootstrap,
    )
    config = SessionConfig(
        thresholds=Thresholds(),
        mode=Sampled(args.seed),
        seed=args.seed,
        candidate_count=args.candidates,
        iterations=args.iterations,
    )
    report = run_session(oracle, config)

    print()
    print(table_to_csv(report), end="")
    decisions = [
        rec.decision.decision.value for rec in report.iterations if rec.decision
    ]
    print()
    print("decisions:", ", ".join(decisions))
    print(f"session-mean TPE: {report.mean_tpe():.2f}%")


if __name__ == "__main__":
    main()
