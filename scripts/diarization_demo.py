#!/usr/bin/env python3
"""End-to-end demo: conversation -> embeddings -> labels -> prediction.

Samples a turn-taking conversation from a sticky speaker chain, emits one
noisy embedding per segment (so the affinity matrix has genuine speaker
runs for the blur to smooth), diarizes via the spectral pipeline, aligns
cluster ids to the ground truth, estimates a transition model from the
diarized labels, and finally checks a predicted continuation against a
seed-matched continuation of the true process.

Usage:
    python scripts/diarization_demo.py --speakers 3 --segments 120 --seed 7
"""

import argparse

import numpy as np

from convstate.clustering import EmbeddingSet, spectral_cluster
from convstate.controller import Thresholds, check_iteration
from convstate.harness import align_labels, generate_synthetic_sequence
from convstate.markov import estimate_transition, normalize, walk


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--speakers", type=int, default=3)
    parser.add_argument("--segments", type=int, default=120)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--separation", type=float, default=5.0)
    parser.add_argument("--noise-sigma", type=float, default=1.0, dest="noise_sigma")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    diagonal = 86
    off = (100 - diagonal) // (args.speakers - 1) if args.speakers > 1 else 0
    counts = np.full((args.speakers, args.speakers), off, dtype=int)
    np.fill_diagonal(counts, diagonal)
    truth_chain = normalize(counts)
    conversation = generate_synthetic_sequence(
        truth_chain, args.segments, 0, seed=args.seed
    )

    rng = np.random.default_rng(args.seed + 1)
    means = np.zeros((args.speakers, args.dim))
    scale = args.separation / np.sqrt(2.0)
    for state in range(args.speakers):
        means[state, state] = scale
    vectors = means[list(conversation.labels)] + rng.normal(
        0.0, args.noise_sigma, (args.segments, args.dim)
    )
    embeddings = EmbeddingSet(vectors)

    diarized = spectral_cluster(embeddings, seed=args.seed)
    print(f"diarized {args.segments} segments into {diarized.n_states} states")
    permutation, aligned = align_labels(list(diarized.labels), list(conversation.labels))
    accuracy = float(np.mean(np.array(aligned) == np.array(conversation.labels)))
    print(f"alignment permutation {permutation}, label accuracy {accuracy:.3f}")

    model = estimate_transition(aligned, args.speakers)
    print("estimated transition rows:")
    for row in model.probs:
        print("  ", np.round(row, 3))

    # Continuation check: predict the next stretch of conversation and
    # compare against a seed-matched continuation of the true chain.
    horizon = args.segments
    predicted = walk(model, aligned[-1], horizon, np.random.default_rng(args.seed + 2))
    actual = walk(truth_chain, aligned[-1], horizon, np.random.default_rng(args.seed + 2))
    verdict = check_iteration(predicted, actual, Thresholds(), args.speakers)
    print(
        f"sampled continuation vs matched truth: TPE {verdict.report.tpe:.2f}% "
        f"-> {verdict.decision.value}"
    )
    if verdict.decision.value == "accept":
        print("prediction within thresholds; the chain keeps updating itself")
    else:
        print(
            "prediction drift exceeds thresholds; the checker hands the "
            "sequence back to diarization (expected when the model was "
            "estimated from few, noisy labels)"
        )


if __name__ == "__main__":
    main()
