"""What the traced run wraps, and the per-layer metrics it reports.

Span names are ``<layer>.<function>``; the layers are the program's modules
plus ``bench`` for the benchmark's own glue (op loop, embedding pooling).
Every per-layer time is a self time, so in each operation the self times of
all spans add up to the traced operation's wall time. README.md maps each
layer to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from tracer import GENERATOR, LEAF, Target

TARGETS = [
    Target("convstate.cli", "main", "cli"),
    Target("convstate.cli", "run_session", "controller.run_session"),
    Target("convstate.controller", "run_session", "controller.run_session"),
    Target("convstate.controller", "tpe", "metrics.tpe", LEAF),
    Target("convstate.controller", "evaluate", "metrics.evaluate"),
    Target("convstate.markov", "predict_next", "markov.sample", LEAF),
    Target("convstate.markov", "update_online", "markov.update_online", LEAF),
    Target("convstate.markov", "estimate_transition", "markov.estimate_transition"),
    Target("convstate.harness", "matched_chain_oracle", "harness.oracle", GENERATOR),
    Target("convstate.harness", "chain_oracle", "harness.oracle", GENERATOR),
    Target("convstate.harness", "sequence_with_exact_counts", "harness.exact_counts"),
    Target("convstate.harness", "align_labels", "harness.align_labels"),
    Target("convstate.storage", "load_model", "storage.load_model"),
    Target("convstate.storage", "session_to_document", "storage.session_to_document"),
    Target("convstate.storage", "features_to_csv", "storage.features_to_csv"),
    Target("convstate.storage", "atomic_write_text", "storage.write"),
    Target("convstate.frontend", "load_wav", "frontend.load_wav"),
    Target("convstate.frontend", "extract_features", "frontend.extract_features"),
    Target("convstate.frontend", "vad_classify", "frontend.vad_classify", LEAF),
    Target("convstate.frontend", "segment", "frontend.segment"),
    Target("convstate.clustering", "spectral_cluster", "clustering.spectral_cluster"),
    Target("convstate.clustering", "refine", "clustering.refine"),
    Target("convstate.clustering", "affinity", "clustering.affinity"),
    Target("convstate.clustering", "gaussian_blur", "clustering.gaussian_blur"),
    Target("convstate.clustering", "row_threshold", "clustering.row_threshold"),
    Target("convstate.clustering", "symmetrize", "clustering.symmetrize"),
    Target("convstate.clustering", "diffuse", "clustering.diffuse"),
    Target("convstate.clustering", "row_normalize", "clustering.row_normalize"),
    Target("convstate.clustering", "jacobi_eigh", "clustering.eigh"),
    Target("convstate.clustering", "kmeans", "clustering.kmeans"),
    Target("workloads", "embed", "bench.embed"),
]

# Self-time metric of each span; the op root and embedding pooling are the
# benchmark's own time and are reported so the self times add up.
SELF_METRICS = {
    "cli": "cli.self_s",
    "controller.run_session": "controller.run_session_self_s",
    "bench.op": "bench.self_s",
    **{t.span: f"{t.span}_s" for t in TARGETS
       if t.span not in ("cli", "controller.run_session")},
}

# Work counts, taken from each op's inputs and outputs, so a later kernel
# that makes fewer calls does not redefine them.
COUNT_METRICS = [
    "clustering.k_chosen",
    "frontend.frames",
    "frontend.segments",
    "markov.sample_steps",
    "markov.update_online_calls",
    "markov.estimate_transition_calls",
    "metrics.tpe_calls",
    "controller.checked_iterations",
    "controller.accepted_iterations",
    "storage.bytes_written",
]

# Calls into the program that no input or output reveals.
CALL_METRICS = {
    "clustering.eigh": "clustering.eigh_calls",
    "clustering.refine": "clustering.refine_calls",
}


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(m, "s") for m in dict.fromkeys(SELF_METRICS.values())]
    names += [(m, "B" if m == "storage.bytes_written" else "count") for m in COUNT_METRICS]
    names += [(m, "count") for m in CALL_METRICS.values()]
    names += [
        ("frontend.frames_per_s", "1/s"),
        ("controller.accept_ratio", "ratio"),
        ("trace.op_wall_s", "s"),
        ("trace.overhead_pct", "%"),
        ("trace.absent_targets", "count"),
    ]
    return names
