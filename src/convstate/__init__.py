"""Conversation state prediction: Markov speaker-state models with a
checker loop, TPE/EPPS metrics, a spectral-clustering diarization backend,
and a frame-level speech frontend."""

from .markov import (
    Argmax,
    PredictionMode,
    Sampled,
    StateSequence,
    TransitionModel,
    UnseenRowPolicy,
    count_transitions,
    estimate_transition,
    normalize,
    predict_next,
    predict_sequence,
    stationary_distribution,
    update_online,
    walk,
    windowed_transition,
)
from .metrics import EvaluationReport, epps, evaluate, tpe
from .controller import (
    CheckDecision,
    CheckerInterval,
    Decision,
    FixedEvery,
    RandomBernoulli,
    SessionConfig,
    SessionReport,
    Thresholds,
    check_iteration,
    decide,
    evaluator_step,
    matrix_diff,
    row_diff_check,
    run_session,
)
from .clustering import (
    EmbeddingSet,
    affinity,
    diffuse,
    eigen_gap_k,
    gaussian_blur,
    kmeans,
    row_normalize,
    row_threshold,
    spectral_cluster,
    symmetrize,
)
from .frontend import (
    AudioBuffer,
    FrameFeatures,
    SpeakerSegment,
    extract_features,
    feature_matrix,
    frame,
    load_wav,
    log_energy,
    mfcc,
    segment,
    train_vad,
    vad_classify,
    zcr,
)
from .harness import (
    align_labels,
    chain_oracle,
    generate_synthetic_embeddings,
    generate_synthetic_sequence,
    matched_chain_oracle,
)
from .errors import ConvergenceError, SchemaError, UnseenStateError, ValidationError

__version__ = "0.1.0"
