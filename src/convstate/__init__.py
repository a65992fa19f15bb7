"""Conversation state prediction: Markov speaker-state models with a
checker loop, TPE/EPPS metrics, a spectral-clustering diarization backend,
and a frame-level speech frontend. The API lives in the submodules;
importing the package binds only ``__version__``."""

__version__ = "0.1.0"
