"""Synthetic benchmark inputs with known truth, numpy only.

Everything here is a pure function of its seed, so the same seed gives
bitwise-equal inputs. The program under test never sees these functions,
only the files and arrays they produce.

A clip is a turn-taking conversation: a sticky speaker chain picks the
speaker of each 0.4 s unit, consecutive units of one speaker form a run of
speech, and runs are separated by silences. Each speaker is one harmonic
source shaped by its own formant envelope. Silence is dither well below one
16-bit step, so every silent frame stays under the CLI's default energy gate
(log-energy -15).
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

RATE = 16000
UNIT_S = 0.4  # one diarization segment; also the audio one session label stands for
WINDOW_S = 0.025
HOP_S = 0.010
STICKY_COUNTS = ((86, 7, 7), (7, 86, 7), (7, 7, 86))
N_SPEAKERS = len(STICKY_COUNTS)
MIN_GAP_S = 0.1
# Dither of 0.3 of one 16-bit step: after rounding, about 38 of a frame's
# 400 samples are +-1 step, a log-energy near -17, under the -15 gate.
DITHER = 0.3 / 32768.0
SPEECH_NOISE = 2e-3
PEAK = 0.45

# Base (f0, formants) per speaker; each seed jitters them by a few percent.
_VOICES = (
    (110.0, 0.4, (700.0, 1200.0, 2600.0)),
    (180.0, 1.0, (350.0, 2200.0, 3000.0)),
    (260.0, 1.6, (850.0, 1600.0, 3800.0)),
)


def chain_probs() -> np.ndarray:
    matrix = np.asarray(STICKY_COUNTS, dtype=np.int64)
    return matrix / matrix.sum(axis=1, keepdims=True)


def sample_chain(
    probs: np.ndarray, start: int, uniforms: np.ndarray, include_start: bool
) -> np.ndarray:
    """Inverse-CDF walk: one uniform per step, successor = first cdf entry > u.

    With ``include_start`` the path begins with `start` and takes
    ``len(uniforms)`` further steps; otherwise it is only those steps.
    """
    cdf = np.cumsum(probs, axis=1)
    last = probs.shape[0] - 1
    path = [start] if include_start else []
    current = start
    for u in uniforms:
        current = min(int(np.searchsorted(cdf[current], u, side="right")), last)
        path.append(current)
    return np.asarray(path, dtype=np.int64)


@dataclass(frozen=True)
class Clip:
    """Samples on the 16-bit grid plus the truth they were built from."""

    samples: np.ndarray
    units: np.ndarray  # true speaker of each 0.4 s unit, in time order
    runs: tuple[tuple[int, int, int], ...]  # (start sample, end sample, speaker)

    @property
    def duration_s(self) -> float:
        return self.samples.size / RATE


def _voice(rng: np.random.Generator, speaker: int) -> tuple[float, float, np.ndarray]:
    f0, tilt, formants = _VOICES[speaker]
    jitter = rng.uniform(0.96, 1.04, size=4)
    return f0 * jitter[0], tilt, np.asarray(formants) * jitter[1:]


def _speech(
    rng: np.random.Generator, f0: float, tilt: float, formants: np.ndarray, n: int
) -> np.ndarray:
    """Harmonics of a slightly wandering f0, weighted by a formant envelope."""
    t = np.arange(n) / RATE
    wobble = 1.0 + 0.02 * np.sin(
        2 * np.pi * rng.uniform(3.0, 6.0) * t + rng.uniform(0, 2 * np.pi)
    )
    phase = 2 * np.pi * np.cumsum(f0 * wobble) / RATE
    step = np.exp(1j * phase)
    harmonic = step.copy()
    signal = np.zeros(n)
    for k in range(1, int(5000.0 // f0) + 1):
        freq = k * f0
        gain = 0.05 + np.exp(-0.5 * ((freq - formants[:, None]) / 120.0) ** 2).sum()
        signal += (gain / k**tilt) * harmonic.imag
        harmonic *= step
    syllables = 0.6 + 0.4 * np.sin(
        2 * np.pi * rng.uniform(3.0, 5.0) * t + rng.uniform(0, 2 * np.pi)
    ) ** 2
    ramp = np.minimum(1.0, np.minimum(np.arange(n), np.arange(n)[::-1]) / (0.005 * RATE))
    signal *= syllables * ramp / np.abs(signal).max()
    return PEAK * signal + rng.normal(0.0, SPEECH_NOISE, n) * ramp


def make_clip(seed: int, n_units: int, duration_s: float) -> Clip:
    """A conversation of `n_units` speech units spread over `duration_s` seconds.

    The silence left over is split evenly before, between and after the
    runs, so the audio length and the segment count are fixed per size and
    only the turn order and voices change with the seed.
    """
    rng = np.random.default_rng([seed, 0xA0D10])
    units = sample_chain(
        chain_probs(), int(rng.integers(N_SPEAKERS)), rng.random(n_units - 1), True
    )
    change = np.flatnonzero(np.diff(units)) + 1
    bounds = np.concatenate(([0], change, [n_units]))
    n_runs = bounds.size - 1
    gap_s = (duration_s - n_units * UNIT_S) / (n_runs + 1)
    if gap_s < MIN_GAP_S:
        raise ValueError(f"{duration_s} s leaves {gap_s:.3f} s silences for {n_runs} runs")
    voices = [_voice(rng, s) for s in range(N_SPEAKERS)]
    total = int(round(duration_s * RATE))
    audio = rng.normal(0.0, DITHER, total)
    runs = []
    for r in range(n_runs):
        length = int(bounds[r + 1] - bounds[r])
        start = int(round(((r + 1) * gap_s + bounds[r] * UNIT_S) * RATE))
        n = int(round(length * UNIT_S * RATE))
        speaker = int(units[bounds[r]])
        f0, tilt, formants = voices[speaker]
        audio[start : start + n] += _speech(
            rng, f0 * rng.uniform(0.98, 1.02), tilt, formants, n
        )
        runs.append((start, start + n, speaker))
    quantized = np.clip(np.round(audio * 32767.0), -32768, 32767) / 32768.0
    return Clip(samples=quantized, units=units, runs=tuple(runs))


def write_wav(path: str, clip: Clip) -> None:
    pcm = np.round(clip.samples * 32768.0).astype("<i2")
    with wave.open(path, "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(RATE)
        handle.writeframes(pcm.tobytes())


def frame_count(n_samples: int) -> int:
    """Frames of the program's framing rule: full windows only."""
    window = int(round(WINDOW_S * RATE))
    hop = int(round(HOP_S * RATE))
    return 0 if n_samples < window else (n_samples - window) // hop + 1


def speech_mask(clip: Clip) -> np.ndarray:
    """True per frame whose centre sample lies inside a speech run."""
    window = int(round(WINDOW_S * RATE))
    hop = int(round(HOP_S * RATE))
    centres = np.arange(frame_count(clip.samples.size)) * hop + window // 2
    mask = np.zeros(centres.size, dtype=bool)
    for start, end, _ in clip.runs:
        mask |= (centres >= start) & (centres < end)
    return mask


def segment_truth(clip: Clip, spans: list[tuple[float, float]]) -> np.ndarray:
    """True speaker of each (start_s, end_s) span: the run it overlaps most, or -1."""
    truth = np.full(len(spans), -1, dtype=np.int64)
    for i, (start_s, end_s) in enumerate(spans):
        best = 0
        for run_start, run_end, speaker in clip.runs:
            overlap = min(end_s * RATE, run_end) - max(start_s * RATE, run_start)
            if overlap > best:
                best, truth[i] = overlap, speaker
    return truth


def pool_embeddings(mfcc: np.ndarray, spans: list[tuple[float, float]]) -> np.ndarray:
    """Mean and std of the frame MFCCs inside each span, z-scored across the clip."""
    rows = []
    for start_s, end_s in spans:
        first = int(round(start_s / HOP_S))
        frames = mfcc[first : max(int(round(end_s / HOP_S)), first + 1)]
        rows.append(np.concatenate((frames.mean(axis=0), frames.std(axis=0))))
    pooled = np.asarray(rows)
    spread = pooled.std(axis=0)
    return (pooled - pooled.mean(axis=0)) / np.where(spread > 0, spread, 1.0)
