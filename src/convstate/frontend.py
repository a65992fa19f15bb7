"""Frame-level speech features and voice activity detection, in NumPy alone.

Frames audio into 25 ms windows hopped by 10 ms, computes log-energy,
zero-crossing rate, and 13 MFCCs per frame (the DCT-II is the fixed matrix
_DCT_II), classifies frames speech/non-speech with a single logistic unit,
and cuts speech runs into fixed-length non-overlapping segments.
"""

from __future__ import annotations

import math
import os
import wave
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

ACCEPTED_RATES = (16000, 44100)
ENERGY_FLOOR = 1e-10
PREEMPHASIS = 0.97
# The cepstrum: 40 mel filters, of whose DCT the first 13 coefficients are kept.
N_FILTERS = 40
N_COEFFS = 13
# Columns per feature_matrix row: log-energy, zcr, then the cepstrum.
N_FEATURES = 2 + N_COEFFS
# The frame geometry: 25 ms windows hopped by 10 ms.
WINDOW_S = 0.025
HOP_S = 0.010
# Frames per feature_matrix block: bounds the block temporaries (about
# 1 MB each at 16 kHz) while per-block overhead stays negligible.
_BLOCK_FRAMES = 256


# The first N_COEFFS rows of the orthonormal DCT-II over N_FILTERS points.
_DCT_II = np.cos(np.pi / N_FILTERS * np.outer(np.arange(N_COEFFS), np.arange(N_FILTERS) + 0.5))
_DCT_II *= np.sqrt(2.0 / N_FILTERS)
_DCT_II[0] /= np.sqrt(2.0)


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio samples in [-1, 1] at a known sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if samples.ndim == 1 and samples.size:
            # NaN propagates through min and max, and an infinity is one of them.
            lowest, highest = float(samples.min()), float(samples.max())
            if not (math.isfinite(lowest) and math.isfinite(highest)):
                raise ValidationError("samples contain NaN or Inf")
            if max(-lowest, highest) > 1.0 + 1e-9:
                raise ValidationError("samples must lie in [-1, 1]")
        self._seal(samples)

    @classmethod
    def _in_range(cls, samples: np.ndarray, sample_rate: int) -> AudioBuffer:
        """Contiguous float64 samples that the caller guarantees finite and in
        [-1, 1], stored without the NaN and range passes; the shape and rate
        checks still run."""
        audio = object.__new__(cls)
        object.__setattr__(audio, "sample_rate", sample_rate)
        audio._seal(samples)
        return audio

    def _seal(self, samples: np.ndarray) -> None:
        if samples.ndim != 1 or samples.size == 0:
            raise ValidationError("samples must be a non-empty 1-D array")
        if self.sample_rate not in ACCEPTED_RATES:
            raise ValidationError(
                f"sample rate {self.sample_rate} not supported; expected one of "
                f"{ACCEPTED_RATES}"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


class FrameFeatures(NamedTuple):
    """One frame's features; row is [log_energy, zcr, *mfcc] and mfcc a view of it.

    extract_features builds these over read-only rows of one feature
    matrix; vad_classify reads the row. Frame t of the list starts at t * HOP_S.
    """

    mfcc: np.ndarray
    row: np.ndarray


@dataclass(frozen=True)
class SpeakerSegment:
    """Half-open time span [start_s, end_s)."""

    start_s: float
    end_s: float

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise ValidationError(
                f"segment end {self.end_s} must exceed start {self.start_s}"
            )


def load_wav(path: str) -> AudioBuffer:
    """Read a 16-bit PCM RIFF file; multichannel audio is mean-downmixed.

    A file in another format, one whose header or data is cut short, or
    one whose audio AudioBuffer rejects (no samples, an unsupported rate)
    is a ValidationError that names the file; a missing file is an OSError.
    The buffer is built without AudioBuffer's NaN and range passes: an int16
    value times 2**-15, or a channel mean of such values, is finite and lies
    in [-1, 1).
    """
    try:
        with wave.open(str(path), "rb") as handle:
            width = handle.getsampwidth()
            rate = handle.getframerate()
            channels = handle.getnchannels()
            declared = handle.getnframes() * width * channels
            raw = handle.readframes(handle.getnframes())
    except wave.Error as exc:
        # wave reads only PCM and names any other format tag.
        _, unknown, tag = str(exc).partition("unknown format: ")
        message = f"only 16-bit PCM is read, got format tag {tag}" if unknown else exc
        raise ValidationError(f"{path}: {message}") from None
    except EOFError:
        raise ValidationError(f"{path}: WAV header is cut short") from None
    except RuntimeError:
        # wave's chunk seek: a chunk size runs past the end of the RIFF data.
        raise ValidationError(f"{path}: a chunk runs past the end of the file") from None
    if width != 2:
        raise ValidationError(
            f"{path}: only 16-bit PCM is read, got sample width {width} bytes"
        )
    if len(raw) % (2 * channels):
        raise ValidationError(f"{path}: data ends mid-frame after {len(raw)} bytes")
    if len(raw) < declared:
        raise ValidationError(
            f"{path}: data chunk declares {declared} bytes of frames, the file holds {len(raw)}"
        )
    # One pass: the int16 values convert exactly and 2**-15 scales exactly.
    data = np.multiply(np.frombuffer(raw, dtype="<i2"), 1.0 / 32768.0)
    if channels > 1:
        data = data.reshape(-1, channels).mean(axis=1)
    try:
        return AudioBuffer._in_range(data, rate)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_wav(path: str, audio: AudioBuffer) -> None:
    """Write mono 16-bit PCM; the inverse of load_wav for fixtures."""
    scaled = np.clip(audio.samples * 32767.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(audio.sample_rate)
        handle.writeframes(scaled.tobytes())


def _windows(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    """Read-only copy-free view sliding_window_view(x, window)[::hop], built directly."""
    (step,) = x.strides
    shape = ((x.size - window) // hop + 1, window)
    return np.lib.stride_tricks.as_strided(x, shape, (hop * step, step), writeable=False)


def _geometry(audio: AudioBuffer) -> tuple[int, int]:
    """(window, hop) in samples at the audio's rate."""
    return int(round(WINDOW_S * audio.sample_rate)), int(round(HOP_S * audio.sample_rate))


def frame(audio: AudioBuffer) -> np.ndarray:
    """Slice audio into WINDOW_S frames every HOP_S; a trailing partial window is dropped.

    Frame t covers samples [t * hop, t * hop + window). Audio shorter than
    one window yields an empty (0, window) array.
    """
    window, hop = _geometry(audio)
    if audio.samples.size < window:
        return np.empty((0, window))
    return np.ascontiguousarray(_windows(audio.samples, window, hop))


# The row kernels below take a contiguous sample range x and return one value
# (or one cepstrum) per frame of it, frame t covering x[t * hop : t * hop +
# window]. Each pass over the signal (squares, sign changes, pre-emphasis)
# runs once per sample, not once per framed value, and each frame then reads
# its window of the result. feature_matrix runs them on one block's range;
# the per-frame functions are one-frame calls, so both share one copy of the
# numerics. Up to the mel filterbank they keep the per-frame bits: the energy
# is a per-row pairwise sum (einsum differs in the last bits at 44.1 kHz)
# and the FFT input is written zero-padded to n_fft, as rfft(x, n_fft) pads
# it. The filterbank is banded (see _mel_bands), one gemv per row and band,
# so a frame's cepstrum does not depend on the other rows of its block. A
# block's fixed cost is kept small: _windows builds each view with one
# as_strided call, the Hann window is cached, the energy calls np.add.reduce
# without np.sum's wrapper (the same pairwise loop) and the zero crossings are
# exact byte sums, not count_nonzero over a boolean view.


def _log_energies(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    return np.log(np.maximum(np.add.reduce(_windows(x * x, window, hop), axis=1), ENERGY_FLOOR))


def _zcrs(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    nonneg = x >= 0.0
    changes = _windows((nonneg[1:] != nonneg[:-1]).view(np.uint8), window - 1, hop)
    # Exact counts, summed in the narrowest type that holds window - 1.
    return np.add.reduce(changes, axis=1, dtype=np.min_scalar_type(window - 1)) / (window - 1)


@lru_cache(maxsize=8)
def _hann(window: int) -> np.ndarray:
    hann = np.hanning(window)
    hann.setflags(write=False)
    return hann


def _mfccs(x: np.ndarray, window: int, hop: int, sample_rate: int) -> np.ndarray:
    """Each frame's cepstrum (see mfcc). Rows k >= 1 of _DCT_II sum to zero, so centring
    the log energies on the first filter leaves them unchanged in exact arithmetic
    and gives a flat spectrum exactly +0.0; mfcc_0 gets the removed level back."""
    emphasized = np.empty_like(x)
    emphasized[0] = x[0]
    np.multiply(x[:-1], PREEMPHASIS, out=emphasized[1:])
    np.subtract(x[1:], emphasized[1:], out=emphasized[1:])
    hann = _hann(window)
    n_fft = 1 << (window - 1).bit_length()
    frames = _windows(emphasized, window, hop)
    padded = np.empty((frames.shape[0], n_fft))
    np.multiply(frames, hann, out=padded[:, :window])
    padded[:, window:] = 0.0
    # A frame's first sample is not pre-emphasized.
    np.multiply(x[::hop][: frames.shape[0]], hann[0], out=padded[:, 0])
    magnitude = np.abs(np.fft.rfft(padded, axis=1))
    energies = np.empty((frames.shape[0], N_FILTERS))
    for filters, bins, bank in _mel_bands(n_fft, sample_rate):
        np.matvec(bank, magnitude[:, bins], out=energies[:, filters])
    log_energies = np.log(np.maximum(energies, ENERGY_FLOOR))
    cepstrum = np.matvec(_DCT_II, log_energies - log_energies[:, :1])
    cepstrum[:, 0] += math.sqrt(N_FILTERS) * log_energies[:, 0]
    return cepstrum


def log_energy(frame_samples: np.ndarray) -> float:
    """Natural log of the frame's energy, floored at 1e-10."""
    x = np.asarray(frame_samples, dtype=np.float64)
    if x.size == 0:
        raise ValidationError("frame is empty")
    return float(_log_energies(x, x.size, x.size)[0])


def zcr(frame_samples: np.ndarray) -> float:
    """Fraction of adjacent sample pairs that change sign; sign(0) counts positive."""
    x = np.asarray(frame_samples, dtype=np.float64)
    if x.size < 2:
        raise ValidationError(f"zcr needs at least 2 samples, got {x.size}")
    return float(_zcrs(x, x.size, x.size)[0])


@lru_cache(maxsize=8)
def _mel_filterbank(n_fft: int, sample_rate: int) -> np.ndarray:
    """N_FILTERS triangular filters evenly spaced on the mel scale over 0..rate/2."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mel_edges = np.linspace(to_mel(0.0), to_mel(sample_rate / 2.0), N_FILTERS + 2)
    hz_edges = from_mel(mel_edges)
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    bank = np.zeros((N_FILTERS, bin_freqs.size))
    for m in range(N_FILTERS):
        lower, center, upper = hz_edges[m], hz_edges[m + 1], hz_edges[m + 2]
        rising = (bin_freqs - lower) / (center - lower)
        falling = (upper - bin_freqs) / (upper - center)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling))
    return bank


# Filters per band of _mel_bands: each band is one gemv over the bins its
# filters touch, about 22 % of the dense bank's multiply-adds at either rate.
_BAND_FILTERS = 8


@lru_cache(maxsize=8)
def _mel_bands(n_fft: int, sample_rate: int) -> tuple[tuple[slice, slice, np.ndarray], ...]:
    """_mel_filterbank as (filters, bins, bank[filters, bins]) runs of _BAND_FILTERS
    filters, bins spanning every nonzero weight of those filters."""
    bank = _mel_filterbank(n_fft, sample_rate)
    bands = []
    for first in range(0, N_FILTERS, _BAND_FILTERS):
        filters = slice(first, first + _BAND_FILTERS)
        touched = np.flatnonzero(bank[filters].any(axis=0))
        bins = slice(int(touched[0]), int(touched[-1]) + 1) if touched.size else slice(0, 0)
        bands.append((filters, bins, np.ascontiguousarray(bank[filters, bins])))
    return tuple(bands)


def mfcc(frame_samples: np.ndarray, sample_rate: int) -> np.ndarray:
    """The N_COEFFS mel-frequency cepstral coefficients of one frame.

    Chain: pre-emphasis 0.97, Hann window, magnitude FFT at the next power
    of two, N_FILTERS triangular mel filters over 0..rate/2, log energies
    floored at 1e-10, orthonormal DCT-II, first N_COEFFS coefficients.
    """
    x = np.asarray(frame_samples, dtype=np.float64)
    if x.size < 2:
        raise ValidationError(f"mfcc needs at least 2 samples, got {x.size}")
    return _mfccs(x, x.size, x.size, sample_rate)[0]


def _usable_cpus() -> int:
    """CPUs this process may run on; os.cpu_count() where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The helper pools of _map_blocks by size (one per usable-CPU count seen, so
# in practice one): each is built on first use and kept for the life of the
# process, and a forked child, which inherits none of their threads, drops them.
_helper_pools: dict[int, ThreadPoolExecutor] = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helper_pools.clear)


def _helper_pool(size: int) -> ThreadPoolExecutor:
    pool = _helper_pools.get(size)
    if pool is None:
        # Imported here, not at module level: concurrent.futures loads logging,
        # which no command without a block pool needs to pay for at start-up.
        from concurrent.futures import ThreadPoolExecutor

        # A new executor starts no thread until work is submitted, so a racing
        # caller's spare is dropped unused.
        pool = _helper_pools.setdefault(size, ThreadPoolExecutor(size, "convstate-blocks"))
    return pool


def _map_blocks(fn: Callable[[int], object], starts: range) -> list:
    """[fn(start) for start in starts], the calls shared by the caller and helper threads.

    Up to one thread per usable CPU and one per start takes part: the caller
    and min(cpus, len(starts)) - 1 helpers from a pool kept for the life of
    the process, all taking indices from one shared iterator and storing
    each result at its index. With one CPU or at most one start the calls
    run inline. Each call must touch only its own block (NumPy releases the
    GIL in its FFTs, matvecs and ufuncs), so the results do not depend on
    the thread count. A failing call stops the thread that made it; the
    first error is raised once every helper of this call has returned.
    """
    cpus = _usable_cpus()
    helpers = min(cpus, len(starts)) - 1
    if helpers < 1:
        return [fn(start) for start in starts]
    results = [None] * len(starts)
    # next() on a range iterator is one C call under the GIL, so every index
    # goes to exactly one thread.
    indices = iter(range(len(starts)))

    def drain() -> None:
        for i in indices:
            results[i] = fn(starts[i])

    pool = _helper_pool(cpus - 1)
    futures = [pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        # A helper not yet started is cancelled: the caller has taken every
        # index left, or is raising. The started ones are awaited.
        errors = [future.exception() for future in futures if not future.cancel()]
    for error in errors:
        if error is not None:
            raise error
    return results


def feature_matrix(audio: AudioBuffer) -> np.ndarray:
    """Per-frame features as a (frames, N_FEATURES) array.

    Columns are [log_energy, zcr, mfcc_0 .. mfcc_12]; row t is
    frame t of frame(audio) and equals the per-frame
    log_energy, zcr and mfcc bit for bit. The frames are processed in
    blocks of _BLOCK_FRAMES rows, each from its own contiguous range of
    samples with one FFT, so the framed matrix is never materialized. The
    blocks run through _map_blocks and each writes only its own rows.
    """
    window, hop = _geometry(audio)
    samples = audio.samples
    n_frames = max(0, (samples.size - window) // hop + 1)
    features = np.empty((n_frames, N_FEATURES))

    def fill(start: int) -> None:
        rows = features[start : start + _BLOCK_FRAMES]
        x = samples[start * hop : (start + len(rows) - 1) * hop + window]
        rows[:, 0] = _log_energies(x, window, hop)
        rows[:, 1] = _zcrs(x, window, hop)
        rows[:, 2:] = _mfccs(x, window, hop, audio.sample_rate)

    _map_blocks(fill, range(0, n_frames, _BLOCK_FRAMES))
    return features


def extract_features(audio: AudioBuffer) -> list[FrameFeatures]:
    """feature_matrix as one FrameFeatures per frame, in frame order.

    Each record's mfcc and row are read-only views of one matrix; the
    records are built in C (tuple.__new__ over the zipped views), so no
    Python frame runs per frame.
    """
    matrix = feature_matrix(audio)
    matrix.setflags(write=False)
    return list(map(partial(tuple.__new__, FrameFeatures), zip(matrix[:, 2:], matrix)))


def vad_classify(
    features: FrameFeatures | np.ndarray, weights: np.ndarray
) -> tuple[bool, float] | tuple[np.ndarray, np.ndarray]:
    """Single logistic unit over [log_energy, zcr] ++ mfcc; last weight is bias.

    One frame (a FrameFeatures or a 1-D vector) gives (is_speech,
    probability); an (n, d) feature matrix gives a boolean mask and the
    probabilities as arrays, each row equal bit for bit to its one-frame
    call. A probability of exactly 0.5 classifies as non-speech.

    One frame runs on Python floats: its dot product is the same BLAS
    ``ddot`` that vecdot runs per row, and its logistic the same formula,
    without the per-call cost of a gufunc and 0-d array arithmetic.
    """
    x = features.row if isinstance(features, FrameFeatures) else np.asarray(features)
    if x.ndim not in (1, 2):
        raise ValidationError(f"features must be one vector or an (n, d) matrix, got {x.ndim}-D")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size != x.shape[-1] + 1:
        raise ValidationError(
            f"weights must have dimension {x.shape[-1] + 1} (features + bias), "
            f"got {w.size}"
        )
    if x.ndim == 1:
        # _logistic's operations, each on a Python float.
        z = float(x.dot(w[:-1])) + float(w[-1])
        probability = 0.5 + 0.5 * float(np.tanh(0.5 * z))
        return probability > 0.5, probability
    # vecdot, unlike X @ w or matvec, reproduces the per-row np.dot bits.
    probabilities = _logistic(np.vecdot(x, w[:-1]) + w[-1])
    return probabilities > 0.5, probabilities


def _logistic(z):
    """1 / (1 + e**-z), written with tanh so that no z overflows."""
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def _binary_cross_entropy(probabilities: np.ndarray, targets: np.ndarray) -> float:
    p = np.clip(probabilities, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)))


def train_vad(
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int = 400,
    learning_rate: float = 0.5,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Fit logistic-regression VAD weights by full-batch gradient descent.

    Features are standardized internally for conditioning and the learned
    weights are mapped back to the raw feature space, so the returned
    vector plugs straight into vad_classify. Deterministic per seed.
    Returns (weights, final training loss).
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise ValidationError("features must be (n, d) with one label per row")
    for cls, name in ((1, "speech"), (0, "non-speech")):
        if not (y == cls).any():
            raise ValidationError(f"training data has no {name} frames")
    rng = np.random.default_rng(seed)
    raw = rng.normal(0.0, 0.01, x.shape[1] + 1)

    def loss_for(weights: np.ndarray) -> float:
        return _binary_cross_entropy(_logistic(x @ weights[:-1] + weights[-1]), y)

    if epochs == 0:
        return raw, loss_for(raw)

    mu = x.mean(axis=0)
    sigma = np.maximum(x.std(axis=0), 1e-8)
    z = (x - mu) / sigma
    # Exact reparameterization: w.x + b == (w*sigma).z + (b + w.mu).
    w = raw[:-1] * sigma
    b = raw[-1] + float(raw[:-1] @ mu)
    for _ in range(epochs):
        residual = _logistic(z @ w + b) - y
        w -= learning_rate * (z.T @ residual) / y.size
        b -= learning_rate * float(residual.mean())
    final = np.concatenate((w / sigma, [b - float((w / sigma) @ mu)]))
    return final, loss_for(final)


def segment(
    speech_mask: np.ndarray, hop_s: float = HOP_S, seg_len_s: float = 0.4
) -> list[SpeakerSegment]:
    """Cut maximal speech runs into consecutive chunks of seg_len_s.

    A trailing remainder of at most half a segment merges into its
    predecessor; a lone run shorter than half a segment is dropped.
    """
    if not (0 < seg_len_s < math.inf and 0 < hop_s < math.inf):
        raise ValidationError(
            f"hop_s and seg_len_s must be positive and finite, got {hop_s} and {seg_len_s}"
        )
    mask = np.asarray(speech_mask, dtype=bool)
    segments: list[SpeakerSegment] = []
    eps = 1e-9
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    for start, stop in zip(edges[::2], edges[1::2]):
        begin = float(start * hop_s)
        duration = float((stop - start) * hop_s)
        n_full = int(duration / seg_len_s + eps)
        trailing = duration - n_full * seg_len_s
        if n_full == 0:
            if duration >= seg_len_s / 2.0 - eps:
                segments.append(SpeakerSegment(begin, begin + duration))
            continue
        lengths = [seg_len_s] * n_full
        if trailing > seg_len_s / 2.0 + eps:
            lengths.append(trailing)
        elif trailing > eps:
            lengths[-1] += trailing
        cursor = begin
        for length in lengths:
            segments.append(SpeakerSegment(cursor, cursor + length))
            cursor += length
    return segments
