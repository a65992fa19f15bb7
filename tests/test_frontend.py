import itertools
import math
import os
import pickle
import re
import signal
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstate import frontend
from convstate.errors import ValidationError
from convstate.frontend import (
    _BLOCK_FRAMES,
    _hann,
    ACCEPTED_RATES,
    AudioBuffer,
    FrameFeatures,
    SpeakerSegment,
    _mel_bands,
    _mel_filterbank,
    _windows,
    _zcrs,
    extract_features,
    feature_matrix,
    frame,
    load_wav,
    log_energy,
    mfcc,
    save_wav,
    segment,
    train_vad,
    vad_classify,
    zcr,
)
from convstate.markov import StateSequence, _as_spans
from convstate.storage import VAD_WEIGHT_BOUND, features_to_csv


def reference_mfcc(samples, rate, n_filters=40, n_coeffs=13):
    """Re-derivation of the cepstral chain with explicit sums.

    Direct DFT instead of an FFT, per-bin triangle evaluation, and an
    explicit cosine-sum DCT, so it shares no code path with the module.
    """
    n = len(samples)
    emphasized = [samples[0]] + [
        samples[t] - 0.97 * samples[t - 1] for t in range(1, n)
    ]
    hann = [0.5 - 0.5 * math.cos(2.0 * math.pi * t / (n - 1)) for t in range(n)]
    windowed = np.array([a * b for a, b in zip(emphasized, hann)])
    n_fft = 1
    while n_fft < n:
        n_fft *= 2
    bins = n_fft // 2 + 1
    t_idx = np.arange(n)
    magnitudes = np.empty(bins)
    for k in range(bins):
        angle = 2.0 * math.pi * k * t_idx / n_fft
        real = float(np.sum(windowed * np.cos(angle)))
        imag = float(-np.sum(windowed * np.sin(angle)))
        magnitudes[k] = math.hypot(real, imag)

    def to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    top = to_mel(rate / 2.0)
    edges = [from_mel(top * i / (n_filters + 1)) for i in range(n_filters + 2)]
    log_banks = []
    for m in range(n_filters):
        low, mid, high = edges[m], edges[m + 1], edges[m + 2]
        acc = 0.0
        for k in range(bins):
            freq = k * rate / n_fft
            weight = max(0.0, min((freq - low) / (mid - low), (high - freq) / (high - mid)))
            acc += weight * magnitudes[k]
        log_banks.append(math.log(max(acc, 1e-10)))
    coeffs = []
    for i in range(n_coeffs):
        scale = math.sqrt(1.0 / n_filters) if i == 0 else math.sqrt(2.0 / n_filters)
        coeffs.append(
            scale
            * sum(
                log_banks[j] * math.cos(math.pi * i * (2 * j + 1) / (2 * n_filters))
                for j in range(n_filters)
            )
        )
    return np.array(coeffs)


def per_frame_features(audio):
    """The per-frame loop the frontend ran before feature_matrix, kept verbatim.

    One log_energy, zcr and mfcc call (one FFT) per frame, with scipy's
    DCT-II; the feature matrix must reproduce its energy and zcr bit for
    bit and its cepstrum to rounding.
    """
    dct = pytest.importorskip("scipy.fft").dct

    def log_energy(x):
        return float(np.log(max(float(np.sum(x * x)), 1e-10)))

    def zcr(x):
        nonneg = x >= 0.0
        return int(np.count_nonzero(nonneg[1:] != nonneg[:-1])) / (x.size - 1)

    def mfcc(x):
        emphasized = np.empty_like(x)
        emphasized[0] = x[0]
        emphasized[1:] = x[1:] - 0.97 * x[:-1]
        windowed = emphasized * np.hanning(x.size)
        n_fft = 1 << (x.size - 1).bit_length()
        magnitude = np.abs(np.fft.rfft(windowed, n_fft))
        energies = _mel_filterbank(n_fft, audio.sample_rate) @ magnitude
        log_energies = np.log(np.maximum(energies, 1e-10))
        return dct(log_energies, type=2, norm="ortho")[:13]

    rows = [
        np.concatenate(([log_energy(x), zcr(x)], mfcc(x)))
        for x in frame(audio)
    ]
    return np.array(rows).reshape(len(rows), 15)


def tone(freq_hz, duration_s=0.025, rate=16000, amplitude=0.5):
    t = np.arange(int(duration_s * rate))
    return amplitude * np.cos(2.0 * np.pi * freq_hz * t / rate)


class TestFrame:
    def test_one_second_frame_count(self):
        audio = AudioBuffer(np.zeros(16000), 16000)
        assert frame(audio).shape == (98, 400)

    def test_shorter_than_window_is_empty(self):
        audio = AudioBuffer(np.zeros(100), 16000)
        assert frame(audio).shape[0] == 0

    def test_frames_cover_hop_offsets(self):
        audio = AudioBuffer(np.arange(1000) / 1000.0, 16000)
        frames = frame(audio)
        assert np.array_equal(frames[2], audio.samples[320:720])


class TestLogEnergy:
    def test_zero_frame_hits_floor(self):
        assert log_energy(np.zeros(400)) == pytest.approx(math.log(1e-10))

    def test_unit_sample(self):
        assert log_energy(np.array([1.0])) == 0.0

    def test_half_half(self):
        assert log_energy(np.array([0.5, 0.5])) == pytest.approx(math.log(0.5))

    @pytest.mark.parametrize("empty", [np.zeros(0), []], ids=["array", "list"])
    def test_empty_frame_rejected(self, empty):
        with pytest.raises(ValidationError, match="^frame is empty$"):
            log_energy(empty)


class TestZcr:
    def test_constant_frame(self):
        assert zcr(np.full(50, 0.3)) == 0.0

    def test_alternating_frame(self):
        assert zcr(np.array([1.0, -1.0, 1.0, -1.0])) == 1.0

    def test_sinusoid_fixture(self):
        wave_100hz = tone(100)
        nonneg = wave_100hz >= 0
        brute = int(np.count_nonzero(nonneg[1:] != nonneg[:-1]))
        assert brute == 5
        assert zcr(wave_100hz) == pytest.approx(5 / 399)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            zcr(np.array([1.0]))

    def test_rate_monotone_in_frequency(self):
        rates = [zcr(tone(f)) for f in (100, 300, 500, 900, 1500, 2500, 3900)]
        assert rates == sorted(rates)


class TestMfcc:
    def test_zero_frame_energy_in_first_coefficient(self):
        coeffs = mfcc(np.zeros(400), 16000)
        assert coeffs[0] == pytest.approx(math.log(1e-10) * math.sqrt(40))
        assert np.abs(coeffs[1:]).max() < 1e-12

    @pytest.mark.parametrize("rate", ACCEPTED_RATES)
    @pytest.mark.parametrize("amplitude", [0.0, 1e-15], ids=["silent", "floored"])
    def test_flat_spectrum_gives_exact_zeros(self, rate, amplitude):
        # Digital silence, or noise so faint that all 40 filter energies are
        # floored: the log spectrum is flat, so mfcc_1..12 are exactly +0.0
        # (never -0.0, which the CSV would print as -0.000000).
        samples = np.random.default_rng(0).uniform(-amplitude, amplitude, rate // 10)
        matrix = feature_matrix(AudioBuffer(samples, rate))
        assert matrix[:, 3:].tobytes() == np.zeros_like(matrix[:, 3:]).tobytes()
        lines = features_to_csv(matrix).splitlines()[1:]
        assert len(lines) == 8
        for line in lines:
            fields = line.split(",")
            assert fields[2] == "-23.025851"
            assert fields[4:] == ["-145.628268"] + ["0.000000"] * 12

    def test_output_length(self):
        assert mfcc(tone(440), 16000).shape == (13,)

    def test_matches_reference_on_fixture_frames(self):
        rng = np.random.default_rng(123)
        frames = [rng.uniform(-1, 1, 400) for _ in range(17)]
        frames += [tone(250), tone(1000), np.zeros(400)]
        assert len(frames) == 20
        for samples in frames:
            ours = mfcc(samples, 16000)
            theirs = reference_mfcc(samples, 16000)
            assert np.abs(ours - theirs).max() <= 1e-6

    def test_reference_agreement_at_44100(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(-1, 1, 1102)
        assert np.abs(mfcc(samples, 44100) - reference_mfcc(samples, 44100)).max() <= 1e-6

    def test_too_short_frame(self):
        with pytest.raises(ValidationError):
            mfcc(np.array([0.5]), 16000)


class TestMelBands:
    @staticmethod
    def geometries():
        for rate in ACCEPTED_RATES:
            window = int(round(frontend.WINDOW_S * rate))
            yield 1 << (window - 1).bit_length(), rate

    def test_every_weight_lies_inside_its_band(self):
        for n_fft, rate in self.geometries():
            bank = _mel_filterbank(n_fft, rate)
            covered = np.zeros(bank.shape, dtype=bool)
            for filters, bins, weights in _mel_bands(n_fft, rate):
                covered[filters, bins] = True
                assert weights.tobytes() == np.ascontiguousarray(bank[filters, bins]).tobytes()
            assert not bank[~covered].any()
            assert covered.any(axis=1).all()

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_banded_energies_match_the_dense_bank(self, seed, rows):
        rng = np.random.default_rng(seed)
        for n_fft, rate in self.geometries():
            magnitude = rng.uniform(0.0, 100.0, (rows, n_fft // 2 + 1))
            dense = magnitude @ _mel_filterbank(n_fft, rate).T
            banded = np.empty_like(dense)
            for filters, bins, weights in _mel_bands(n_fft, rate):
                np.matvec(weights, magnitude[:, bins], out=banded[:, filters])
            np.testing.assert_allclose(banded, dense, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("rate", ACCEPTED_RATES)
    def test_first_fill_under_fast_switching(self, monkeypatch, rate):
        # The bands are built by whichever worker needs them first.
        audio = clip_of(6 * _BLOCK_FRAMES + 3, rate)
        monkeypatch.setattr(frontend, "_usable_cpus", lambda: 1)
        serial = feature_matrix(audio).tobytes()
        monkeypatch.setattr(frontend, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _mel_bands.cache_clear()
            _mel_filterbank.cache_clear()
            threaded = feature_matrix(audio).tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestFrameViews:
    """The kernel's strided views and byte counts against NumPy's own."""

    @given(
        data=st.data(),
        dtype=st.sampled_from([np.float64, np.uint8]),
        step=st.integers(1, 3),
        window=st.integers(1, 40),
        hop=st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_windows_equal_the_hop_sliced_sliding_view(self, data, dtype, step, window, hop):
        length = data.draw(st.one_of(st.just(window), st.integers(window, 200)), label="length")
        base = np.random.default_rng(length).integers(0, 200, length * step).astype(dtype)
        x = base[::step]
        views = _windows(x, window, hop)
        reference = np.lib.stride_tricks.sliding_window_view(x, window)[::hop]
        assert views.shape == reference.shape and views.dtype == reference.dtype
        assert views.tobytes() == reference.tobytes()
        assert not views.flags.writeable

    @given(
        rate=st.sampled_from(ACCEPTED_RATES),
        frames=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_zcrs_equal_the_count_nonzero_reference(self, rate, frames, seed):
        window = int(round(frontend.WINDOW_S * rate))
        hop = int(round(frontend.HOP_S * rate))
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, window + (frames - 1) * hop)
        x[rng.random(x.size) < 0.3] = 0.0
        nonneg = x >= 0.0
        changes = np.lib.stride_tricks.sliding_window_view(nonneg[1:] != nonneg[:-1], window - 1)
        reference = np.count_nonzero(changes[::hop], axis=1) / (window - 1)
        assert _zcrs(x, window, hop).tobytes() == reference.tobytes()

    def test_zcr_counts_past_the_uint16_range(self):
        assert zcr(np.tile([1.0, -1.0], 40000)) == 1.0

    @pytest.mark.parametrize("window", [2, 400, 1102])
    def test_hann_is_a_read_only_hanning(self, window):
        hann = _hann(window)
        assert not hann.flags.writeable
        assert hann.tobytes() == np.hanning(window).tobytes()


class TestFeatureMatrix:
    @given(
        data=st.data(),
        rate=st.sampled_from(ACCEPTED_RATES),
        frames=st.one_of(
            st.sampled_from([0, 1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1]),
            st.integers(0, 2 * _BLOCK_FRAMES + 2),
        ),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_per_frame_reference(
        self, data, rate, frames, seed, zeros
    ):
        window = int(round(frontend.WINDOW_S * rate))
        hop = int(round(frontend.HOP_S * rate))
        if frames == 0:
            length = data.draw(st.integers(1, window - 1), label="length")
        else:
            extra = data.draw(st.integers(0, hop - 1), label="extra")
            length = window + (frames - 1) * hop + extra
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1, 1, length) * rng.choice([1.0, 1e-3, 1e-7])
        if zeros:
            samples[rng.random(length) < 0.3] = 0.0
        audio = AudioBuffer(samples, rate)
        matrix = feature_matrix(audio)
        assert matrix.shape == (frames, 15)
        reference = per_frame_features(audio)
        assert matrix[:, :2].tobytes() == reference[:, :2].tobytes()
        # The cepstrum is one matvec with a fixed DCT-II matrix, not scipy's
        # FFT-based DCT, so it agrees to rounding rather than bit for bit.
        np.testing.assert_allclose(matrix[:, 2:], reference[:, 2:], atol=1e-12, rtol=0)
        listed = extract_features(audio)
        assert len(listed) == frames
        assert all(
            f.row.tobytes() == row.tobytes() for f, row in zip(listed, matrix)
        )

    def test_one_row_functions_share_the_kernel(self):
        audio = AudioBuffer(np.random.default_rng(3).uniform(-1, 1, 2000), 16000)
        matrix = feature_matrix(audio)
        for t, x in enumerate(frame(audio)):
            assert matrix[t, 0] == log_energy(x)
            assert matrix[t, 1] == zcr(x)
            assert matrix[t, 2:].tobytes() == mfcc(x, 16000).tobytes()

    def test_extract_features_fields(self):
        audio = AudioBuffer(np.random.default_rng(5).uniform(-1, 1, 8000), 16000)
        listed = extract_features(audio)
        assert FrameFeatures._fields == ("mfcc", "row")
        assert not any(f.mfcc.flags.writeable or f.row.flags.writeable for f in listed)


class TestFrameFeatures:
    @given(
        rate=st.sampled_from(ACCEPTED_RATES),
        frames=st.integers(1, 2 * _BLOCK_FRAMES + 2),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e-3, 1e-7]),
    )
    @settings(max_examples=30, deadline=None)
    def test_per_frame_path_equals_matrix_path(self, rate, frames, seed, scale):
        rng = np.random.default_rng(seed)
        window, hop = int(round(0.025 * rate)), int(round(0.010 * rate))
        audio = AudioBuffer(rng.uniform(-1, 1, window + (frames - 1) * hop) * scale, rate)
        matrix = feature_matrix(audio)
        listed = extract_features(audio)
        assert len(listed) == frames
        assert np.stack([f.row for f in listed]).tobytes() == matrix.tobytes()
        assert np.stack([f.mfcc for f in listed]).tobytes() == matrix[:, 2:].tobytes()
        weights = rng.normal(0.0, 1.0, matrix.shape[1] + 1)
        mask, probabilities = vad_classify(matrix, weights)
        single = [vad_classify(f, weights) for f in listed]
        assert mask.tolist() == [speech for speech, _ in single]
        assert probabilities.tolist() == [p for _, p in single]

    @staticmethod
    def first_frame():
        samples = np.random.default_rng(4).uniform(-1, 1, 800)
        return extract_features(AudioBuffer(samples, 16000))[0]

    @pytest.mark.parametrize("name", ["mfcc", "row", "x"])
    def test_fields_cannot_be_assigned(self, name):
        features = self.first_frame()
        with pytest.raises(AttributeError):
            setattr(features, name, 1.0)

    def test_repr_names_the_fields(self):
        features = FrameFeatures(np.array([1.5]), np.array([-2.0, 0.5, 1.5]))
        assert repr(features) == "FrameFeatures(mfcc=array([1.5]), row=array([-2. ,  0.5,  1.5]))"

    def test_row_is_the_read_only_feature_vector(self):
        features = self.first_frame()
        assert not features.row.flags.writeable
        assert np.shares_memory(features.row, features.mfcc)
        assert features.row[2:].tobytes() == features.mfcc.tobytes()

    def test_pickle_round_trip(self):
        features = self.first_frame()
        again = pickle.loads(pickle.dumps(features))
        assert type(again) is FrameFeatures
        assert again.row.tobytes() == features.row.tobytes()
        assert again.mfcc.tobytes() == features.mfcc.tobytes()


def clip_of(frames: int, rate: int = 16000) -> AudioBuffer:
    """Seeded noise that frames into exactly `frames` default 25 ms frames."""
    window, hop = int(round(0.025 * rate)), int(round(0.010 * rate))
    length = window + (frames - 1) * hop if frames else window - 1
    return AudioBuffer(np.random.default_rng(frames).uniform(-1, 1, length), rate)


def block_threads() -> int:
    return sum(t.name.startswith("convstate-blocks") for t in threading.enumerate())


class TestFeatureBlockThreads:
    @pytest.mark.parametrize("rate", ACCEPTED_RATES)
    def test_bytes_do_not_depend_on_thread_count(self, use_cpus, rate):
        audio = clip_of(2 * _BLOCK_FRAMES + 7, rate)
        outputs, helpers = {}, {}
        for cpus in (1, 4):
            helpers[cpus] = use_cpus(cpus)
            outputs[cpus] = feature_matrix(audio).tobytes()
        assert helpers == {1: [], 4: [2]}
        assert outputs[1] == outputs[4]

    @pytest.mark.parametrize(
        "cpus, blocks, helpers",
        [(2, 5, [1]), (4, 3, [2]), (8, 2, [1]), (4, 1, []), (4, 0, []), (1, 3, [])],
    )
    def test_helpers_bounded_by_blocks_and_cpus(self, use_cpus, cpus, blocks, helpers):
        counts = use_cpus(cpus)
        assert feature_matrix(clip_of(blocks * _BLOCK_FRAMES)).shape[0] == blocks * _BLOCK_FRAMES
        assert counts == helpers

    def test_more_workers_than_cores_under_fast_switching(self, use_cpus):
        audio = clip_of(12 * _BLOCK_FRAMES - 5)
        use_cpus(1)
        serial = feature_matrix(audio).tobytes()
        helpers = use_cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _mel_filterbank.cache_clear()
            threaded = feature_matrix(audio).tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert helpers == [7]
        assert threaded == serial

    def test_later_calls_reuse_the_helper_threads(self, monkeypatch):
        monkeypatch.setattr(frontend, "_usable_cpus", lambda: 4)
        audio = clip_of(8 * _BLOCK_FRAMES)
        first = feature_matrix(audio).tobytes()
        threads, pool = block_threads(), frontend._helper_pools[3]
        for _ in range(5):
            assert feature_matrix(audio).tobytes() == first
        assert block_threads() == threads
        assert frontend._helper_pools[3] is pool

    def test_the_caller_works_while_every_helper_is_busy(self, monkeypatch):
        # The one helper is held, so the caller runs every block itself and
        # returns without waiting for the helper task it queued.
        monkeypatch.setattr(frontend, "_usable_cpus", lambda: 2)
        release = threading.Event()
        busy = frontend._helper_pool(1).submit(release.wait, 10)
        try:
            threads = frontend._map_blocks(lambda start: threading.get_ident(), range(4))
            assert not busy.done()
        finally:
            release.set()
        assert busy.result(timeout=10)
        assert threads == [threading.get_ident()] * 4

    def test_concurrent_callers_share_the_helpers(self, monkeypatch):
        # Two callers with three helpers each, switching often: each caller
        # must get the serial bytes and none may wait forever.
        audios = [clip_of(6 * _BLOCK_FRAMES + k) for k in (1, 2)]
        monkeypatch.setattr(frontend, "_usable_cpus", lambda: 1)
        expected = [feature_matrix(audio).tobytes() for audio in audios]
        monkeypatch.setattr(frontend, "_usable_cpus", lambda: 4)
        outputs = [[], []]

        def call(k):
            for _ in range(5):
                outputs[k].append(feature_matrix(audios[k]).tobytes())

        callers = [threading.Thread(target=call, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert outputs == [[expected[0]] * 5, [expected[1]] * 5]

    @pytest.mark.parametrize("failing", [0, 5, 11])
    def test_a_block_error_surfaces_after_every_helper_returns(self, monkeypatch, failing):
        # Whichever thread takes the failing block, caller or helper.
        monkeypatch.setattr(frontend, "_usable_cpus", lambda: 4)
        started, finished = set(), set()

        def fn(start):
            started.add(start)
            if start == failing:
                raise ValueError(f"block {start} failed")
            time.sleep(0.01)
            finished.add(start)

        with pytest.raises(ValueError, match=f"block {failing} failed"):
            frontend._map_blocks(fn, range(12))
        assert started - {failing} == finished
        # The pool still serves later calls.
        assert frontend._map_blocks(lambda start: -start, range(6)) == [0, -1, -2, -3, -4, -5]

    # macOS system libraries (Accelerate among them) are not safe to use in a
    # forked child, which is why Python does not fork there by default.
    @pytest.mark.skipif(not hasattr(os, "fork") or sys.platform == "darwin",
                        reason="needs a fork-safe POSIX platform")
    def test_forked_child_builds_its_own_helpers(self, monkeypatch):
        monkeypatch.setattr(frontend, "_usable_cpus", lambda: 4)
        audio = clip_of(8 * _BLOCK_FRAMES + 3)
        expected = feature_matrix(audio).tobytes()  # the parent's pool is up
        assert frontend._helper_pools
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_end)
                inherited = len(frontend._helper_pools)
                same = feature_matrix(audio).tobytes() == expected
                os.write(write_end, f"{inherited} {same}".encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        with os.fdopen(read_end, "rb") as reader:
            report = reader.read().decode()
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        assert report == "0 True"

    @pytest.mark.parametrize("count, expected", [(6, 6), (None, 1)])
    def test_cpu_count_fallback_without_affinity(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert frontend._usable_cpus() == expected


class TestVadClassify:
    def test_zero_weights_tie_is_non_speech(self):
        features = np.zeros(15)
        speech, probability = vad_classify(features, np.zeros(16))
        assert probability == 0.5
        assert not speech

    @pytest.mark.parametrize("logit, expected", [(-1e4, 0.0), (0.0, 0.5), (1e4, 1.0)])
    def test_extreme_logits_saturate_without_warning(self, logit, expected):
        # np.exp(1e4) overflows; the logistic must not, and 0.5 is non-speech.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            speech, probability = vad_classify(np.array([1.0]), np.array([logit, 0.0]))
            mask, probabilities = vad_classify(np.array([[1.0], [2.0]]), np.array([logit, 0.0]))
        assert (speech, probability) == (expected == 1.0, expected)
        assert probabilities.tolist() == [expected, expected]
        assert mask.tolist() == [expected == 1.0] * 2

    def test_energy_weight_drives_decision(self):
        loud = np.concatenate(([3.0, 0.1], np.zeros(13)))
        weights = np.zeros(16)
        weights[0] = 2.0
        speech, probability = vad_classify(loud, weights)
        assert speech and probability > 0.9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="16"):
            vad_classify(np.zeros(15), np.zeros(4))

    @pytest.mark.parametrize("as_frame", [False, True], ids=["vector", "frame-features"])
    def test_one_vector_returns_python_scalars(self, as_frame):
        record = TestFrameFeatures.first_frame()
        vector = record.row
        weights = np.linspace(0.5, -0.5, 16)
        features = record if as_frame else vector
        speech, probability = vad_classify(features, weights)
        assert type(speech) is bool and type(probability) is float
        mask, probabilities = vad_classify(vector.reshape(1, -1), weights)
        assert (speech, probability) == (mask[0], probabilities[0])

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 3000),
        dim=st.integers(1, 20),
        dtype=st.sampled_from(["float64", "float32", "int16", "bool"]),
        layout=st.sampled_from(["C", "F", "columns"]),
        scale=st.sampled_from([1.0, 1e3, 1e308]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_rows_equal_one_frame_calls(self, seed, rows, dim, dtype, layout, scale):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 3.0, (rows, 2 * dim))
        if dtype == "int16":
            values = values * 1000
        values = values > 0 if dtype == "bool" else values.astype(dtype)
        # Strided rows too: a Fortran-order matrix and a column slice.
        x = {"C": np.ascontiguousarray(values[:, :dim]),
             "F": np.asfortranarray(values[:, :dim]),
             "columns": values[:, ::2]}[layout]
        # A scale of 1e3 saturates the logistic; 1e308 overflows logits to +-inf.
        weights = rng.uniform(-1.0, 1.0, dim + 1) * scale

        def classify(features):
            try:
                return vad_classify(features, weights)
            except ValidationError:  # a NaN probability, from +inf and -inf terms
                return None

        with np.errstate(over="ignore", invalid="ignore"):
            single = [classify(row) for row in x]
            # The matrix call raises exactly when some one-frame call does.
            if None in single:
                with pytest.raises(ValidationError, match="^VAD probability is NaN"):
                    vad_classify(x, weights)
                return
            mask, probabilities = vad_classify(x, weights)
        assert mask.shape == probabilities.shape == (rows,)
        assert all(type(speech) is bool and type(p) is float for speech, p in single)
        assert mask.tolist() == [speech for speech, _ in single]
        assert probabilities.tobytes() == np.array([p for _, p in single]).tobytes()

    @pytest.mark.parametrize("rate", ACCEPTED_RATES)
    def test_matrix_rows_equal_frame_feature_calls(self, rate):
        rng = np.random.default_rng(rate)
        audio = AudioBuffer(rng.uniform(-1, 1, rate) * np.repeat([1.0, 1e-4], rate // 2), rate)
        records = extract_features(audio)
        weights = rng.normal(0.0, 1.0, records[0].row.size + 1)
        mask, probabilities = vad_classify(feature_matrix(audio), weights)
        single = [vad_classify(record, weights) for record in records]
        assert all(type(speech) is bool and type(p) is float for speech, p in single)
        assert mask.tolist() == [speech for speech, _ in single]
        assert probabilities.tobytes() == np.array([p for _, p in single]).tobytes()

    @pytest.mark.parametrize("where", ["weight", "feature"])
    def test_nan_probability_rejected(self, where):
        features, weights = np.zeros((2, 15)), np.zeros(16)
        if where == "weight":
            weights[3] = np.nan
        else:
            features[1, 3] = np.nan
        for x in (features, features[1]):
            with pytest.raises(ValidationError, match="^VAD probability is NaN"):
                vad_classify(x, weights)

    def test_matrix_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="16"):
            vad_classify(np.zeros((3, 15)), np.zeros(17))

    @pytest.mark.parametrize("shape", [(2, 3, 15), ()], ids=["3-D", "0-D"])
    def test_features_of_another_rank_rejected(self, shape):
        message = f"features must be one vector or an (n, d) matrix, got {len(shape)}-D"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            vad_classify(np.zeros(shape), np.zeros(16))

    @given(
        rate=st.sampled_from(ACCEPTED_RATES),
        kind=st.sampled_from(["silence", "square", "noise"]),
        period=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_weights_at_the_file_bound_never_overflow(self, rate, kind, period, seed):
        # VAD_WEIGHT_BOUND assumes every feature lies within +-1e3, so that
        # a logit's 16 terms and their sum stay finite: an overflow would be
        # a RuntimeWarning, which the pytest configuration makes an error.
        rng = np.random.default_rng(seed)
        n = rate // 4
        samples = {
            "silence": np.zeros(n),
            "square": np.where(np.arange(n) // period % 2, -1.0, 1.0),
            "noise": rng.choice([-1.0, 1.0], n),
        }[kind]
        matrix = feature_matrix(AudioBuffer(samples, rate))
        assert np.abs(matrix).max() < 1e3
        weights = rng.choice([-1.0, 1.0], matrix.shape[1] + 1) * VAD_WEIGHT_BOUND
        mask, probabilities = vad_classify(matrix, weights)
        single = [vad_classify(row, weights) for row in matrix]
        assert mask.tolist() == [speech for speech, _ in single]
        assert probabilities.tobytes() == np.array([p for _, p in single]).tobytes()


def synthetic_vad_corpus(seed=2):
    rate = 16000
    rng = np.random.default_rng(seed)
    loud = AudioBuffer(0.3 * np.cos(2 * np.pi * 440 * np.arange(rate) / rate), rate)
    quiet = AudioBuffer(np.clip(rng.normal(0, 1e-5, rate), -1, 1), rate)
    speech = extract_features(loud)
    silence = extract_features(quiet)
    x = np.array([f.row for f in speech + silence])
    y = np.array([1] * len(speech) + [0] * len(silence))
    return x, y


class TestTrainVad:
    def test_separable_corpus_is_learned(self):
        x, y = synthetic_vad_corpus()
        weights, loss = train_vad(x, y, epochs=400, learning_rate=0.5, seed=0)
        predictions = np.array([vad_classify(row, weights)[0] for row in x])
        assert (predictions == y).mean() >= 0.99
        assert loss < 0.1

    def test_zero_epochs_returns_initial(self):
        x, y = synthetic_vad_corpus()
        first, _ = train_vad(x, y, epochs=0, seed=7)
        again, _ = train_vad(x, y, epochs=0, seed=7)
        trained, _ = train_vad(x, y, epochs=50, seed=7)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, trained)
        assert np.abs(first).max() < 0.1

    @pytest.mark.parametrize(
        "x_shape, y_shape", [((10,), (10,)), ((10, 2), (10, 1)), ((10, 2), (9,))],
        ids=["1-D-features", "2-D-labels", "row-count"],
    )
    def test_shape_mismatch_rejected(self, x_shape, y_shape):
        with pytest.raises(ValidationError, match=r"^features must be \(n, d\) with one label per row$"):
            train_vad(np.zeros(x_shape), np.zeros(y_shape), epochs=5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "epochs, message",
        [(-1, "epochs must be >= 0, got -1"), (2.5, "epochs 2.5 is not an integer")],
    )
    def test_epochs_must_be_a_non_negative_integer(self, epochs, message):
        x, y = synthetic_vad_corpus()
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            train_vad(x, y, epochs=epochs)

    def test_single_class_names_missing(self):
        x, _ = synthetic_vad_corpus()
        with pytest.raises(ValidationError, match="non-speech"):
            train_vad(x, np.ones(len(x)), epochs=5)
        with pytest.raises(ValidationError, match="speech"):
            train_vad(x, np.zeros(len(x)), epochs=5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_non_increasing_at_small_rate(self, seed):
        x, y = synthetic_vad_corpus(seed=seed)
        losses = [
            train_vad(x, y, epochs=n, learning_rate=0.01, seed=seed)[1]
            for n in (0, 5, 15, 40, 80)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic_per_seed(self):
        x, y = synthetic_vad_corpus()
        a, _ = train_vad(x, y, epochs=30, seed=4)
        b, _ = train_vad(x, y, epochs=30, seed=4)
        assert np.array_equal(a, b)


class TestSegment:
    def test_exact_division(self):
        mask = np.array([True] * 120)
        spans = segment(mask, hop_s=0.010, seg_len_s=0.4)
        assert [(round(s.start_s, 3), round(s.end_s, 3)) for s in spans] == [
            (0.0, 0.4),
            (0.4, 0.8),
            (0.8, 1.2),
        ]

    def test_half_segment_trailing_merges(self):
        mask = np.array([True] * 100)
        spans = segment(mask, hop_s=0.010, seg_len_s=0.4)
        durations = [round(s.end_s - s.start_s, 3) for s in spans]
        assert durations == [0.4, 0.6]

    def test_long_trailing_kept(self):
        mask = np.array([True] * 70)
        spans = segment(mask, hop_s=0.010, seg_len_s=0.4)
        assert [round(s.end_s - s.start_s, 3) for s in spans] == [0.4, 0.3]

    def test_all_silence(self):
        assert segment(np.zeros(50, dtype=bool), 0.010) == []

    def test_short_lone_run_dropped(self):
        mask = np.zeros(50, dtype=bool)
        mask[10:15] = True
        assert segment(mask, hop_s=0.010, seg_len_s=0.4) == []

    def test_lone_run_of_at_least_half_a_segment_kept_whole(self):
        spans = segment(np.ones(25, dtype=bool), hop_s=0.010, seg_len_s=0.4)
        assert [(round(s.start_s, 3), round(s.end_s, 3)) for s in spans] == [(0.0, 0.25)]

    def test_two_runs_stay_separate(self):
        mask = np.zeros(200, dtype=bool)
        mask[0:45] = True
        mask[100:145] = True
        spans = segment(mask, hop_s=0.010, seg_len_s=0.4)
        assert len(spans) == 2
        assert spans[0].end_s <= spans[1].start_s

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 120)), max_size=8))
    @settings(max_examples=200)
    def test_segments_are_spans_as_they_stand(self, runs):
        # A segment is the (start, end) pair that the one span rule takes as is.
        # The mask is drawn as runs: a few seconds with speech runs of any length.
        mask = np.repeat([speech for speech, _ in runs], [length for _, length in runs])
        spans = segment(mask.astype(bool))
        assert _as_spans(spans) == tuple(spans)
        assert StateSequence([0] * len(spans), 1, times=spans).times == tuple(spans)

    def test_segment_is_a_named_pair(self):
        (first,) = segment(np.ones(40, dtype=bool))
        assert SpeakerSegment._fields == ("start_s", "end_s")
        assert isinstance(first, tuple) and not hasattr(first, "__post_init__")
        assert first == (0.0, 0.4) and first.start_s == 0.0 and first.end_s == 0.4
        assert repr(first) == "SpeakerSegment(start_s=0.0, end_s=0.4)"

    @pytest.mark.parametrize(
        "hop_s, seg_len_s",
        [(0.01, 1e-300), (0.01, 0.005), (math.nan, 0.4), (0.01, math.inf), (0, 0.4)],
    )
    def test_hop_must_fit_in_a_finite_segment(self, hop_s, seg_len_s):
        message = f"need 0 < hop_s <= seg_len_s < inf, got hop_s {hop_s} and seg_len_s {seg_len_s}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            segment(np.ones(100, dtype=bool), hop_s, seg_len_s)

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 120)), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_segment_invariants(self, runs):
        # The mask is drawn as runs, so runs of the 20 frames (half a segment)
        # that a kept segment needs occur.
        mask = np.repeat([speech for speech, _ in runs], [length for _, length in runs])
        spans = segment(mask.astype(bool), hop_s=0.010, seg_len_s=0.4)
        previous_end = -1.0
        for span in spans:
            assert span.start_s >= previous_end - 1e-9
            previous_end = span.end_s
            assert span.end_s - span.start_s >= 0.2 - 1e-9
            assert span.end_s - span.start_s < 0.8
        # Tiling: a speech run of at least 20 frames is covered by consecutive
        # segments from its first frame to its end; a shorter run gives none.
        remaining = iter(spans)
        first = 0
        for speech, group in itertools.groupby(mask.tolist()):
            stop = first + len(list(group))
            if speech and stop - first >= 20:
                cursor = first * 0.010
                while cursor < stop * 0.010 - 1e-9:
                    span = next(remaining)
                    assert abs(span.start_s - cursor) <= 1e-9
                    cursor = span.end_s
                assert abs(cursor - stop * 0.010) <= 1e-9
            first = stop
        assert next(remaining, None) is None


class TestWavIo:
    def test_round_trip(self, tmp_path):
        # save_wav scales by 32767 and truncates; load_wav divides by 32768.
        path = str(tmp_path / "clip.wav")
        uniform = np.random.default_rng(0).uniform(-1.0, 1.0, 20000)
        original = AudioBuffer(np.concatenate((np.linspace(-1.0, 1.0, 1601), uniform)), 16000)
        save_wav(path, original)
        loaded = load_wav(path)
        assert loaded.sample_rate == 16000
        assert np.abs(loaded.samples - original.samples).max() < 2 / 32768

    def test_multichannel_downmix(self, tmp_path):
        import wave as wave_module

        path = str(tmp_path / "stereo.wav")
        left = (np.ones(100) * 16384).astype("<i2")
        right = np.zeros(100, dtype="<i2")
        interleaved = np.empty(200, dtype="<i2")
        interleaved[0::2] = left
        interleaved[1::2] = right
        with wave_module.open(path, "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(16000)
            handle.writeframes(interleaved.tobytes())
        loaded = load_wav(path)
        assert loaded.samples == pytest.approx(np.full(100, 0.25), abs=1e-4)

    @given(
        pcm=st.lists(st.integers(-32768, 32767), min_size=2, max_size=400),
        channels=st.sampled_from([1, 2]),
    )
    @settings(max_examples=50, deadline=None)
    def test_samples_keep_the_two_pass_conversion_bytes(self, tmp_path_factory, pcm, channels):
        import wave as wave_module

        ints = np.array(pcm[: len(pcm) // channels * channels], dtype="<i2")
        path = str(tmp_path_factory.mktemp("pcm") / "clip.wav")
        with wave_module.open(path, "wb") as handle:
            handle.setnchannels(channels)
            handle.setsampwidth(2)
            handle.setframerate(16000)
            handle.writeframes(ints.tobytes())
        expected = ints.astype(np.float64)
        expected /= 32768.0
        if channels > 1:
            expected = expected.reshape(-1, channels).mean(axis=1)
        assert load_wav(path).samples.tobytes() == expected.tobytes()

    def test_rejects_unsupported_rate(self):
        with pytest.raises(ValidationError, match="8000"):
            AudioBuffer(np.zeros(10), 8000)

    def test_rejects_samples_out_of_range(self):
        with pytest.raises(ValidationError):
            AudioBuffer(np.array([0.0, 1.5]), 16000)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestAudioBufferChecks:
    @given(
        values=st.lists(st.floats(), max_size=40),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        where=st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_finite_is_named_whatever_else(self, values, bad, where):
        values.insert(where % (len(values) + 1), bad)
        with pytest.raises(ValidationError, match="^samples contain NaN or Inf$"):
            AudioBuffer(np.array(values), 16000)

    @given(
        values=st.lists(finite_floats, max_size=40),
        big=finite_floats.filter(lambda v: abs(v) > 1.0 + 1e-9),
        where=st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_finite_out_of_range_is_named(self, values, big, where):
        values.insert(where % (len(values) + 1), big)
        with pytest.raises(ValidationError, match=r"^samples must lie in \[-1, 1\]$"):
            AudioBuffer(np.array(values), 16000)

    @given(values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_in_range_passes(self, values):
        audio = AudioBuffer(np.array(values), 16000)
        assert audio.samples.tolist() == values


class TestWavValidation:
    def test_rejects_eight_bit(self, tmp_path):
        import wave as wave_module

        path = str(tmp_path / "eight.wav")
        with wave_module.open(path, "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(1)
            handle.setframerate(16000)
            handle.writeframes(bytes(100))
        with pytest.raises(ValidationError, match="16-bit"):
            load_wav(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("cut inside fmt", "WAV header is cut short"),
            ("unknown chunk past the end", "a chunk runs past the end of the file"),
            ("cut mid-sample", "data ends mid-frame after 1599 bytes"),
            ("cut on a frame boundary", "data chunk declares 1600 bytes of frames, the file holds 1000"),
            ("float format", "only 16-bit PCM is read, got format tag 3"),
        ],
    )
    def test_damaged_file_is_named(self, tmp_path, damage, message):
        path = str(tmp_path / "clip.wav")
        save_wav(path, AudioBuffer(np.zeros(800), 16000))
        raw = bytearray(Path(path).read_bytes())
        if damage == "cut inside fmt":
            raw = raw[:24]
        elif damage == "unknown chunk past the end":
            raw[12:12] = b"junk\xff\xff\x00\x00"
        elif damage == "cut mid-sample":
            raw = raw[:-1]
        elif damage == "cut on a frame boundary":
            raw = raw[:44 + 1000]
        else:
            raw[20:22] = (3).to_bytes(2, "little")
        with open(path, "wb") as handle:
            handle.write(raw)
        with pytest.raises(ValidationError) as caught:
            load_wav(path)
        assert str(caught.value) == f"{path}: {message}"
