#!/usr/bin/env python3
"""convstate benchmark: one workload, one closed-loop client, checked outputs.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload session --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``session`` runs the
checker loop through the CLI, ``pipeline`` runs WAV -> VAD -> embeddings ->
spectral diarization -> checker loop through the library, ``vad`` runs the
CLI's frame features and speech mask on a few minutes of audio.

One process issues operations back to back, each after the previous one
ends, for ``--seconds``. Every operation's output is checked; a failed check
counts in ``failed``. With ``--trace 0`` the last line reports the end-to-end
metrics; with ``--trace 1`` every operation runs under the layer tracer and
the last line reports per-layer self times and work counts, and the spans
go to ``.bench_traces/``. Either mode reruns its first operations in the
other mode and requires identical output digests.

Times are reported at a fixed reference speed. The host's speed drifts by
tens of percent over minutes (shared CPUs), so a fixed calibration kernel
(a Python loop plus numpy FFTs) runs before and after every operation and
during set-up,
and each time is scaled by CALIBRATION_REF_S / (calibration time measured
around it). Raw times and the scale are printed alongside.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 3
WORK_ROOT = ".bench_work"
TRACE_DIR = ".bench_traces"
RERUNS_TRACED = 3  # ops rerun untraced after a traced run, for digests and overhead
TAIL_GRID = (99.0, 95.0, 90.0, 75.0, 50.0)
WARMUP_INDEX = 1 << 20
CALIBRATION_REF_S = 0.025  # calibration time that defines the reference speed


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and numpy FFTs.

    It never touches the program. The two halves track how the host's drift
    slows pure-Python code and vectorised numpy code, which the workloads
    mix in different proportions.
    """
    import numpy as np

    block = np.arange(400 * 512, dtype=np.float64).reshape(400, 512) % 7.0
    started = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(12):
        np.abs(np.fft.rfft(block, axis=1)).sum()
    return time.perf_counter() - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("session", "pipeline", "vad"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import convstate from ./src of this checkout and nowhere else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "convstate", "__init__.py")):
        raise SystemExit(f"error: no convstate package under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import convstate

    if not os.path.abspath(convstate.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported convstate from {convstate.__file__}, not {src}")


def op_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def tail(values):
    """Highest percentile of TAIL_GRID with at least ten samples above it."""
    ordered = sorted(values)
    for q in TAIL_GRID:
        if len(ordered) * (100.0 - q) / 100.0 >= 10:
            return q, percentile(ordered, q)
    return 50.0, percentile(ordered, 50.0)


def percentile(ordered, q):
    """Linear interpolation between closest ranks."""
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or 'unknown'."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def git_commit() -> str:
    """HEAD of ./.git without running git; 'unknown' outside a git checkout."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
    }


class OpRecord:
    def __init__(self, index, seed, wall_s, outcome, error):
        self.index, self.seed, self.wall_s = index, seed, wall_s
        self.outcome, self.error = outcome, error
        self.scale = 1.0  # reference-speed factor from the calibrations around the op

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


def closed_loop(workload, ops, tracer=None):
    """Run (index, seed) ops back to back, calibrating before, between and after."""
    records, before = [], calibrate()
    for index, seed in ops:
        record = run_op(workload, index, seed, tracer)
        after = calibrate()
        record.scale = 2 * CALIBRATION_REF_S / (before + after)
        records.append(record)
        before = after
    return records


def until(seed, seconds):
    """Op indices and seeds for `seconds`; at least one op."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        yield index, op_seed(seed, index)
        index += 1


def run_op(workload, index, seed, tracer=None):
    """Prepare, time and check one operation; a raised error fails the op."""
    from workloads import CheckFailed

    prepared = workload.prepare(index, seed)
    span = tracer.op(index) if tracer is not None else nullcontext()
    started = time.perf_counter()
    try:
        with span:
            raw = workload.run(prepared)
    except Exception:
        wall = time.perf_counter() - started
        return OpRecord(index, seed, wall, None, traceback.format_exc(limit=3))
    wall = time.perf_counter() - started
    if tracer is not None:
        wall = span.wall_ns / 1e9
    try:
        return OpRecord(index, seed, wall, workload.check(prepared, raw), None)
    except (CheckFailed, KeyError, ValueError, TypeError, OSError, IndexError) as exc:
        return OpRecord(index, seed, wall, None, f"check failed: {exc!r}")


def rerun_check(workload, records, traced, count):
    """Rerun the first ops in the other tracing mode; digests must not change."""
    from layers import TARGETS
    from tracer import Tracer

    tracer = Tracer(TARGETS) if traced else None
    with tracer if tracer else nullcontext():
        again = closed_loop(workload, [(r.index, r.seed) for r in records[:count]], tracer)
    problems = []
    for first, second in zip(records, again):
        if first.outcome is None or second.outcome is None:
            problems.append(f"op {first.index}: rerun failed: {second.error or first.error}")
        elif second.outcome.digest != first.outcome.digest:
            problems.append(f"op {first.index}: digest changed between traced and untraced runs")
    return problems, again


def end_to_end(records, setup_s):
    times = [r.ref_s for r in records]
    ok = [r.outcome for r in records if r.outcome is not None]
    q, tail_s = tail(times)
    correct = sum(o.correct_labels for o in ok)
    total = sum(o.total_labels for o in ok)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "audio_s_per_s": (sum(o.audio_s for o in ok) / sum(times), "s/s"),
        "label_accuracy_pct": (100.0 * correct / total if total else 0.0, "%"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return metrics, q


def per_layer(records, tracer, untraced):
    """Per-op means of self times (at reference speed) and work counts."""
    from layers import CALL_METRICS, COUNT_METRICS, SELF_METRICS, per_layer_metric_names
    from tracer import call_counts, self_times

    n = len(records)
    scale = {r.index: r.scale for r in records}
    selfs = self_times(tracer.spans, tracer.leaves)
    values = {name: 0.0 for name, _ in per_layer_metric_names()}
    for (op, span), ns in selfs.items():
        values[SELF_METRICS[span]] += ns / 1e9 * scale[op] / n
    for (_, span), count in call_counts(tracer.spans, tracer.leaves).items():
        if span in CALL_METRICS:
            values[CALL_METRICS[span]] += count / n
    for outcome in (r.outcome for r in records if r.outcome is not None):
        for name in COUNT_METRICS:
            values[name] += outcome.counts.get(name, 0) / n
    extract_s = values["frontend.extract_features_s"]
    values["frontend.frames_per_s"] = values["frontend.frames"] / extract_s if extract_s else 0.0
    checked = values["controller.checked_iterations"]
    values["controller.accept_ratio"] = (
        values["controller.accepted_iterations"] / checked if checked else 0.0
    )
    values["trace.op_wall_s"] = sum(r.ref_s for r in records) / n
    traced = sum(r.ref_s for r in records[: len(untraced)])
    plain = sum(r.ref_s for r in untraced)
    values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    values["trace.absent_targets"] = float(len(tracer.absent))

    problems = []
    for record in records:
        own = sum(ns for (op, _), ns in selfs.items() if op == record.index) / 1e9
        if abs(own - record.wall_s) > 1e-6:
            problems.append(
                f"op {record.index}: self times sum to {own} s, op took {record.wall_s} s"
            )
    units = dict(per_layer_metric_names())
    return {name: (value, units[name]) for name, value in values.items()}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy  # noqa: F401

    from layers import TARGETS
    from tracer import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - START
    workload = WORKLOADS[args.workload]()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        setup_times, calibrations = [], []
        for _ in range(SETUP_REPS):
            calibrations.append(calibrate())
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            started = time.perf_counter()
            workload.setup(args.seed, work)
            setup_times.append(time.perf_counter() - started)
        warm = run_op(workload, WARMUP_INDEX, op_seed(args.seed, WARMUP_INDEX))
        calibrations.append(calibrate())
        setup_raw_s = import_s + statistics.median(setup_times) + warm.wall_s
        setup_scale = CALIBRATION_REF_S / statistics.median(calibrations)

        tracer = Tracer(TARGETS) if args.trace else None
        with tracer if tracer else nullcontext():
            records = closed_loop(workload, until(args.seed, args.seconds), tracer)

        problems = [f"warm-up: {warm.error}"] if warm.outcome is None else []
        problems += [f"op {r.index}: {r.error}" for r in records if r.outcome is None]
        rerun_problems, reruns = rerun_check(
            workload, records, traced=not args.trace, count=RERUNS_TRACED if args.trace else 1
        )
        problems += rerun_problems
        if args.trace:
            metrics, trace_problems = per_layer(records, tracer, reruns)
            problems += trace_problems
            os.makedirs(TRACE_DIR, exist_ok=True)
            tracer.write(os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics, tail_q = end_to_end(records, setup_raw_s * setup_scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    failed = sum(r.outcome is None for r in records)
    ok = [r.outcome for r in records if r.outcome is not None]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"ops attempted {len(records)} failed {failed} error_rate {failed / len(records):.4f} "
          f"(closed loop, 1 client)")
    scales = [r.scale for r in records]
    print(f"reference speed: calibration loop {CALIBRATION_REF_S * 1e3:g} ms; scale median "
          f"{statistics.median(scales):.4f} (min {min(scales):.4f}, max {max(scales):.4f}), "
          f"set-up {setup_scale:.4f}")
    walls = sorted(r.wall_s for r in records)
    print(f"raw op_p50_s {statistics.median(walls)!r} raw setup_s {setup_raw_s!r} "
          f"(import {import_s:.3f} s, warm-up op {warm.wall_s:.3f} s)")
    if not args.trace:
        print(f"op_tail_s is the p{tail_q:g} of {len(records)} op times "
              f"(highest percentile with >= 10 samples above it)")
    quality = {}
    for outcome in ok:
        for name, (wrong, total) in outcome.errors.items():
            sums = quality.setdefault(name, [0, 0])
            sums[0] += wrong
            sums[1] += total
    for name, (wrong, total) in sorted(quality.items()):
        print(f"quality {name} {100.0 * wrong / total:.4f} % ({wrong} of {total})")
    if args.trace:
        print(f"tracing overhead {metrics['trace.overhead_pct'][0]:.2f} % "
              f"(first {len(reruns)} ops traced vs rerun untraced)")
        for name in tracer.absent:
            print(f"absent target {name}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for problem in problems:
        print(f"problem {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Pin BLAS/OpenMP pools to one thread; numpy is first imported in main().
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
