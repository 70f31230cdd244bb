"""Benchmark of the kch library: three seeded, closed-loop request streams.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload knot_invariants --seed 1 --seconds 35 --trace 0

One caller sends the next request only after the previous one returns.  A
request's latency covers its library calls only; input generation and the
oracle check of each answer run between requests, outside the timed interval.
Requests run in whole cycles of the workload's fixed mix until ``--seconds``
of wall time have passed, all on one import of the library.  Before them the
set-up (import, first inputs, warm caches) runs ``SETUP_REPEATS`` times back
to back, and ``setup_s`` is the median of those set-ups.

The end-to-end times are given at a reference machine speed.  On a shared
virtual machine the speed of the processor changes by up to twofold within
seconds and between minutes, with nothing in the guest's accounting to show
it (process CPU time rises with wall time).  So after each request, and
after each set-up, the runner times a fixed piece of pure-Python work that
calls nothing in the library (``calibration_s``).  A time is multiplied by
``REFERENCE_CALIBRATION_S`` over the median of the calibration times around
it: the time the same work would take on the machine when the calibration
takes exactly ``REFERENCE_CALIBRATION_S``.  A change to the library moves
these times as much as the wall times; a change in machine speed moves them
far less.  The wall-time values are printed beside them.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it wraps the library's layer boundaries (see ``tracer.py``), serves a fixed
number of cycles traced (the workload's ``traced_cycles_per_second`` times
``--seconds``, so that counts repeat exactly for a given seed), replays each
cycle untraced right after it to measure the tracing overhead, and reports
the per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout that holds this file;
without it the run exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7

# The calibration work: a product of two sparse polynomials with rational
# coefficients kept in a dict by exponent tuple, the shape of the library's
# hot loops.  It took 0.9-1.8 ms on the machine the baseline was measured on;
# REFERENCE_CALIBRATION_S only sets the scale of the reported times.
CALIBRATION_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
REFERENCE_CALIBRATION_S = 0.001
# a request's speed is the median of the calibrations within this many
# requests of it, which follows changes that last a few seconds
SPEED_WINDOW = 8
SETUP_CALIBRATIONS = 9

# The tail percentile is fixed, not derived from the sample count, so that
# runs stay comparable when a change alters how many requests fit in a run.
# Every workload completes well over 100 requests per run at the baseline, so
# at least ten samples lie beyond it; p95 and above spread too much between
# seeds with these heavy-tailed request costs.
TAIL_PERCENTILE = 90


def import_library():
    """Import kch from this checkout's src/, afresh on every call, so that
    each set-up pays for the import and starts with empty module caches."""
    for name in [n for n in sys.modules if n == "kch" or n.startswith("kch.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    kch = importlib.import_module("kch")
    if Path(kch.__file__).resolve().parent != SOURCE / "kch":
        raise ImportError(f"kch was imported from {kch.__file__}, not from {SOURCE}")
    return kch


def _calibration_work() -> dict:
    product: dict = {}
    for (a, b), x in CALIBRATION_TERMS.items():
        for (c, d), y in CALIBRATION_TERMS.items():
            key = a + c, b + d
            product[key] = product.get(key, 0) + x * y
    return product


def calibration_s() -> float:
    """Seconds the calibration work takes now.

    It runs twice and the second run is timed, with the cyclic garbage
    collector off, so that neither caches left cold by the last request nor
    the size of the library's heap change the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _calibration_work()
        start = time.perf_counter()
        _calibration_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(times: list[float], calibrations: list[float]) -> list[float]:
    """Each time scaled to the reference speed by the calibrations near it."""
    scaled = []
    for index, value in enumerate(times):
        near = calibrations[max(0, index - SPEED_WINDOW) : index + SPEED_WINDOW + 1]
        scaled.append(value * REFERENCE_CALIBRATION_S / statistics.median(near))
    return scaled


def set_up(workload_cls, seed: int):
    """Import kch afresh, generate the first cycle of inputs, warm lazy caches.

    Returns the library, the workload, its request stream, the first cycle
    and the seconds this took.
    """
    start = time.perf_counter()
    kch = import_library()
    workload = workload_cls(seed)
    stream = workload.requests()
    first = [next(stream) for _ in range(workload.cycle)]
    workload.warm(kch)
    return kch, workload, stream, first, time.perf_counter() - start


def run_stream(
    kch, workload, stream, first, seconds: float, limit: int | None, tracer=None, calibrations=None
):
    """Serve at least one whole cycle, then stop at the first cycle boundary
    after ``seconds`` of wall time (or after exactly ``limit`` requests).
    With a ``calibrations`` list, append a calibration time after each
    request that passes its check.  Returns latencies, attempted, failed."""
    latencies = []
    attempted = failed = 0
    pending = list(first)
    started = time.perf_counter()
    while True:
        if limit is not None:
            if attempted >= limit:
                break
        elif (
            attempted
            and attempted % workload.cycle == 0
            and time.perf_counter() - started >= seconds
        ):
            break
        request = pending.pop(0) if pending else next(stream)
        attempted += 1
        if tracer is not None:
            tracer.request_id += 1
            frame = tracer.enter(True)
        begin = time.perf_counter()
        try:
            output = workload.execute(kch, request)
        except kch.KchError as exc:
            failed += 1
            print(f"request {attempted} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        finally:
            elapsed = time.perf_counter() - begin
            if tracer is not None:
                tracer.leave("request", frame)
        if tracer is not None:
            tracer.active, tracer.checking = False, True
        try:
            ok = workload.verify(kch, request, output)
        except kch.KchError as exc:
            ok = False
            print(f"request {attempted} oracle raised {type(exc).__name__}: {exc}", file=sys.stderr)
        if tracer is not None:
            tracer.active, tracer.checking = True, False
        if not ok:
            failed += 1
            print(f"request {attempted} ({request.kind}) disagrees with its oracle", file=sys.stderr)
            continue
        latencies.append(elapsed)
        if calibrations is not None:
            calibrations.append(calibration_s())
    return latencies, attempted, failed


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[rank]


def time_metrics(latencies: list[float], setup_s: float) -> dict:
    tail = percentile(latencies, TAIL_PERCENTILE)
    return {
        "throughput_rps": (len(latencies) / sum(latencies), "req/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "setup_s": (setup_s, "s"),
    }


def end_to_end(kch, workload, stream, first, seconds, setups):
    """``setups`` holds (wall seconds, seconds at reference speed) per set-up."""
    calibrations: list[float] = []
    latencies, attempted, failed = run_stream(
        kch, workload, stream, first, seconds, None, calibrations=calibrations
    )
    if not latencies:
        raise SystemExit("no request completed")
    if threading.active_count() > 1:
        # another thread could run during a calibration and so slow it
        raise SystemExit("a thread besides the caller is running; calibrations would count it")
    scaled = at_reference_speed(latencies, calibrations)
    metrics = time_metrics(scaled, statistics.median(s for _, s in setups))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    wall = time_metrics(latencies, statistics.median(w for w, _ in setups))
    tail = metrics["latency_tail_ms"][0] / 1000
    beyond = sum(1 for v in scaled if v > tail)
    for key, (value, unit) in metrics.items():
        note = ""
        if key in wall:
            note = f"  (wall time: {wall[key][0]:.6g})"
        if key == "latency_tail_ms":
            note += f"  (p{TAIL_PERCENTILE}, {beyond} of {len(scaled)} samples beyond)"
        print(f"{key} {value:.6g} {unit}{note}")
    print(
        f"calibration median {1000 * statistics.median(calibrations):.4g} ms, "
        f"range {1000 * min(calibrations):.4g}-{1000 * max(calibrations):.4g} ms "
        f"(reference {1000 * REFERENCE_CALIBRATION_S:g} ms)"
    )
    print(f"error_rate {failed / attempted:.6g} ratio  ({failed} failed of {attempted} attempted)")
    return attempted, failed, metrics


def per_layer(name, kch, workload, stream, first, seconds, seed):
    """Alternate traced cycles with untraced replays of the same requests, so
    that drift in machine speed falls on both sides of the overhead."""
    tracer = tracing.Tracer()
    twin = type(workload)(workload.seed)
    twin_stream = twin.requests()
    cycles = max(1, round(seconds * workload.traced_cycles_per_second))
    traced, plain = [], []
    attempted = failed = 0
    for index in range(cycles):
        tracer.install()
        tracer.active = True
        try:
            latencies, count, bad = run_stream(
                kch, workload, stream, first if index == 0 else [], 0, workload.cycle, tracer
            )
        finally:
            tracer.active = False
            tracer.restore()
        replayed, _, replay_bad = run_stream(kch, twin, twin_stream, [], 0, workload.cycle)
        traced += latencies
        plain += replayed
        attempted += count
        failed += bad + replay_bad
    if not traced or not plain:
        raise SystemExit("no request completed")
    traced_rps = len(traced) / sum(traced)
    untraced_rps = len(plain) / sum(plain)
    metrics = tracer.layer_metrics(attempted)
    metrics["trace.traced_rps"] = (traced_rps, "req/s")
    metrics["trace.untraced_rps"] = (untraced_rps, "req/s")
    metrics["trace.overhead_rps"] = (traced_rps - untraced_rps, "req/s")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"traced requests {attempted}, spans kept {len(tracer.spans)}")
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write_spans(TRACE_DIR / f"{name}-seed{seed}.jsonl")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "kch" / "__init__.py").is_file():
        print(f"kch sources not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    workload_cls = workloads.WORKLOADS[args.workload]
    try:
        # the last set-up serves the run; a traced run reports no setup_s
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            kch, workload, stream, first, setup_time = set_up(workload_cls, args.seed)
            speed = statistics.median(calibration_s() for _ in range(SETUP_CALIBRATIONS))
            setups.append((setup_time, setup_time * REFERENCE_CALIBRATION_S / speed))
    except ImportError as exc:
        print(f"cannot import kch: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")

    if args.trace:
        attempted, failed, metrics = per_layer(
            args.workload, kch, workload, stream, first, args.seconds, args.seed
        )
    else:
        attempted, failed, metrics = end_to_end(kch, workload, stream, first, args.seconds, setups)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
