"""The traced run's wrappers, counters and the runner's result line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture()
def fresh_kch():
    return run.import_library()


def traced(kch, workload_cls, count, seed=1):
    workload = workload_cls(seed)
    stream = workload.requests()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        _, attempted, failed = run.run_stream(kch, workload, stream, [], 0, count, tracer)
    finally:
        tracer.active = False
        tracer.restore()
    assert (attempted, failed) == (count, 0)
    return tracer


def test_restore_puts_every_original_back(fresh_kch):
    kch = fresh_kch
    modules = sys.modules
    before = {
        "homfly.switch_crossing": modules["kch.homfly"].switch_crossing,
        "homfly.smooth_crossing": modules["kch.homfly"].smooth_crossing,
        "wilson.homfly": modules["kch.wilson"].homfly,
        "augment.reduced_groebner_basis": modules["kch.augment"].reduced_groebner_basis,
        "augment.ideal_contains_one": modules["kch.augment"].ideal_contains_one,
        "kch.parse_pd": kch.parse_pd,
        "LaurentPolynomial.__mul__": kch.LaurentPolynomial.__dict__["__mul__"],
        "Scalar.__add__": kch.Scalar.__dict__["__add__"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    assert modules["kch.homfly"].switch_crossing is not before["homfly.switch_crossing"]
    assert modules["kch.wilson"].homfly is not before["wilson.homfly"]
    assert modules["kch.augment"].reduced_groebner_basis is not before["augment.reduced_groebner_basis"]
    assert kch.LaurentPolynomial.__dict__["__mul__"] is not before["LaurentPolynomial.__mul__"]
    tracer.restore()
    after = {
        "homfly.switch_crossing": modules["kch.homfly"].switch_crossing,
        "homfly.smooth_crossing": modules["kch.homfly"].smooth_crossing,
        "wilson.homfly": modules["kch.wilson"].homfly,
        "augment.reduced_groebner_basis": modules["kch.augment"].reduced_groebner_basis,
        "augment.ideal_contains_one": modules["kch.augment"].ideal_contains_one,
        "kch.parse_pd": kch.parse_pd,
        "LaurentPolynomial.__mul__": kch.LaurentPolynomial.__dict__["__mul__"],
        "Scalar.__add__": kch.Scalar.__dict__["__add__"],
    }
    assert after == before


def test_knot_requests_call_homfly_seven_times(fresh_kch):
    tracer = traced(fresh_kch, workloads.KnotInvariants, 3)
    metrics = tracer.layer_metrics(3)
    assert metrics["homfly.calls_per_request"][0] == 7
    assert metrics["wilson.calls"][0] == 9
    assert metrics["pd.parse_calls"][0] == 3
    # switch/smooth are seen where homfly looks them up
    assert metrics["pd.edit_calls"][0] > 0
    assert metrics["laurent.mul_calls"][0] > 0 and metrics["scalars.ops"][0] > 0
    assert metrics["groebner.basis_calls"][0] == 0


def test_spans_nest_within_their_request(fresh_kch):
    tracer = traced(fresh_kch, workloads.AugmentationVarieties, 2)
    spans = [s for s in tracer.spans if s is not None]
    assert len(spans) == len(tracer.spans)
    for name, start, end, parent, request in spans:
        assert start <= end
        if name == "request":
            assert parent is None
        else:
            p_name, p_start, p_end, _, p_request = tracer.spans[parent]
            assert p_start <= start and end <= p_end and p_request == request
    for name, (calls, total, own) in tracer.totals.items():
        assert 0 <= own <= total + 1e-9, name
    metrics = tracer.layer_metrics(2)
    assert metrics["dga.check_calls"][0] >= 2
    assert metrics["groebner.basis_calls"][0] >= 2
    assert 0 < metrics["groebner.useful_reduction_ratio"][0] <= 1
    assert metrics["groebner.spoly_calls"][0] <= metrics["groebner.normal_form_calls"][0]


def test_oracle_checks_are_not_traced(fresh_kch):
    # verify() recomputes the mirror's skein polynomial; it must not count
    tracer = traced(fresh_kch, workloads.KnotInvariants, 2, seed=4)
    assert tracer.count("homfly") == 14


def test_feynman_oracles_are_traced_outside_their_request(fresh_kch):
    tracer = traced(fresh_kch, workloads.SeriesExpansions, 10)
    # two scalar requests and one matrix request per cycle, each checked once
    assert tracer.count("feynman.oracle") == 3
    oracles = [s for s in tracer.spans if s is not None and s[0] == "feynman.oracle"]
    assert len(oracles) == 3 and all(parent is None for _, _, _, parent, _ in oracles)
    requests = {s[4]: s for s in tracer.spans if s is not None and s[0] == "request"}
    for _, start, _, _, request_id in oracles:
        assert start >= requests[request_id][2]


def test_times_are_scaled_by_the_calibrations_near_them():
    reference = run.REFERENCE_CALIBRATION_S
    window = run.SPEED_WINDOW
    count = 4 * window
    # the machine runs at half speed for the first half of the requests
    calibrations = [2 * reference] * (count // 2) + [reference] * (count // 2)
    scaled = run.at_reference_speed([0.1] * count, calibrations)
    assert scaled[0] == pytest.approx(0.05) and scaled[-1] == pytest.approx(0.1)
    assert scaled == sorted(scaled)


def test_calibration_leaves_the_garbage_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert run.calibration_s() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        run.calibration_s()
        assert not gc.isenabled()
    finally:
        gc.enable()


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _run(BENCH.parent, "--workload", "augmentation_varieties", "--seed", "3",
                "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())[
        "end_to_end" if trace == "0" else "per_layer"]}
    assert set(result["metrics"]) == names


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "knot_invariants", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
