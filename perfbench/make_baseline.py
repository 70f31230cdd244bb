"""Measure the benchmark's baseline and write it to ``baseline.json``.

Usage, from the root of a checkout::

    python3 perfbench/make_baseline.py [--sets 2] [--seeds 10]

Runs ``run.py`` once per workload and seed, one run at a time, for each set;
within a set the workloads take turns seed by seed, so that a slow spell of
the machine falls on all of them.  For every end-to-end metric it records,
per set, the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median, and how much worse the last set's median
is than the first's.  Then it makes one traced run per workload (seed 1) for
the per-layer numbers and the tracing overhead.  Each run's result line is
also appended to ``out/baseline-runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr}")
    (BENCH / "out").mkdir(exist_ok=True)
    with open(BENCH / "out" / "baseline-runs.jsonl", "a") as log:
        log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, **result}) + "\n")
    return result


def summary(values: list[float], seeds: list[int]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"seeds": seeds, "values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    seeds = list(range(1, args.seeds + 1))

    raw = {w: [] for w in workloads}
    for _ in range(args.sets):
        results = {w: [] for w in workloads}
        for seed in seeds:
            for workload in workloads:
                results[workload].append(run(workload, seed, seconds, 0)["metrics"])
        for workload in workloads:
            raw[workload].append(results[workload])

    end_to_end = {}
    for workload in workloads:
        end_to_end[workload] = {}
        for metric in config["end_to_end"]:
            name = metric["name"]
            sets = [summary([r[name]["value"] for r in runs], seeds) for runs in raw[workload]]
            entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                     "sets": sets}
            if len(sets) > 1:
                first, last = sets[0]["median"], sets[-1]["median"]
                change = (last - first) / first
                entry["last_worse_than_first"] = change if metric["better"] == "lower" else -change
            end_to_end[workload][name] = entry

    per_layer, overhead = {}, {}
    for workload in workloads:
        result = run(workload, 1, seconds, 1)
        metrics = result["metrics"]
        per_layer[workload] = {"seed": 1, "traced_requests": result["attempted"], "metrics": metrics}
        traced = metrics["trace.traced_rps"]["value"]
        untraced = metrics["trace.untraced_rps"]["value"]
        overhead[workload] = {"traced_rps": traced, "untraced_replay_rps": untraced,
                              "traced_minus_untraced_rps": traced - untraced,
                              "share": (traced - untraced) / untraced}

    document = {
        "measured_on": f"2-vCPU virtual machine shared with other tenants, CPython {sys.version.split()[0]}",
        "run_seconds": seconds,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "tracing_overhead": overhead,
    }
    (BENCH / "baseline.json").write_text(json.dumps(document, indent=1) + "\n")
    for workload in workloads:
        for name, entry in end_to_end[workload].items():
            spreads = " / ".join(f"{s['spread']:.3f}" for s in entry["sets"])
            shift = entry.get("last_worse_than_first")
            note = f", last worse than first by {shift:+.3f}" if shift is not None else ""
            print(f"{workload} {name}: median {entry['sets'][0]['median']:.5g} {entry['unit']}, "
                  f"spread {spreads}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
