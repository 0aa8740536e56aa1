#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny size (n=40 simulated, n=8 live, short
horizons) in both modes through run.py and checks that:
  * each run exits 0 and ends with the result object (exactly the keys
    correct/attempted/failed/metrics, correct true, attempted >= 1);
  * with --trace 0 every end_to_end metric of BENCHMARK.json is emitted by
    the workload itself, with its declared unit and a nonzero value;
  * with --trace 1 the result holds every per_layer metric with its unit,
    and every per_layer metric is emitted by at least one workload;
  * `run.py compare` accepts two record sets from this host and refuses
    a set whose host stamp differs.
Exits 0 when all hold; prints each failure and exits 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "selftest")
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    records = os.path.join(OUT_DIR, "records.jsonl")
    if os.path.exists(records):
        os.remove(records)
    errors = []
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted_layers = {}

    for w in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{w['name']} trace={trace}"
            proc = subprocess.run(
                RUN + ["--workload", w["name"], "--seed", "7", "--seconds", "2",
                       "--trace", str(trace), "--smoke", "--out", records],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                errors.append(f"{tag}: correct={result.get('correct')} "
                              f"attempted={result.get('attempted')}")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            metrics = result.get("metrics", {})
            if set(metrics) != {m["name"] for m in wanted}:
                errors.append(f"{tag}: metric set differs from BENCHMARK.json")
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    errors.append(f"{tag}: {m['name']} missing or wrong unit")
                elif not trace and not got["value"]:
                    errors.append(f"{tag}: {m['name']} is zero")

    with open(records) as f:
        raw = [json.loads(l) for l in f if l.strip()]
    for rec in raw:
        for m in rec["metrics"]:
            if "unit" not in m or "samples" not in m:
                errors.append(f"{rec['workload']}: {m['name']} lacks unit/samples")
        if rec["trace"]:
            for m in rec["metrics"]:
                if m["name"] in layer_units:
                    emitted_layers[m["name"]] = m["unit"]
        else:
            names = {m["name"] for m in rec["metrics"]}
            for m in spec["end_to_end"]:
                if m["name"] not in names:
                    errors.append(f"{rec['workload']}: does not emit {m['name']}")
    for name, unit in layer_units.items():
        if name not in emitted_layers:
            errors.append(f"per_layer {name} is emitted by no workload")
        elif emitted_layers[name] != unit:
            errors.append(f"per_layer {name}: unit {emitted_layers[name]} != {unit}")

    # The compare step: same host compares; a foreign host stamp is refused.
    same = subprocess.run(RUN + ["compare", records, records], cwd=ROOT,
                          capture_output=True, text=True)
    if same.returncode != 0:
        errors.append(f"compare of identical records exited {same.returncode}")
    foreign = os.path.join(OUT_DIR, "foreign.jsonl")
    with open(foreign, "w") as f:
        for rec in raw:
            rec["stamp"]["hardware_threads"] += 1
            f.write(json.dumps(rec) + "\n")
    refused = subprocess.run(RUN + ["compare", records, foreign], cwd=ROOT,
                             capture_output=True, text=True)
    if refused.returncode != 2:
        errors.append(f"compare across host stamps exited {refused.returncode}, "
                      "expected a refusal (2)")

    for e in errors:
        print("FAIL:", e)
    print(f"selftest: {len(spec['workloads'])} workloads x 2 modes, "
          f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
