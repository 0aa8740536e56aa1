#!/usr/bin/env python3
"""The detector's benchmark: one command per workload run.

    python3 perfbench/run.py --workload sim-delta --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py compare base.jsonl change.jsonl

A run builds the detector's libraries, mmrfd-node and the perfbench binary
in Release under .bench_build/ (a no-op when nothing changed), runs one
workload, checks its correctness verdicts and prints every metric with its
unit and sample count. The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics (a layer the workload does not
exercise reports 0). attempted/failed count (crash, correct observer)
detection obligations and the undetected ones (live: plus unexpected node
exits and missing node reports). A failed correctness check prints the
result with "correct": false and exits 1.

--out FILE appends the full record (host stamp, every metric with unit and
sample count, every check) as one JSON line; `compare` reads two such files
and refuses to compare records whose host stamps differ.

Workloads (why each exists is recorded in BENCHMARK.json):
  sim-delta    serial MmrCluster, n=1000 f=250, delta encoding, 10 s horizon
  sim-sharded  the same cluster on ShardedMmrCluster with 4 shards
  live-n32     32 mmrfd-node processes over loopback UDP, 8 SIGKILLs per
               cluster lifetime, several lifetimes pooled per run
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "perfbench")
NODE_BINARY = os.path.join(BUILD, "mmrfd", "src", "live", "mmrfd-node")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the Release tree (both no-ops when nothing
    changed); raises on failure."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
         "mmrfd-node"],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)


def source_digest():
    """sha256 over the program and benchmark sources (the checkout has no
    git metadata when the benchmark runs outside a clone)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


# What must match before two results may be compared.
HOST_KEYS = ("hardware_threads", "build_type", "compiler", "machine", "system")


def host_stamp(build_info):
    return {
        "hardware_threads": build_info["hardware_threads"],
        "build_type": build_info["build_type"],
        "compiler": build_info["compiler"],
        "machine": platform.machine(),
        "system": platform.system(),
    }


def stop_group(proc):
    """Kills whatever is left of the binary's process group and waits until
    every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(args):
    os.makedirs(WORK, exist_ok=True)
    # The live workload's report dirs are cleared per lifetime by the binary;
    # clear leftovers of an earlier run here too.
    shutil.rmtree(os.path.join(WORK, "live"), ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--node-bin", NODE_BINARY, "--work-dir", WORK]
    if args.smoke:
        cmd.append("--smoke")
    # Its own process group, so the mmrfd-node processes the live workload
    # forks are stopped with it even if it has to be killed.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        stop_group(proc)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited {proc.returncode}")
    return json.loads(lines[-1])


def select_metrics(spec, raw, trace):
    """Maps the binary's metrics onto BENCHMARK.json's list for this mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = {m["name"]: m for m in raw["metrics"]}
    out, missing = {}, []
    for m in wanted:
        got = emitted.get(m["name"])
        if got is None:
            if not trace:
                missing.append(m["name"])
                continue
            got = {"value": 0.0, "unit": m["unit"], "samples": 0}
        elif got["unit"] != m["unit"]:
            missing.append(f"{m['name']} (unit {got['unit']} != {m['unit']})")
            continue
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out, missing


def print_table(raw, selected, trace):
    kind = "per-layer" if trace else "end-to-end"
    log_rows = []
    for m in raw["metrics"]:
        mark = "*" if m["name"] in selected else " "
        log_rows.append((mark, m["name"], m["value"], m["unit"], m["samples"]))
    width = max(len(r[1]) for r in log_rows) if log_rows else 10
    print(f"# {raw['workload']} seed={raw['seed']} trace={trace} "
          f"({kind} metrics; * = in BENCHMARK.json)")
    print(f"#   {'metric':<{width}} {'value':>18} {'unit':<6} samples")
    for mark, name, value, unit, samples in log_rows:
        v = "null" if value is None else f"{value:.6g}"
        print(f"# {mark} {name:<{width}} {v:>18} {unit:<6} {samples}")
    for name in selected:
        if name not in {m["name"] for m in raw["metrics"]}:
            print(f"# * {name:<{width}} {'0':>18} {selected[name]['unit']:<6} "
                  f"0  (layer not exercised by this workload)")
    failed = [c for c in raw["checks"] if not c["ok"]]
    print(f"# checks: {len(raw['checks']) - len(failed)}/{len(raw['checks'])} ok; "
          f"obligations {raw['attempted']}, undetected/failed {raw['failed']}")
    for c in failed:
        print(f"# FAILED {c['name']}: {c['detail']}")


def cmd_run(args):
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"run.py: unknown workload {args.workload}")
        return 2
    try:
        build()
        raw = run_workload(args)
    except (OSError, subprocess.SubprocessError, RuntimeError,
            json.JSONDecodeError) as e:
        log(f"run.py: {e}")
        return 1
    selected, missing = select_metrics(spec, raw, args.trace)
    if missing:
        log(f"run.py: workload {args.workload} did not emit {', '.join(missing)}")
        return 1
    values = [m["value"] for m in selected.values()]
    correct = (all(c["ok"] for c in raw["checks"]) and raw["failed"] == 0
               and raw["attempted"] >= 1
               and all(isinstance(v, (int, float)) for v in values))
    stamp = dict(host_stamp(raw["build"]), commit=commit(),
                 source=source_digest())
    print("# host: " + json.dumps(stamp, sort_keys=True))
    print_table(raw, selected, args.trace)
    if args.out:
        record = {"stamp": stamp, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "smoke": args.smoke, "correct": correct,
                  "attempted": raw["attempted"], "failed": raw["failed"],
                  "checks": raw["checks"], "metrics": raw["metrics"]}
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": selected}))
    return 0 if correct else 1


def read_records(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_compare(args):
    spec = load_spec()
    base, change = read_records(args.base), read_records(args.change)
    stamps = {json.dumps(host_stamp_of(r), sort_keys=True) for r in base + change}
    if len(stamps) != 1:
        log("run.py compare: refusing to compare results from different hosts:")
        for s in sorted(stamps):
            log("  " + s)
        return 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    print(f"{'workload':<12} {'metric':<18} {'base median':>14} {'change median':>14} "
          f"{'delta':>8} {'bound':>6}  base IQR/median")
    for w in spec["workloads"]:
        for name, m in bounds.items():
            b = [metric_value(r, name) for r in base
                 if r["workload"] == w["name"] and not r["trace"]]
            c = [metric_value(r, name) for r in change
                 if r["workload"] == w["name"] and not r["trace"]]
            b, c = [v for v in b if v is not None], [v for v in c if v is not None]
            if not b or not c:
                continue
            bq1, bmed, bq3 = quartiles(b)
            _, cmed, _ = quartiles(c)
            delta = (cmed - bmed) / bmed if bmed else 0.0
            regress = delta > m["bound"] if m["better"] == "lower" else -delta > m["bound"]
            worse += regress
            print(f"{w['name']:<12} {name:<18} {bmed:>14.6g} {cmed:>14.6g} "
                  f"{delta:>+8.2%} {m['bound']:>6.2f}  {(bq3 - bq1) / bmed:.3f}"
                  f"{'  WORSE' if regress else ''}")
    return 1 if worse else 0


def host_stamp_of(record):
    return {k: record["stamp"][k] for k in HOST_KEYS}


def metric_value(record, name):
    for m in record["metrics"]:
        if m["name"] == name:
            return m["value"]
    return None


def main(argv):
    # A SIGTERM unwinds through run_workload's cleanup, which stops the
    # binary and every node process it forked.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("change")
        return cmd_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", help="append the full record to this JSONL file")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes (self-test only; not comparable)")
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
