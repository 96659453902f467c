#!/usr/bin/env python3
"""Wall-clock benchmark of Plexus training on the ogbn-products proxy.

    python3 perfbench/run.py --workload products-4rank --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Builds perfbench_harness (and the repository's libraries) from source into
.bench_build/perfbench, runs one workload, checks its outputs and prints the
metrics with their units. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run,
whose spans and self times go to .bench_build/perfbench/traces/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
WORKLOADS = ["products-1rank", "products-4rank", "products-stream"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build incrementally. Raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("repository sources not found next to perfbench/ (%s)" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_harness"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_harness(workload, seed, seconds, trace):
    work = tempfile.mkdtemp(prefix="work-", dir=BUILD)
    try:
        proc = subprocess.run(
            [HARNESS, "--workload=" + workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
             "--trace=%d" % trace, "--work-dir=" + work],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_harness exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loss_records_path(seed):
    return os.path.join(BUILD, "losses", "seed-%d.json" % seed)


def cross_workload_problems(workload, seed, losses):
    """Check the losses against other workloads' at this seed, then record
    them. Records persist in the build directory between runs. Non-finite
    losses (null in the raw document) already fail the run and are not kept."""
    if any(x is None for x in losses):
        return []
    path = loss_records_path(seed)
    records = {}
    if os.path.isfile(path):
        with open(path) as f:
            records = {k: [float.fromhex(x) for x in v] for k, v in json.load(f).items()}
    problems = metrics.check_cross_workload(workload, losses, records)
    records[workload] = losses
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".%d.tmp" % os.getpid()
    with open(tmp, "w") as f:
        json.dump({k: [x.hex() for x in v] for k, v in records.items()}, f)
    os.replace(tmp, path)
    return problems


def fmt(v):
    return "nan" if v is None else "%.6g" % v


def measure(workload, seed, seconds, trace):
    """Run one workload; print its report. Returns (metrics, attempted, failed)."""
    raw = run_harness(workload, seed, seconds, trace)
    host = dict(raw["host"], git_commit=git_commit(), seed=seed, workload=workload)
    print("host: " + " ".join("%s=%s" % (k, host[k]) for k in sorted(host)))
    print("graph: %d nodes, %d edges, %d adjacency nnz; %d epochs per repetition" % (
        raw["graph"]["nodes"], raw["graph"]["edges"], raw["graph"]["nnz"],
        raw["epochs_per_rep"]))

    rep_problems = metrics.check_reps(raw)
    losses = [e["loss"] for e in raw["reps"][0]["epochs"]]
    shared = cross_workload_problems(workload, seed, losses)
    if shared:
        rep_problems = [p + shared for p in rep_problems]
    for p in sum(rep_problems, []):
        print("CHECK FAILED: " + p)
    attempted = len(rep_problems)
    failed = sum(1 for p in rep_problems if p)

    e2e = metrics.end_to_end(raw)
    counts = metrics.sample_counts(raw)
    if not trace:
        for name, value in e2e.items():
            n = counts.get(name)
            print("%-22s %12s %-5s%s" % (name, fmt(value), metrics.END_TO_END[name][0],
                                         "  (median of %d)" % n if n else ""))
        return e2e, attempted, failed

    layer = metrics.per_layer(raw)
    for name, value in layer.items():
        print("%-28s %12s %s" % (name, fmt(value), metrics.PER_LAYER[name][0]))
    print("tracing overhead: traced epoch %s s - untraced epoch %s s = %s s" % (
        fmt(layer["trace.epoch_s"]), fmt(e2e["epoch_s"]), fmt(layer["trace.overhead_s"])))
    run_id = "%s/seed%d/pid%d" % (workload, seed, os.getpid())
    spans = [dict(s, run=run_id) for s in raw["spans"]]
    by_layer = metrics.self_time_by_layer(spans)
    print("self time by layer (s, summed over ranks): " +
          ", ".join("%s %s" % (k, fmt(v)) for k, v in sorted(by_layer.items())))
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
    with open(path, "w") as f:
        json.dump({"run_id": run_id, "host": host,
                   "self_time_by_name": metrics.self_time_by_name(spans),
                   "self_time_by_layer": by_layer, "spans": spans}, f)
    print("trace: " + os.path.relpath(path, ROOT))
    return layer, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    defs = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    units = {}
    chosen = WORKLOADS if args.workload == "all" else [args.workload]
    values, attempted, failed = {}, 0, 0
    for w in chosen:
        print("== %s" % w)
        try:
            m, a, f = measure(w, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
            log("perfbench: %s failed: %s" % (w, e))
            return 1
        attempted += a
        failed += f
        # One workload: plain metric names; all of them: "<workload>.<metric>".
        prefix = "" if len(chosen) == 1 else w + "."
        values.update({prefix + k: v for k, v in m.items()})
        units.update({prefix + k: defs[k] for k in m})
    print(json.dumps(metrics.result_line(values, units, attempted, failed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
