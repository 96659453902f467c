"""Metrics and checks of the Plexus wall-clock benchmark.

Pure functions over the raw measurement document that perfbench_harness
prints (see harness.cpp): end-to-end metrics from the untraced repetitions,
per-layer metrics from the spans of the traced ones, span self times, and
the correctness checks. run.py does the building, running and printing.
"""

import math
import statistics
from collections import defaultdict

# name -> (unit, better); the order is the order they are printed in.
END_TO_END = {
    "epoch_s": ("s", "lower"),
    "first_epoch_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_epoch_ms": ("ms", "lower"),
    "final_loss": ("nats", "lower"),
}

PER_LAYER = {
    "graph.make_proxy_s": ("s", "lower"),
    "core.preprocess_s": ("s", "lower"),
    "loader.write_shards_s": ("s", "lower"),
    "loader.write_mb": ("MB", "lower"),
    "loader.io_mb_per_epoch": ("MB", "lower"),
    "loader.io_wait_s": ("s", "lower"),
    "loader.cache_hit_ratio": ("ratio", "higher"),
    "loader.cache_peak_mb": ("MB", "lower"),
    "loader.evictions_per_epoch": ("count", "lower"),
    "core.model_build_s": ("s", "lower"),
    "core.train_epoch_s": ("s", "lower"),
    "core.forward_s": ("s", "lower"),
    "core.backward_s": ("s", "lower"),
    "core.stats_reduce_s": ("s", "lower"),
    "core.unattributed_s": ("s", "lower"),
    "sparse.spmm_s": ("s", "lower"),
    "sparse.spmm_gflop": ("GFLOP", "lower"),
    "sparse.spmm_gb": ("GB", "lower"),
    "sparse.spmm_gflops": ("GFLOP/s", "higher"),
    "sparse.spmm_gbytes_s": ("GB/s", "higher"),
    "sparse.rank_imbalance": ("ratio", "lower"),
    "dense.gemm_fwd_s": ("s", "lower"),
    "dense.gemm_dw_s": ("s", "lower"),
    "dense.gemm_dx_s": ("s", "lower"),
    "dense.gemm_gflop": ("GFLOP", "lower"),
    "dense.gemm_gflops": ("GFLOP/s", "higher"),
    "dense.adam_s": ("s", "lower"),
    "comm.wire_mb": ("MB", "lower"),
    "comm.calls": ("count", "lower"),
    "comm.exposed_sim_ms": ("ms", "lower"),
    "comm.hidden_sim_ms": ("ms", "higher"),
    "comm.overlap_ratio": ("ratio", "higher"),
    "perfmodel.sim_err_pct": ("%", "lower"),
    "perfmodel.host_err_pct": ("%", "lower"),
    "perfmodel.mem_err_pct": ("%", "lower"),
    "trace.epoch_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Workloads whose losses must agree bitwise at the same seed: the resident
# 4-rank run (auto aggregation) and the streamed one (dense aggregation)
# rest on the auto==dense and streamed==resident determinism contracts.
BITWISE_LOSS_CLASSES = [("products-4rank", "products-stream")]


def median(values):
    return statistics.median(values) if values else 0.0


def duration(span):
    return span["t1"] - span["t0"]


def union_length(intervals):
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def children_of(spans):
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    return kids


def self_times(spans):
    """Span id -> its duration minus the part of it that child spans cover.

    Children running in parallel (one per rank) are merged, and a child
    reaching outside its parent only counts inside the parent's interval.
    """
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"])) for c in kids[s["id"]]]
        out[s["id"]] = duration(s) - union_length([(a, b) for a, b in covered if b > a])
    return out


def self_time_by_name(spans):
    """Span name -> total self time over all spans of that name."""
    per_id = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += per_id[s["id"]]
    return dict(out)


def layer_of(name):
    """'sparse.spmm' -> 'sparse'; the harness's own phase spans -> 'bench'."""
    return name.split(".", 1)[0] if "." in name else "bench"


def self_time_by_layer(spans):
    out = defaultdict(float)
    for name, t in self_time_by_name(spans).items():
        out[layer_of(name)] += t
    return dict(out)


def _steady(epochs):
    return epochs[1:]


def end_to_end(raw):
    """The six end-to-end metrics from the untraced repetitions."""
    reps = [r for r in raw["reps"] if not r["traced"]]
    steady_wall = [e["wall_s"] for r in reps for e in _steady(r["epochs"])]
    steady_sim = [e["sim_ms"] for r in reps for e in _steady(r["epochs"])]
    return {
        "epoch_s": median(steady_wall),
        "first_epoch_s": median([r["epochs"][0]["wall_s"] for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps]),
        # After the first repetition: later ones reuse a fragmented heap.
        "peak_rss_mb": reps[0]["peak_rss_mb"],
        "sim_epoch_ms": median(steady_sim),
        "final_loss": reps[0]["epochs"][-1]["loss"],
    }


def sample_counts(raw):
    reps = [r for r in raw["reps"] if not r["traced"]]
    return {
        "epoch_s": sum(len(_steady(r["epochs"])) for r in reps),
        "first_epoch_s": len(reps),
        "setup_s": len(reps),
        "sim_epoch_ms": sum(len(_steady(r["epochs"])) for r in reps),
    }


def _durations(spans, name):
    return [duration(s) for s in spans if s["name"] == name]


def per_layer(raw):
    """Per-layer metrics from the spans of the traced repetitions."""
    spans = raw["spans"]
    kids = children_of(spans)
    e2e = end_to_end(raw)
    m = {}

    m["graph.make_proxy_s"] = median(_durations(spans, "graph.make_proxy"))
    m["core.preprocess_s"] = median(_durations(spans, "core.preprocess"))
    m["loader.write_shards_s"] = median(_durations(spans, "loader.write_shards"))
    writes = [s for s in spans if s["name"] == "loader.write_shards"]
    m["loader.write_mb"] = median([s["args"]["bytes"] / 1e6 for s in writes])

    # core.model_build: the slowest rank of each repetition.
    builds = defaultdict(list)
    for s in spans:
        if s["name"] == "core.model_build":
            builds[s["parent"]].append(duration(s))
    m["core.model_build_s"] = median([max(v) for v in builds.values()])

    steady = []  # (epoch span, {child name: [rank spans]})
    replays = []
    for rep in (s for s in spans if s["name"] == "rep"):
        epochs = sorted((c for c in kids[rep["id"]] if c["name"] == "epoch"),
                        key=lambda s: s["t0"])
        for ep in epochs[1:]:
            by_name = defaultdict(list)
            for c in kids[ep["id"]]:
                by_name[c["name"]].append(c)
            steady.append((ep, by_name))
        replays += [c for c in kids[rep["id"]] if c["name"] == "replay"]

    def slowest(name):
        return median([max(duration(c) for c in by[name]) for _, by in steady if by[name]])

    def epoch_arg(key):
        return [ep["args"].get(key, 0.0) for ep, _ in steady]

    m["core.train_epoch_s"] = slowest("core.train_epoch")
    m["core.forward_s"] = slowest("core.forward")
    m["core.backward_s"] = m["core.train_epoch_s"] - m["core.forward_s"]
    m["core.stats_reduce_s"] = slowest("core.stats_reduce")

    m["loader.io_mb_per_epoch"] = median(epoch_arg("cache_bytes_loaded")) / 1e6
    m["loader.io_wait_s"] = median(epoch_arg("io_wait_s"))
    hits, misses = sum(epoch_arg("cache_hits")), sum(epoch_arg("cache_misses"))
    m["loader.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["loader.cache_peak_mb"] = max(epoch_arg("cache_peak_bytes"), default=0.0) / 1e6
    m["loader.evictions_per_epoch"] = median(epoch_arg("cache_evictions"))

    m["comm.wire_mb"] = median(epoch_arg("wire_bytes")) / 1e6
    m["comm.calls"] = median([max(c["args"]["comm_calls"] for c in by["core.train_epoch"])
                              for _, by in steady])
    exposed = median(epoch_arg("exposed_sim_ms"))
    hidden = median(epoch_arg("hidden_sim_ms"))
    m["comm.exposed_sim_ms"] = exposed
    m["comm.hidden_sim_ms"] = hidden
    m["comm.overlap_ratio"] = hidden / (hidden + exposed) if hidden + exposed > 0 else 0.0

    m.update(replay_metrics(replays, kids))
    m["core.unattributed_s"] = m["core.train_epoch_s"] - m.pop("_replay_slowest_rank_s")

    model = raw.get("model", {})
    sim_ms = median([e["sim_ms"] for r in raw["reps"] if r["traced"]
                     for e in _steady(r["epochs"])])
    m["perfmodel.sim_err_pct"] = _err_pct(model.get("sim_epoch_ms"), sim_ms)
    m["perfmodel.host_err_pct"] = _err_pct(model.get("host_epoch_s"), e2e["epoch_s"])
    m["perfmodel.mem_err_pct"] = _err_pct(model.get("train_mb"), e2e["peak_rss_mb"])

    traced_wall = [e["wall_s"] for r in raw["reps"] if r["traced"] for e in _steady(r["epochs"])]
    m["trace.epoch_s"] = median(traced_wall)
    m["trace.overhead_s"] = m["trace.epoch_s"] - e2e["epoch_s"]
    return m


def replay_metrics(replays, kids):
    """Kernel-replay metrics: per replay, each rank's kernel times are summed
    and the slowest rank reported (ranks replay concurrently, as they train);
    rates divide the work of all ranks by the slowest rank's time."""
    kernels = ["sparse.spmm", "dense.gemm_fwd", "dense.gemm_dw", "dense.gemm_dx", "dense.adam"]
    per_replay = defaultdict(list)
    for rp in replays:
        t = defaultdict(lambda: defaultdict(float))  # kernel -> rank -> seconds
        flops = defaultdict(float)
        nbytes = defaultdict(float)
        for c in kids[rp["id"]]:
            if c["name"] in kernels:
                t[c["name"]][c["rank"]] += duration(c)
                flops[c["name"]] += c["args"]["flops"]
                nbytes[c["name"]] += c["args"]["bytes"]
        ranks = sorted({c["rank"] for c in kids[rp["id"]]})
        spmm = [t["sparse.spmm"][r] for r in ranks]
        gemm_names = ["dense.gemm_fwd", "dense.gemm_dw", "dense.gemm_dx"]
        gemm = [sum(t[k][r] for k in gemm_names) for r in ranks]
        total = [sum(t[k][r] for k in kernels) for r in ranks]
        gemm_flops = sum(flops[k] for k in gemm_names)
        v = per_replay
        v["sparse.spmm_s"].append(max(spmm))
        v["sparse.spmm_gflop"].append(flops["sparse.spmm"] / 1e9)
        v["sparse.spmm_gb"].append(nbytes["sparse.spmm"] / 1e9)
        v["sparse.spmm_gflops"].append(_rate(flops["sparse.spmm"], max(spmm)))
        v["sparse.spmm_gbytes_s"].append(_rate(nbytes["sparse.spmm"], max(spmm)))
        v["sparse.rank_imbalance"].append(max(spmm) / statistics.mean(spmm) if sum(spmm) else 0.0)
        for k in gemm_names + ["dense.adam"]:
            v[k + "_s"].append(max(t[k][r] for r in ranks))
        v["dense.gemm_gflop"].append(gemm_flops / 1e9)
        v["dense.gemm_gflops"].append(_rate(gemm_flops, max(gemm)))
        v["_replay_slowest_rank_s"].append(max(total))
    return {k: median(vals) for k, vals in per_replay.items()}


def _rate(work, seconds):
    return work / seconds / 1e9 if seconds > 0 else 0.0


def _err_pct(predicted, measured):
    if predicted is None or not measured:
        return 0.0
    return abs(predicted - measured) / measured * 100.0


def check_reps(raw):
    """Per-repetition correctness: finite, strictly decreasing losses, losses
    bitwise-equal to the first repetition's (every repetition, traced or not,
    trains the same inputs), and for untraced repetitions simulated epoch
    times bitwise-equal too. Traced ones are exempt from the last check: their
    extra forward passes advance the absolute simulated clock, so an epoch's
    clock difference can round differently in the last bit. Returns one list
    of problems per repetition."""
    reps = raw["reps"]
    ref_loss = [e["loss"] for e in reps[0]["epochs"]]
    ref_sim = [e["sim_ms"] for e in reps[0]["epochs"]]
    out = []
    for i, r in enumerate(reps):
        problems = []
        losses = [e["loss"] for e in r["epochs"]]
        if any(x is None or not math.isfinite(x) for x in losses):
            problems.append("rep %d: non-finite loss %s" % (i + 1, losses))
        elif any(b >= a for a, b in zip(losses, losses[1:])):
            problems.append("rep %d: loss not decreasing %s" % (i + 1, losses))
        if losses != ref_loss:
            problems.append("rep %d (traced=%s): losses differ from rep 1" % (i + 1, r["traced"]))
        if not r["traced"] and [e["sim_ms"] for e in r["epochs"]] != ref_sim:
            problems.append("rep %d: simulated epoch times differ from rep 1" % (i + 1))
        out.append(problems)
    return out


def check_cross_workload(workload, losses, records):
    """Compare `losses` with those recorded for the same seed by workloads
    that must agree bitwise. `records` maps workload -> loss list."""
    problems = []
    for cls in BITWISE_LOSS_CLASSES:
        if workload not in cls:
            continue
        for other in cls:
            if other != workload and other in records and records[other] != losses:
                problems.append("losses differ bitwise from %s at the same seed" % other)
    return problems


def result_line(metrics, units, attempted, failed):
    """The benchmark's result object (the last line run.py prints)."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }
