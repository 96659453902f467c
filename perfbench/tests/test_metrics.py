"""Tests of the benchmark's own arithmetic and output schema.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402


def span(id_, name, t0, t1, parent=-1, rank=-1, **args):
    return {"id": id_, "parent": parent, "rank": rank, "name": name, "t0": t0, "t1": t1,
            "args": args}


def epoch(wall, loss, sim=4.5):
    return {"wall_s": wall, "loss": loss, "sim_ms": sim}


def rep(setup_s, peak_rss_mb, epochs, traced=False):
    return {"traced": traced, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "epochs": epochs}


def raw_doc(reps, spans=(), model=None):
    doc = {"workload": "products-4rank", "seed": 1, "epochs_per_rep": 3, "host": {},
           "graph": {}, "reps": reps, "spans": list(spans)}
    if model is not None:
        doc["model"] = model
    return doc


class UnionLength(unittest.TestCase):
    def test_disjoint_overlapping_and_nested(self):
        self.assertEqual(metrics.union_length([]), 0.0)
        self.assertAlmostEqual(metrics.union_length([(0, 1), (2, 3)]), 2.0)
        self.assertAlmostEqual(metrics.union_length([(0, 2), (1, 3)]), 3.0)
        self.assertAlmostEqual(metrics.union_length([(0, 4), (1, 2), (3, 4)]), 4.0)
        self.assertAlmostEqual(metrics.union_length([(2, 3), (0, 1), (0.5, 2.5)]), 3.0)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        st = metrics.self_times([span(0, "core.train_epoch", 1.0, 3.5)])
        self.assertAlmostEqual(st[0], 2.5)

    def test_parallel_children_are_merged(self):
        # Two ranks' train_epoch spans overlap inside one epoch span.
        spans = [span(0, "epoch", 0.0, 10.0),
                 span(1, "core.train_epoch", 1.0, 6.0, parent=0, rank=0),
                 span(2, "core.train_epoch", 2.0, 8.0, parent=0, rank=1)]
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st[0], 10.0 - 7.0)
        self.assertAlmostEqual(st[1], 5.0)
        self.assertAlmostEqual(st[2], 6.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, "setup", 0.0, 4.0), span(1, "core.model_build", 3.0, 6.0, parent=0)]
        self.assertAlmostEqual(metrics.self_times(spans)[0], 3.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, "rep", 0.0, 10.0), span(1, "replay", 2.0, 6.0, parent=0),
                 span(2, "sparse.spmm", 2.0, 5.0, parent=1, rank=0)]
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st[0], 6.0)
        self.assertAlmostEqual(st[1], 1.0)
        self.assertAlmostEqual(st[2], 3.0)

    def test_by_name_and_by_layer(self):
        spans = [span(0, "replay", 0.0, 10.0),
                 span(1, "sparse.spmm", 0.0, 2.0, parent=0, rank=0),
                 span(2, "sparse.spmm", 0.0, 3.0, parent=0, rank=1),
                 span(3, "dense.gemm_fwd", 4.0, 5.0, parent=0, rank=0)]
        by_name = metrics.self_time_by_name(spans)
        self.assertAlmostEqual(by_name["sparse.spmm"], 5.0)
        self.assertAlmostEqual(by_name["replay"], 10.0 - 3.0 - 1.0)
        self.assertEqual(set(metrics.self_time_by_layer(spans)), {"bench", "sparse", "dense"})
        self.assertEqual(metrics.layer_of("loader.write_shards"), "loader")


class EndToEnd(unittest.TestCase):
    def test_medians_skip_first_epoch_and_traced_reps(self):
        reps = [rep(3.0, 1000.0, [epoch(9.0, 3.0), epoch(2.0, 2.0), epoch(4.0, 1.0)]),
                rep(5.0, 2000.0, [epoch(7.0, 3.0), epoch(3.0, 2.0), epoch(5.0, 1.0)]),
                rep(100.0, 3000.0, [epoch(100.0, 3.0), epoch(100.0, 2.0), epoch(100.0, 1.0)],
                    traced=True)]
        m = metrics.end_to_end(raw_doc(reps))
        self.assertEqual(list(m), list(metrics.END_TO_END))
        self.assertAlmostEqual(m["epoch_s"], 3.5)
        self.assertAlmostEqual(m["first_epoch_s"], 8.0)
        self.assertAlmostEqual(m["setup_s"], 4.0)
        self.assertAlmostEqual(m["final_loss"], 1.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 1000.0)
        self.assertEqual(metrics.sample_counts(raw_doc(reps))["epoch_s"], 4)


def traced_doc():
    """A traced run: one untraced and one traced repetition of 3 epochs on 2
    ranks, with a kernel replay."""
    reps = [rep(3.0, 1000.0, [epoch(3, 3.0), epoch(2, 2.0), epoch(2, 1.0)]),
            rep(3.0, 1000.0, [epoch(3, 3.0), epoch(2.5, 2.0), epoch(2.5, 1.0)], traced=True)]
    s = [span(0, "rep", 0, 40, peak_rss_mb=900.0), span(1, "setup", 0, 3, parent=0),
         span(2, "graph.make_proxy", 0, 1.5, parent=1, nodes=10.0, edges=20.0),
         span(3, "core.preprocess", 1.5, 2.5, parent=1),
         span(4, "core.model_build", 2.5, 2.8, parent=1, rank=0),
         span(5, "core.model_build", 2.5, 3.0, parent=1, rank=1)]
    t = 3.0
    for e in range(3):
        ep = len(s)
        s.append(span(ep, "epoch", t, t + 3, parent=0, sim_ms=4.5, wire_bytes=2e8,
                      exposed_sim_ms=1.0, hidden_sim_ms=3.0, io_wait_s=0.0, io_bytes=0.0))
        for r in range(2):
            s.append(span(len(s), "core.train_epoch", t, t + 2 + r * 0.5, parent=ep, rank=r,
                          comm_calls=100.0 + r, sim_ms=4.5))
            s.append(span(len(s), "core.stats_reduce", t + 2.5, t + 2.6, parent=ep, rank=r))
            s.append(span(len(s), "core.forward", t + 2.6, t + 2.6 + 0.5 * (r + 1), parent=ep,
                          rank=r))
        t += 3
    rp = len(s)
    s.append(span(rp, "replay", t, t + 5, parent=0))
    for r in range(2):
        s.append(span(len(s), "loader.fetch", t, t + 0.1, parent=rp, rank=r, nnz=10.0))
        s.append(span(len(s), "sparse.spmm", t, t + 1.0 + r, parent=rp, rank=r,
                      flops=2e9, bytes=1e9))
        for k in ("dense.gemm_fwd", "dense.gemm_dw", "dense.gemm_dx"):
            s.append(span(len(s), k, t, t + 0.25, parent=rp, rank=r, flops=1e9, bytes=1e8))
        s.append(span(len(s), "dense.adam", t, t + 0.05, parent=rp, rank=r, flops=0.0,
                      bytes=1e6))
    model = {"sim_epoch_ms": 4.95, "host_epoch_s": 1.0, "train_mb": 800.0}
    return raw_doc(reps, s, model)


class PerLayer(unittest.TestCase):
    def test_every_metric_and_its_arithmetic(self):
        m = metrics.per_layer(traced_doc())
        self.assertEqual(set(m), set(metrics.PER_LAYER))
        self.assertAlmostEqual(m["graph.make_proxy_s"], 1.5)
        self.assertAlmostEqual(m["core.model_build_s"], 0.5)  # slowest rank
        self.assertAlmostEqual(m["core.train_epoch_s"], 2.5)  # slowest rank, steady epochs
        self.assertAlmostEqual(m["core.forward_s"], 1.0)
        self.assertAlmostEqual(m["core.backward_s"], 1.5)
        self.assertAlmostEqual(m["comm.calls"], 101.0)
        self.assertAlmostEqual(m["comm.wire_mb"], 200.0)
        self.assertAlmostEqual(m["comm.overlap_ratio"], 0.75)
        # Replay: rank 1 is slowest (2.0 s SpMM); rates use all ranks' work.
        self.assertAlmostEqual(m["sparse.spmm_s"], 2.0)
        self.assertAlmostEqual(m["sparse.spmm_gflop"], 4.0)
        self.assertAlmostEqual(m["sparse.spmm_gflops"], 2.0)
        self.assertAlmostEqual(m["sparse.spmm_gbytes_s"], 1.0)
        self.assertAlmostEqual(m["sparse.rank_imbalance"], 2.0 / 1.5)
        self.assertAlmostEqual(m["dense.gemm_dw_s"], 0.25)
        self.assertAlmostEqual(m["dense.gemm_gflop"], 6.0)
        self.assertAlmostEqual(m["dense.gemm_gflops"], 6.0 / 0.75)
        self.assertAlmostEqual(m["core.unattributed_s"], 2.5 - (2.0 + 0.75 + 0.05))
        self.assertAlmostEqual(m["perfmodel.sim_err_pct"], 10.0)
        self.assertAlmostEqual(m["perfmodel.host_err_pct"], 50.0)
        self.assertAlmostEqual(m["perfmodel.mem_err_pct"], 20.0)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.5)
        # No streaming spans or counters here: the loader metrics read zero.
        self.assertEqual(m["loader.write_shards_s"], 0.0)
        self.assertEqual(m["loader.cache_hit_ratio"], 0.0)


class Checks(unittest.TestCase):
    def rep(self, losses, traced=False, sim=4.5):
        return rep(1.0, 1000.0, [epoch(1.0, x, sim) for x in losses], traced)

    def test_good_run_passes(self):
        doc = raw_doc([self.rep([3.0, 2.0, 1.0]), self.rep([3.0, 2.0, 1.0], traced=True)])
        self.assertEqual(metrics.check_reps(doc), [[], []])

    def test_each_failure_is_counted_on_its_repetition(self):
        doc = raw_doc([self.rep([3.0, 2.0, 1.0]), self.rep([3.0, 3.0, 1.0]),
                       self.rep([3.0, None, 1.0]), self.rep([3.0, 2.0, 1.0000001], traced=True),
                       self.rep([3.0, 2.0, 1.0], sim=4.6)])
        problems = metrics.check_reps(doc)
        self.assertEqual([bool(p) for p in problems], [False, True, True, True, True])
        self.assertIn("not decreasing", problems[1][0])
        self.assertIn("non-finite", problems[2][0])
        self.assertIn("differ from rep 1", problems[3][0])
        self.assertIn("simulated", problems[4][0])
        traced_sim = raw_doc([self.rep([3.0, 2.0, 1.0]),
                              self.rep([3.0, 2.0, 1.0], traced=True, sim=4.5000000001)])
        self.assertEqual(metrics.check_reps(traced_sim), [[], []])
        nan = raw_doc([self.rep([3.0, math.nan, 1.0])])
        self.assertIn("non-finite", metrics.check_reps(nan)[0][0])

    def test_cross_workload_losses(self):
        records = {"products-4rank": [3.0, 2.0, 1.0], "products-1rank": [9.0]}
        self.assertEqual(metrics.check_cross_workload("products-stream", [3.0, 2.0, 1.0],
                                                      records), [])
        self.assertEqual(len(metrics.check_cross_workload("products-stream", [3.0, 2.0, 1.5],
                                                          records)), 1)
        self.assertEqual(metrics.check_cross_workload("products-1rank", [1.0], records), [])
        self.assertEqual(metrics.check_cross_workload("products-4rank", [1.0], {}), [])

    def test_non_finite_losses_are_neither_compared_nor_recorded(self):
        import run
        self.assertEqual(run.cross_workload_problems("products-stream", 10**9, [3.0, None]), [])
        self.assertFalse(os.path.exists(run.loss_records_path(10**9)))
        self.assertEqual(run.fmt(None), "nan")


class Schema(unittest.TestCase):
    def test_result_line_has_exactly_the_contract_keys(self):
        line = metrics.result_line({"epoch_s": 1.25}, metrics.END_TO_END, 2, 0)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"], {"epoch_s": {"value": 1.25, "unit": "s"}})
        self.assertTrue(line["correct"])
        self.assertFalse(metrics.result_line({}, metrics.END_TO_END, 2, 1)["correct"])
        json.dumps(line)

    def test_benchmark_json_matches_the_metric_tables(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual(bench["paths"], ["perfbench"])
        import run
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)
        for section, table in (("end_to_end", metrics.END_TO_END),
                               ("per_layer", metrics.PER_LAYER)):
            self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench[section]},
                             table)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_fails_without_the_repository_sources(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "products-1rank", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                                  timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
