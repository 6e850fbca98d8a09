"""Tests for the layer-diff mode of perfbench/run.py."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def result(**metrics):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {k: {"value": v, "unit": "count"} for k, v in metrics.items()}}


class LayerDiffTest(unittest.TestCase):
    def test_names_the_module_that_moved_most(self):
        old = result(**{"filter.lac_hit_ratio": 0.60, "filter.pec_hit_ratio": 0.20,
                        "rdma.rtts.leaf_read": 0.40, "rdma.rtts.lock": 0.05})
        new = result(**{"filter.lac_hit_ratio": 0.30, "filter.pec_hit_ratio": 0.20,
                        "rdma.rtts.leaf_read": 0.41, "rdma.rtts.lock": 0.05})
        rows, scores = run.layer_diff(old, new)
        self.assertEqual(max(scores, key=scores.get), "filter")
        row = {r[0]: r for r in rows}["filter.lac_hit_ratio"]
        self.assertAlmostEqual(row[3], 0.5)
        self.assertEqual(row[4], "point reads")

    def test_zero_in_both_runs_does_not_count(self):
        old = result(**{"art.splits": 0, "memnode.leaked_bytes": 0, "art.ops_failed": 0})
        new = result(**{"art.splits": 0, "memnode.leaked_bytes": 0, "art.ops_failed": 0})
        _, scores = run.layer_diff(old, new)
        self.assertEqual(scores, {})

    def test_bases_follow_metric_names(self):
        self.assertEqual(run.metric_base("rdma.rtts.inht_read"), "measured ops")
        self.assertEqual(run.metric_base("art.op_retries_per_kop"), "1000 measured ops")
        self.assertEqual(run.metric_base("core.search_sim_ns"), "calls of that kind")
        self.assertEqual(run.metric_base("filter.lac_stale_ratio"), "lac_hits")

    def test_reads_the_last_json_line_of_a_run_log(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
            f.write("art.splits 3 count\n")
            f.write(json.dumps(result(**{"art.splits": 3})) + "\n")
            path = f.name
        try:
            self.assertEqual(run.load_result(path)["metrics"]["art.splits"]["value"], 3)
        finally:
            os.unlink(path)


if __name__ == "__main__":
    unittest.main()
