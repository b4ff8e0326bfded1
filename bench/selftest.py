"""Self-tests of the benchmark's own logic; they run in about a second.

    python3 bench/selftest.py

Run from the root of the checkout (the design checks read the bundled
spectral locus from ``src/``).  The file name keeps it out of the
package's pytest collection.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class SelfTime(unittest.TestCase):
    def test_nested_and_parallel_children(self):
        # root [0, 10]: children a [1, 4] and b [3, 6] overlap (two worker
        # threads), c [8, 12] runs past the root's end; a has a child [2, 3].
        recorded = [
            (1, "root", 0, 0.0, 10.0),
            (2, "a", 1, 1.0, 4.0),
            (3, "b", 1, 3.0, 6.0),
            (4, "c", 1, 8.0, 12.0),
            (5, "a.child", 2, 2.0, 3.0),
        ]
        selfs = spans.self_times(recorded)
        self.assertAlmostEqual(selfs[1], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[5], 1.0)
        agg = spans.aggregate(recorded)
        self.assertEqual(agg["a"]["calls"], 1)
        self.assertAlmostEqual(agg["root"]["s"], 10.0)

    def test_recorder_nesting_and_counters(self):
        rec = spans.Recorder()

        def inner():
            rec.count("symbols", 7)
            return 3

        self.assertEqual(rec.root("call-1", lambda: rec.call("inner", inner)), 3)
        (inner_id, _, parent, _, _), (root_id, root_name, root_parent, _, _) = rec.spans
        self.assertEqual((parent, root_name, root_parent), (root_id, spans.ROOT, 0))
        self.assertEqual(rec.root_labels, {root_id: "call-1"})
        self.assertEqual(rec.root_counters["call-1"]["symbols"], 7)
        self.assertEqual(spans.per_root(rec.spans, rec.root_labels)["call-1"]["inner"], 1)
        metrics = spans.layer_metrics(rec.spans, {"symbols": 7})
        self.assertEqual(metrics["linksim.symbols"], 7)
        self.assertEqual(metrics["optimizer.starts_feasible_ratio"], 0.0)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_emitted_metrics(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        layer = {m: unit for m, (unit, _) in spans.LAYER_METRICS.items()}
        layer["trace.overhead_s"] = "s"
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layer)
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS)
        )


def _doc(r, g, b=checks.FIXED_BLUE):
    x = tuple((r[i] + g[i] + b[i]) / 3.0 for i in range(2))
    return {"points": {"R": list(r), "G": list(g), "B": list(b), "X": list(x)}}


class DesignCheck(unittest.TestCase):
    def test_committed_design_passes(self):
        for k in workloads.PRESETS:
            doc = json.loads((workloads.INPUTS / f"design-target{k}.json").read_text())
            problems, ratio = checks.check_design(doc, k, "led-triangle")
            self.assertEqual(problems, [])
            self.assertLess(ratio, 1.0)

    def test_design_above_cap_rejected(self):
        # X far outside the preset-3 disk puts d_min above the cap.
        problems, ratio = checks.check_design(_doc((0.6, 0.3), (0.1, 0.6)), 3, "horseshoe")
        self.assertGreater(ratio, 1.0)
        self.assertTrue(any("above the cap" in p for p in problems), problems)
        self.assertTrue(any("outside the preset 3 disk" in p for p in problems), problems)

    def test_design_below_floor_or_outside_gamut_rejected(self):
        problems, _ = checks.check_design(_doc((0.2, 0.1), (0.15, 0.12)), 3, "led-triangle")
        self.assertTrue(any("below the floor" in p for p in problems), problems)
        problems, _ = checks.check_design(_doc((0.9, 0.1), (0.1, 0.6)), 1, "horseshoe")
        self.assertTrue(any("outside the horseshoe gamut" in p for p in problems), problems)

    def test_gamut_distance(self):
        square = ((0, 0), (1, 0), (1, 1), (0, 1))
        self.assertEqual(checks.outside_distance((0.5, 0.5), square), 0.0)
        self.assertAlmostEqual(checks.outside_distance((1.5, 0.5), square), 0.5)


CURVE = "# seed=0\n# n=100\n# config_sha=x\nsnr_db,value\n0.0,0.5\n3.0,0.25\n6.0,0.1\n"
BOUND = "# seed=0\n# n=100\n# config_sha=x\nsnr_db,value\n0.0,1.5\n3.0,0.6\n6.0,0.11\n"


class CurveCheck(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        (self.dir / "ser.ub.csv").write_text(BOUND)

    def tearDown(self):
        self.tmp.cleanup()

    def _ser(self, text, n=100):
        (self.dir / "ser.csv").write_text(text)
        return checks.check_ser(self.dir / "ser.csv", self.dir / "ser.ub.csv",
                                [0.0, 3.0, 6.0], n)[0]

    def test_whole_curve_passes(self):
        self.assertEqual(self._ser(CURVE), [])

    def test_truncated_curve_rejected(self):
        cut = CURVE.rindex("\n6.0")
        self.assertTrue(self._ser(CURVE[:cut + 1]))  # last row missing
        self.assertTrue(self._ser(CURVE[:-3]))  # cut inside the last row
        self.assertTrue(self._ser(CURVE[: CURVE.index("snr_db")]))  # header gone

    def test_ser_far_above_union_bound_rejected(self):
        bad = CURVE.replace("6.0,0.1", "6.0,0.5")
        self.assertTrue(any("union bound" in p for p in self._ser(bad, n=100_000)))

    def test_rate_range(self):
        path = self.dir / "rate.csv"
        path.write_text(CURVE.replace("0.25", str(2e8 + 1)))
        self.assertTrue(checks.check_rate(path, [0.0, 3.0, 6.0], 4))
        path.write_text(CURVE.replace("0.25", str(2e8)))
        self.assertEqual(checks.check_rate(path, [0.0, 3.0, 6.0], 4), [])


class DigestCheck(unittest.TestCase):
    def test_mismatched_bundle_digest_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name in ("a", "b"):
                (root / name).mkdir()
                (root / name / "ser.csv").write_text(CURVE)
                (root / name / "run.timing.json").write_text(name)  # not digested
            da, db = (checks.bundle_digest(root / n) for n in ("a", "b"))
            self.assertEqual(da, db)
            (root / "b" / "ser.csv").write_text(CURVE.replace("0.25", "0.26"))
            db = checks.bundle_digest(root / "b")
            self.assertTrue(checks.compare_digest("bundle", da, db))
            ledger = checks.DigestLedger(root / "ledger.json")
            self.assertEqual(ledger.check("4a", da), [])  # first run records
            self.assertEqual(ledger.check("4a", da), [])
            self.assertTrue(ledger.check("4a", db))


class Grid(unittest.TestCase):
    def test_grid_matches_cli_spec(self):
        self.assertEqual(workloads.grid("0:3:30"), [3.0 * i for i in range(11)])
        self.assertEqual(len(workloads.grid("0:3:45")), 16)
        self.assertTrue(math.isclose(workloads.grid("21:3:21")[0], 21.0))


if __name__ == "__main__":
    unittest.main()
