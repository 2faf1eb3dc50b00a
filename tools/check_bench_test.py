#!/usr/bin/env python3
"""Unit tests for the bench gate (tools/check_bench.py).

The gate is itself CI-critical — a bug that silently skips a row would
un-gate a real regression — so its row matching, bounds, normalization,
gate-file validation and merge logic get the same treatment as library
code. Run directly or through ctest:

    python3 tools/check_bench_test.py
"""

import copy
import importlib.util
import json
import os
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "check_bench", os.path.join(_HERE, "check_bench.py"))
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


def make_gate():
    """Two benches shaped like the committed gate files. "demo" is
    engine_throughput: items_per_sec normalized by a sim reference,
    queries_per_sec by its own reference, query_us_mean a ceiling on one
    row only. "scen" is the scenario matrix: one sim cell (p-values and
    churn counters) and one engine cell (bit-identity)."""
    return {"benches": {
        "demo": {
            "key_fields": ["workload", "backend"],
            "fields": {
                "items_per_sec": {"kind": "floor", "drop": 0.5, "reference":
                                  {"workload": "zipf", "backend": "sim"}},
                "queries_per_sec": {"kind": "floor", "drop": 0.5, "reference":
                                    {"workload": "qs_r1",
                                     "backend": "sharded"}},
                "query_us_mean": {"kind": "ceiling", "rise": 3.0},
            },
            "rows": [
                {"workload": "zipf", "backend": "sim",
                 "items_per_sec": 1000.0},
                {"workload": "zipf", "backend": "engine",
                 "items_per_sec": 2000.0},
                {"workload": "qs_r1", "backend": "sharded",
                 "queries_per_sec": 100.0},
                {"workload": "qs_r8", "backend": "sharded",
                 "queries_per_sec": 800.0, "query_us_mean": 2.0},
            ],
        },
        "scen": {
            "key_fields": ["scenario", "backend"],
            "fields": {
                "chisq_p": {"kind": "floor", "value": 1e-3},
                "messages_mean": {"kind": "ceiling", "rise": 0.35},
                "degraded_trials": {"kind": "ceiling", "slack": 2},
                "silent_wrong": {"kind": "exact", "value": 0},
                "bit_identical": {"kind": "exact", "value": 1},
                "churn_applied": {"kind": "exact"},
            },
            "rows": [
                {"scenario": "site_churn", "backend": "sim",
                 "chisq_p": 0.42, "messages_mean": 700.0,
                 "churn_applied": 1, "degraded_trials": 0,
                 "silent_wrong": 0},
                {"scenario": "site_churn", "backend": "engine",
                 "messages_mean": 700.0, "churn_applied": 1,
                 "bit_identical": 1},
            ],
        },
    }}


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.build_dir = self._tmp.name
        self.gate = make_gate()
        # Current rows that reproduce the record exactly.
        self.rows = {name: copy.deepcopy(bench["rows"])
                     for name, bench in self.gate["benches"].items()}

    def check(self, allow_missing=False):
        for name, rows in self.rows.items():
            path = os.path.join(self.build_dir, f"BENCH_{name}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"name": name, "rows": rows}, f)
        return check_bench.check(self.gate, self.build_dir,
                                 allow_missing=allow_missing)

    def assert_fails(self, *parts):
        failures, _ = self.check()
        self.assertEqual(len(failures), 1, failures)
        for part in parts:
            self.assertIn(part, failures[0])

    def update(self, merge="replace"):
        self.check()  # writes the BENCH files
        path = os.path.join(self.build_dir, "gate.json")
        check_bench.update(self.gate, self.build_dir, path, merge=merge)
        written = check_bench.load_json(path)
        return {name: {tuple(r[k] for k in b["key_fields"]): r
                       for r in b["rows"]}
                for name, b in written["benches"].items()}

    def test_identical_run_passes_with_a_note_per_gated_value(self):
        failures, notes = self.check()
        self.assertEqual(failures, [])
        gated = sum(len(row) - len(b["key_fields"])
                    for b in self.gate["benches"].values() for row in b["rows"])
        self.assertEqual(len(notes), gated)

    def test_missing_row_fails_unless_allowed(self):
        self.rows["demo"].pop(3)  # qs_r8
        self.rows["scen"].pop(0)  # the sim cell
        failures, _ = self.check()
        self.assertEqual(len(failures), 2, failures)
        self.assertTrue(all("missing" in f for f in failures))
        self.assertIn("qs_r8", failures[0])
        self.assertIn("backend=sim", failures[1])
        failures, notes = self.check(allow_missing=True)
        self.assertEqual(failures, [])
        self.assertTrue(any(n.startswith("skip") and "qs_r8" in n
                            for n in notes), notes)

    def test_missing_bench_file_fails_unless_allowed(self):
        failures, _ = check_bench.check(self.gate, self.build_dir)
        self.assertEqual(len(failures), 2)
        self.assertTrue(all("did not run" in f for f in failures), failures)
        failures, notes = check_bench.check(self.gate, self.build_dir,
                                            allow_missing=True)
        self.assertEqual(failures, [])
        self.assertTrue(any("did not run" in n for n in notes), notes)

    def test_missing_gated_field_fails_unless_allowed(self):
        del self.rows["demo"][3]["queries_per_sec"]
        del self.rows["scen"][0]["chisq_p"]
        del self.rows["scen"][1]["bit_identical"]
        failures, _ = self.check()
        self.assertEqual(len(failures), 3, failures)
        for field, failure in zip(
                ["queries_per_sec", "chisq_p", "bit_identical"], failures):
            self.assertIn(f"{field} missing", failure)
        failures, _ = self.check(allow_missing=True)
        self.assertEqual(failures, [])

    def test_floor_drop_beyond_tolerance_fails(self):
        self.rows["demo"][3]["queries_per_sec"] = 100.0  # 8x, ref unchanged
        self.assert_fails("FLOOR", "qs_r8", "queries_per_sec")

    def test_ceiling_rise(self):
        self.rows["demo"][3]["query_us_mean"] = 7.9  # under 2.0 * (1 + 3)
        self.assertEqual(self.check()[0], [])
        self.rows["demo"][3]["query_us_mean"] = 9.0
        self.assert_fails("CEILING", "query_us_mean")

    def test_uniform_slowdown_passes_via_reference(self):
        # Absolutely every row is past the 0.5 drop, but both references
        # slow down with it, so the normalized ratios stay 1.0.
        for row in self.rows["demo"]:
            for field in ("items_per_sec", "queries_per_sec"):
                if field in row:
                    row[field] *= 0.45
        self.assertEqual(self.check()[0], [])

    def test_reference_row_is_gated_with_the_reference_drop(self):
        self.rows["demo"][2]["queries_per_sec"] = 30.0  # 0.3x: within 0.75
        self.assertEqual(self.check()[0], [])
        self.rows["demo"][2]["queries_per_sec"] = 1.0   # a 100x cliff
        failures, _ = self.check()
        self.assertTrue(any("qs_r1" in f and "reference" in f
                            for f in failures), failures)

    def test_p_value_floor_is_absolute(self):
        # Far below the recorded 0.42 but above the floor: healthy.
        self.rows["scen"][0]["chisq_p"] = 0.02
        self.assertEqual(self.check()[0], [])
        self.rows["scen"][0]["chisq_p"] = 1e-5
        self.assert_fails("FLOOR", "chisq_p")

    def test_message_cost_ceiling(self):
        self.rows["scen"][0]["messages_mean"] = 944.0  # 700 * 1.35 = 945
        self.assertEqual(self.check()[0], [])
        self.rows["scen"][0]["messages_mean"] = 946.0
        self.assert_fails("CEILING", "messages_mean")

    def test_degraded_trials_absolute_slack(self):
        self.rows["scen"][0]["degraded_trials"] = 2  # recorded 0, slack 2
        self.assertEqual(self.check()[0], [])
        self.rows["scen"][0]["degraded_trials"] = 3
        self.assert_fails("CEILING", "degraded_trials")

    def test_exact_value(self):
        self.rows["scen"][0]["silent_wrong"] = 1
        self.assert_fails("EXACT", "silent_wrong")
        self.rows["scen"][0]["silent_wrong"] = 0
        self.rows["scen"][1]["bit_identical"] = 0
        self.assert_fails("EXACT", "bit_identical")

    def test_exact_recorded_value(self):
        self.rows["scen"][0]["churn_applied"] = 0
        self.assert_fails("EXACT", "churn_applied")

    def test_new_row_is_note_not_failure(self):
        self.rows["scen"].append({"scenario": "brand_new", "backend": "sim",
                                  "chisq_p": 0.5})
        failures, notes = self.check()
        self.assertEqual(failures, [])
        self.assertTrue(any(n.startswith("new") and "brand_new" in n
                            for n in notes), notes)

    def test_duplicate_key_rejected(self):
        self.rows["scen"].append(copy.deepcopy(self.rows["scen"][0]))
        with self.assertRaises(SystemExit):
            self.check()

    def test_update_merge_min_keeps_conservative_bounds(self):
        self.rows["demo"][3]["queries_per_sec"] = 600.0  # slower than 800
        self.rows["demo"][3]["query_us_mean"] = 3.5      # slower than 2.0
        self.rows["demo"][1]["items_per_sec"] = 5000.0   # faster than 2000
        self.rows["scen"][0]["churn_applied"] = 2        # exact: replaced
        rows = self.update(merge="min")
        self.assertEqual(rows["demo"][("qs_r8", "sharded")],
                         {"workload": "qs_r8", "backend": "sharded",
                          "queries_per_sec": 600.0, "query_us_mean": 3.5})
        self.assertEqual(
            rows["demo"][("zipf", "engine")]["items_per_sec"], 2000.0)
        self.assertEqual(
            rows["scen"][("site_churn", "sim")]["churn_applied"], 2)

    def test_update_merges_by_key_and_keeps_only_gated_fields(self):
        self.rows["scen"][0]["messages_mean"] = 123.0
        self.rows["scen"][0]["wall_seconds"] = 1.7  # not a gated field
        self.rows["scen"].pop(1)  # a restricted run: the engine cell
        self.rows["scen"].append({"scenario": "brand_new", "backend": "sim",
                                  "chisq_p": 0.2, "messages_mean": 9.0})
        rows = self.update()["scen"]
        self.assertEqual(len(rows), 3)
        sim = rows[("site_churn", "sim")]
        self.assertEqual(sim["messages_mean"], 123.0)
        self.assertNotIn("wall_seconds", sim)
        self.assertEqual(rows[("site_churn", "engine")]["bit_identical"], 1)
        self.assertEqual(rows[("brand_new", "sim")]["chisq_p"], 0.2)

    def test_update_then_check_round_trips(self):
        self.rows["scen"][0]["messages_mean"] = 650.0
        self.update()
        self.gate = check_bench.load_gate(
            os.path.join(self.build_dir, "gate.json"))
        self.assertEqual(self.check()[0], [])


class ValidateTest(unittest.TestCase):
    def assert_rejected(self, edit, message):
        gate = make_gate()
        edit(gate["benches"]["demo"])
        with self.assertRaisesRegex(SystemExit, message):
            check_bench.validate(gate)

    def test_accepts_well_formed_gate(self):
        check_bench.validate(make_gate())

    def test_rejects_unknown_kind(self):
        self.assert_rejected(
            lambda b: b["fields"]["query_us_mean"].update(kind="celing"),
            "unknown kind")

    def test_rejects_unknown_spec_key(self):
        self.assert_rejected(
            lambda b: b["fields"]["query_us_mean"].update(rize=3.0),
            "unknown ceiling key")
        self.assert_rejected(lambda b: b.update(feilds={}), "keys")

    def test_rejects_floor_without_exactly_one_bound(self):
        self.assert_rejected(
            lambda b: b["fields"]["items_per_sec"].update(value=1.0),
            "exactly one of value and drop")
        self.assert_rejected(
            lambda b: b["fields"]["items_per_sec"].pop("drop"),
            "exactly one of value and drop")

    def test_rejects_reference_naming_a_non_key_field(self):
        self.assert_rejected(
            lambda b: b["fields"]["items_per_sec"]["reference"].update(k=2),
            "reference must name exactly the key fields")

    def test_committed_gate_files_are_well_formed(self):
        for name in ("baseline.json", "envelopes.json"):
            path = os.path.join(_HERE, "..", "bench", name)
            for bench_name, bench in check_bench.load_gate(
                    path)["benches"].items():
                where = f"{name}: {bench_name}"
                rows = check_bench.index_rows(bench["rows"],
                                              bench["key_fields"])
                for field, spec in bench["fields"].items():
                    self.assertTrue(any(field in r for r in rows.values()),
                                    f"{where}: no row carries {field}")
                    if "reference" in spec:
                        key = check_bench.row_key(spec["reference"],
                                                  bench["key_fields"])
                        self.assertIn(field, rows.get(key, {}),
                                      f"{where}: {field} reference")


if __name__ == "__main__":
    unittest.main()
