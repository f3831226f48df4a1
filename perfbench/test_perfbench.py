#!/usr/bin/env python3
"""Negative controls for the benchmark's correctness checks: each check
must reject a deliberately broken output, so a benchmark that reports
correct=true has really compared something.

    python3 perfbench/test_perfbench.py

Builds the benchmark first (as run.py does) for the in-process checks.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

REPORT = '{"schema":"cawa-simreport-v3","kernel":"bfs","stats":{"a":1}}'


def envelope(job, cached, report=REPORT):
    raw = ('{"type":"result","attempt":1,"verified":true,"attempts":1,'
           '"resumed":false,"error":"","failureReason":"","report":'
           + report + "}")
    return ('{"type":"result","job":%d,"name":"bfs.gto.lru.seed3.scale0.02",'
            '"cached":%s,"result":%s}' % (job, "true" if cached else "false",
                                          raw))


def flip(text, index):
    return text[:index] + chr(ord(text[index]) ^ 1) + text[index + 1:]


class ServiceChecks(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp(prefix="perfbench-test-"))
        self.ref = self.dir / "ref"
        self.ref.mkdir()
        (self.ref / "bfs.gto.lru.seed3.scale0.02.report").write_text(REPORT)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def check(self, cold, cached):
        res = run.Result()
        run.check_replies(res, self.ref,
                          [(0.0, 0.0, e) for e in cold],
                          [(0.0, 0.0, e) for e in cached])
        return res.errors

    def test_matching_replies_pass(self):
        self.assertEqual(self.check([envelope(1, False)],
                                    [envelope(0, True)]), [])

    def test_flipped_byte_in_cached_reply_fails(self):
        cached = envelope(0, True)
        at = cached.index('"stats"') + 3
        errors = self.check([envelope(1, False)], [flip(cached, at)])
        self.assertEqual(len(errors), 1)
        self.assertIn("cached reply", errors[0])

    def test_cold_report_differing_from_in_process_run_fails(self):
        cold = envelope(1, False, REPORT.replace('"a":1', '"a":2'))
        errors = self.check([cold], [])
        self.assertEqual(len(errors), 1)
        self.assertIn("differs from the in-process run", errors[0])

    def test_isolated_report_differing_from_in_process_run_fails(self):
        name = "bfs.gto.lru.seed3.scale0.02"
        (self.ref / f"{name}.json").write_text(REPORT + "\n")
        (self.dir / "out").mkdir()
        (self.dir / "out" / f"{name}.json").write_text(
            flip(REPORT, 5) + "\n")
        (self.dir / "journal.jsonl").write_text(
            json.dumps({"job": name, "status": "ok"}) + "\n")
        res = run.Result()
        run.check_sweep(res, self.dir, self.ref, [name])
        self.assertEqual(len(res.errors), 1)
        self.assertIn("isolated report", res.errors[0])


class FigureChecks(unittest.TestCase):
    FIG03 = "bench_fig03_reuse_distance"
    FIG03_ERR = ("ERROR: bfs failed: config: invalid GpuConfig\n"
                 "  - cacp.criticalWays=8 must fit the L1's 4 ways\n")

    def check(self, name, rc, out, err=""):
        res = run.Result()
        run.check_binary(res, name, rc, out, err)
        return res.failed, res.errors

    def test_table_printed_passes(self):
        self.assertEqual(self.check("bench_fig09_performance", 0,
                                    "== Fig 9 ==\n"), (0, []))

    def test_known_failure_counts_as_failed_operation(self):
        self.assertEqual(self.check(self.FIG03, 1, "", self.FIG03_ERR),
                         (1, []))

    def test_other_binary_exiting_nonzero_fails(self):
        failed, errors = self.check("bench_fig09_performance", 1, "",
                                    "ERROR: bfs failed verification\n")
        self.assertEqual(failed, 1)
        self.assertEqual(len(errors), 1)
        self.assertIn("exited 1", errors[0])

    def test_known_failure_with_another_message_fails(self):
        failed, errors = self.check(self.FIG03, 134, "", "Aborted\n")
        self.assertEqual(failed, 1)
        self.assertEqual(len(errors), 1)

    def test_error_in_output_fails(self):
        failed, errors = self.check("bench_fig10_mpki", 0,
                                    "== Fig 10 ==\nERROR: x\n")
        self.assertEqual((failed, len(errors)), (0, 1))


class DriverChecks(unittest.TestCase):
    """The in-process checks: a wrong word in a simulated output image
    must fail Workload::verify, and a report whose per-warp instruction
    sum disagrees with sim.instructions must be rejected."""

    @classmethod
    def setUpClass(cls):
        os.chdir(run.ROOT)
        run.build()

    def test_driver_negative_controls(self):
        out = subprocess.run([str(run.DRIVER), "selftest"],
                             stdout=subprocess.PIPE, text=True)
        print(out.stdout, end="")
        self.assertEqual(out.returncode, 0)
        self.assertIn("ok   a wrong output word fails verification",
                      out.stdout)
        self.assertIn("ok   a per-warp instruction sum off by one is "
                      "rejected", out.stdout)


if __name__ == "__main__":
    unittest.main()
