"""Self-tests of the benchmark harness; they need neither qsdcnet nor numpy.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(range(99), 0.9))
        self.assertEqual(run.tail_percentile(range(1, 101), 0.9), 90)
        self.assertEqual(run.tail_percentile(range(1, 201), 0.9), 180)

    def test_empty_and_small(self):
        self.assertIsNone(run.tail_percentile([], 0.5))
        self.assertIsNone(run.tail_percentile([1.0] * 10, 0.5))
        self.assertEqual(run.tail_percentile([3.0] * 11 + [1.0] * 9, 0.5), 3.0)


class ReferenceTime(unittest.TestCase):
    def test_scales_by_calibration_units(self):
        ref = child.REF_UNIT_S
        # 4 units took 8 reference units of CPU time: the host ran at half speed.
        self.assertAlmostEqual(child.reference_seconds(2.0, [[1, 2 * ref], [3, 6 * ref]]), 1.0)
        self.assertAlmostEqual(child.reference_seconds(2.0, [[2, 2 * ref]]), 2.0)

    def test_rates_are_medians_of_per_op_rates(self):
        counts = {"sessions": 1, "transmissions": 100, "photons": 10}
        main = {
            "op_times": [1.0, 2.0, 9.0],
            "op_refs": [1.0, 1.5, 9.0],
            "op_counts": [counts, counts, None],  # the third op failed its checks
            "wall_times": [1.0, 2.0, 9.0],
            "calibration": [[1, 0.004]],
            "setup_reference_s": 3.0,
            "setup_cpu_s": 2.5,
            "setup_wall_s": 2.6,
            "peak_rss_mb": 50.0,
        }
        metrics, _ = run.end_to_end(main, [main])
        self.assertAlmostEqual(metrics["op_p50_s"][0], 1.5)
        self.assertAlmostEqual(metrics["sessions_per_s"][0], (1 / 1.0 + 1 / 1.5) / 2)
        self.assertAlmostEqual(metrics["sim_symbols_per_s"][0], (100 / 1.0 + 100 / 1.5) / 2)
        self.assertEqual(metrics["setup_s"][0], 3.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
        spans = [
            ["a", 0.0, 10.0, -1, 0],
            ["b", 1.0, 4.0, 0, 0],
            ["c", 2.0, 3.0, 1, 0],
            ["d", 5.0, 9.0, 0, 0],
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_children_clipped_and_merged(self):
        spans = [
            ["a", 0.0, 10.0, -1, 0],
            ["b", -1.0, 2.0, 0, 0],
            ["c", 1.0, 3.0, 0, 0],
            ["d", 9.0, 12.0, 0, 0],
        ]
        self.assertEqual(tracer.self_times(spans)[0], 10.0 - 3.0 - 1.0)

    def test_recorded_spans_and_per_op_metrics(self):
        ticks = iter(range(100))
        t = tracer.Tracer(clock=lambda: float(next(ticks)))
        inner = t.wrap("protocol.encode_block", lambda: None)
        outer = t.wrap("protocol.session", lambda: inner())
        for op in range(2):
            t.op_id = op
            with t.span(tracer.ROOT_SPAN):
                outer()
        # per op: cli.main 0..5, session 1..4, encode_block 2..3
        self.assertEqual([s[3] for s in t.spans[:3]], [-1, 0, 1])
        metrics, absent = tracer.layer_metrics(t.spans, 2, set())
        self.assertEqual(metrics["cli.main.self_s"], 2.0)
        self.assertEqual(metrics["protocol.session.self_s"], 2.0)
        self.assertEqual(metrics["protocol.encode_block.s"], 1.0)
        self.assertEqual(metrics["protocol.encode_block.calls"], 1.0)
        self.assertEqual(metrics["qstate.s"], 0.0)
        self.assertEqual(absent, [])


class Install(unittest.TestCase):
    def test_wraps_restores_and_reports_absent(self):
        module = types.ModuleType("fake_layer")
        module.present = lambda x: x + 1
        original = module.present
        sys.modules["fake_layer"] = module
        try:
            t = tracer.Tracer()
            seen = []
            targets = (
                ("fake.present", "fake_layer", "present"),
                ("fake.gone", "fake_layer", "gone"),
                ("fake.module_gone", "no_such_module_here", "f"),
            )
            t.install(targets, observers={"fake.present": seen.append})
            self.assertEqual(module.present(1), 2)
            t.uninstall()
            self.assertIs(module.present, original)
            self.assertEqual(seen, [2])
            self.assertEqual([s[0] for s in t.spans], ["fake.present"])
            self.assertEqual(t.absent, ["fake_layer.gone", "no_such_module_here.f"])
            self.assertEqual(
                tracer.absent_spans(t.absent, targets), {"fake.gone", "fake.module_gone"}
            )
        finally:
            del sys.modules["fake_layer"]


def run_report(message_hex: str, **session) -> str:
    summary = {
        "status": "completed",
        "ber": 0.0,
        "delivered_bits": workloads.hex_bits(message_hex),
        "transmissions": 10,
        "erased_transmissions": 0,
        "detection_photons_sent": 100,
    }
    summary.update(session)
    return json.dumps({"session": summary}, sort_keys=True, indent=2) + "\n"


class RunChecker(unittest.TestCase):
    message = "a5f0"
    transcript = b'{"event_kind": "session_start"}\n'

    def check(self, text: str, stdout: str | None = None, rc: int = 0):
        return workloads.check_run_outputs(
            rc, text if stdout is None else stdout, text.encode(), self.transcript, self.message
        )

    def test_good_report_passes(self):
        counts = self.check(run_report(self.message))
        self.assertEqual(counts["transmissions"], 10)
        self.assertEqual(counts["photons"], 100)

    def test_corrupted_report(self):
        text = run_report(self.message)[:-20]
        with self.assertRaises(workloads.CheckFailure):
            self.check(text)

    def test_nan_in_report(self):
        text = run_report(self.message).replace('"ber": 0.0', '"ber": NaN')
        with self.assertRaisesRegex(workloads.CheckFailure, "NaN"):
            self.check(text)

    def test_wrong_delivered_bits(self):
        bits = workloads.hex_bits(self.message)
        flipped = bits[:-1] + ("0" if bits[-1] == "1" else "1")
        with self.assertRaisesRegex(workloads.CheckFailure, "delivered_bits"):
            self.check(run_report(self.message, delivered_bits=flipped))

    def test_status_ber_exit_code_and_echo(self):
        with self.assertRaises(workloads.CheckFailure):
            self.check(run_report(self.message, status="aborted"))
        with self.assertRaises(workloads.CheckFailure):
            self.check(run_report(self.message, ber=0.25))
        with self.assertRaises(workloads.CheckFailure):
            self.check(run_report(self.message), rc=2)
        with self.assertRaises(workloads.CheckFailure):
            self.check(run_report(self.message), stdout="")

    def test_hex_bits_keeps_leading_zeros(self):
        self.assertEqual(workloads.hex_bits("0f"), "00001111")


class SweepChecker(unittest.TestCase):
    def csv_text(self, values, base, statuses):
        lines = [",".join(workloads.SWEEP_FIELDS)]
        for i, (value, status) in enumerate(zip(values, statuses)):
            ber = "0.0" if status == "completed" else ""
            lines.append(f"{i},eve.fraction,{value!r},{base ^ i},{status},0.05,0.3,1.0,0.4,{ber}")
        return "\r\n".join(lines) + "\r\n"

    def test_rows_seeds_and_statuses(self):
        values, base = [0.1, 0.6], 12345
        text = self.csv_text(values, base, ["completed", "aborted"])
        rows = workloads.check_sweep_rows(0, text.replace("\r\n", "\n"), text.encode(), values, base)
        self.assertEqual(len(rows), 2)
        bad_seed = text.replace(f",{base ^ 1},", f",{base + 1},")
        with self.assertRaisesRegex(workloads.CheckFailure, "seed"):
            workloads.check_sweep_rows(0, bad_seed.replace("\r\n", "\n"), bad_seed.encode(), values, base)
        bad_status = self.csv_text(values, base, ["completed", "crashed"])
        with self.assertRaisesRegex(workloads.CheckFailure, "status"):
            workloads.check_sweep_rows(
                0, bad_status.replace("\r\n", "\n"), bad_status.encode(), values, base
            )
        with self.assertRaisesRegex(workloads.CheckFailure, "rows"):
            workloads.check_sweep_rows(0, text.replace("\r\n", "\n"), text.encode(), values[:1], base)


class RunInputs(unittest.TestCase):
    def make(self, work, seed):
        return workloads.RunWorkload("lossy40_run", seed, work, lambda s: {"seed": s}, 64)

    def test_fresh_per_op_and_fixed_by_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            first = self.make(work, 3)
            first.setup()
            ops = [first.make_op(i, work / "out") for i in range(-1, 4)]
            messages = [op.expect["message_hex"] for op in ops]
            self.assertEqual(len(set(messages)), len(messages))
            again = self.make(work, 3)
            self.assertEqual(again.make_op(2, work / "out").expect, ops[3].expect)
            other = self.make(work, 4)
            self.assertNotEqual(other.make_op(2, work / "out").expect, ops[3].expect)


class FractionValues(unittest.TestCase):
    def test_no_repeat_within_a_process(self):
        draws = workloads.FractionDraws(random.Random("eve_sweep/7"), 8, 0.8)
        seen = []
        for _ in range(2000):
            values = draws.next_op()
            self.assertEqual(len(values), 8)
            self.assertEqual(sorted(int(v / 0.1) for v in values), list(range(8)))
            seen.extend(values)
        self.assertEqual(len(seen), len(set(seen)))

    def test_repeated_draw_is_drawn_again(self):
        class Scripted(random.Random):
            def __init__(self, draws):
                super().__init__(0)
                self.draws = iter(draws)

            def random(self):
                return next(self.draws)

            def getrandbits(self, k):  # keeps shuffle off the scripted draws
                return super().getrandbits(k)

        draws = workloads.FractionDraws(Scripted([0.5, 0.5, 0.5, 0.7, 0.5, 0.9]), 2, 1.0)
        self.assertEqual(sorted(draws.next_op()), [0.25, 0.75])
        self.assertEqual(sorted(draws.next_op()), [0.35, 0.95])

    def test_same_seed_same_values(self):
        a = workloads.FractionDraws(random.Random("s"), 8, 0.8)
        b = workloads.FractionDraws(random.Random("s"), 8, 0.8)
        self.assertEqual([a.next_op() for _ in range(5)], [b.next_op() for _ in range(5)])


if __name__ == "__main__":
    unittest.main()
