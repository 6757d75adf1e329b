"""Tests for the output-correctness gate on hand-written reports.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

REFERENCE = (
    b"[h0:00, h0:01): 3 nodes; training\n"
    b"[h0:01, h0:02): 3 nodes; ALERT (z=9.0)\n"
    b"  10.0.0.1 -> 10.0.0.2 shifted\n"
    b"[h0:02, h0:03): 3 nodes; ok (z=0.1)\n"
    b"3 windows analyzed, 1 alerts\n"
)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        path = Path(self.dir.name) / "ref"
        path.write_bytes(REFERENCE)
        self.live = SimpleNamespace(reference=path, replay=False)
        self.replay = SimpleNamespace(reference=path, replay=True)

    def tearDown(self):
        self.dir.cleanup()

    def test_identical_output_passes(self):
        self.assertEqual(run.check(self.live, REFERENCE, 3), (3, 0, True))

    def test_a_changed_alert_line_fails_its_window(self):
        out = REFERENCE.replace(b"shifted", b"new")
        self.assertEqual(run.check(self.live, out, 3), (3, 1, False))

    def test_a_missing_window_fails(self):
        out = REFERENCE.replace(b"[h0:02, h0:03): 3 nodes; ok (z=0.1)\n", b"")
        self.assertEqual(run.check(self.live, out, 3), (3, 1, False))

    def test_a_bad_exit_code_fails_every_window(self):
        self.assertEqual(run.check(self.live, REFERENCE, 1), (3, 3, False))

    def test_replay_may_differ_only_in_its_count_line(self):
        out = REFERENCE.replace(b"3 windows analyzed", b"3 windows replayed")
        self.assertEqual(run.check(self.replay, out, 3), (3, 0, True))
        self.assertEqual(run.check(self.live, out, 3), (3, 0, False))
        self.assertEqual(run.check(self.replay, out + b"extra\n", 3), (3, 0, False))


if __name__ == "__main__":
    unittest.main()
