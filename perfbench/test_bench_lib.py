"""Tests of the benchmark's own helpers; they need no build.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import socket
import statistics
import threading
import time
import unittest

import bench_lib as lib

GRID = ["1e+09", "2.4e+09"]


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        samples = list(range(1, 1001))
        self.assertEqual(lib.tail_percentile(samples), (99.0, 990, 10))
        # 999 samples leave only 9 beyond p99, so p90 is reported.
        self.assertEqual(lib.tail_percentile(samples[:999])[0], 90.0)
        self.assertEqual(lib.tail_percentile(list(range(100))),
                         (90.0, 89, 10))
        self.assertEqual(lib.tail_percentile(range(20000))[0], 99.9)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(lib.tail_percentile(list(range(15))))

    def test_window_tails_cover_whole_windows(self):
        samples = [1.0] * 2500
        samples[1000:1100] = [100.0] * 100  # a burst in window 1 only
        windows = lib.window_tails(samples, 1000)
        self.assertEqual(len(windows), 2)  # the last 500 are dropped
        self.assertEqual(windows[0], (99.0, 1.0, 10))
        self.assertEqual(windows[1], (99.0, 100.0, 10))
        self.assertEqual(lib.window_tails(samples, 5000), [])

    def test_order_does_not_matter(self):
        self.assertEqual(lib.tail_percentile(list(range(1000, 0, -1))),
                         (99.0, 990, 10))


def serve_in_thread(server, stall_at=None, stall_s=0.0, answer_first=None):
    """Answer each line on `server` with a decision, stalling once
    before reply `stall_at`, or going silent after `answer_first`."""
    def loop():
        buf, answered = b"", 0
        with server:
            while True:
                data = server.recv(4096)
                if not data:
                    return
                buf += data
                *lines, buf = buf.split(b"\n")
                for _ in lines:
                    if answered == stall_at:
                        time.sleep(stall_s)
                    if answer_first is None or answered < answer_first:
                        server.sendall(b"f 2.4e+09\n")
                    answered += 1
    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return thread


class OpenLoopTest(unittest.TestCase):
    def test_stall_is_charged_to_requests_queued_behind_it(self):
        client, server = socket.socketpair()
        gap, stall, k = 0.010, 0.100, 5
        serve_in_thread(server, stall_at=k, stall_s=stall)
        events = [(i * gap, b"a %d\n" % i) for i in range(30)]
        with client:
            result = lib.open_loop(client, events)
        self.assertEqual(len(result.replies), 30)
        lat = result.latency_s
        # Request k waits out the stall; the ones due during it wait for
        # what is left of it, measured from their own due times.
        self.assertGreaterEqual(lat[k], stall)
        for j in range(1, 6):
            self.assertGreaterEqual(lat[k + j], stall - j * gap - 0.002)
        # Away from the stall replies are quick. Medians, because a host
        # hiccup can delay any one reply.
        self.assertLess(statistics.median(lat[k + 15:]), 0.5 * gap)
        # Open loop: the requests due during the stall went out before
        # the stalled reply came back.
        early = sum(result.late_s[k + j] < stall - j * gap
                    for j in range(1, 6))
        self.assertGreaterEqual(early, 4)

    def test_silent_server_times_out_and_keeps_socket_timeout(self):
        client, server = socket.socketpair()
        serve_in_thread(server, answer_first=3)
        events = [(i * 0.001, b"a\n") for i in range(8)]
        with client:
            # Later queries on the socket rely on its timeout to give up
            # on a wedged server.
            client.settimeout(30.0)
            result = lib.open_loop(client, events, timeout_s=0.3)
            self.assertEqual(client.gettimeout(), 30.0)
        self.assertEqual(len(result.replies), 3)
        count = lib.count_replies(result.replies, len(events), GRID)
        self.assertEqual((count.timeouts, count.failed), (5, 5))


class ReplyCountTest(unittest.TestCase):
    def test_err_replies_and_timeouts_are_failures(self):
        replies = ["f 2.4e+09", "err queue full", "f 9e+09", "f 1e+09"]
        count = lib.count_replies(replies, attempted=6, grid=GRID)
        self.assertEqual((count.ok, count.err, count.timeouts), (2, 1, 2))
        self.assertEqual(count.bad, ["f 9e+09"])
        self.assertEqual(count.failed, 4)
        self.assertAlmostEqual(count.failed_frac, 4 / 6)

    def test_all_on_grid_is_no_failure(self):
        count = lib.count_replies(["f 1e+09"] * 3, attempted=3, grid=GRID)
        self.assertEqual((count.failed, count.failed_frac), (0, 0.0))


def csv_text(*rows):
    return lib.SWEEP_HEADER + "\n" + "".join(r + "\n" for r in rows)


ROW = ("masstree,rubik,0.30,42,0.6885,0.6837,0.993,0.6272,0.4321,1.15,"
       "0.8631,22529")
CELLS = [("masstree", "rubik", "0.30", 42)]


class SweepCsvTest(unittest.TestCase):
    def test_valid_csv_parses(self):
        rows = lib.parse_sweep_csv(csv_text(ROW), CELLS)
        self.assertEqual(rows[0]["tail_over_bound"], 0.993)

    def test_truncated_csv_is_rejected(self):
        text = csv_text(ROW)
        for cut in (text[:-1], text[:len(text) // 2],
                    lib.SWEEP_HEADER + "\n"):
            with self.assertRaises(lib.CheckError):
                lib.parse_sweep_csv(cut, CELLS)

    def test_non_finite_value_is_rejected(self):
        for bad in ("nan", "inf", "-inf", "x"):
            row = ROW.replace("0.6837", bad)
            with self.assertRaises(lib.CheckError):
                lib.parse_sweep_csv(csv_text(row), CELLS)

    def test_malformed_or_misplaced_row_is_rejected(self):
        for row in (ROW + ",1", ROW.replace("masstree", "moses")):
            with self.assertRaises(lib.CheckError):
                lib.parse_sweep_csv(csv_text(row), CELLS)


if __name__ == "__main__":
    unittest.main()
