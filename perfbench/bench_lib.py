"""Helpers of the end-to-end benchmark that need no build: the tail
percentile rule, sweep CSV validation, reply accounting and the
open-loop socket client. run.py drives them; test_bench_lib.py pins
them."""

import math
import selectors
import statistics
import time
from dataclasses import dataclass, field

# Percentiles a tail is reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
MIN_BEYOND = 10

# The open-loop client sleeps until SPIN_S before the next due time and
# polls from there; the first event is due LEAD_S after the start.
SPIN_S = 0.002
LEAD_S = 0.005

SWEEP_HEADER = ("app,policy,load,seed,bound_ms,tail_ms,tail_over_bound,"
                "energy_mj_per_req,savings_vs_fixed,mean_freq_ghz,"
                "mean_power_w,transitions")
SWEEP_FIELDS = SWEEP_HEADER.split(",")


class CheckError(Exception):
    """An output of the program failed a benchmark check."""


def rank_of(pct, n):
    """1-based nearest rank of percentile `pct` among n samples."""
    # Rounding first keeps 99.9% of 20000 at rank 19980, not 19981.
    return max(1, math.ceil(round(pct * n / 100.0, 6)))


def nearest_rank(sorted_samples, pct):
    """The nearest-rank percentile of already sorted samples."""
    return sorted_samples[rank_of(pct, len(sorted_samples)) - 1]


def tail_percentile(samples):
    """The highest LADDER percentile with at least MIN_BEYOND samples
    above its rank, as (percentile, value, samples beyond). None when
    even the median has fewer than MIN_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for pct in LADDER:
        beyond = n - rank_of(pct, n)
        if beyond < MIN_BEYOND:
            break
        best = (pct, nearest_rank(ordered, pct), beyond)
    return best


def window_tails(samples, window):
    """Split `samples` (in arrival order) into whole windows of `window`
    samples and return each window's tail_percentile."""
    return [tail_percentile(samples[i:i + window])
            for i in range(0, len(samples) - window + 1, window)]


def median(values):
    return statistics.median(values)


def parse_sweep_csv(text, cells):
    """Validate a sweep CSV against its grid and return its rows as
    dicts. `cells` lists the expected (app, policy, load, seed) keys in
    grid order, with load formatted as the CSV does ("0.30"). Raises
    CheckError on a missing header, a truncated or extra row, a row
    with the wrong key or field count, or a non-finite number."""
    if not text.endswith("\n"):
        raise CheckError("sweep CSV is truncated (no final newline)")
    lines = text[:-1].split("\n")
    if lines[0] != SWEEP_HEADER:
        raise CheckError("sweep CSV header mismatch: %r" % lines[0][:80])
    body = lines[1:]
    if len(body) != len(cells):
        raise CheckError("sweep CSV has %d rows, grid has %d cells"
                         % (len(body), len(cells)))
    rows = []
    for line, cell in zip(body, cells):
        parts = line.split(",")
        if len(parts) != len(SWEEP_FIELDS):
            raise CheckError("malformed sweep row: %r" % line)
        if tuple(parts[:4]) != tuple(str(c) for c in cell):
            raise CheckError("sweep row %r is not cell %r" % (line, cell))
        row = {"app": parts[0], "policy": parts[1]}
        for name, value in zip(SWEEP_FIELDS[2:], parts[2:]):
            try:
                number = float(value)
            except ValueError:
                raise CheckError("non-numeric %s in row %r" % (name, line))
            if not math.isfinite(number):
                raise CheckError("non-finite %s in row %r" % (name, line))
            row[name] = number
        rows.append(row)
    return rows


@dataclass
class ReplyCount:
    attempted: int
    ok: int = 0
    err: int = 0
    timeouts: int = 0
    bad: list = field(default_factory=list)

    @property
    def failed(self):
        return self.err + self.timeouts + len(self.bad)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def count_replies(replies, attempted, grid):
    """Sort daemon replies into decisions on the grid, `err` replies
    (rejections included) and malformed ones; requests past the last
    reply count as timeouts."""
    count = ReplyCount(attempted=attempted)
    allowed = set(grid)
    for reply in replies[:attempted]:
        if reply.startswith("err"):
            count.err += 1
        elif reply.startswith("f ") and reply[2:] in allowed:
            count.ok += 1
        else:
            count.bad.append(reply)
    count.timeouts = max(0, attempted - len(replies))
    return count


@dataclass
class OpenLoopResult:
    replies: list      # reply lines, in request order
    latency_s: list    # per reply: receive time - due time
    late_s: list       # per request: send time - due time
    wall_s: float      # first due time to last reply


def open_loop(sock, events, timeout_s=5.0):
    """Send `events` (sorted (due_s, line bytes) pairs) over a connected
    stream socket on their own schedule, whatever the replies do: an
    open loop. Each reply (one line per request, in order) is timed
    from its request's due time, so a server stall is charged to every
    request queued behind it. It gives up once replies are outstanding
    and none has come for `timeout_s`. The socket's own timeout is
    restored on return."""
    saved_timeout = sock.gettimeout()
    sock.setblocking(False)
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ)
    n = len(events)
    start = time.perf_counter() + LEAD_S
    due = [start + d for d, _ in events]
    pending = bytearray()
    inbuf = b""
    replies, latency, late = [], [], []
    sent = 0
    last_progress = time.perf_counter()
    try:
        while len(replies) < n:
            now = time.perf_counter()
            while sent < n and due[sent] <= now:
                pending += events[sent][1]
                late.append(now - due[sent])
                sent += 1
            if pending:
                try:
                    del pending[:sock.send(pending)]
                except BlockingIOError:
                    pass
            if len(replies) == sent:
                last_progress = now
            elif now - last_progress > timeout_s:
                break
            if pending:
                wait = 0.0
            elif sent < n:
                wait = max(0.0, due[sent] - time.perf_counter() - SPIN_S)
            else:
                wait = timeout_s
            if not sel.select(wait):
                continue
            data = sock.recv(1 << 16)
            received = time.perf_counter()
            if not data:
                break
            inbuf += data
            *lines, inbuf = inbuf.split(b"\n")
            for line in lines[:n - len(replies)]:
                latency.append(received - due[len(replies)])
                replies.append(line.decode("ascii", "replace"))
            last_progress = received
    finally:
        sel.close()
        sock.settimeout(saved_timeout)
    last = len(latency) - 1
    wall = due[last] + latency[last] - start if latency else 0.0
    return OpenLoopResult(replies, latency, late, wall)
