#!/usr/bin/env python3
"""End-to-end benchmark of rubik_cli sweeps and the serve daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds rubik_cli and the
benchmark's layer_probe from source into .bench_build/ (first run only),
generates the workload's inputs from the seed, runs the workload for
about S seconds, checks every output, and prints one metric per line
followed by a one-line JSON result. --trace 0 measures the end-to-end
metrics on untraced runs; --trace 1 makes a separate traced run and
reports per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import bench_lib as lib  # noqa: E402

ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
CLI = BUILD / "tools" / "rubik_cli"
PROBE = BUILD / "layer_probe"

WORKLOADS = ("sweep-rubik", "sweep-baselines", "serve-stream")
DEFAULT_SEED = 42
HELD_OUT_SEED = 1009

APPS = ("masstree", "moses", "shore", "specjbb", "xapian")
LOADS = (0.3, 0.5, 0.7)
SWEEP_REQUESTS = 20000
JOBS = 4
POLICIES = {
    "sweep-rubik": ("rubik",),
    "sweep-baselines": ("fixed", "static", "dynamic", "adrenaline",
                        "pegasus"),
}
SERVE_APP = "masstree"
SERVE_LOAD = "0.5"
SERVE_REQUESTS_PER_S = 2200  # masstree arrivals per second at 50% load
SETUP_SAMPLES = 15
MIN_REPS = 3
SESSIONS = 3
PASSES_PER_GAP = 4
# Replies per tail window: the window's p99 has 50 replies beyond it.
TAIL_WINDOW = 5000
PROC_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "events_per_s": "1/s", "reply_p50_us": "us",
    "tail_over_bound_max": "ratio", "energy_over_fixed_mean": "ratio",
}
# Printed with the end-to-end metrics but left out of the result: on a
# shared host its run-to-run spread exceeds any bound a comparison can
# use (perfbench/README.md).
PRINTED_ONLY = {"reply_tail_us": "us", "failed_frac": "frac"}
LAYER_UNITS = {
    "core.rebuild.count": "count", "core.rebuild.busy_s": "s",
    "core.rebuild.p50_ms": "ms", "core.rebuild.max_ms": "ms",
    "core.rebuild.ratio": "ratio", "core.decide.count": "count",
    "core.decide.busy_s": "s", "core.profile.busy_s": "s",
    "core.update.busy_s": "s", "sim.engine.events": "count",
    "sim.engine.busy_s": "s", "sim.result.busy_s": "s",
    "policies.fixed_replay.busy_s": "s", "policies.static.busy_s": "s",
    "policies.dynamic.busy_s": "s", "policies.adrenaline.busy_s": "s",
    "policies.pegasus.busy_s": "s", "workloads.trace_gen.calls": "count",
    "workloads.trace_gen.busy_s": "s", "workloads.annotate.busy_s": "s",
    "runner.cells": "count", "runner.cell.busy_s": "s",
    "runner.idle_s": "s", "runner.dispatch.overhead_s": "s",
    "serve.engine.ns_per_event": "ns", "serve.io.us_per_event": "us",
    "serve.rebuild.count": "count", "serve.decide.p50_ns": "ns",
    "serve.rejected": "count", "client.late_p99_ms": "ms",
    "trace.coverage": "frac", "trace.overhead_frac": "frac",
}

# The library reads RUBIK_* variables (trace cache, fault injection,
# SIMD mode, worker count); children get none of them, so every run
# measures the default configuration.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if not k.startswith("RUBIK_")}

_children = []


class Run:
    """Outcome bookkeeping of one benchmark invocation."""

    def __init__(self, workdir):
        self.dir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)
            print("CHECK FAILED: " + message, file=sys.stderr)
        return ok


# ----------------------------------------------------------- processes

def spawn(argv, **kwargs):
    proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=CHILD_ENV,
                            start_new_session=True, **kwargs)
    _children.append(proc)
    return proc


def kill_tree(proc):
    if proc.returncode is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def reap_all():
    for proc in _children:
        kill_tree(proc)
        if proc.returncode is None:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass


class Proc:
    def __init__(self, rc, wall, out, line_times):
        self.rc, self.wall, self.out, self.line_times = (rc, wall, out,
                                                         line_times)
        self.cpu = self.rss_mb = None


def run_proc(run, argv, measure=False):
    """Run a child to completion, timing it from launch, and record when
    each stdout line arrived. With `measure`, the child runs under
    `layer_probe exec`, which gives the CPU time and peak RSS of the
    child and its reaped descendants. wait4 here would overstate the
    RSS: it counts the RSS of the process the child was forked from,
    this driver."""
    usage = run.dir / "usage.json"
    if measure:
        argv = [PROBE, "exec", usage] + list(argv)
    with open(run.dir / "stderr.log", "ab") as err:
        t0 = time.perf_counter()
        proc = spawn(argv, stdout=subprocess.PIPE, stderr=err)
    watchdog = threading.Timer(PROC_TIMEOUT_S, kill_tree, (proc,))
    watchdog.start()
    chunks, line_times = [], []
    try:
        while True:
            data = os.read(proc.stdout.fileno(), 1 << 16)
            if not data:
                break
            now = time.perf_counter() - t0
            chunks.append(data)
            line_times.extend([now] * data.count(b"\n"))
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    result = Proc(proc.returncode, time.perf_counter() - t0,
                  b"".join(chunks), line_times)
    if measure and proc.returncode == 0:
        u = parse_json(usage.read_text(), "layer_probe exec")
        result.cpu, result.rss_mb = u["cpu_s"], u["peak_rss_kb"] / 1024.0
    return result


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD_ROOT / "build.log", "ab") as log:
        def step(argv):
            if subprocess.call([str(a) for a in argv], cwd=ROOT,
                               stdout=log, stderr=log) != 0:
                sys.exit("perfbench: build failed (%s); see %s"
                         % (" ".join(map(str, argv[:3])),
                            BUILD_ROOT / "build.log"))
        if not any((BUILD / f).exists() for f in ("build.ninja",
                                                   "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"] + gen)
        step(["cmake", "--build", BUILD, "-j", str(JOBS), "--target",
              "rubik_cli", "layer_probe"])


# -------------------------------------------------------------- sweeps

def sweep_spec(workload, seed):
    return ("apps = %s\nloads = %s\npolicies = %s\nseeds = %d\n"
            "requests = %d\n" % (",".join(APPS),
                                 ",".join("%g" % x for x in LOADS),
                                 ",".join(POLICIES[workload]), seed,
                                 SWEEP_REQUESTS))


def sweep_cells(workload, seed):
    return [(app, policy, "%.2f" % load, seed) for app in APPS
            for load in LOADS for policy in POLICIES[workload]]


def sweep_argv(workload, spec, out):
    if workload == "sweep-baselines":
        # The orchestrator: leased batches in subprocess workers, every
        # cell journaled to an fsync'd ledger beside --out.
        return [CLI, "sweep", "--spec", spec, "--out", out, "--schedule",
                "dynamic", "--backend", "subprocess", "--shards",
                str(JOBS), "--jobs", "1"]
    return [CLI, "sweep", "--spec", spec, "--jobs", str(JOBS)]


def run_sweep(run, argv, out, cells):
    """One sweep; returns (proc, csv text or None, rows or None). The CSV
    is `out` when the sweep published one there, else its stdout."""
    for stale in out.parent.glob(out.name + "*"):  # CSV, ledger, queue
        stale.unlink()
    proc = run_proc(run, argv, measure=True)
    run.attempted += len(cells)
    if not run.check(proc.rc == 0, "%s exited %d" % (argv[1], proc.rc)):
        run.failed += len(cells)
        return proc, None, None
    text = out.read_text() if out.exists() else proc.out.decode()
    try:
        return proc, text, lib.parse_sweep_csv(text, cells)
    except lib.CheckError as e:
        run.check(False, str(e))
        run.failed += len(cells)
        return proc, text, None


def sweep_e2e(run, workload, seed, seconds):
    spec = run.dir / "grid.spec"
    spec.write_text(sweep_spec(workload, seed))
    out = run.dir / "sweep.csv"
    cells = sweep_cells(workload, seed)

    setup = []
    for _ in range(SETUP_SAMPLES):
        proc = run_proc(run, [CLI, "sweep", "--spec", spec, "--dry-run"])
        run.check(proc.rc == 0 and
                  proc.out.count(b"\n") == len(cells) + 1,
                  "sweep --dry-run did not list the grid")
        setup.append(proc.wall)

    argv = sweep_argv(workload, spec, out)
    walls, cpus, rss, row_times = [], [], [], []
    first_text, rows = None, None
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        proc, text, parsed = run_sweep(run, argv, out, cells)
        if parsed is None:
            break
        if first_text is None:
            first_text, rows = text, parsed
        run.check(text == first_text, "sweep rows differ between reps")
        walls.append(proc.wall)
        cpus.append(proc.cpu)
        rss.append(proc.rss_mb)
        # A row reaches the user when its line arrives on stdout, or,
        # for --out, when the finished CSV is published at exit.
        row_times.append([proc.wall] * len(cells) if out.exists()
                         else proc.line_times[1:])
    if rows is None:
        return {}

    # Row times pool the three fastest passes, for the reason wall and
    # CPU time take the fastest pass; three give the tail rule enough
    # rows.
    fastest = sorted(range(len(walls)), key=walls.__getitem__)[:MIN_REPS]
    row_lat = [t for i in fastest for t in row_times[i]]
    online = [r for r in rows if r["policy"] != "fixed"]
    wall = min(walls)
    metrics = {
        "setup_s": min(setup),
        "wall_s": wall,
        "cpu_s": min(cpus),
        "peak_rss_mb": max(rss),
        "events_per_s": len(cells) * SWEEP_REQUESTS / wall,
        "reply_p50_us": lib.median(row_lat) * 1e6,
        "tail_over_bound_max": max(r["tail_over_bound"] for r in online),
        "energy_over_fixed_mean": sum(1.0 - r["savings_vs_fixed"]
                                      for r in online) / len(online),
    }
    pct, value, beyond = lib.tail_percentile(row_lat)
    metrics["reply_tail_us"] = value * 1e6
    metrics["_tail_note"] = "p%g of %d rows, %d beyond" % (
        pct, len(row_lat), beyond)
    return metrics


def sweep_traced(run, workload, seed, seconds):
    spec = run.dir / "grid.spec"
    spec.write_text(sweep_spec(workload, seed))
    out = run.dir / "sweep.csv"
    traced_rows = run.dir / "traced.csv"
    cells = sweep_cells(workload, seed)
    local = [CLI, "sweep", "--spec", spec, "--jobs", str(JOBS)]
    probe = [PROBE, "sweep", "--spec", spec, "--rows", traced_rows]

    samples = {}
    local_walls, orch_walls, traced_walls = [], [], []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        proc, text, rows = run_sweep(run, local, out, cells)
        if rows is None:
            return {}
        local_walls.append(proc.wall)
        if workload == "sweep-baselines":
            orch, _, orch_rows = run_sweep(
                run, sweep_argv(workload, spec, out), out, cells)
            if orch_rows is None:
                return {}
            orch_walls.append(orch.wall)
        traced = run_proc(run, probe)
        run.attempted += len(cells)
        if not run.check(traced.rc == 0, "layer_probe sweep failed"):
            run.failed += len(cells)
            return {}
        run.check(traced_rows.read_text() == text,
                  "traced sweep rows differ from the untraced rows")
        traced_walls.append(traced.wall)
        t = parse_json(traced.out, "layer_probe sweep")
        layer = t["layers"]

        def busy(name):
            return layer.get(name, {}).get("busy_s", 0.0)

        def count(name):
            return layer.get(name, {}).get("count", 0)

        rebuilds = count("core.rebuild")
        m = {
            "core.rebuild.count": rebuilds,
            "core.rebuild.busy_s": busy("core.rebuild"),
            "core.rebuild.p50_ms": t["rebuild_p50_ms"],
            "core.rebuild.max_ms": t["rebuild_max_ms"],
            "core.rebuild.ratio": (rebuilds / t["periodic_calls"]
                                   if t["periodic_calls"] else 0.0),
            "core.decide.count": count("core.decide"),
            "core.decide.busy_s": busy("core.decide"),
            "core.profile.busy_s": busy("core.profile"),
            "core.update.busy_s": busy("core.update"),
            "sim.engine.events": t["sim_events"],
            "sim.engine.busy_s": busy("sim.engine"),
            "sim.result.busy_s": busy("sim.result"),
            "workloads.trace_gen.calls": count("workloads.trace_gen"),
            "workloads.trace_gen.busy_s": busy("workloads.trace_gen"),
            "workloads.annotate.busy_s": busy("workloads.annotate"),
            "runner.cells": len(t["cells"]),
            "runner.cell.busy_s": t["cell_busy_s"],
            "runner.idle_s": t["workers"] * t["wall_s"] - t["job_busy_s"],
            "trace.coverage": min(c["explained_s"] / c["wall_s"]
                                  for c in t["cells"]),
        }
        for policy in ("fixed_replay", "static", "dynamic", "adrenaline",
                       "pegasus"):
            m["policies.%s.busy_s" % policy] = busy("policies." + policy)
        for name, value in m.items():
            samples.setdefault(name, []).append(value)
    metrics = {name: lib.median(v) for name, v in samples.items()}
    # A difference or ratio of two single passes is swamped by host
    # noise; compare the fastest pass of each side, as wall_s does.
    fastest = min(local_walls)
    metrics["runner.dispatch.overhead_s"] = (
        min(orch_walls) - fastest if orch_walls else 0.0)
    metrics["trace.overhead_frac"] = min(traced_walls) / fastest - 1.0
    return metrics


# --------------------------------------------------------------- serve

def make_stream(run, app, load, seed, requests, tag):
    """Generate the trace of `app` at `load` for `seed` and its open-loop
    event stream; returns (trace path, events path, stream summary)."""
    trace = run.dir / ("%s.rtrace" % tag)
    events = run.dir / ("%s.events" % tag)
    gen = run_proc(run, [CLI, "trace", "gen", "--app", app, "--load", load,
                         "--requests", requests, "--seed", seed,
                         "--out", trace])
    stream = run_proc(run, [PROBE, "stream", "--trace", trace, "--out",
                            events])
    if gen.rc != 0 or stream.rc != 0:
        raise lib.CheckError("could not generate the serve stream")
    return trace, events, parse_json(stream.out, "layer_probe stream")


def read_events(path):
    events = []
    with open(path, "rb") as f:
        for line in f:
            due, _, payload = line.partition(b"\t")
            events.append((float(due), payload))
    return events


class Daemon:
    """A `rubik_cli serve` child, ready once it answers `ping`."""

    _count = 0

    def __init__(self, run, bound_ms):
        Daemon._count += 1
        # Relative to the checkout root: unix socket paths are short.
        self.path = ".bench_build/%d-%d.sock" % (os.getpid(),
                                                Daemon._count)
        with open(run.dir / "stderr.log", "ab") as err:
            t0 = time.perf_counter()
            self.proc = spawn([CLI, "serve", "--socket", self.path,
                               "--bound-ms", bound_ms],
                              stdout=subprocess.DEVNULL, stderr=err)
        deadline = t0 + 20.0
        while True:
            try:
                self.sock = self.connect()
                if self.query("ping") == "ok":
                    break
            except (OSError, lib.CheckError):
                pass
            if self.proc.poll() is not None or \
                    time.perf_counter() > deadline:
                raise lib.CheckError("serve daemon did not start")
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - t0

    def connect(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(self.path)
        except OSError:
            sock.close()
            raise
        sock.settimeout(30.0)
        return sock

    def query(self, line):
        self.sock.sendall(line.encode() + b"\n")
        reply = b""
        while not reply.endswith(b"\n"):
            data = self.sock.recv(1 << 16)
            if not data:
                raise lib.CheckError("daemon closed on %r" % line)
            reply += data
        return reply.decode().rstrip("\n")

    def peak_rss_mb(self):
        for line in Path("/proc/%d/status" % self.proc.pid).open():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, run):
        """Shut the daemon down; returns its CPU time (user + system)
        over its whole life."""
        try:
            run.check(self.query("shutdown") == "ok", "shutdown refused")
            self.sock.close()
        except (OSError, lib.CheckError) as e:
            run.check(False, "serve daemon did not stop: %s" % e)
            kill_tree(self.proc)
        watchdog = threading.Timer(20.0, kill_tree, (self.proc,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        run.check(self.proc.returncode == 0, "serve daemon exited %d"
                  % self.proc.returncode)
        return usage.ru_utime + usage.ru_stime


def serve_phase(run, daemon, events, grid):
    """Stream `events` through the daemon; check every reply and the
    daemon's decision count; returns (open-loop result, stats)."""
    result = lib.open_loop(daemon.sock, events)
    replies = lib.count_replies(result.replies, len(events), grid)
    run.attempted += replies.attempted
    run.failed += replies.failed
    run.check(replies.failed == 0,
              "%d err, %d timed out, %d off-grid replies (%r)"
              % (replies.err, replies.timeouts, len(replies.bad),
                 replies.bad[:3]))
    stats = parse_json(daemon.query("stats"), "stats")
    run.check(stats["decisions"] == len(events),
              "daemon made %d decisions for %d events"
              % (stats["decisions"], len(events)))
    return result, stats


def serve_run(run, seed, seconds, traced):
    # The open loop is split into sessions against fresh daemons, with
    # capacity passes before, between and after them: host speed drifts
    # over seconds, and spreading the passes lets the fastest of them
    # land in a quiet stretch.
    sessions = 1 if traced else SESSIONS
    requests = max(TAIL_WINDOW,
                   int(seconds / SESSIONS * SERVE_REQUESTS_PER_S))
    trace, events_path, info = make_stream(run, SERVE_APP, SERVE_LOAD, seed,
                                           requests, "stream")
    check_seed(run, SERVE_APP, SERVE_LOAD, seed, requests)
    bound = repr(info["bound_ms"])
    events = read_events(events_path)
    grid = info["grid"]

    setup = []
    if not traced:
        for _ in range(SETUP_SAMPLES):
            d = Daemon(run, bound)
            setup.append(d.setup_s)
            d.stop(run)

    walls, cpus, rss, hashes = [], [], [], set()

    def capacity_passes(count):
        # Capacity: every event due at once, against a fresh daemon.
        for _ in range(count):
            d = Daemon(run, bound)
            try:
                burst, pstats = serve_phase(
                    run, d, [(0.0, p) for _, p in events], grid)
                walls.append(burst.wall_s)
                hashes.add(pstats["decision_hash"])
                rss.append(d.peak_rss_mb())
            finally:
                cpus.append(d.stop(run))

    windows, latencies, late = [], [], []
    for session in range(sessions):
        capacity_passes(PASSES_PER_GAP)
        d = Daemon(run, bound)
        try:
            loop, stats = serve_phase(run, d, events, grid)
            windows += lib.window_tails(loop.latency_s, TAIL_WINDOW)
            latencies += loop.latency_s
            late += loop.late_s
            hashes.add(stats["decision_hash"])
            rss.append(d.peak_rss_mb())
            if session == 0:
                first_stats = stats
                replay = parse_json(d.query("replay %s rubik"
                                            % trace.relative_to(ROOT)),
                                    "replay")
        finally:
            d.stop(run)
    capacity_passes(PASSES_PER_GAP)

    engine = run_proc(run, [PROBE, "engine", "--events", events_path,
                            "--bound-ms", bound, "--reps",
                            9 if traced else 1])
    run.check(engine.rc == 0, "layer_probe engine failed")
    eng = parse_json(engine.out, "layer_probe engine")
    hashes.add(eng["decision_hash"])
    run.check(len(hashes) == 1,
              "decision hashes differ across daemon runs and the "
              "in-process engine: %s" % sorted(hashes))
    run.check(eng["failed"] == 0 and eng["decisions"] == len(events),
              "in-process engine rejected events")

    wall = min(walls)
    if traced:
        layers = eng["layers"]
        rebuilds = layers["core.rebuild"]["count"]
        ns_per_event = eng["plain_wall_s"] / len(events) * 1e9
        return {
            "core.rebuild.count": rebuilds,
            "core.rebuild.busy_s": layers["core.rebuild"]["busy_s"],
            "core.rebuild.p50_ms": eng["rebuild_p50_ms"],
            "core.rebuild.max_ms": eng["rebuild_max_ms"],
            "core.rebuild.ratio": (rebuilds / eng["periodic_calls"]
                                   if eng["periodic_calls"] else 0.0),
            "core.decide.count": layers["core.decide"]["count"],
            "core.decide.busy_s": layers["core.decide"]["busy_s"],
            "core.profile.busy_s": layers["core.profile"]["busy_s"],
            "serve.engine.ns_per_event": ns_per_event,
            "serve.io.us_per_event": (wall / len(events) * 1e6
                                      - ns_per_event / 1e3),
            "serve.rebuild.count": first_stats["table_version"],
            "serve.decide.p50_ns": first_stats["latency_ns"]["p50"],
            "serve.rejected": first_stats["rejected"],
            "client.late_p99_ms": lib.nearest_rank(sorted(late),
                                                   99.0) * 1e3,
            "trace.coverage": eng["explained_s"] / eng["last_traced_wall_s"],
            "trace.overhead_frac": (eng["traced_wall_s"]
                                    / eng["plain_wall_s"] - 1.0),
        }

    metrics = {
        "setup_s": min(setup),
        "wall_s": wall,
        "cpu_s": min(cpus),
        "peak_rss_mb": max(rss),
        "events_per_s": len(events) / wall,
        "tail_over_bound_max": replay["tail_ms"] / info["bound_ms"],
        "energy_over_fixed_mean": (replay["energy_mj_per_req"]
                                   / info["fixed_energy_mj_per_req"]),
    }
    # A stall touches a handful of replies per window, so one window's
    # tail is a small-sample estimate; the median over windows is steady.
    pct, _, beyond = windows[0]
    metrics["reply_p50_us"] = lib.median(latencies) * 1e6
    metrics["reply_tail_us"] = lib.median(w[1] for w in windows) * 1e6
    metrics["_tail_note"] = ("p%g of each %d-reply window, %d beyond; "
                             "median of %d windows" % (pct, TAIL_WINDOW,
                                                       beyond,
                                                       len(windows)))
    return metrics


def parse_json(text, what):
    try:
        return json.loads(text)
    except ValueError:
        raise lib.CheckError("%s did not answer JSON: %r" % (what,
                                                             text[:200]))


# --------------------------------------------------------------- seeds

def other_seed(seed):
    return HELD_OUT_SEED if seed != HELD_OUT_SEED else DEFAULT_SEED


def check_seed(run, app, load, seed, requests):
    """Generate the input of `app` at `load` twice from `seed` and once
    from another seed. The event stream holds the trace's records and
    none of the trace file's metadata, which names the seed, so the
    comparison sees only what the generator made."""
    def stream(s, tag):
        return make_stream(run, app, load, s, requests, tag)[1].read_bytes()
    first = stream(seed, "seed")
    run.check(stream(seed, "again") == first,
              "the same seed generated two different inputs")
    run.check(stream(other_seed(seed), "other") != first,
              "a different seed generated the same input")


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Socket and replay paths are given relative to the checkout root.
    os.chdir(ROOT)
    build()
    workdir = BUILD_ROOT / "runs" / ("%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workdir)
    try:
        if args.workload == "serve-stream":
            metrics = serve_run(run, args.seed, args.seconds, args.trace)
        else:
            check_seed(run, APPS[0], LOADS[0], args.seed, SWEEP_REQUESTS)
            measure = sweep_traced if args.trace else sweep_e2e
            metrics = measure(run, args.workload, args.seed, args.seconds)
    except (lib.CheckError, OSError) as e:
        run.check(False, "%s: %s" % (type(e).__name__, e))
        metrics = {}
    finally:
        reap_all()
    if run.errors:
        print("perfbench: kept %s for inspection" % workdir, file=sys.stderr)
    else:
        shutil.rmtree(workdir, ignore_errors=True)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    note = metrics.pop("_tail_note", "")
    if metrics and not args.trace:
        metrics["failed_frac"] = run.failed / max(1, run.attempted)
    shown = units if args.trace else {**units, **PRINTED_ONLY}
    run.check(set(metrics) <= set(shown), "unknown metrics")
    result = {}
    for name, unit in shown.items():
        value = metrics.get(name, 0.0)
        if name in units:
            result[name] = {"value": value, "unit": unit}
        extra = "  (%s)" % note if name == "reply_tail_us" else ""
        print("%-30s %14.6g %s%s" % (name, value, unit, extra))
    correct = not run.errors and bool(metrics) and (
        bool(args.trace) or set(metrics) == set(shown))
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": result}))


if __name__ == "__main__":
    main()
