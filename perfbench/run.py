#!/usr/bin/env python3
"""The vmcw benchmark: two workloads driven from outside the program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-faulted --seed 42 --seconds 50 --trace 0

It builds `vmcw` and the benchmark's own tracer (`perfbench/tracer`) from
source, runs the workload for `--seconds`, checks every output against the
goldens in `perfbench/golden/`, and prints one JSON object as its last line.
With `--trace 0` that object holds the end-to-end metrics; with `--trace 1`
it holds the per-layer metrics of a traced run. Why each workload exists and
what each metric should move is in `perfbench/README.md`.
"""

import argparse
import atexit
import glob
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")
# The study seeds `golden/` holds outputs for. `--seed` picks one of them
# (`study_seed`), so every run's outputs can be checked.
GOLDEN_SEEDS = range(0, 128)
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_run")

# Full grid at Table 2 population with faults: 12 cells, 4,032 replay hours.
GRID_FAULTED = ["--scale", "1", "--faults", "on"]
# The traced run's resume: the grid-faulted spec at one worker, killed after
# this many replay hours (11 cells done, the 12th 4 hours in), then resumed.
KILL_AFTER_HOURS = "3700"
# The small serve job and its open-loop rate (about half of what two
# closed-loop clients sustained when the rate was chosen).
SERVE_JOB = {"dcs": "B", "scale": 0.1, "history_days": 7, "eval_days": 1}
SERVE_RATE = 12.0
SERVE_LANES = 2
SETUP_PROBES = 5  # fewest set-ups per run (study starts, server boots); setup_s is their median
MIN_SAMPLES = 3  # batch invocations per run, whatever --seconds says
READYZ_PROBES = 60
INPROC_REPEAT = 15

WORKLOADS = ("grid-faulted", "serve-small-jobs")
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "trace.generate_s": "s",
    "trace.servers": "count",
    "consolidation.input_s": "s",
    "consolidation.plan.semi-static_s": "s",
    "consolidation.plan.stochastic_s": "s",
    "consolidation.plan.dynamic_s": "s",
    "consolidation.plan.dynamic.migrations": "count",
    "emulator.step_s": "s",
    "emulator.steps": "count",
    "emulator.step_p50_us": "us",
    "emulator.step_tail_us": "us",
    "emulator.vm_hours": "count",
    "emulator.faults": "count",
    "emulator.checkpoint_encode_s": "s",
    "emulator.checkpoint_bytes": "bytes",
    "emulator.checkpoint_validate_s": "s",
    "emulator.checkpoint_decode_s": "s",
    "emulator.resume_s": "s",
    "journal.append_s": "s",
    "journal.appends": "count",
    "journal.bytes": "bytes",
    "journal.append_p50_us": "us",
    "journal.append_tail_us": "us",
    "journal.open_s": "s",
    "supervise.study_s": "s",
    "supervise.self_s": "s",
    "supervise.cells": "count",
    "supervise.cells_failed": "count",
    "serve.readyz_p50_ms": "ms",
    "serve.readyz_tail_ms": "ms",
    "serve.job_inproc_p50_ms": "ms",
    "serve.overhead_p50_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.ok": "count",
    "loadgen.status_503": "count",
    "loadgen.status_504": "count",
    "loadgen.late_p99_ms": "ms",
    "loadgen.latency_p50_ms": "ms",
    "loadgen.latency_tail_ms": "ms",
    "loadgen.samples": "count",
    "bench.coverage": "share",
    "bench.overhead_s": "s",
}
LAYERS = ("trace", "consolidation", "emulator", "journal", "supervise")
# Per-layer metrics only a resumed study reaches.
RESUME_METRICS = ("journal.open_s", "emulator.checkpoint_decode_s", "emulator.resume_s")


def log(msg):
    print(msg, flush=True)


_children = []


def spawn(cmd, **kwargs):
    """Popen that is killed and reaped at exit if still running, so an
    error path never leaves a process behind."""
    p = subprocess.Popen(cmd, **kwargs)
    _children.append(p)
    return p


@atexit.register
def _reap_children():
    for p in _children:
        if p.returncode is None:
            p.kill()
            p.wait()


# ---------------------------------------------------------------- statistics


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); value and percentile are None
    when there are fewer than eleven samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None, None, n
    k = n - 11  # xs[k] has exactly ten samples above it
    return xs[k], 100.0 * (k + 1) / n, n


def median(values):
    return statistics.median(values) if values else 0.0


def open_loop(n, rate, send, lanes=SERVE_LANES, clock=time.perf_counter, sleep=time.sleep):
    """Sends `n` requests on a fixed schedule, request i due at i / rate.

    Lane c sends requests c, c + lanes, ... in turn, so a slow response
    delays that lane's next send. Latency is measured from the due time,
    not the send time, so such a stall counts against later requests too.
    Returns per request (status, latency_s, late_s, body).
    """
    start = clock() + 0.05
    results = [None] * n

    def lane(c):
        for i in range(c, n, lanes):
            due = start + i / rate
            now = clock()
            if now < due:
                sleep(due - now)
            sent = clock()
            try:
                status, body = send(i)
            except OSError as e:
                status, body = 0, str(e).encode()
            results[i] = (status, clock() - due, sent - due, body)

    threads = [threading.Thread(target=lane, args=(c,)) for c in range(lanes)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def count_failures(statuses, outputs, reference):
    """Operations that failed: a non-200 status, or an output that differs
    from the reference. `outputs` holds None where no output was produced."""
    failed = 0
    for status, out in zip(statuses, outputs):
        if status != 200 or out is None or out != reference:
            failed += 1
    return failed


def all_completed(cells_csv):
    rows = cells_csv.strip().splitlines()[1:]
    return bool(rows) and all(r.split(",")[2] == "completed" for r in rows)


# -------------------------------------------------------------------- build


def build():
    """Builds `vmcw` and the tracer; returns their paths."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    for cmd in (
        ["cargo", "build", "--release", "-q", "-p", "vmcw-bench", "--bin", "vmcw"],
        ["cargo", "build", "--release", "-q", "--manifest-path",
         os.path.join(BENCH_DIR, "tracer", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit(f"error: `{' '.join(cmd)}` failed with exit code {r.returncode}")
    return os.path.join(target, "release", "vmcw"), os.path.join(target, "release", "vmcw-perfbench")


# ----------------------------------------------------------------- goldens


def golden(workload, seed):
    """The expected `cells.csv` of `workload` at `seed`, or None when the
    goldens do not cover that seed.

    `golden/<workload>.cells.csv` holds the outputs of every covered seed
    in one table: each line is a `cells.csv` line with the seed put in
    front of it as a first column.
    """
    with open(os.path.join(GOLDEN_DIR, f"{workload}.cells.csv")) as f:
        header, *rows = f.read().splitlines()
    prefix = f"{seed},"
    picked = [r[len(prefix):] for r in rows if r.startswith(prefix)]
    if not picked:
        return None
    return "\n".join([header.split(",", 1)[1], *picked]) + "\n"


def study_seed(seed):
    """The study seed a `--seed` selects: `seed` itself when the goldens
    cover it, else its residue modulo the number of covered seeds. The same
    `--seed` always gives the same inputs, and each has a golden."""
    return GOLDEN_SEEDS[seed % len(GOLDEN_SEEDS)]


def expected_output(workload, seed):
    """The golden of `workload` at `seed`; says so when there is none, in
    which case every output counts as failed."""
    ref = golden(workload, seed)
    if ref is None:
        log(f"error: perfbench/golden/{workload}.cells.csv has no output for seed {seed}; "
            "every run counts as failed")
    return ref


# ------------------------------------------------------------------ batch


def read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def timed_process(cmd):
    """Runs one study process to its end; returns (exit code, wall_s,
    peak_rss_mb, cpu_s)."""
    with open(os.path.join(WORK, "process.log"), "ab") as err:
        t0 = time.perf_counter()
        p = spawn(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_maxrss / 1024.0, ru.ru_utime + ru.ru_stime


def setup_probe(cmd, set_up):
    """Starts a study, waits until `set_up()` holds, then kills it.
    Returns the time from spawn to set-up, or None if it exited first."""
    t0 = time.perf_counter()
    p = spawn(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    setup = None
    while p.poll() is None:
        if set_up():
            setup = time.perf_counter() - t0
            p.kill()
            p.wait()
            break
        time.sleep(0.0005)
    return setup


def first_cell_started(out_dir):
    """Set-up of a fresh study: done when the journal gains its first record
    after the config record. That is the `cell-start` the supervisor appends
    after generating a data center's workload and planning its first cell,
    just before that cell's replay. The supervisor writes health.json right
    after the config record, before any cell starts."""
    health = os.path.join(out_dir, "health.json")
    journal = os.path.join(out_dir, "journal.vmcwj")
    base = []

    def done():
        if not base:
            if os.path.exists(health):
                base.append(os.path.getsize(journal))
            return False
        return os.path.getsize(journal) > base[0]

    return done


def study_cmd(vmcw, out, seed):
    return [vmcw, "study", "--out", out, *GRID_FAULTED, "--jobs", "2", "--seed", str(seed)]


def run_batch(vmcw, seed, seconds):
    reference = expected_output("grid-faulted", seed)

    def invocation(out):
        shutil.rmtree(out, ignore_errors=True)
        return study_cmd(vmcw, out, seed)

    setups, walls, rss = [], [], []
    attempted = failed = probes = 0

    def set_up_once():
        """Starts the study and stops it once it is set up. Each start gets
        its own directory, removed only at the end of the run."""
        nonlocal attempted, failed, probes
        out = os.path.join(WORK, f"setup-{probes}")
        probes += 1
        cmd = invocation(out)
        setup = setup_probe(cmd, first_cell_started(out))
        attempted += 1
        if setup is None:
            failed += 1
        else:
            setups.append(setup)

    out = os.path.join(WORK, "study")
    t_end = time.perf_counter() + seconds
    # Start another invocation only while it is expected to end in time. A
    # set-up precedes each one, so set-ups sample the same stretch of time
    # as the timed invocations.
    while len(walls) < MIN_SAMPLES or time.perf_counter() + median(walls) <= t_end:
        set_up_once()
        code, wall, peak, cpu = timed_process(invocation(out))
        text = read_text(os.path.join(out, "cells.csv"))
        ok = code == 0 and all_completed(text or "") and text == reference
        attempted += 1
        failed += 0 if ok else 1
        walls.append(wall)
        rss.append(peak)
        log(f"grid-faulted #{len(walls)}: exit {code}, wall {wall:.3f} s, cpu {cpu:.3f} s, "
            f"set-up {median(setups) * 1e3:.1f} ms so far, peak {peak:.1f} MB, "
            f"output {'ok' if ok else 'MISMATCH'}")
    while probes < SETUP_PROBES:
        set_up_once()
    for d in glob.glob(os.path.join(WORK, "setup-*")):
        shutil.rmtree(d)
    shutil.rmtree(out, ignore_errors=True)
    metrics = {
        "wall_s": median(walls),
        "peak_rss_mb": median(rss),
        "setup_s": median(setups),
    }
    return metrics, attempted, failed


# ------------------------------------------------------------------ serve


def http(port, method, path, body=b"", timeout=120.0):
    """One HTTP/1.1 exchange on its own connection (the server closes
    every connection after one response). Returns (status, body)."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(head.encode() + body)
        chunks = []
        while True:
            c = s.recv(65536)
            if not c:
                break
            chunks.append(c)
    data = b"".join(chunks)
    status = int(data.split(b" ", 2)[1]) if data.startswith(b"HTTP/1.1 ") else 0
    return status, data.split(b"\r\n\r\n", 1)[-1]


class Server:
    """A `vmcw serve` process on a fresh state directory."""

    def __init__(self, vmcw, state_dir):
        shutil.rmtree(state_dir, ignore_errors=True)
        self.state_dir = state_dir
        t0 = time.perf_counter()
        self.proc = spawn([vmcw, "serve", state_dir, "--port", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if not m:
            self.proc.kill()
            self.proc.wait()
            sys.exit(f"error: vmcw serve did not start: {line!r}")
        self.port = int(m.group(1))
        while http(self.port, "GET", "/readyz")[0] != 200:
            time.sleep(0.001)
        self.setup_s = time.perf_counter() - t0

    def stop(self):
        """Drains the server; returns (exit code, peak RSS in MB)."""
        self.proc.send_signal(signal.SIGTERM)
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, ru.ru_maxrss / 1024.0

    def job_output(self, body):
        try:
            job = json.loads(body)["job"]
        except (ValueError, KeyError, TypeError):
            return None
        return read_text(os.path.join(self.state_dir, "jobs", job, "cells.csv"))


def boot_servers(vmcw):
    """Boots SETUP_PROBES servers one after another; all but the last are stopped.
    Returns (the running server, setup times, boot failures)."""
    setups, failed = [], 0
    for i in range(SETUP_PROBES):
        server = Server(vmcw, os.path.join(WORK, f"serve-{i}"))
        setups.append(server.setup_s)
        if i + 1 < SETUP_PROBES:
            code, _ = server.stop()
            failed += code != 0
    return server, setups, failed


def serve_load(vmcw, seed, seconds):
    """Boots, then runs the open loop for `seconds`. Returns the summary."""
    reference = expected_output("serve-small-jobs", seed)
    server, setups, boot_failed = boot_servers(vmcw)
    body = json.dumps({**SERVE_JOB, "seed": seed}).encode()
    n = max(1, int(round(seconds * SERVE_RATE)))
    try:
        warm = [http(server.port, "POST", "/v1/plan", body) for _ in range(2)]
        results = open_loop(n, SERVE_RATE, lambda i: http(server.port, "POST", "/v1/plan", body))
    finally:
        code, peak = server.stop()
    answered = warm + [(r[0], r[3]) for r in results]
    statuses = [s for s, _ in answered]
    outputs = [server.job_output(b) if s == 200 else None for s, b in answered]
    failed = count_failures(statuses, outputs, reference) + boot_failed + (code != 0)
    latencies = [r[1] for r in results if r[0] == 200]
    late = [r[2] for r in results]
    return {
        "setups": setups,
        "peak_rss_mb": peak,
        "latencies": latencies,
        "late": late,
        "statuses": [r[0] for r in results],
        "attempted": len(answered) + SETUP_PROBES,
        "failed": failed,
    }


def describe_latency(latencies):
    value, pct, n = tail(latencies)
    tail_txt = f"p{pct:.1f} {value * 1e3:.1f} ms" if value is not None else "no tail (<11 samples)"
    return f"p50 {median(latencies) * 1e3:.1f} ms, {tail_txt}, n={n}"


def run_serve(vmcw, seed, seconds):
    s = serve_load(vmcw, seed, seconds)
    log(f"serve-small-jobs: {len(s['statuses'])} requests at {SERVE_RATE} req/s, "
        f"latency {describe_latency(s['latencies'])}; generator late p99 "
        f"{percentile(s['late'], 99) * 1e3:.1f} ms; boot-to-ready "
        f"{', '.join(f'{x * 1e3:.1f}' for x in s['setups'])} ms; failed {s['failed']}")
    metrics = {
        "wall_s": median(s["latencies"]),
        "peak_rss_mb": s["peak_rss_mb"],
        "setup_s": median(s["setups"]),
    }
    return metrics, s["attempted"], s["failed"]


def percentile(values, p):
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[min(len(xs) - 1, int(p / 100.0 * len(xs)))]


# ------------------------------------------------------------------ traced


def read_spans(path):
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            sid, parent, name, start, end = line.rstrip("\n").split(",")
            spans.append({"id": int(sid), "parent": int(parent) if parent else None,
                          "name": name, "dur": (float(end) - float(start)) / 1e6})
    return spans


def span_summary(spans):
    """Per traced run (root span): total duration, the sum of the layer
    spans under it, and per-layer self time; plus all durations by name."""
    child_sum = {}
    for s in spans:
        if s["parent"] is not None:
            child_sum[s["parent"]] = child_sum.get(s["parent"], 0.0) + s["dur"]
    root_of, roots, by_name = {}, [], {}
    for s in spans:
        root = s["id"] if s["parent"] is None else root_of[s["parent"]]
        root_of[s["id"]] = root
        if s["parent"] is None:
            roots.append({"id": s["id"], "wall": s["dur"], "spans": 0.0,
                          "self": {l: 0.0 for l in ("bench",) + LAYERS}})
            continue
        by_name.setdefault(s["name"], []).append(s["dur"])
    index = {r["id"]: r for r in roots}
    for s in spans:
        r = index[root_of[s["id"]]]
        layer = s["name"].split(".")[0]
        r["self"][layer] += s["dur"] - child_sum.get(s["id"], 0.0)
        if s["parent"] is not None and spans[s["parent"]]["parent"] is None:
            r["spans"] += s["dur"]
    return roots, by_name


def run_tracer(tracer, name, spec, repeat):
    out = os.path.join(WORK, "traced")
    spans = os.path.join(WORK, f"spans-{name}.csv")
    shutil.rmtree(out, ignore_errors=True)
    r = subprocess.run([tracer, "trace", *spec, "--out", out, "--spans", spans,
                        "--repeat", str(repeat)], stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"error: the traced run failed (exit {r.returncode})")
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    summary["cells_csv"] = read_text(os.path.join(out, "cells.csv"))
    summary["spans_path"] = spans
    return summary


def layer_metrics(summary):
    """Per-layer metrics from a tracer summary and its span file, per
    study invocation (totals divided by the number of repetitions)."""
    roots, by_name = span_summary(read_spans(summary["spans_path"]))
    reps = len(roots)
    total = lambda name: sum(by_name.get(name, [])) / reps
    # Each traced run is compared with the mean of the untraced runs on
    # either side of it.
    untraced = [(a + b) / 2 for a, b in zip(summary["untraced_s"], summary["untraced_s"][1:])]
    layer_spans = [r["spans"] - r["self"]["supervise"] for r in roots]
    step_p = tail([x * 1e6 for x in by_name.get("emulator.step", [])])
    app_p = tail([x * 1e6 for x in by_name.get("journal.append", [])])
    m = {k: 0.0 for k in PER_LAYER}
    m.update({
        "trace.generate_s": total("trace.generate"),
        "consolidation.input_s": total("consolidation.input"),
        "consolidation.plan.semi-static_s": total("consolidation.plan.semi-static"),
        "consolidation.plan.stochastic_s": total("consolidation.plan.stochastic"),
        "consolidation.plan.dynamic_s": total("consolidation.plan.dynamic"),
        "emulator.step_s": total("emulator.step"),
        "emulator.step_p50_us": median(by_name.get("emulator.step", [])) * 1e6,
        "emulator.step_tail_us": step_p[0] or 0.0,
        "emulator.checkpoint_encode_s": total("emulator.checkpoint_encode"),
        "emulator.checkpoint_validate_s": total("emulator.checkpoint_validate"),
        "emulator.checkpoint_decode_s": total("emulator.checkpoint_decode"),
        "emulator.resume_s": total("emulator.resume"),
        "journal.append_s": total("journal.append"),
        "journal.append_p50_us": median(by_name.get("journal.append", [])) * 1e6,
        "journal.append_tail_us": app_p[0] or 0.0,
        "journal.open_s": total("journal.open"),
        "supervise.study_s": median(summary["untraced_s"]),
        "supervise.self_s": median([u - s for u, s in zip(untraced, layer_spans)]),
        "supervise.cells": summary["cells"],
        "supervise.cells_failed": summary["cells_failed"],
        "bench.coverage": median([r["spans"] / r["wall"] for r in roots]),
        "bench.overhead_s": median([r["wall"] - u for r, u in zip(roots, untraced)]),
    })
    for k, v in summary["counts"].items():
        m[k] = v / reps
    report = {
        "traced_wall_s": median([r["wall"] for r in roots]),
        "self": {l: median([r["self"][l] for r in roots]) for l in ("bench",) + LAYERS},
        "samples": {"emulator.step": step_p, "journal.append": app_p},
    }
    return m, report


def print_trace_report(metrics, report):
    wall = report["traced_wall_s"]
    log(f"traced wall {wall:.3f} s per study; untraced {metrics['supervise.study_s']:.3f} s; "
        f"layer spans cover {metrics['bench.coverage'] * 100:.1f}% of the traced wall; "
        f"tracing overhead (traced minus untraced) {metrics['bench.overhead_s'] * 1e3:.1f} ms")
    log("layer self time (share of traced wall):")
    for layer, s in report["self"].items():
        log(f"  {layer:<14} {s:10.4f} s  {100 * s / wall if wall else 0:5.1f}%")
    for name, (value, pct, n) in report["samples"].items():
        if value is not None:
            log(f"  {name} tail is p{pct:.1f} of {n} samples")
    for k, unit in PER_LAYER.items():
        log(f"  {k:<40} {metrics[k]:.6g} {unit}")


def trace_batch(name, spec, tracer, seed):
    """Traces one batch spec; its untraced output must be the grid-faulted
    golden."""
    log(f"traced {name}:")
    summary = run_tracer(tracer, name, [*spec, "--seed", str(seed)], 1)
    text = summary["cells_csv"]
    ok = (summary["outputs_match"] and summary["cells_failed"] == 0
          and text is not None and text == expected_output("grid-faulted", seed))
    metrics, report = layer_metrics(summary)
    print_trace_report(metrics, report)
    return metrics, len(summary["untraced_s"]) + 1, 0 if ok else 1


def trace_grid(tracer, seed):
    """grid-faulted, then the resume of its journal killed at replay hour
    KILL_AFTER_HOURS, which must reproduce the same `cells.csv`. Only a
    resume reaches the read side of the journal and checkpoint layers."""
    metrics, attempted, failed = trace_batch("grid-faulted", GRID_FAULTED, tracer, seed)
    resumed, attempted_r, failed_r = trace_batch(
        "grid-faulted-resume", [*GRID_FAULTED, "--kill-after-hours", KILL_AFTER_HOURS], tracer, seed)
    for k in RESUME_METRICS:
        metrics[k] = resumed[k]
    return metrics, attempted + attempted_r, failed + failed_r


def trace_serve(vmcw, tracer, seed, seconds):
    # In-process: the same job through run_study_opts, untraced and traced.
    spec = ["--dcs", SERVE_JOB["dcs"], "--scale", str(SERVE_JOB["scale"]),
            "--history-days", str(SERVE_JOB["history_days"]),
            "--eval-days", str(SERVE_JOB["eval_days"]), "--seed", str(seed)]
    summary = run_tracer(tracer, "serve-small-jobs", spec, INPROC_REPEAT)
    metrics, report = layer_metrics(summary)
    inproc_ok = (summary["outputs_match"]
                 and summary["cells_csv"] == expected_output("serve-small-jobs", seed))
    # Served: readiness probes on a booted server, then the open loop.
    server = Server(vmcw, os.path.join(WORK, "serve-probe"))
    probes = []
    for _ in range(READYZ_PROBES):
        t = time.perf_counter()
        status, _ = http(server.port, "GET", "/readyz")
        probes.append((status, time.perf_counter() - t))
    probe_exit, _ = server.stop()
    s = serve_load(vmcw, seed, seconds)
    readyz = [d * 1e3 for st, d in probes if st == 200]
    lat = [x * 1e3 for x in s["latencies"]]
    statuses = s["statuses"]
    metrics.update({
        "serve.readyz_p50_ms": median(readyz),
        "serve.readyz_tail_ms": tail(readyz)[0] or 0.0,
        "serve.job_inproc_p50_ms": metrics["supervise.study_s"] * 1e3,
        "serve.overhead_p50_ms": median(lat) - metrics["supervise.study_s"] * 1e3,
        "loadgen.sent": len(statuses),
        "loadgen.ok": statuses.count(200),
        "loadgen.status_503": statuses.count(503),
        "loadgen.status_504": statuses.count(504),
        "loadgen.late_p99_ms": percentile(s["late"], 99) * 1e3,
        "loadgen.latency_p50_ms": median(lat),
        "loadgen.latency_tail_ms": tail(lat)[0] or 0.0,
        "loadgen.samples": len(lat),
    })
    print_trace_report(metrics, report)
    log(f"served latency {describe_latency(s['latencies'])}; readyz {describe_latency([x / 1e3 for x in readyz])}")
    failed = s["failed"] + (not inproc_ok) + (len(readyz) != READYZ_PROBES) + (probe_exit != 0)
    return metrics, s["attempted"] + READYZ_PROBES + 2 * INPROC_REPEAT + 1, failed


# ------------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    vmcw, tracer = build()
    os.makedirs(WORK, exist_ok=True)
    seed = study_seed(args.seed)
    log(f"--seed {args.seed}: study seed {seed}")
    serve = args.workload == "serve-small-jobs"
    if args.trace:
        if serve:
            metrics, attempted, failed = trace_serve(vmcw, tracer, seed, args.seconds)
        else:
            metrics, attempted, failed = trace_grid(tracer, seed)
        units = PER_LAYER
    else:
        if serve:
            metrics, attempted, failed = run_serve(vmcw, seed, args.seconds)
        else:
            metrics, attempted, failed = run_batch(vmcw, seed, args.seconds)
        units = END_TO_END
    for d in glob.glob(os.path.join(WORK, "serve-*")) + [os.path.join(WORK, "traced")]:
        shutil.rmtree(d, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
