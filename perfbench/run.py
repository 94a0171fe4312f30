#!/usr/bin/env python3
"""The repo benchmark: end-to-end host metrics of the repo's own tools
on fixed workloads (sweep and crashtest, listed in BENCHMARK.json;
serve, too noisy on a shared host to carry a bound), and a traced
in-process replay that gives per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload serve --seed 7 --seconds 25 --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record      # rewrite perfbench/expected.json

Run it from the root of a checkout. It builds the tools from source
into .bench_build/ (first run only; later runs rebuild incrementally),
measures for --seconds, checks every output against
perfbench/expected.json, and prints one JSON object as its last line:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
ROOT_BUILD = os.path.join(BUILD, "nvmr")
PB_BUILD = os.path.join(BUILD, "perfbench")
TOOLS = os.path.join(ROOT_BUILD, "tools")
TRACER = os.path.join(PB_BUILD, "nvmr_perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

JOBS = "2"  # two workers on a 4-core host, driven from one process

SWEEP_ARGS = ["--traces", "10", "--jobs", JOBS]
SWEEP_RUNS = 600  # 10 workloads x 3 archs x 2 policies x 10 traces
CRASH_ARGS = ["-w", "hist,qsort,dijkstra", "--max-backups", "4",
              "--stride", "4", "--cycle-samples", "4", "--jobs", JOBS]

# serve: an open loop of one job every SERVE_GAP_S for --seconds;
# every eighth is a one-workload sweep, the rest small oracle fuzz
# jobs. On a quiet host a job takes a fifth of the gap or less, so
# the queue stays short even when the shared host runs several times
# slower, and latency measures the work, not a backlog.
SERVE_GAP_S = 0.25
SERVE_SWEEP_EVERY = 8
SERVE_FUZZ_ITERATIONS = 3
SERVE_SWEEP_TRACES = 1
SERVE_POLL_MS = "10"  # spool scan period; the 500 ms default would
                      # dominate job latency (perfbench.cc's
                      # kServePollMs models the same value)
SERVE_MAX_LATENESS_MS = 50.0  # refuse the run past this generator lag
SERVE_CHECK_S = 0.02  # how often the generator looks for completed jobs
FUZZ_CASES = 12  # check/fuzzcases.cc
WORKLOADS = ["2dconv", "adpcm_encode", "basicmath", "blowfish", "dijkstra",
             "dwt", "hist", "picojpeg", "qsort", "stringsearch"]

# Set-up is timed cold, in a fresh process each time, at least
# SETUP_REPEATS times and for at least SETUP_MIN_S; the median counts.
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0

# Paper reference values for the fidelity fingerprint (ISCA'22
# Sections 6.1 and 6.5; EXPERIMENTS.md).
PAPER = {"energy_saved_vs_clank_pct": 20.0,
         "backup_reduction": 185.0,
         "max_wear_reduction_pct": 80.8}


class BenchError(Exception):
    """A failed build or tool run: no result is printed."""


class GateError(Exception):
    """An output failed the correctness gate."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def tool_env():
    """The tools' own defaults: no engine or worker override."""
    env = dict(os.environ)
    env.pop("NVMR_ENGINE", None)
    env.pop("NVMR_JOBS", None)
    return env


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------

def check_checkout():
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a checkout of the repo: %s is missing "
                             "at %s" % (need, ROOT))


def run_logged(cmd, logf):
    rc = subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT,
                         cwd=ROOT)
    if rc != 0:
        raise BenchError("build step failed (%s), see %s"
                         % (" ".join(cmd), logf.name))


def build():
    check_checkout()
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as logf:
        if not os.path.exists(os.path.join(ROOT_BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", ROOT, "-B", ROOT_BUILD], logf)
        run_logged(["cmake", "--build", ROOT_BUILD, "-j4", "--target",
                    "nvmr", "nvmr_sweep", "nvmr_crashtest", "nvmr_serve"],
                   logf)
        if not os.path.exists(os.path.join(PB_BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", PB_BUILD,
                        "-DNVMR_BUILD_DIR=" + ROOT_BUILD], logf)
        run_logged(["cmake", "--build", PB_BUILD, "-j4"], logf)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

class Child:
    """A tool process; finish() reaps it with wait4 for its rusage."""

    def __init__(self, cmd, out_path):
        self.out_path = out_path
        self.out = open(out_path, "wb")
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=self.out,
                                     stderr=subprocess.STDOUT,
                                     env=tool_env(), cwd=ROOT)

    def finish(self, timeout_s=170.0):
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError("%s timed out" % self.proc.args[0])
            time.sleep(0.002)
        self.wall_s = time.monotonic() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.out.close()
        self.rc = self.proc.returncode
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        with open(self.out_path, "rb") as f:
            self.output = f.read().decode("utf-8", "replace")
        return self

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            os.wait4(self.proc.pid, 0)
            self.proc.returncode = -9
            self.out.close()


def run_child(cmd, out_path):
    return Child(cmd, out_path).finish()


def repeated_setup(one):
    """Median of one(k) over cold set-ups k = 0, 1, ..."""
    times = []
    t_end = time.monotonic() + SETUP_MIN_S
    while len(times) < SETUP_REPEATS or time.monotonic() < t_end:
        times.append(one(len(times)))
    return statistics.median(times)


def median_setup(workload, work):
    def one(i):
        c = run_child([TRACER, "setup", "--workload", workload],
                      os.path.join(work, "setup-%d.out" % i))
        if c.rc != 0:
            raise BenchError("set-up failed: " + c.output[-400:])
        return json.loads(c.output.strip().splitlines()[-1])["setup_s"]
    return repeated_setup(one)


def repeat_tool(cmd, seconds, work, check):
    """Run `cmd` back to back until `seconds` have passed (at least
    once); check(child) gates each output."""
    reps = []
    t_end = time.monotonic() + seconds
    while not reps or time.monotonic() < t_end:
        c = run_child(cmd, os.path.join(work, "rep-%d.out" % len(reps)))
        check(c)
        reps.append(c)
    return reps


def tool_metrics(reps, outcomes_per_rep, setup_s):
    walls = [c.wall_s for c in reps]
    return {
        "cells_per_s": statistics.median(outcomes_per_rep / w
                                         for w in walls),
        "cpu_s": statistics.median(c.cpu_s for c in reps),
        "peak_rss_mb": statistics.median(c.rss_mb for c in reps),
        "setup_s": setup_s,
        "job_ms_p50": statistics.median(walls) * 1e3,
        "job_ms_p90": quantile(walls, 0.9) * 1e3,
    }


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def gate_digest(what, path, expected):
    got = sha256_file(path)
    if got != expected:
        raise GateError("%s: digest %s, expected %s" % (what, got, expected))


def fidelity(csv_text):
    """NvMR vs Clank under JIT, averaged over workloads: energy saved,
    backup reduction, max-wear reduction (bench_nvmr_core's formulas)."""
    lines = csv_text.strip().splitlines()
    head = lines[0].split(",")
    rows = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
    by = {(r["workload"], r["arch"]): r for r in rows
          if r["policy"] == "jit"}
    names = sorted({w for w, _ in by})
    saved, backup, wear = [], [], []
    for w in names:
        c, n = by[(w, "clank")], by[(w, "nvmr")]
        saved.append((1 - float(n["total_uj"]) / float(c["total_uj"])) * 100)
        if float(n["backups"]) > 0:
            backup.append(float(c["backups"]) / float(n["backups"]))
        if float(c["max_wear"]) > 0:
            wear.append((1 - float(n["max_wear"]) / float(c["max_wear"]))
                        * 100)
    return {"energy_saved_vs_clank_pct": statistics.fmean(saved),
            "backup_reduction": statistics.fmean(backup),
            "max_wear_reduction_pct": statistics.fmean(wear)}


def sweep_failures(csv_text):
    """Runs of cells that did not complete or validate (10 per cell)."""
    lines = csv_text.strip().splitlines()
    head = lines[0].split(",")
    bad = 0
    for ln in lines[1:]:
        r = dict(zip(head, ln.split(",")))
        if r["completed"] != "1" or r["validated"] != "1":
            bad += 1
    missing = 60 - (len(lines) - 1)
    return (bad + max(missing, 0)) * 10


# ----------------------------------------------------------------------
# Workloads, untraced
# ----------------------------------------------------------------------

def run_sweep(seed, seconds, work, expected):
    del seed  # the paper's standard 10-trace set is fixed
    setup_s = median_setup("sweep", work)
    failed = [0]

    def check(c):
        if c.rc != 0:
            raise GateError("nvmr_sweep exited %d" % c.rc)
        failed[0] += sweep_failures(c.output)
        gate_digest("sweep CSV", c.out_path, expected["sweep_csv_sha256"])

    reps = repeat_tool([os.path.join(TOOLS, "nvmr_sweep")] + SWEEP_ARGS,
                       seconds, work, check)
    fid = fidelity(reps[0].output)
    for k, v in fid.items():
        if v != expected["fidelity"][k]:
            raise GateError("fidelity %s = %r, expected %r"
                            % (k, v, expected["fidelity"][k]))
    print(json.dumps({"fidelity": {k: {"value": v, "paper": PAPER[k]}
                                   for k, v in fid.items()}}))
    return (tool_metrics(reps, SWEEP_RUNS, setup_s),
            SWEEP_RUNS * len(reps), failed[0])


CRASH_LINE = re.compile(r"^crashtest passed: (\d+) crash points "
                        r"\((\d+) fired\)", re.M)


def run_crashtest(seed, seconds, work, expected):
    setup_s = median_setup("crashtest", work)
    first = {}

    def check(c):
        m = CRASH_LINE.search(c.output)
        if c.rc != 0 or not m or "FAILURE" in c.output:
            raise GateError("nvmr_crashtest did not pass (exit %d): %s"
                            % (c.rc, c.output[-400:]))
        if int(m.group(1)) != expected["crashtest_points"]:
            raise GateError("crashtest explored %s points, expected %d"
                            % (m.group(1), expected["crashtest_points"]))
        digest = sha256_file(c.out_path)
        if first.setdefault("digest", digest) != digest:
            raise GateError("crashtest output differs between repeats")

    cmd = ([os.path.join(TOOLS, "nvmr_crashtest")] + CRASH_ARGS
           + ["--seed", str(seed)])
    reps = repeat_tool(cmd, seconds, work, check)
    points = expected["crashtest_points"]
    return tool_metrics(reps, points, setup_s), points * len(reps), 0


def serve_jobs(seed, seconds):
    """The open-loop job list: (due offset s, name, job text, cells,
    sweep workload or None). Same seed, same list."""
    n = max(10, int(round(seconds / SERVE_GAP_S)))
    jobs = []
    for i in range(n):
        name = "j%05d" % i
        if i % SERVE_SWEEP_EVERY == SERVE_SWEEP_EVERY - 1:
            # The same sweep jobs whatever the seed, so the latency
            # tail they set does not move with it.
            w = WORKLOADS[(i // SERVE_SWEEP_EVERY) % len(WORKLOADS)]
            spec = {"schema": "nvmr-job-v1", "type": "sweep",
                    "workloads": [w], "traces": SERVE_SWEEP_TRACES}
            cells = 6  # clank,nvmr,hoop x jit,watchdog
        else:
            w = None
            spec = {"schema": "nvmr-job-v1", "type": "fuzz",
                    "iterations": SERVE_FUZZ_ITERATIONS, "oracle": True,
                    "base_seed": (seed % 1000003) * 100000 + i * 10 + 1}
            cells = SERVE_FUZZ_ITERATIONS * FUZZ_CASES
        jobs.append((i * SERVE_GAP_S, name,
                     json.dumps(spec, separators=(",", ":")), cells, w))
    return jobs


def wait_for(path, deadline):
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.0005)
    return True


def start_serve(spool, out_path):
    """Start nvmr_serve on `spool`; returns the child and the seconds
    from exec to its first spool scan (serve.json written)."""
    c = Child([os.path.join(TOOLS, "nvmr_serve"), "--spool", spool,
               "--jobs", JOBS, "--poll-ms", SERVE_POLL_MS], out_path)
    if not wait_for(os.path.join(spool, ".nvmr_serve", "serve.json"),
                    time.monotonic() + 60):
        c.kill()
        raise BenchError("nvmr_serve did not start")
    return c, time.monotonic() - c.t0


def stop_serve(c):
    """Graceful drain (SIGTERM); the exit code reports job health."""
    c.proc.send_signal(signal.SIGTERM)
    c.finish()


def serve_startup(work, k):
    spool = os.path.join(work, "startup-%d" % k)
    os.makedirs(spool)
    c, ready = start_serve(spool, os.path.join(work, "startup-%d.out" % k))
    try:
        stop_serve(c)
    finally:
        c.kill()
    if c.rc != 0:
        raise BenchError("nvmr_serve start-up run exited %d" % c.rc)
    return ready


def check_serve_outputs(out_dir, jobs, expected):
    for _, name, _, _, w in jobs:
        if w is None:
            gate_digest("serve fuzz log " + name,
                        os.path.join(out_dir, name + ".out"),
                        expected["serve_fuzz_out_sha256"])
        else:
            gate_digest("serve sweep CSV " + name,
                        os.path.join(out_dir, name + ".csv"),
                        expected["serve_sweep_csv_sha256"][w])


def run_serve(seed, seconds, work, expected):
    setup_s = repeated_setup(lambda k: serve_startup(work, k))
    jobs = serve_jobs(seed, seconds)
    spool = os.path.join(work, "spool")
    os.makedirs(spool)
    state = os.path.join(spool, ".nvmr_serve")
    out_dir = os.path.join(state, "out")
    c, _ = start_serve(spool, os.path.join(work, "serve.out"))
    try:
        base = time.monotonic() + 0.05
        due = [base + j[0] for j in jobs]
        done = [None] * len(jobs)
        # A job is complete when its last output (<job>.stats.json) is
        # written; its mtime gives the time, so the generator polls
        # only every SERVE_CHECK_S and stays off the service's CPUs.
        clock_off = time.time() - time.monotonic()
        lateness = 0.0
        nxt = 0       # next job to drop
        pending = 0   # oldest job not seen complete
        deadline = due[-1] + 120
        while pending < len(jobs):
            now = time.monotonic()
            if now > deadline:
                raise GateError("serve jobs did not complete")
            if nxt < len(jobs) and now >= due[nxt]:
                _, name, text, _, _ = jobs[nxt]
                tmp = os.path.join(spool, name + ".tmp")
                with open(tmp, "w") as f:
                    f.write(text)
                os.rename(tmp, os.path.join(spool, name + ".job"))
                lateness = max(lateness, time.monotonic() - due[nxt])
                nxt += 1
                continue
            # Jobs run one at a time in name (= due) order.
            while pending < nxt:
                try:
                    st = os.stat(os.path.join(
                        out_dir, jobs[pending][1] + ".stats.json"))
                except FileNotFoundError:
                    break
                done[pending] = st.st_mtime_ns / 1e9 - clock_off
                pending += 1
            wake = due[nxt] if nxt < len(jobs) else now + SERVE_CHECK_S
            time.sleep(max(0.0, min(SERVE_CHECK_S,
                                    wake - time.monotonic())))
        stop_serve(c)
    finally:
        c.kill()
    if c.rc != 0:
        raise GateError("nvmr_serve exited %d: %s" % (c.rc, c.output[-400:]))
    with open(os.path.join(state, "serve.json")) as f:
        snap = json.load(f)["jobs"]
    if (snap["done"] != len(jobs) or snap["failed"] or snap["quarantined"]
            or snap["retried"]):
        raise GateError("serve job states: %r" % snap)
    check_serve_outputs(out_dir, jobs, expected)
    lateness_ms = lateness * 1e3
    if lateness_ms > SERVE_MAX_LATENESS_MS:
        raise BenchError("generator ran %.1f ms late (bound %.1f ms); "
                         "host too loaded to drive the open loop"
                         % (lateness_ms, SERVE_MAX_LATENESS_MS))
    lat = [(d - u) * 1e3 for d, u in zip(done, due)]
    # The service's busy time: each job from the later of its due time
    # and the previous job's completion to its own completion (jobs
    # run one at a time in due order).
    busy = sum(d - max(u, prev) for d, u, prev
               in zip(done, due, [due[0]] + done[:-1]))
    cells = sum(j[3] for j in jobs)
    print(json.dumps({"serve_generator": {
        "jobs": len(jobs), "gap_ms": SERVE_GAP_S * 1e3,
        "max_lateness_ms": lateness_ms,
        "bound_ms": SERVE_MAX_LATENESS_MS,
        "busy_share": busy / (max(done) - due[0])}}))
    metrics = {
        "cells_per_s": cells / busy,
        "cpu_s": c.cpu_s,
        "peak_rss_mb": c.rss_mb,
        "setup_s": setup_s,
        "job_ms_p50": quantile(lat, 0.5),
        "job_ms_p90": quantile(lat, 0.9),
    }
    return metrics, len(jobs), 0


# ----------------------------------------------------------------------
# Workloads, traced
# ----------------------------------------------------------------------

REPLAY_TAGS = ("untraced", "traced", "untraced2")


def gate_replay(workload, seed, seconds, work, scratch, res, expected):
    """The replays must write what the tools write: every replay's
    outputs are checked like the tools' own."""
    for tag in REPLAY_TAGS:
        d = os.path.join(scratch, tag)
        if workload == "sweep":
            gate_digest("replayed sweep CSV (%s)" % tag,
                        os.path.join(d, "sweep.csv"),
                        expected["sweep_csv_sha256"])
        elif workload == "serve":
            check_serve_outputs(os.path.join(d, "out"),
                                serve_jobs(seed, seconds), expected)
    if workload != "crashtest":
        return
    # Points and fired crashes of the same seed, from the tool itself.
    c = run_child([os.path.join(TOOLS, "nvmr_crashtest")] + CRASH_ARGS
                  + ["--seed", str(seed)], os.path.join(work, "tool.out"))
    m = CRASH_LINE.search(c.output)
    if c.rc != 0 or not m:
        raise GateError("nvmr_crashtest did not pass (exit %d)" % c.rc)
    tool = [int(m.group(1)), int(m.group(2))]
    if tool[0] != expected["crashtest_points"]:
        raise GateError("crashtest explored %d points, expected %d"
                        % (tool[0], expected["crashtest_points"]))
    for tag, counts in zip(REPLAY_TAGS, res["crash_counts"]):
        if counts != tool:
            raise GateError("%s replay: %d points (%d fired), "
                            "nvmr_crashtest: %d (%d)"
                            % (tag, counts[0], counts[1], tool[0], tool[1]))


def run_traced(workload, seed, seconds, work, expected):
    scratch = os.path.join(work, "trace")
    cmd = [TRACER, "trace", "--workload", workload, "--seed", str(seed),
           "--spans", os.path.join(work, "spans.json"),
           "--scratch", scratch]
    if workload == "serve":
        path = os.path.join(work, "jobs.tsv")
        with open(path, "w") as f:
            for off, name, text, _, _ in serve_jobs(seed, seconds):
                f.write("%.3f\t%s\t%s\n" % (off * 1e3, name, text))
        cmd += ["--jobs-file", path]
    c = run_child(cmd, os.path.join(work, "trace.out"))
    if c.rc != 0:
        raise BenchError("tracer failed: " + c.output[-400:])
    res = json.loads(c.output.strip().splitlines()[-1])
    if not res["ok"]:
        raise GateError("traced replay failed (%d of %d outcomes)"
                        % (res["failed"], res["attempted"]))
    gate_replay(workload, seed, seconds, work, scratch, res, expected)
    return res["metrics"], res["attempted"], res["failed"]


RUNNERS = {"sweep": run_sweep, "crashtest": run_crashtest,
           "serve": run_serve}


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(workload, seed, seconds, trace, work):
    """One benchmark run; returns the result object."""
    expected = load_expected()
    os.makedirs(work, exist_ok=True)
    if trace:
        values, attempted, failed = run_traced(workload, seed, seconds,
                                               work, expected)
    else:
        values, attempted, failed = RUNNERS[workload](seed, seconds, work,
                                                      expected)
    listed = bench_spec()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in values:
            raise BenchError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def fresh_work_dir(tag):
    path = os.path.join(BUILD, "runs", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------
# Self-test and expected-output recording
# ----------------------------------------------------------------------

def check_spans(path):
    """The span tree: every parent exists, no span ends before it
    starts, children lie inside their parent, no negative self time."""
    with open(path) as f:
        spans = json.load(f)
    by_id = {s["id"]: s for s in spans}
    kids = {}
    errors = []
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            errors.append("span %d ends before it starts" % s["id"])
        if s["parent"]:
            p = by_id.get(s["parent"])
            if p is None:
                errors.append("span %d has orphan parent %d"
                              % (s["id"], s["parent"]))
                continue
            if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
                errors.append("span %d lies outside its parent" % s["id"])
            kids.setdefault(p["id"], []).append(s)
    for pid, ks in kids.items():
        iv = sorted((k["start_ns"], k["end_ns"]) for k in ks)
        covered, end = 0, None
        for a, b in iv:
            a = a if end is None else max(a, end)
            if b > a:
                covered += b - a
                end = b
        p = by_id[pid]
        if p["end_ns"] - p["start_ns"] - covered < 0:
            errors.append("span %d has negative self time" % pid)
    if not spans:
        errors.append("no spans recorded")
    return errors


def self_test():
    """Quick checks of the benchmark itself (about a minute)."""
    build()
    spec = bench_spec()
    expected = load_expected()
    errors = []
    for workload in RUNNERS:
        for trace in (0, 1):
            work = fresh_work_dir("selftest-%s-%d" % (workload, trace))
            res = measure(workload, 1, 2, trace, work)
            if not res["correct"]:
                errors.append("%s trace=%d: not correct" % (workload, trace))
            listed = spec["per_layer" if trace else "end_to_end"]
            for m in listed:
                got = res["metrics"].get(m["name"])
                if not got or got.get("unit") != m["unit"]:
                    errors.append("%s trace=%d: %s missing or without unit"
                                  % (workload, trace, m["name"]))
            if trace:
                errors += ["%s: %s" % (workload, e)
                           for e in check_spans(os.path.join(work,
                                                             "spans.json"))]
            if not trace and workload == "sweep":
                # The gate must trip on an altered copy of the output.
                src = os.path.join(work, "rep-0.out")
                altered = os.path.join(work, "altered.csv")
                with open(src, "rb") as f:
                    data = bytearray(f.read())
                data[data.rindex(b",1,1")] ^= 0x01
                with open(altered, "wb") as f:
                    f.write(bytes(data))
                try:
                    gate_digest("altered sweep CSV", altered,
                                expected["sweep_csv_sha256"])
                    errors.append("gate accepted an altered sweep CSV")
                except GateError:
                    pass
            shutil.rmtree(work)
            log("self-test: %s trace=%d checked" % (workload, trace))
    if errors:
        for e in errors:
            log("self-test FAILED: " + e)
        return 1
    log("self-test passed")
    return 0


def record():
    """Rewrite perfbench/expected.json from the current code."""
    build()
    work = fresh_work_dir("record")
    rec = {}
    c = run_child([os.path.join(TOOLS, "nvmr_sweep")] + SWEEP_ARGS,
                  os.path.join(work, "sweep.csv"))
    if c.rc != 0 or sweep_failures(c.output):
        raise BenchError("sweep did not validate")
    rec["sweep_csv_sha256"] = sha256_file(c.out_path)
    rec["fidelity"] = fidelity(c.output)
    c = run_child([os.path.join(TOOLS, "nvmr_crashtest")] + CRASH_ARGS
                  + ["--seed", "1"], os.path.join(work, "crash.out"))
    m = CRASH_LINE.search(c.output)
    if c.rc != 0 or not m:
        raise BenchError("crashtest did not pass")
    rec["crashtest_points"] = int(m.group(1))
    spool = os.path.join(work, "spool")
    os.makedirs(spool)
    fuzz = {"schema": "nvmr-job-v1", "type": "fuzz", "oracle": True,
            "iterations": SERVE_FUZZ_ITERATIONS, "base_seed": 1}
    with open(os.path.join(spool, "fuzz.job"), "w") as f:
        json.dump(fuzz, f)
    for w in WORKLOADS:
        with open(os.path.join(spool, "s-%s.job" % w), "w") as f:
            json.dump({"schema": "nvmr-job-v1", "type": "sweep",
                       "workloads": [w], "traces": SERVE_SWEEP_TRACES}, f)
    c = run_child([os.path.join(TOOLS, "nvmr_serve"), "--spool", spool,
                   "--once", "--jobs", JOBS], os.path.join(work, "serve.out"))
    if c.rc != 0:
        raise BenchError("serve drain failed")
    out = os.path.join(spool, ".nvmr_serve", "out")
    rec["serve_fuzz_out_sha256"] = sha256_file(os.path.join(out, "fuzz.out"))
    rec["serve_sweep_csv_sha256"] = {
        w: sha256_file(os.path.join(out, "s-%s.csv" % w))
        for w in WORKLOADS}
    with open(EXPECTED, "w") as f:
        json.dump(rec, f, indent=2, sort_keys=True)
        f.write("\n")
    shutil.rmtree(work)
    log("wrote " + EXPECTED)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.record:
            return record()
        if not args.workload:
            ap.error("--workload is required")
        build()
        work = fresh_work_dir(args.workload)
        res = measure(args.workload, args.seed, args.seconds, args.trace,
                      work)
        shutil.rmtree(work)
    except GateError as e:
        log("correctness gate: %s" % e)
        return 1
    except BenchError as e:
        log("benchmark error: %s" % e)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
