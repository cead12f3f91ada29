#!/usr/bin/env python3
"""Repository benchmark for qplacer: end-to-end and per-module timings.

Builds qplacer_cli and qplacer_server from source (CMake, Release, tests
off) into the directory named by CARGO_TARGET_DIR (default
.bench_build), runs one workload for a fixed measurement window, checks
every output, and prints one JSON result object as the last line of
stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads.

  aspenm_qplacer     One-shot CLI placements of Rigetti Aspen-M (80
                     qubits) in Qplacer mode at the default iteration
                     budget, one process per job, closed loop with one
                     client. A paper device in the paper's own mode:
                     the frequency force dominates global placement.
                     Every job must converge (~380 iterations, ~2.5 s).
                     Not IBM Eagle: a converged Eagle job takes ~7 s,
                     too few repetitions per run for a steady best
                     latency (IQR/median 0.21 over five runs, against
                     0.05 here).
  grid32x32_classic  One-shot CLI placements of a 32x32 grid (1024
                     qubits, ~24k cells) in Classic mode, default
                     budget, closed loop with one client. No frequency
                     force, so the density/DCT solve, wirelength,
                     Nesterov steps and legalization at scale dominate.
                     Every job must converge.
  daemon_edit        qplacer_server over stdin/stdout with the traffic
                     mix of bench/serve_throughput.cpp: 2 workers,
                     placer.maxIters=300, a cold base, then a burst of
                     8 incremental re-places submitted back to back,
                     each dirtying one qubit (0..7) of that base. The
                     burst queues on the workers, so each edit's
                     latency includes its queue wait. The device is
                     IBM Falcon (27 qubits), not serve_throughput's
                     grid16x16: there one warm re-solve takes ~10 s
                     (the frequency force at 256 qubits), so a run
                     would not finish a single pass.

A run works in passes until --seconds is up, and always finishes the
pass it is in. A CLI pass times a block of set-up calls, then places
every seed of the workload's fixed pool once, in an order drawn from
--seed; a daemon pass starts a fresh daemon, places the base and sends
the burst, its edits in an order drawn from --seed. Every pass repeats
the same inputs, so identical jobs must give identical layouts
(checked), and each input's latency is the fastest of its passes: on a
shared host, contention only ever adds time to a CPU-bound job, and the
slowdown drifts by 15-35% over minutes. job_latency_ms is the median
over inputs of that best latency; per-module metrics are medians over
all jobs.

setup_s is the median over passes of one set-up time per pass. For the
CLI workloads that is the fastest of a block of minimal CLI calls
(grid3x3: process start, device construction and a negligible
placement), filtered like job latency; for daemon_edit, the daemon's
spawn, greeting and cold base placement.

Every job is placed single-threaded (--threads 1 / placer.threads=1):
the layout is then bitwise-reproducible for a seed, and neither layout
nor timing depends on the host's core count.

--trace 0 reports the end-to-end metrics; --trace 1 the per-module
metrics, read from the flow report each job returns (stage and
sub-stage wall clocks), and writes the spans of the run as a Chrome
trace-event file under .bench_out/.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# CLI set-up: the fixed cost of one call, timed on a device small
# enough that the placement itself is negligible. A call lasts a few
# tens of milliseconds, where scheduler noise is a large share, so each
# pass keeps the fastest of a block of calls.
SETUP_TOPOLOGY = "grid3x3"
CLI_SETUP_BLOCK = 5

JOB_TIMEOUT_S = 150.0
PIPELINE_STAGES = ("assign", "build", "place", "legalize", "metrics")
LEGAL_STAGES = ("spiral", "flow_refine", "tetris", "integration")

# "seeds" are the placement seeds of a CLI pass, or the base seed of
# the daemon. They are fixed rather than drawn from --seed: the work of
# one placement varies by up to ~25% between seeds (iteration count,
# frequency-force pair count), so fresh seeds every run would make the
# run-to-run spread mostly a matter of which seeds were drawn. For the
# same reason the daemon's edits are the fixed set of
# bench/serve_throughput.cpp, and --seed only orders them.
WORKLOADS = {
    "aspenm_qplacer": {"kind": "cli", "topology": "Aspen-M",
                       "mode": "qplacer", "qubits": 80, "seeds": (1,)},
    "grid32x32_classic": {"kind": "cli", "topology": "grid32x32",
                          "mode": "classic", "qubits": 1024,
                          "seeds": (1,)},
    "daemon_edit": {"kind": "daemon", "topology": "Falcon",
                    "mode": "qplacer", "qubits": 27, "seeds": (1,),
                    "set": {"placer.maxIters": 300}, "workers": 2,
                    "edits": 8},
}

END_TO_END = {
    "job_latency_ms": "ms",
    "hpwl_um": "um",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "assign_ms": "ms",
    "build_ms": "ms",
    "warm_start_ms": "ms",
    "place_ms": "ms",
    "legalize_ms": "ms",
    "metrics_ms": "ms",
    "place_iters": "count",
    "place_us_per_iter": "us",
    "legal_spiral_ms": "ms",
    "legal_flow_refine_ms": "ms",
    "legal_tetris_ms": "ms",
    "legal_integration_ms": "ms",
    "client_overhead_ms": "ms",
    "hotspot_pairs": "count",
}


class CheckFailed(Exception):
    """A program output that violates the benchmark's checks."""


# What a wrong, malformed or missing output raises: missing report keys,
# wrong types, invalid JSON, a broken pipe to a daemon that died.
BAD_OUTPUT = (CheckFailed, KeyError, IndexError, TypeError, ValueError,
              OSError)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure (once) and build the CLI and the daemon; returns paths."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "tools/qplacer_cli.cpp", "tools/qplacer_server.cpp"):
        if not (ROOT / needed).is_file():
            log(f"no qplacer source tree here ({needed} missing)")
            sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    out = build_dir()
    # Keep compiler scratch files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT), "-B", str(out), *generator,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DQPLACER_BUILD_TESTS=OFF",
                      "-DQPLACER_BUILD_BENCH=OFF",
                      "-DQPLACER_BUILD_EXAMPLES=OFF",
                      "-DQPLACER_BUILD_TOOLS=ON"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "qplacer_cli",
                  "qplacer_server", "-j", jobs])
    for argv in steps:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=850)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log(f"build step failed: {' '.join(argv)}")
            sys.exit(2)
    cli = out / "tools" / "qplacer_cli"
    server = out / "tools" / "qplacer_server"
    for binary in (cli, server):
        if not os.access(binary, os.X_OK):
            log(f"build produced no {binary}")
            sys.exit(2)
    return cli, server


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


def wait_with_rusage(proc, timeout_s):
    """Wait for @p proc; returns (exit code, peak RSS in MB)."""
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(cli, argv, tag):
    """One CLI process; returns (wall seconds, stdout, peak RSS MB)."""
    out_path = OUT_DIR / f"{tag}.out"
    err_path = OUT_DIR / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(cli), *argv], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        code, rss_mb = wait_with_rusage(proc, JOB_TIMEOUT_S)
        wall = time.perf_counter() - start
    stdout = out_path.read_text()
    stderr = err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    check(code == 0, f"qplacer_cli {' '.join(argv)} exited {code}: "
                     f"{stderr.strip()[-500:]}")
    return wall, stdout, rss_mb


class Daemon:
    """qplacer_server on pipes; responses are timestamped on arrival."""

    def __init__(self, server, workers):
        self.proc = subprocess.Popen(
            [str(server), "--workers", str(workers), "--quiet"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, bufsize=1)
        self.lines = []
        self.cv = threading.Condition()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            arrived = time.perf_counter()
            with self.cv:
                self.lines.append((arrived, line))
                self.cv.notify()
        with self.cv:
            self.lines.append((time.perf_counter(), None))
            self.cv.notify()

    def receive(self, timeout_s=JOB_TIMEOUT_S):
        """The next response and the time it arrived."""
        deadline = time.monotonic() + timeout_s
        with self.cv:
            while not self.lines:
                left = deadline - time.monotonic()
                check(left > 0, "qplacer_server did not answer in time")
                self.cv.wait(left)
            arrived, line = self.lines.pop(0)
        check(line is not None, "qplacer_server closed its output")
        return arrived, json.loads(line)

    def send(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def submit(self, request):
        """One submit alone; returns its result."""
        self.send(request)
        _, ack = self.receive()
        check(ack.get("type") == "ack" and ack.get("id") == request["id"],
              f"submit {request['id']} not acked: {ack}")
        _, result = self.receive()
        check(result.get("type") == "result"
              and result.get("id") == request["id"],
              f"submit {request['id']}: expected a result, got {result}")
        return result

    def close(self):
        """Shut down cleanly; returns the daemon's peak RSS in MB."""
        try:
            self.send({"type": "shutdown"})
            _, bye = self.receive()
            check(bye.get("type") == "bye", f"expected bye, got {bye}")
            self.proc.stdin.close()
        finally:
            code, rss_mb = wait_with_rusage(self.proc, 30.0)
            self.reader.join(timeout=5.0)
        check(code == 0, f"qplacer_server exited {code}")
        return rss_mb

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            wait_with_rusage(self.proc, 30.0)
        self.reader.join(timeout=5.0)


# --------------------------------------------------------------------------
# Reports and measurements
# --------------------------------------------------------------------------


def finite_positive(value):
    return isinstance(value, (int, float)) and math.isfinite(value) \
        and value > 0


def check_job(job, spec, what):
    """Checks every flow report must pass; returns the stage seconds."""
    status = job.get("status", {})
    check(status.get("code") == "ok", f"{what}: status {status}")
    check(job["legal"]["legal"] is True, f"{what}: layout not legal")
    check(finite_positive(job["place"]["hpwl_um"]),
          f"{what}: bad HPWL {job['place']['hpwl_um']}")
    check(finite_positive(job["seconds"]), f"{what}: bad seconds")
    stages = {}
    for entry in job["stages"]:
        stages[entry["stage"]] = stages.get(entry["stage"], 0.0) + \
            entry["seconds"]
    for stage in PIPELINE_STAGES:
        check(stage in stages, f"{what}: stage {stage} missing")
    check(job["cells"] > spec["qubits"], f"{what}: {job['cells']} cells")
    return stages


def layer_sample(job, stages, latency_s):
    """The per-module numbers of one job."""
    iters = job["place"]["iterations"]
    legal = job["legal"]["stages"]
    sample = {f"{s}_ms": stages[s] * 1e3 for s in PIPELINE_STAGES}
    # Incremental re-places only (0 on cold jobs): maps the prior
    # layout onto the fresh netlist and computes the dirty set.
    sample["warm_start_ms"] = stages.get("warm_start", 0.0) * 1e3
    sample.update({f"legal_{s}_ms": legal[s] * 1e3 for s in LEGAL_STAGES})
    sample["place_iters"] = iters
    sample["place_us_per_iter"] = \
        stages["place"] * 1e6 / iters if iters > 0 else 0.0
    # Latency outside the flow: process start and report for the CLI;
    # protocol, pipes and queue wait for the daemon.
    sample["client_overhead_ms"] = (latency_s - job["seconds"]) * 1e3
    sample["hotspot_pairs"] = job["hotspots"]["pairs"]
    return sample


class Spans:
    """Chrome trace events of one run, kept in memory until the end."""

    def __init__(self):
        self.events = []
        self.origin = time.perf_counter()

    def add(self, name, start, seconds, args=None):
        self.events.append({
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - self.origin) * 1e6, "dur": seconds * 1e6,
            "args": args or {}})

    def job(self, name, start, latency_s, job):
        """A job span with its flow and stage spans nested inside.

        The report gives stage durations, not offsets: stages are laid
        out back to back so that the flow ends when the job does, in
        execution order; a daemon job's queue wait shows before them."""
        self.add(name, start, latency_s, {"seed": job.get("seed")})
        at = start + latency_s - job["seconds"]
        self.add("flow", at, job["seconds"])
        for entry in job["stages"]:
            self.add(entry["stage"], at, entry["seconds"])
            if entry["stage"] == "legalize":
                sub = at
                for s in LEGAL_STAGES:
                    seconds = job["legal"]["stages"][s]
                    self.add(f"legalize.{s}", sub, seconds)
                    sub += seconds
            at += entry["seconds"]

    def write(self, path):
        path.write_text(json.dumps({"traceEvents": self.events}))


class Run:
    """Everything one benchmark run measured."""

    def __init__(self):
        self.setup = []    # seconds, one entry per pass
        self.best = {}     # input -> fastest latency over passes, seconds
        self.hpwl = {}     # input -> HPWL, identical in every pass
        self.layers = []   # per-module numbers, one entry per job
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.spans = Spans()

    def record(self, key, start, latency_s, job, stages, name):
        hpwl = job["place"]["hpwl_um"]
        check(self.hpwl.setdefault(key, hpwl) == hpwl,
              f"{name} {key}: HPWL differs from an identical earlier job")
        self.best[key] = min(latency_s, self.best.get(key, math.inf))
        self.layers.append(layer_sample(job, stages, latency_s))
        self.spans.job(name, start, latency_s, job)

    def metrics(self, trace):
        if trace:
            return {name: statistics.median(s[name] for s in self.layers)
                    for name in PER_LAYER}
        return {
            "job_latency_ms": statistics.median(self.best.values()) * 1e3,
            "hpwl_um": statistics.median(self.hpwl.values()),
            "peak_rss_mb": self.rss_mb,
            "setup_s": statistics.median(self.setup),
        }


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def cli_setup(cli, tag, seen):
    """Time one minimal CLI call; its layout must never change."""
    layout = OUT_DIR / f"{tag}-setup.layout"
    wall, stdout, _ = run_cli(
        cli, ["--topology", SETUP_TOPOLOGY, "--seed", "1", "--threads", "1",
              "--report", "json", "--quiet", "--layout", str(layout)],
        f"{tag}-setup")
    check(json.loads(stdout)["jobs"][0]["status"]["code"] == "ok",
          "set-up placement failed")
    text = layout.read_text()
    layout.unlink()
    check(seen.setdefault("setup layout", text) == text,
          "the same seed gave a different layout")
    return wall


def cli_job(cli, spec, place_seed, run, tag, seen):
    """One placement of the workload's device; returns peak RSS MB."""
    job_start = time.perf_counter()
    wall, stdout, rss_mb = run_cli(
        cli, ["--topology", spec["topology"], "--mode", spec["mode"],
              "--seed", str(place_seed), "--threads", "1", "--report",
              "json", "--quiet"], f"{tag}-job")
    report = json.loads(stdout)
    check(report.get("schema") == "qplacer.flow_report/1",
          "unexpected report schema")
    check(report["qubits"] == spec["qubits"],
          f"{report['qubits']} qubits, expected {spec['qubits']}")
    job = report["jobs"][0]
    check(job["seed"] == place_seed, "report names another seed")
    stages = check_job(job, spec, f"seed {place_seed}")
    check(job["place"]["converged"] is True,
          f"seed {place_seed}: placement did not converge in "
          f"{job['place']['iterations']} iterations")
    check(seen.setdefault("cells", job["cells"]) == job["cells"],
          "cell count changed between jobs")
    fidelity = job.get("fidelity") or {}
    check(0.0 <= fidelity.get("mean", -1.0) <= 1.0, f"fidelity {fidelity}")
    run.record(place_seed, job_start, wall, job, stages, "job")
    return rss_mb


def run_cli_workload(cli, spec, seed, seconds, run, tag):
    order = list(spec["seeds"])
    random.Random(seed).shuffle(order)
    seen = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        run.setup.append(min(cli_setup(cli, tag, seen)
                             for _ in range(CLI_SETUP_BLOCK)))
        for place_seed in order:
            run.attempted += 1
            try:
                rss_mb = cli_job(cli, spec, place_seed, run, tag, seen)
            except BAD_OUTPUT as error:
                run.failed += 1
                log(f"job failed: {error}")
                continue
            run.rss_mb = max(run.rss_mb, rss_mb)


def check_edit(message, spec, cells, layouts, qubit):
    """Checks an edit's result must pass; returns (job, stages)."""
    job_id = message["id"]
    check(message.get("type") == "result", f"{job_id}: got {message}")
    job = message["report"]
    stages = check_job(job, spec, job_id)
    check("warm_start" in stages, f"{job_id}: no warm_start stage")
    inc = job.get("incremental") or {}
    check(inc.get("reused_prior") is False and inc.get("dirty", 0) > 0,
          f"{job_id}: not an incremental re-place: {inc}")
    layout = message.get("layout", [])
    check(job["cells"] == cells and len(layout) == cells,
          f"{job_id}: layout incomplete")
    check(layouts.setdefault(qubit, layout) == layout,
          f"{job_id}: layout differs from an identical edit")
    return job, stages


def edit_burst(daemon, request, order, spec, cells, layouts, run):
    """Send every edit back to back, then collect the results in
    whatever order the workers finish them."""
    sent = {}
    for qubit in order:
        job_id = f"edit{qubit}"
        sent[job_id] = (qubit, time.perf_counter())
        run.attempted += 1
        daemon.send(dict(request, id=job_id, base="base",
                         dirty_qubits=[qubit]))
    acked = set()
    pending = set(sent)
    while pending:
        arrived, message = daemon.receive()
        job_id = message.get("id")
        check(job_id in pending, f"response for no pending job: {message}")
        if message.get("type") == "ack":
            check(job_id not in acked, f"{job_id} acked twice")
            acked.add(job_id)
            continue
        check(job_id in acked, f"{job_id} answered before its ack")
        pending.discard(job_id)
        qubit, start = sent[job_id]
        try:
            job, stages = check_edit(message, spec, cells, layouts, qubit)
            run.record(qubit, start, arrived - start, job, stages, "edit")
        except BAD_OUTPUT as error:
            run.failed += 1
            log(f"edit failed: {error}")


def daemon_pass(server, spec, order, layouts, run):
    """One daemon lifetime: start, place the base, send the burst."""
    setup_start = time.perf_counter()
    daemon = Daemon(server, spec["workers"])
    try:
        _, hello = daemon.receive()
        check(hello.get("type") == "hello"
              and hello.get("schema") == "qplacer.serve/1"
              and hello.get("workers") == spec["workers"],
              f"unexpected greeting {hello}")
        request = {"type": "submit", "topology": spec["topology"],
                   "mode": spec["mode"], "seed": spec["seeds"][0],
                   "set": dict(spec["set"], **{"placer.threads": 1}),
                   "layout": True}
        base = daemon.submit(dict(request, id="base"))
        run.setup.append(time.perf_counter() - setup_start)
        check_job(base["report"], spec, "cold base")
        cells = base["report"]["cells"]
        check(len(base["layout"]) == cells, "base layout incomplete")
        check(layouts.setdefault("base", base["layout"]) == base["layout"],
              "cold base layout differs from an earlier daemon's")
        edit_burst(daemon, request, order, spec, cells, layouts, run)
        # Prior-store contract: an empty delta returns the layout it
        # names bit for bit, without re-placing.
        replay = daemon.submit(dict(request, id="replay", base="base"))
        check(replay["report"]["incremental"]["reused_prior"] is True,
              "empty delta was re-placed")
        check(replay.get("layout") == base["layout"],
              "empty-delta replay differs from the base layout")
        run.rss_mb = max(run.rss_mb, daemon.close())
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()


def run_daemon_workload(server, spec, seed, seconds, run):
    order = [j % spec["qubits"] for j in range(spec["edits"])]
    random.Random(seed).shuffle(order)
    layouts = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        daemon_pass(server, spec, order, layouts, run)


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli, server = build()
    OUT_DIR.mkdir(exist_ok=True)
    spec = WORKLOADS[args.workload]
    run = Run()
    try:
        if spec["kind"] == "cli":
            tag = f"{args.workload}-{args.seed}-{os.getpid()}"
            run_cli_workload(cli, spec, args.seed, args.seconds, run, tag)
        else:
            run_daemon_workload(server, spec, args.seed, args.seconds, run)
    except BAD_OUTPUT as error:
        log(f"check failed: {error}")
        run.attempted += 1
        run.failed += 1
    if not run.best or not run.setup:
        print(json.dumps({"correct": False,
                          "attempted": max(run.attempted, 1),
                          "failed": max(run.failed, 1), "metrics": {}}))
        return 0
    if args.trace:
        run.spans.write(
            OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json")
    units = PER_LAYER if args.trace else END_TO_END
    values = run.metrics(args.trace)
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
