#!/usr/bin/env python3
"""perfbench — one command for congen's end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload wc-light|scripts|serve --seed N \
        --seconds S [--trace 0|1]

Run from the root of a congen checkout. It builds perfbench/ (the congen
libraries, congen-serve and the driver, Release) under .bench_build/, then
starts driver processes:

  --trace 0  SEGMENTS driver processes of S/SEGMENTS seconds each. Each
             starts the system cold (its set-up time ends when the first
             op's result is checked), then times warm ops. The end-to-end
             metrics are medians over the segments, so one process's
             scheduling luck or one daemon start cannot move them.
             The medians are over the segments that lost the least
             of their CPU time to host steal; wc-light's op times are
             instead taken net of host steal (see measure()).
  --trace 1  TRACE_PAIRS alternating untraced and traced processes of the
             workload, S/2 seconds in all for each side (their throughput
             ratio is obs.overhead_pct), plus a short traced run of each
             other workload, so every per-layer metric is printed.

Every response and result is checked against an oracle computed in the
driver; any failure makes the exit code non-zero. Each run appends a
record (seed, environment, every process's raw output) under
.bench_build/perfbench/runs/. The last line of standard output is the JSON
result; the lines before it are the same numbers for people. NOTES.md says
what each workload and metric is for.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(BUILD, "runs")
DRIVER = os.path.join(BUILD, "perfbench-driver")
SERVE_BIN = os.path.join(BUILD, "congen", "tools", "congen-serve")

WORKLOADS = ("wc-light", "scripts", "serve")
SEGMENTS = 12
CALM = SEGMENTS * 2 // 3
STEAL_LIMIT_PCT = 5.0
TRACE_PAIRS = 3
SWEEP_SECONDS = 2.0
PROCESS_TIMEOUT = 150

END_TO_END = {
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

# Per-layer metric -> (unit, workload whose traced run measures it).
PER_LAYER = {
    "frontend.tokenize_us": ("us", "scripts"),
    "frontend.parse_us": ("us", "scripts"),
    "transform.normalize_us": ("us", "scripts"),
    "interp.load_us": ("us", "scripts"),
    "interp.queens_ms": ("ms", "scripts"),
    "interp.wordfreq_ms": ("ms", "scripts"),
    "interp.wordcount_ms": ("ms", "scripts"),
    "interp.refine_ms": ("ms", "scripts"),
    "interp.other_backend_op_ms": ("ms", "scripts"),
    "interp.evals": ("count/op", "scripts"),
    "vm.dispatches": ("count/op", "scripts"),
    "kernel.frames.pool_ratio": ("ratio", "scripts"),
    "kernel.arena.hit_ratio": ("ratio", "scripts"),
    "kernel.wc_overhead_ms": ("ms", "wc-light"),
    "bignum.wc_native_seq_ms": ("ms", "wc-light"),
    "par.seq_ms": ("ms", "wc-light"),
    "par.pipeline_ms": ("ms", "wc-light"),
    "par.dataparallel_ms": ("ms", "wc-light"),
    "par.mapreduce_ms": ("ms", "wc-light"),
    "par.mapreduce_speedup": ("ratio", "wc-light"),
    "concur.ring.consumer_parks_per_kelem": ("count/kelem", "wc-light"),
    "concur.ring.producer_parks_per_kelem": ("count/kelem", "wc-light"),
    "concur.queue.elems_per_take_batch": ("count", "wc-light"),
    "concur.queue.blocked_take_us_p50": ("us", "wc-light"),
    "concur.pool.threads_created_per_op": ("count/op", "wc-light"),
    "concur.pool.queue_latency_us_p50": ("us", "wc-light"),
    "concur.pool.steal_ratio": ("ratio", "wc-light"),
    "interp.eval_compile_us": ("us", "serve"),
    "concur.pipe.created_per_req": ("count/req", "serve"),
    "serve.frame_codec_us": ("us", "serve"),
    "serve.session_handle_us_p50": ("us", "serve"),
    "serve.encode_results_us": ("us", "serve"),
    "serve.server_latency_us_p50": ("us", "serve"),
    "serve.transport_share": ("ratio", "serve"),
    "serve.bytes_written_per_req": ("B/req", "serve"),
    "serve.op_ms_p99": ("ms", "serve"),
    "serve.op_ms_p99_samples": ("count", "serve"),
    "serve.unloaded_rtt_ms_p50": ("ms", "serve"),
    "obs.overhead_pct": ("%", None),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the driver and daemon up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no congen sources next to perfbench/ (src/CMakeLists.txt missing)")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench-driver", "congen-serve"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))


def kill_group(proc):
    """SIGKILL the driver's process group, reap the driver, and wait (up
    to 5 s) until the rest of the group (a daemon it started) is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for _ in range(100):
            os.killpg(proc.pid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


def driver(workload, seed, seconds, trace=False, trace_out=None):
    """One driver process; returns its parsed result object. A process
    that ran but found a wrong result returns normally with ok false."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--root", ROOT, "--serve-bin", SERVE_BIN]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = {k: v for k, v in os.environ.items() if k != "CONGEN_BACKEND"}
    # Its own process group, so a driver that hangs or dies cannot leave
    # the congen-serve daemon it started behind.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        stdout = None
    if stdout is None or proc.returncode < 0:
        kill_group(proc)
    if stdout is None:
        raise BenchError(f"{workload} process timed out")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(stderr[-2000:])
        raise BenchError(f"{workload} process printed no result (exit {proc.returncode})")
    if proc.returncode != 0 or not result.get("ok"):
        result["ok"] = False
        why = result.get("error", f"exit {proc.returncode}")
        log(f"perfbench: {workload} seed {seed}: {why}")
    return result


def counts(procs):
    """(attempted, failed) over driver processes; a process that failed
    before counting its ops counts as one failed op."""
    attempted = failed = 0
    for p in procs:
        a, f = int(p.get("attempted", 0)), int(p.get("failed", 0))
        if not p["ok"] and f == 0:
            a, f = a + 1, 1
        attempted, failed = attempted + a, failed + f
    return attempted, failed


def median_of(procs, key):
    values = [p[key] for p in procs if isinstance(p.get(key), (int, float))]
    return statistics.median(values) if values else None


def net_ops(segs):
    """The run's warm op times (ms) net of host steal: each op's wall time
    x (1 - the steal share measured over that op). Only drivers that run
    one op at a time report per-op steal (wc-light); [] for the others.
    NOTES.md says why this holds for wc-light and what it leaves."""
    return [ms * (1.0 - st / 100.0) for s in segs
            for ms, st in zip(s.get("op_ms", []), s.get("op_steal_pct", []))]


def measure(workload, seed, seconds):
    """End-to-end metrics over SEGMENTS fresh processes. Timing medians
    are over the CALM segments that lost the smallest share of their
    runnable time to host steal (host_steal_pct), except where the driver
    reports each op's steal share (wc-light): there throughput_per_s and
    op_ms_p50 come from every warm op of the run, net of steal (net_ops).
    Every segment counts for correctness and peak_rss_mb.
    A run whose used segments exceed STEAL_LIMIT_PCT is marked
    rerun_advised: the host, not the program, may have set its numbers."""
    segs = [driver(workload, seed, seconds / SEGMENTS) for _ in range(SEGMENTS)]
    attempted, failed = counts(segs)
    used = sorted(segs, key=lambda s: s.get("host_steal_pct", 0.0))[:CALM]
    metrics = {k: median_of(used, k) for k in ("throughput_per_s", "op_ms_p50", "setup_s")}
    extra = {"op_samples": sum(int(s.get("op_samples", 0)) for s in used)}
    net = net_ops(segs)
    if net:
        wall = [ms for s in segs for ms in s.get("op_ms", [])]
        work = median_of(segs, "work_per_op")
        metrics["throughput_per_s"] = work * len(net) / (sum(net) / 1e3)
        metrics["op_ms_p50"] = statistics.median(net)
        extra = {"op_samples": len(net),
                 "throughput_per_s_wall": work * len(wall) / (sum(wall) / 1e3),
                 "op_ms_p50_wall": statistics.median(wall)}
    # Memory is not a time: its median takes every segment.
    metrics["peak_rss_mb"] = median_of(segs, "peak_rss_mb")
    metrics["ok_ratio"] = (attempted - failed) / attempted
    steal_used = max(s.get("host_steal_pct", 0.0) for s in used)
    extra.update({
        "fail_ratio": failed / attempted,
        "segments_used": len(used),
        "host_steal_pct_used_max": steal_used,
        "host_steal_pct_max": max(s.get("host_steal_pct", 0.0) for s in segs),
        "rerun_advised": steal_used > STEAL_LIMIT_PCT,
    })
    return metrics, segs, extra, {"segments": segs}


def traced(workload, seed, seconds, stamp):
    """Per-layer metrics: TRACE_PAIRS alternating untraced/traced processes
    of the workload (their throughput ratio is obs.overhead_pct), plus a
    short traced run of each other workload for its layers."""
    plain, home = [], []
    share = seconds / (2 * TRACE_PAIRS)
    for i in range(TRACE_PAIRS):
        plain.append(driver(workload, seed, share))
        spans = os.path.join(RUNS, f"spans-{workload}-seed{seed}-{stamp}-{i}.json")
        home.append(driver(workload, seed, share, trace=True, trace_out=spans))
    owners = {workload: home}
    for other in WORKLOADS:
        if other != workload:
            owners[other] = [driver(other, seed, SWEEP_SECONDS, trace=True)]
    metrics = {name: median_of(owners[owner], name)
               for name, (_unit, owner) in PER_LAYER.items() if owner is not None}
    traced_tp = median_of(home, "throughput_per_s")
    plain_tp = median_of(plain, "throughput_per_s")
    metrics["obs.overhead_pct"] = (100.0 * (1.0 - traced_tp / plain_tp)
                                   if traced_tp and plain_tp else None)
    procs = plain + [p for group in owners.values() for p in group]
    return metrics, procs, {}, {"untraced": plain, "traced": owners}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
        os.makedirs(RUNS, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
        if args.trace:
            metrics, procs, extra, raw = traced(args.workload, args.seed, args.seconds, stamp)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            metrics, procs, extra, raw = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    attempted, failed = counts(procs)
    first = procs[0]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {k: first.get(k) for k in ("nproc", "compiler", "build_type", "cpu_model")},
        "metrics": metrics, "attempted": attempted, "failed": failed, **extra, "raw": raw,
    }
    path = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    missing = sorted(k for k, v in metrics.items() if not isinstance(v, (int, float)))
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {record['environment']['nproc']}  {record['environment']['cpu_model']}")
    for name, value in metrics.items():
        print(f"{name:40s} {value!s:>24} {units[name]}")
    print(f"{'attempted':40s} {attempted:>24} ops")
    print(f"{'failed':40s} {failed:>24} ops")
    for name, value in extra.items():
        print(f"{name:40s} {value!s:>24}")
    print(f"# record: {os.path.relpath(path, ROOT)}")
    correct = failed == 0 and not missing and all(p["ok"] for p in procs)
    if missing:
        log("perfbench: absent metrics: " + ", ".join(missing))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
