#!/usr/bin/env python3
"""The diversim benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a diversim checkout. It builds `diversim` and the
benchmark's worker (`perfbench/harness`) in release mode, runs one
workload, checks the program's outputs, prints every metric by name and
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (see README.md beside this file for why each exists):

  reproduce_full  three warm-up reproductions at the fast profile
                  (`diversim run --all --fast --threads 2`) as set-up, then
                  one fresh `diversim run --all --full --threads 2` process
                  per round;
  sweep_resume    three cold `diversim sweep --all --fast` passes as set-up,
                  then rounds of 250 warm resume passes in a fresh worker;
  serve_mixed     three warm-up rounds as set-up, then rounds of a fresh
                  `diversim serve --tcp`, primed, then driven closed-loop
                  over 2 connections with 600 requests each.

A run repeats its round until `--seconds` have passed (at least three
rounds) and reports medians over rounds and over its set-ups. Every timed
interval leaves out the share of time the host stole (from /proc/stat).
Warm passes and serve rounds are also scaled to one reference host speed
(PROBE_REF_S) by a probe of fixed work timed around them (around every 25
passes, around each serve round), and the cold sweeps by the first warm
round's probes; `diversim run` processes are not, because the probe does
not track them. The times as
measured are printed beside the adjusted ones and kept in the run record. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json; `--trace 1` runs the traced run
instead, which covers every workload's layers and reports the per-layer
metrics as timed.
Every run also writes a record with host diagnostics (steal ticks, load
average) under `.perfbench_work/records/`.
"""

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
# `diversim --threads`: no more than the 2-vCPU host the bounds were set
# on has. The worker's own threads and connections match it.
THREADS = "2"
MIN_ROUNDS = 3
# Set-ups per run; setup_s is their median.
SETUP_REPS = 3
# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
EXPERIMENTS = 20
# The host-speed probe's time on an uncontended core of the 2-vCPU host
# the bounds were set on (3.9 ms measured there). Each interval is
# reported scaled by this over the probe times taken around it, to the
# power PROBE_EXPONENT.
PROBE_REF_S = 0.004
# The work slows more than the probe does. Over two sets of 25 runs per
# workload, log round time against log probe factor had slopes -1.33 and
# -1.44 for warm passes (correlation -0.98) and -0.98 for serve rounds
# (correlation -0.72, a noisier probe, so the slope reads low); the run
# medians of both spread least near this power.
PROBE_EXPONENT = 1.35


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------- statistics


def tail(samples, q):
    """The q-quantile of `samples` by nearest rank, or None unless at least
    MIN_BEYOND samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie strictly between 0 and 1, got {q}")
    ordered = sorted(samples)
    # Rounding first keeps e.g. 0.99 * 1000 from ceiling to 991.
    rank = math.ceil(round(q * len(ordered), 9))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def results_digest(directory, suffix=".json"):
    """SHA-256 over the names and bytes of a directory's result files."""
    digest = hashlib.sha256()
    names = sorted(n for n in os.listdir(directory) if n.endswith(suffix))
    for name in names:
        digest.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as f:
            digest.update(f.read() + b"\0")
    return digest.hexdigest(), len(names)


def drifted(digests):
    """How many digests differ from the first."""
    return sum(1 for d in digests[1:] if d != digests[0])


# ------------------------------------------------------------------- host


def cpu_ticks():
    """The all-CPU line of /proc/stat: user, nice, system, idle, iowait,
    irq, softirq and steal ticks."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def host_sample():
    """Steal and total CPU ticks from /proc/stat and the 1-minute load."""
    ticks = cpu_ticks()
    with open("/proc/loadavg") as f:
        load1 = float(f.read().split()[0])
    return {"steal_ticks": ticks[7], "total_ticks": sum(ticks), "load1": load1}


def busy_ticks():
    """(steal, busy) CPU ticks, where busy counts every tick a vCPU wanted
    to run, the stolen ones included."""
    ticks = cpu_ticks()
    return ticks[7], sum(ticks) - ticks[3] - ticks[4]


def ran_share(before, after):
    """The share of the time the vCPUs wanted to run between two
    `busy_ticks()` readings that the host let them run."""
    busy = after[1] - before[1]
    return 1.0 - (after[0] - before[0]) / busy if busy > 0 else 1.0


def unstolen(call):
    """Runs `call`; returns its result and `ran_share` over the call."""
    before = busy_ticks()
    out = call()
    return out, ran_share(before, busy_ticks())


def host_summary(start, end):
    total = end["total_ticks"] - start["total_ticks"]
    steal = end["steal_ticks"] - start["steal_ticks"]
    return {
        "start": start,
        "end": end,
        "steal_share": steal / total if total else 0.0,
    }


# ------------------------------------------------------------------ build


def check_checkout():
    for needed in ("Cargo.toml", "crates/bench", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(
                f"{needed} not found: run this from the root of a diversim checkout"
            )


def build():
    """Builds `diversim` and the worker; returns their paths."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    for command in (
        ["cargo", "build", "--release", "--offline", "-p", "diversim-bench", "--bin", "diversim"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         "perfbench/harness/Cargo.toml"],
    ):
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(command)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "diversim"), os.path.join(release, "perfbench-harness")


# -------------------------------------------------------------- processes


def harness(bins, *args):
    """Runs the worker and returns its JSON report."""
    done = subprocess.run([bins[1], *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise BenchError(f"perfbench-harness {args[0]} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_scale(probe_s):
    """The factor that brings a time measured between these probes to the
    reference host speed."""
    return (PROBE_REF_S / statistics.mean(probe_s)) ** PROBE_EXPONENT


def spawned(bins, *argv):
    """Runs one `diversim` command under the worker's launcher: its exit
    code, wall time, CPU time and peak RSS, and the unstolen share `ran` of
    its time (`scale` 1: it is not probe-scaled)."""
    cost, ran = unstolen(lambda: harness(bins, "spawn", bins[0], *argv))
    return dict(cost, scale=1.0, ran=ran)


def fresh(*parts):
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def rounds(seconds, one_round):
    """Repeats `one_round` until `seconds` have passed, at least
    MIN_ROUNDS times."""
    out, started = [], time.perf_counter()
    while len(out) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        out.append(one_round(len(out)))
    return out


def median_of(items, key):
    return statistics.median(item[key] for item in items)


def end_to_end(setup, done, scaled):
    """The end-to-end metrics of a run, medians over its set-ups and rounds,
    and the latency samples; when `scaled`, each interval is adjusted:
    stolen time is left out and probe scales are applied. `setup` holds
    (seconds, factor) pairs; each round holds `wall_s`, `cpu_s`,
    `peak_rss_mb`, `work` requests done in `busy_s`, its probe `scale`
    (1 where no probe ran), the unstolen share `ran` of its time, and
    latency samples `lat_ms` with their probe scales `lat_scale`. CPU time
    leaves stolen time out by itself."""
    k = (lambda factor: factor) if scaled else (lambda factor: 1.0)
    latency = [ms * k(scale * r["ran"])
               for r in done for ms, scale in zip(r["lat_ms"], r["lat_scale"])]
    metrics = {
        "setup_s": statistics.median(s * k(factor) for s, factor in setup),
        "wall_s": statistics.median(r["wall_s"] * k(r["scale"] * r["ran"]) for r in done),
        "cpu_s": statistics.median(r["cpu_s"] * k(r["scale"]) for r in done),
        "peak_rss_mb": median_of(done, "peak_rss_mb"),
        "throughput_rps": statistics.median(
            r["work"] / (r["busy_s"] * k(r["scale"] * r["ran"])) for r in done),
        "latency_p50_ms": statistics.median(latency),
    }
    return metrics, latency


def measured(setup, done):
    """Both views of a run: `metrics` adjusted, `unscaled` as timed, the
    adjusted latency samples, and the set-up intervals."""
    metrics, latency = end_to_end(setup, done, scaled=True)
    unscaled, _ = end_to_end(setup, done, scaled=False)
    return {"metrics": metrics, "unscaled": unscaled, "latency_samples": latency,
            "setup": setup}


def setup_of(runs):
    """The set-up intervals of `runs`: (seconds, factor) pairs."""
    return [(r["wall_s"], r["scale"] * r["ran"]) for r in runs]


# -------------------------------------------------------------- workloads


def reproduce(bins, profile, n):
    """One fresh `diversim run --all` at `profile`: its cost, and the digest,
    document count, checks and failed checks of its result documents."""
    out = fresh("reproduce_full", f"{profile}{n}")
    cost = spawned(bins, "run", "--all", f"--{profile}", "--threads", THREADS,
                   "--quiet", "--out", out)
    digest, docs = results_digest(out)
    checks = failed = 0
    for name in os.listdir(out):
        if name.endswith(".json"):
            with open(os.path.join(out, name)) as f:
                verdicts = [c["passed"] for c in json.load(f)["checks"]]
            checks += len(verdicts)
            failed += verdicts.count(False)
    shutil.rmtree(out)
    return dict(cost, digest=digest, docs=docs, checks=checks, failed_checks=failed)


def tally(reproductions):
    """(attempted, failed) over reproductions of one profile: every check,
    plus one comparison per extra reproduction of the results digest."""
    attempted = failed = 0
    for r in reproductions:
        attempted += max(r["checks"], 1)
        # A reproduction that exits non-zero or misses a document is wrong
        # as a whole: its checks cannot be trusted.
        whole = r["exit"] != 0 or r["docs"] != EXPERIMENTS
        failed += max(r["checks"], 1) if whole else r["failed_checks"]
    return (attempted + len(reproductions) - 1,
            failed + drifted([r["digest"] for r in reproductions]))


def reproduce_full(bins, seed, seconds):
    # `--seed` is unused: the experiments run on the paper's fixed seeds.
    # The set-up warms the host and the page cache with the same 20
    # experiments at the fast profile, ~1.5 s each.
    warm_up = [reproduce(bins, "fast", k) for k in range(SETUP_REPS)]

    def one_round(n):
        r = reproduce(bins, "full", n)
        return dict(r, work=EXPERIMENTS, busy_s=r["wall_s"], lat_ms=[1e3 * r["wall_s"]],
                    lat_scale=[r["scale"]])

    done = rounds(seconds, one_round)
    (set_attempted, set_failed), (attempted, failed) = tally(warm_up), tally(done)
    return dict(
        measured(setup_of(warm_up), done),
        attempted=set_attempted + attempted,
        failed=set_failed + failed,
        digest=done[0]["digest"],
        notes=[f"{len(done)} reproductions, {done[0]['checks']} checks each, "
               f"results digest {done[0]['digest'][:16]}"],
        rounds=done,
    )


def cold_sweeps(bins):
    """The set-up of sweep_resume: cold sweeps into fresh stores. Returns
    their (seconds, factor) pairs, exit codes, output digests, and the store
    and result directory of the last one."""
    colds, digests = [], []
    for k in range(SETUP_REPS):
        base = fresh("sweep_resume", f"cold{k}")
        cells, out = os.path.join(base, "cells"), os.path.join(base, "out")
        cost = spawned(bins, "sweep", "--all", "--fast", "--threads", THREADS,
                       "--quiet", "--cells", cells, "--out", out)
        colds.append(cost)
        digests.append(results_digest(out, suffix="")[0] if cost["exit"] == 0 else None)
    return setup_of(colds), [c["exit"] for c in colds], digests, cells, out


def sweep_resume(bins, seed, seconds):
    # `--seed` is unused: the sweep runs the experiments' fixed seeds.
    setup, exits, digests, cells, out = cold_sweeps(bins)
    failed = sum(1 for code in exits if code != 0) + drifted(digests)

    def one_round(_):
        report, ran = unstolen(lambda: harness(bins, "sweep-warm", "--cells", cells,
                                               "--cold", out))
        # Each pass is scaled by the probes taken around its chunk.
        chunk, probes = report["chunk"], report.pop("probe_s")
        lat_scale = [host_scale(probes[i // chunk:i // chunk + 2])
                     for i in range(len(report["pass_ns"]))]
        lat_ms = [ns * 1e-6 for ns in report.pop("pass_ns")]
        wall = 1e-3 * sum(lat_ms)
        scale = 1e-3 * sum(ms * s for ms, s in zip(lat_ms, lat_scale)) / wall
        return dict(report, wall_s=wall, scale=scale, ran=ran, busy_s=wall,
                    work=EXPERIMENTS * len(lat_ms), lat_ms=lat_ms, lat_scale=lat_scale)

    done = rounds(seconds, one_round)
    # The cold sweeps run in processes the probe cannot enter. The first
    # warm round's probes, taken within seconds of the last one, give the
    # host speed they ran at: over two sets of 25 runs the cold sweeps'
    # times tracked them with correlation -0.80 and -0.84.
    setup = [(s, factor * done[0]["scale"]) for s, factor in setup]
    attempted = len(exits)
    for r in done:
        attempted += r["loads"] + r["outputs"]
        failed += r["loads"] - r["hits"] + r["mismatches"]
    return dict(
        measured(setup, done),
        attempted=attempted,
        failed=failed,
        digest=digests[-1],
        notes=[f"{len(done)} rounds of {len(done[0]['lat_ms'])} warm passes, "
               f"cold outputs digest {(digests[-1] or '')[:16]}"],
        rounds=done,
    )


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the server")


def serve_round(bins, seed):
    """One fresh server: spawn, prime, load, stop."""
    read_end, write_end = os.pipe()
    ticks = busy_ticks()
    started = time.perf_counter()
    pid = os.posix_spawn(
        bins[0],
        [bins[0], "serve", "--tcp", "127.0.0.1:0", "--threads", THREADS],
        os.environ,
        file_actions=[(os.POSIX_SPAWN_DUP2, write_end, 1), (os.POSIX_SPAWN_CLOSE, read_end)],
    )
    os.close(write_end)
    try:
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([read_end], [], [], 10.0)
            chunk = os.read(read_end, 256) if ready else b""
            if not chunk:
                raise BenchError("diversim serve did not report its address")
            line += chunk
        listen_s = time.perf_counter() - started
        addr = line.decode().split()[-1]
        report = harness(bins, "serve-load", "--addr", addr, "--seed", str(seed))
        report["peak_rss_mb"] = peak_rss_mb(pid)
    finally:
        os.kill(pid, signal.SIGTERM)
        _, _, usage = os.wait4(pid, 0)
        os.close(read_end)
    ran = ran_share(ticks, busy_ticks())
    lat_ms = [ns * 1e-6 for ns in report.pop("latency_ns")]
    scale = host_scale(report.pop("probe_s"))
    return dict(
        report,
        cpu_s=usage.ru_utime + usage.ru_stime,
        wall_s=listen_s + report["total_ns"] * 1e-9,
        busy_s=report["load_ns"] * 1e-9,
        work=len(lat_ms),
        scale=scale,
        ran=ran,
        lat_ms=lat_ms,
        lat_scale=[scale] * len(lat_ms),
    )


def serve_mixed(bins, seed, seconds):
    # The set-up is whole rounds set aside as warm-up: the first servers
    # after a pause read slow, and a server's own start-up and priming
    # (~4 ms) is too short to time alone.
    warm_up = [serve_round(bins, seed) for _ in range(SETUP_REPS)]
    done = rounds(seconds, lambda _: serve_round(bins, seed))
    every = warm_up + done
    return dict(
        measured(setup_of(warm_up), done),
        attempted=sum(r["attempted"] for r in every) + len(every) - 1,
        failed=sum(r["failed"] for r in every) + drifted([r["digest"] for r in every]),
        digest=done[0]["digest"],
        notes=[f"{len(warm_up)} warm-up and {len(done)} measured servers, "
               f"response digest {done[0]['digest']}"],
        rounds=done,
    )


# ------------------------------------------------------------- traced run


def required_tail(samples, q, name):
    value = tail(samples, q)
    if value is None:
        raise BenchError(f"{name}: too few samples ({len(samples)}) for q={q}")
    return value


def traced(bins, seed, seconds):
    """The traced run: one untraced serve round for the wire-side numbers,
    then the worker's traced run over every workload's layers."""
    del seconds  # the traced run's size is fixed (see harness/src/trace.rs)
    tcp = serve_round(bins, seed)
    work = fresh("trace")
    report = harness(bins, "trace", "--seed", str(seed), "--work", work)
    metrics = dict(report["metrics"])
    samples = report["samples"]
    metrics["sweep.pass_p50_ms"] = statistics.median(samples["sweep.pass_ms"])
    metrics["sweep.pass_p99_ms"] = required_tail(samples["sweep.pass_ms"], 0.99, "sweep pass")
    # Per-layer numbers are as timed: they compare layers within one run.
    tcp_ms = tcp["lat_ms"]
    metrics["serve.latency_p50_ms"] = statistics.median(tcp_ms)
    metrics["serve.latency_p99_ms"] = required_tail(tcp_ms, 0.99, "serve latency")
    metrics["serve.throughput_rps"] = tcp["work"] / tcp["busy_s"]
    metrics["serve.transport_p50_ms"] = (
        metrics["serve.latency_p50_ms"] - statistics.median(samples["serve.inproc_ms"]))
    for index, name in enumerate(tcp["class_names"]):
        wire = [ms for ms, c in zip(tcp_ms, tcp["classes"]) if c == index]
        metrics[f"serve.class_p50_ms.{name}"] = statistics.median(wire)
        metrics[f"serve.handle_p50_ms.{name}"] = statistics.median(
            samples[f"serve.handle_ms.{name}"])
    same_bytes = report["serve_digest"] == tcp["digest"]
    return {
        "metrics": metrics,
        "attempted": report["attempted"] + tcp["attempted"] + 1,
        "failed": report["failed"] + tcp["failed"] + (0 if same_bytes else 1),
        "digest": report["serve_digest"],
        "notes": [
            "tracing overhead: " + ", ".join(
                f"{w} {metrics['trace.overhead_share.' + w]:+.1%}"
                for w in ("reproduce_full", "sweep_resume", "serve_mixed")),
            f"stage replay: {int(metrics['sim.campaigns'])} campaigns checked against "
            f"Scenario::run; in-process serve replay "
            f"{'matches' if same_bytes else 'DIFFERS FROM'} the TCP response bytes",
            f"spans: {os.path.join(work, 'spans.tsv')}",
        ],
        "rounds": [],
    }


WORKLOADS = {
    "reproduce_full": reproduce_full,
    "sweep_resume": sweep_resume,
    "serve_mixed": serve_mixed,
}


# ------------------------------------------------------------------- main


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        bins = build()
        start = host_sample()
        run = traced if args.trace else WORKLOADS[args.workload]
        result = run(bins, args.seed, args.seconds)
        host = host_summary(start, host_sample())
        metrics = {}
        for m in declared_metrics(args.trace):
            if m["name"] not in result["metrics"]:
                raise BenchError(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    unscaled = result.get("unscaled", {})
    bulky = ("lat_ms", "lat_scale", "classes")
    record = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        host=host, metrics=metrics, unscaled=unscaled, attempted=result["attempted"],
        failed=result["failed"], digest=result["digest"], setup=result.get("setup", []),
        rounds=[{k: v for k, v in r.items() if k not in bulky} for r in result["rounds"]])
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(WORK, "records",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    for name, m in metrics.items():
        as_timed = f"  (as timed {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"{name:40} {m['value']:>14.6g} {m['unit']}{as_timed}")
    # The tail and the error rate are printed but not declared: a declared
    # metric must exist on every workload and never read 0 (see README.md).
    samples = result.get("latency_samples")
    if samples is not None:
        p99 = tail(samples, 0.99)
        shown = f"{p99:>14.6g}" if p99 is not None else f"{'n/a':>14}"
        print(f"{'latency_p99_ms':40} {shown} ms ({len(samples)} samples)")
    print(f"{'error_rate':40} {result['failed'] / max(result['attempted'], 1):>14.6g} 1 "
          f"({result['failed']} of {result['attempted']})")
    for note in result["notes"]:
        print(note)
    print(f"host: steal {host['steal_share']:.2%} of CPU ticks, load "
          f"{host['start']['load1']:.2f} -> {host['end']['load1']:.2f}; record {path}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
