#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 perfbench/steady.py

Run it from the root of a diversim checkout. For each workload it runs
the benchmark command as two independent sets of 10 runs, each run with
its own seed (set k uses seeds 100k+1 ... 100k+10), one set after the
other. Per end-to-end metric it prints each set's median and quartiles
(Python's `statistics.quantiles(values, n=4)`), the spread (quartile
distance over the median) and the gap of set 2's median from set 1's,
against the metric's bound. A seed neither set used (ALT_SEED) is then
run 5 times; its median's gap from set 1's is checked the same way, so a
later claim can be re-checked on a seed unseen while it was written.

A gap counts in either direction: a set that reads better by more than
the bound fails as well, because the next set could read worse by as
much. A spread must stay within the bound (setup_s is exempt), and so
must every gap; the target for a spread is a third of the bound. The
report goes to stdout and, as Markdown, to perfbench/STEADINESS.md.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time


RUNS = 10
SETS = 2
ALT_SEED = 7777
ALT_RUNS = 5
OUT = "perfbench/STEADINESS.md"


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs were not correct")
    steal = next((m.group(1) for line in lines
                  if (m := re.match(r"host: steal ([0-9.]+)%", line))), "?")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, steal, elapsed


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def worse_share(first, later, better):
    """How much worse `later` reads than `first`, as a share of `first`
    (negative when it reads better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def agrees(gap, bound):
    """Whether a gap lies within the bound, in either direction."""
    return abs(gap) <= bound


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    started = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    md = [
        "# Steadiness of the benchmark",
        "",
        f"`python3 perfbench/steady.py`: {SETS} sets of {RUNS} runs, then {ALT_RUNS} "
        f"runs on seed {ALT_SEED}; started {started}, {os.cpu_count()} CPUs, "
        f"{spec['run_seconds']} s per run.",
        "",
        "Spread = (Q3 - Q1) / median over one set's runs. Gap = how much worse "
        "set 2's (or the alternate seed's) median is than set 1's; a negative "
        "gap reads better. A spread must stay within the bound (setup_s has no "
        "spread limit) and a gap within the bound in either direction; the "
        "spread target is a third of the bound.",
    ]
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        sets, steals, seconds = [], [], []
        for k in range(SETS):
            runs = []
            for seed in range(100 * k + 1, 100 * k + RUNS + 1):
                values, steal, elapsed = run_once(spec, workload, seed)
                runs.append(values)
                steals.append(steal)
                seconds.append(elapsed)
                print(f"{workload} set {k + 1} seed {seed}: {elapsed:.1f} s, "
                      f"steal {steal}%", file=sys.stderr)
            sets.append(runs)
        alt = [run_once(spec, workload, ALT_SEED)[0] for _ in range(ALT_RUNS)]
        md += [
            "", f"## {workload}", "",
            f"Runs took {min(seconds):.1f}-{max(seconds):.1f} s; host steal per run (%): "
            + ", ".join(steals) + ".", "",
            "| metric | bound | " + " | ".join(
                f"set {k + 1} median [Q1, Q3] | spread" for k in range(SETS))
            + " | set 2 gap | alt seed gap | verdict |",
            "|---" * (5 + 2 * SETS) + "|",
        ]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, ok = [], True
            medians = []
            for runs in sets:
                median, q1, q3, spread = summary([r[name] for r in runs])
                medians.append(median)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] | {spread:.1%}")
                if name != "setup_s" and spread > bound:
                    ok = False
            gap = worse_share(medians[0], medians[1], metric["better"])
            alt_gap = worse_share(medians[0], statistics.median(r[name] for r in alt),
                                  metric["better"])
            if not (agrees(gap, bound) and agrees(alt_gap, bound)):
                ok = False
            failures += not ok
            md.append(f"| {name} ({metric['unit']}) | {bound:.0%} | " + " | ".join(cells)
                      + f" | {gap:+.1%} | {alt_gap:+.1%} | "
                      + ("ok" if ok else "**outside bound**") + " |")
        md += ["", "Raw values per set:", ""]
        for k, runs in enumerate(sets):
            for metric in spec["end_to_end"]:
                name = metric["name"]
                md.append(f"- set {k + 1} {name}: "
                          + ", ".join(f"{r[name]:.6g}" for r in runs))
        md.append(f"- alt seed {ALT_SEED}: " + "; ".join(
            ", ".join(f"{n}={v:.6g}" for n, v in r.items()) for r in alt))
    text = "\n".join(md) + "\n"
    print(text)
    with open(OUT, "w") as f:
        f.write(text)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
