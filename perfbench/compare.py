#!/usr/bin/env python3
"""Collects and compares sets of AquaMAC benchmark runs.

    python3 perfbench/compare.py collect OUT [--runs 10] [--first-seed 1]
                                             [--workloads a,b] [--trace 0|1]
    python3 perfbench/compare.py summary SET
    python3 perfbench/compare.py compare SET_A SET_B

`collect` runs perfbench/run.py once per (workload, seed), serially, and
keeps each run's standard output as OUT/<workload>/seed<N>.txt. `summary`
prints, per workload and end-to-end metric, the median, quartiles and
the quartile spread as a share of the median against the metric's bound
in BENCHMARK.json. `compare` prints both sets side by side: whether B's
median is within the bound of A's (in the metric's worse direction), and
the paired win count of B over A over the seeds both sets ran, the count
the choosing-metrics rule judges a claimed gain by (B must win at least
nine pairs in ten, ties counting for neither).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args) -> int:
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    status = 0
    for name in names:
        os.makedirs(os.path.join(args.out, name), exist_ok=True)
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            path = os.path.join(args.out, name, f"seed{seed}.txt")
            with open(path, "w") as f:
                f.write(proc.stdout)
            result = last_json(proc.stdout)
            ok = proc.returncode == 0 and result is not None and result["correct"]
            status = status or (0 if ok else 1)
            print(f"{name} seed {seed}: exit {proc.returncode} "
                  f"{'ok' if ok else 'FAILED'} -> {path}", flush=True)
    return status


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def load_set(directory):
    """{workload: {seed: result}} from a collect directory."""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        sub = os.path.join(directory, workload)
        if not os.path.isdir(sub):
            continue
        for entry in sorted(os.listdir(sub)):
            if not (entry.startswith("seed") and entry.endswith(".txt")):
                continue
            with open(os.path.join(sub, entry)) as f:
                result = last_json(f.read())
            if result is not None:
                runs.setdefault(workload, {})[int(entry[4:-4])] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs, metric):
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items()
            if metric in r["metrics"]}


def summary(args) -> int:
    bench = spec()
    data = load_set(args.set)
    print(f"{'workload':15} {'metric':12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  failed/attempted")
    for workload, runs in data.items():
        failed = [r["failed"] / r["attempted"] for r in runs.values()]
        for m in bench["end_to_end"]:
            vals = list(values(runs, m["name"]).values())
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "" if m["name"] == "setup_s" or spread <= m["bound"] / 3 else "  WIDE"
            print(f"{workload:15} {m['name']:12} {len(vals):3} {q2:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {m['bound']:6.2f}  "
                  f"{min(failed):.4f}..{max(failed):.4f}{flag}")
    return 0


def compare(args) -> int:
    bench = spec()
    a_set, b_set = load_set(args.a), load_set(args.b)
    status = 0
    print(f"{'workload':15} {'metric':12} {'A median':>11} {'A q1..q3':>23} {'B median':>11} "
          f"{'B q1..q3':>23} {'B/A-1':>8} {'bound':>6} {'agree':>5} {'B wins':>7}")
    for workload in sorted(set(a_set) & set(b_set)):
        for m in bench["end_to_end"]:
            a = values(a_set[workload], m["name"])
            b = values(b_set[workload], m["name"])
            if not a or not b:
                continue
            a1, a2, a3 = quartiles(list(a.values()))
            b1, b2, b3 = quartiles(list(b.values()))
            change = b2 / a2 - 1.0
            worse = change if m["better"] == "lower" else -change
            agree = worse <= m["bound"]
            status = status or (0 if agree else 1)
            paired = sorted(set(a) & set(b))
            wins = sum(1 for s in paired
                       if (b[s] < a[s] if m["better"] == "lower" else b[s] > a[s]))
            print(f"{workload:15} {m['name']:12} {a2:11.5g} {a1:11.5g}..{a3:<11.5g} "
                  f"{b2:11.5g} {b1:11.5g}..{b3:<11.5g} {change:+8.4f} {m['bound']:6.2f} "
                  f"{'yes' if agree else 'NO':>5} {wins:3}/{len(paired):<3}")
        fa = sorted({r["failed"] / r["attempted"] for r in a_set[workload].values()})
        fb = sorted({r["failed"] / r["attempted"] for r in b_set[workload].values()})
        print(f"{workload:15} failed share A {fa} B {fb}{'' if fa == fb else '  DIFFERS'}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workloads", default="")
    c.add_argument("--trace", choices=["0", "1"], default="0")
    s = sub.add_parser("summary")
    s.add_argument("set")
    d = sub.add_parser("compare")
    d.add_argument("a")
    d.add_argument("b")
    args = parser.parse_args()
    return {"collect": collect, "summary": summary, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
