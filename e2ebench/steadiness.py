#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric (and the raw host time beside each normalized one), the
median, the quartiles and the spread (Q3 - Q1) / median, with the host's
fingerprint. Run from the root of a checkout:

    python3 e2ebench/steadiness.py --seeds 1-10 --out e2ebench/steadiness.json

Each run takes BENCHMARK.json's run_seconds plus set-up; --workloads limits
the workloads measured. --out appends the set to the file's "sets" list, so
sets taken apart in time can be compared.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def fingerprint():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    nproc = os.cpu_count()
    return {
        "cpu_model": model,
        "nproc": nproc,
        # The benchmark leaves GOMAXPROCS at the Go default unless set.
        "gomaxprocs": int(os.environ.get("GOMAXPROCS", nproc)),
        "go_version": go,
    }


def run_once(workload, seed, seconds):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return res, detail


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="first-last seed")
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    first, last = map(int, args.seeds.split("-"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    report = {"host": fingerprint(), "started": started, "seeds": args.seeds,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for w in names:
        per = {}
        for seed in range(first, last + 1):
            res, detail = run_once(w, seed, bench["run_seconds"])
            if not res["correct"]:
                sys.exit(f"{w} seed {seed}: run not correct")
            for k, v in res["metrics"].items():
                per.setdefault(k, []).append(v["value"])
            for k, v in detail.items():
                if k.startswith("raw.") or k == "host.ref_ns":
                    per.setdefault(k, []).append(v)
        out = {k: summarize(v) for k, v in sorted(per.items())}
        report["workloads"][w] = out
        for k, s in out.items():
            b = bounds.get(k)
            flag = ""
            if b is not None and k != "setup_s" and s["spread"] is not None and s["spread"] > b / 3:
                flag = "  > bound/3"
            print(f"{w:16s} {k:20s} median {s['median']:14.6g}  spread {s['spread'] or 0:7.4f}"
                  f"  bound {b if b is not None else '-'}{flag}", flush=True)
    if args.out:
        doc = {"sets": []}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        doc["sets"].append(report)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
