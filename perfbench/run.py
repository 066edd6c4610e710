#!/usr/bin/env python3
"""The repository's benchmark: build bench.exe from source, set up, run
one workload and print its metrics.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It writes only there: the build goes
to _build/ and the trace cache and the traced run's spans to .perfbench/.
The last line of standard output is the result as one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a separate traced run. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("matrix", "paper-mm", "fuzz")

# Set-up repeats per run; set-up time is their median. Process start-up,
# fuzz's only set-up, is timed over more spawns because it is short.
SETUP_REPEATS = {"matrix": 21, "paper-mm": 3}
STARTUP_SPAWNS = 21


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found: run from the root of a darsie checkout" % need)
    # DUNE_CACHE=disabled keeps the build inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed")


def bench(*args):
    """Run bench.exe; return its last JSON line and its peak RSS in MB."""
    p = subprocess.Popen([EXE, *args], cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        die("bench.exe %s exited with %d" % (args[0], p.returncode))
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def startup_s():
    walls = []
    for _ in range(STARTUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([EXE, "startup"], cwd=ROOT, check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", a.workload, "--dir", OUT, "--seed", str(a.seed)]
    if a.trace:
        res, _ = bench("trace", *common)
        setup_ok = True
        metrics = res["metrics"]
    else:
        if a.workload == "fuzz":
            setup_ok, setup = True, startup_s()
        else:
            s, _ = bench("setup", "--workload", a.workload, "--dir", OUT,
                         "--repeats", str(SETUP_REPEATS[a.workload]))
            setup_ok, setup = s["correct"], s["setup_s"]
            for p in s["problems"]:
                print("set-up problem: " + p)
        res, rss = bench("run", *common, "--seconds", str(a.seconds))
        metrics = dict(res["metrics"])
        metrics["peak_rss_mb"] = metric(rss, "MB")
        metrics["setup_s"] = metric(setup, "s")
    attempted, failed = res["attempted"], res["failed"]
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    if not a.trace:
        print("%-36s %14.6g %s" % ("fail_rate", failed / max(1, attempted),
                                  "frac"))
    print(json.dumps({"workload": a.workload, "seed": a.seed,
                      "detail": res["detail"]}))
    print(json.dumps({"correct": setup_ok and res["correct"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
