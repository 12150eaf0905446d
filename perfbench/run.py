#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune from the checkout it sits in, runs
one workload in its own process and forwards its report. The last line of
standard output is the result object; it is printed only after it has been
checked against BENCHMARK.json (exact keys, every metric named there for
the chosen --trace mode and nothing else). `--workload all` runs every
workload in turn, one process each, and prints each report.

Exit codes: 0 success, 1 malformed result, 2 bad arguments, 3 build
failure, 4 the benchmark process failed or timed out.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read %s: %s" % (path, e))


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(3, "build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail(3, "build failed (dune exit %d)" % r.returncode)


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def check_result(line, spec, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(res, dict) or sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(res["correct"], bool):
        return "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool):
            return k + " is not an integer"
    if res["attempted"] < 1:
        return "attempted < 1"
    want = spec["per_layer" if trace == 1 else "end_to_end"]
    names = [m["name"] for m in want]
    got = res["metrics"]
    if sorted(got) != sorted(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        return "metrics differ from BENCHMARK.json (missing %s, extra %s)" % (missing, extra)
    for m in want:
        v = got[m["name"]]
        if v.get("unit") != m["unit"] or not isinstance(v.get("value"), (int, float)):
            return "metric %s: bad value or unit" % m["name"]
    return None


def run_one(workload, seed, seconds, trace, spec):
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, "%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail(4, "%s exited with code %d" % (workload, r.returncode))
    for l in lines[:-1]:
        print(l)
    err = check_result(lines[-1], spec, trace)
    if err:
        fail(1, "%s: %s" % (workload, err))
    return lines[-1]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload != "all" and a.workload not in names:
        fail(2, "unknown workload %r (one of %s, or all)" % (a.workload, ", ".join(names)))
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    build()
    if a.workload == "all":
        for w in names:
            print(run_one(w, a.seed, seconds, a.trace, spec))
    else:
        print(run_one(a.workload, a.seed, seconds, a.trace, spec))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
