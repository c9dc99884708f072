#!/usr/bin/env python3
"""Build and run one perfbench workload, then check its result line.

    python3 perfbench/run.py --workload web|kv|drill --seed N --seconds S --trace 0|1

Run it from the root of a ukraft source tree. It builds
perfbench/main.exe with dune (the first build compiles the whole library
stack), runs the workload in its own process and relays its output. The
last line is the result object; it is printed only when it carries every
metric BENCHMARK.json names for the mode, each with its unit.

Exit codes: 0 ok, 1 an output check failed, 2 usage, 3 no source tree or
the build failed, 4 the workload crashed or timed out, 5 the result line
does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/main.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def validate(line, spec, trace):
    """Problems with a result line, as a list of strings (empty = valid)."""
    try:
        obj = json.loads(line)
    except ValueError as e:
        return ["result is not JSON: %s" % e]
    if not isinstance(obj, dict) or set(obj) != RESULT_KEYS:
        return ["result keys must be exactly %s" % sorted(RESULT_KEYS)]
    problems = []
    if not isinstance(obj["correct"], bool):
        problems.append("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool) or obj[k] < 0:
            problems.append("%s is not a whole number" % k)
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    for extra in sorted(set(metrics) - names):
        problems.append("metric %s is not in BENCHMARK.json" % extra)
    for m in wanted:
        got = metrics.get(m["name"])
        if not isinstance(got, dict) or set(got) != {"value", "unit"}:
            problems.append("metric %s missing or malformed" % m["name"])
            continue
        v = got["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append("metric %s is not a finite number" % m["name"])
        elif not trace and v == 0:
            problems.append("metric %s is 0" % m["name"])
        if got["unit"] != m["unit"]:
            problems.append("metric %s has unit %r, want %r" % (m["name"], got["unit"], m["unit"]))
    return problems


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: %s is not a ukraft source tree (no dune-project or lib/)" % ROOT,
              file=sys.stderr)
        sys.exit(3)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(["dune", "build", "--root", ROOT, "--display", "quiet", TARGET],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        sys.exit(3)
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["web", "kv", "drill"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, passthrough = ap.parse_known_args()
    spec = load_spec()
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + passthrough
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        sys.exit(4)
    sys.stderr.write(p.stderr)
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(p.stdout)
        print("perfbench: %s exited with %d" % (args.workload, p.returncode), file=sys.stderr)
        sys.exit(4)
    problems = validate(lines[-1], spec, args.trace == 1)
    print("\n".join(lines[:-1]))
    if problems:
        print("perfbench: bad result line:\n  " + "\n  ".join(problems), file=sys.stderr)
        sys.exit(5)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
