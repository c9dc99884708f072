#!/usr/bin/env python3
"""Self-test for the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts that
each metric BENCHMARK.json names is emitted with its unit and that every
output check passed. Then it plants bad results and asserts they fail:
a lost response fed to the workload's checks, a result line with a
missing metric or a wrong unit, and a run in a directory that holds only
BENCHMARK.json and perfbench/. Exits 0 when everything holds.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

ROOT = bench.ROOT
failures = []


def expect(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        failures.append(what)


def call(args, cwd=ROOT):
    return subprocess.run(["python3", "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def last_line(p):
    lines = p.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def tiny(workload, trace, *extra):
    return call(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny"] + list(extra))


def main():
    spec = bench.load_spec()
    good = None
    for w in spec["workloads"]:
        for trace in (0, 1):
            tag = "%s trace=%d" % (w["name"], trace)
            p = tiny(w["name"], trace)
            expect(p.returncode == 0, tag + ": exits 0")
            line = last_line(p)
            problems = bench.validate(line, spec, trace == 1)
            expect(not problems, tag + ": every metric emitted with its unit" + "".join("; " + p for p in problems))
            if not problems:
                r = json.loads(line)
                expect(r["correct"] and r["failed"] == 0, tag + ": output checks pass")
                if trace == 0 and good is None:
                    good = r

    p = tiny("web", 0, "--plant", "lost")
    line = last_line(p)
    r = json.loads(line) if line.startswith("{") else {}
    expect(p.returncode != 0 and r.get("correct") is False and r.get("failed", 0) >= 1,
           "planted lost response fails the run")

    if good is not None:
        missing = json.loads(json.dumps(good))
        del missing["metrics"]["setup_s"]
        expect(bench.validate(json.dumps(missing), spec, False) != [],
               "planted missing metric is refused")
        wrong = json.loads(json.dumps(good))
        wrong["metrics"]["host_s"]["unit"] = "ms"
        expect(bench.validate(json.dumps(wrong), spec, False) != [],
               "planted wrong unit is refused")
        zero = json.loads(json.dumps(good))
        zero["metrics"]["throughput_rps"]["value"] = 0
        expect(bench.validate(json.dumps(zero), spec, False) != [],
               "planted zero end-to-end metric is refused")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = call(["--workload", "web", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(p.returncode != 0 and '"correct"' not in p.stdout,
           "a directory with only the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
