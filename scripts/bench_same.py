#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json files key by key.

    python3 scripts/bench_same.py DIR_A DIR_B

Every BENCH_<group>.json in either directory must exist in both and hold
the same values at the same paths, except experiments.<id>.seconds (host
wall time, the one field that legitimately differs between runs of the
deterministic, virtual-time benches). Each differing path is printed.

Exit codes: 0 identical, 1 any difference, 2 usage.
"""

import json
import sys
from pathlib import Path


def ignored(path):
    return len(path) == 3 and path[0] == "experiments" and path[2] == "seconds"


def diff(a, b, path, out):
    if ignored(path):
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append((path + [k], "only in " + ("B" if k not in a else "A")))
            else:
                diff(a[k], b[k], path + [k], out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append((path, "length %d != %d" % (len(a), len(b))))
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, path + [str(i)], out)
    elif a != b or type(a) is not type(b):
        out.append((path, "%r != %r" % (a, b)))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = Path(argv[1]), Path(argv[2])
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.glob("BENCH_*.json")})
    if not names:
        print("no BENCH_*.json in %s or %s" % (dir_a, dir_b), file=sys.stderr)
        return 1
    differing = 0
    for name in names:
        fa, fb = dir_a / name, dir_b / name
        if not fa.exists() or not fb.exists():
            print("%s: only in %s" % (name, dir_b if not fa.exists() else dir_a))
            differing += 1
            continue
        out = []
        diff(json.loads(fa.read_text()), json.loads(fb.read_text()), [], out)
        for path, what in out:
            print("%s: %s: %s" % (name, ".".join(path), what))
        differing += len(out)
    if differing:
        print("%d difference(s) across %d file(s)" % (differing, len(names)))
        return 1
    print("identical: %d file(s), seconds ignored" % len(names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
