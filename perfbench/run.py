#!/usr/bin/env python3
"""Run one workload of the repository benchmark, or compare two result sets.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-l6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare RESULTS_A RESULTS_B

A run builds the benchmark with dune (from source, inside the checkout),
runs it, and prints its output; the last line is one JSON object with
the keys correct, attempted, failed and metrics.  The metrics are the
end-to-end ones of BENCHMARK.json with --trace 0 and the per-layer ones
with --trace 1.  The run also stores its settings and result under
perfbench/_run/results/ (or --results DIR).  It exits non-zero when the
build fails, a correctness check fails, or the metric set is not the one
BENCHMARK.json names.

compare reads two such result directories and refuses (exit 2) when the
settings of the runs differ in anything but seed and source revision.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_DIR = os.path.join("perfbench", "_run")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Settings that may differ between two result sets that are compared.
FREE_SETTINGS = {"seed", "git_rev", "source_digest"}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    """The benchmark drives the repository's libraries from source."""
    needed = ["dune-project", os.path.join("lib", "diskdb", "diskdb.mli"),
              os.path.join("perfbench", "dune-project")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        fail("not the root of a repository checkout (missing %s)"
             % ", ".join(missing))


def local_env():
    """Keep the build's and the run's scratch files inside the checkout."""
    tmp = os.path.abspath(os.path.join(RUN_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)


def build():
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "./" + EXE],
                           stdout=sys.stderr, stderr=sys.stderr, env=local_env(),
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def source_digest():
    """SHA-256 over the sources of the program and of the benchmark."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".c", ".py")) or f in ("dune", "dune-project"):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    check_checkout()
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=local_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        settings = next(json.loads(l[len("settings: "):])
                        for l in lines if l.startswith("settings: "))
    except (IndexError, ValueError, StopIteration):
        fail("the benchmark printed no result (exit code %d)" % proc.returncode)
    declared = declared_metrics(args.trace == 1)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(declared) ^ set(result["metrics"])))
    settings["git_rev"] = git_rev()
    settings["source_digest"] = source_digest()
    os.makedirs(args.results, exist_ok=True)
    name = "%s-seed%s-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(args.results, name), "w") as fh:
        json.dump({"settings": settings, "result": result}, fh, indent=1)
    print(lines[-1])
    sys.exit(proc.returncode)


def load(d):
    runs = {}
    for f in sorted(os.listdir(d)):
        if f.endswith(".json"):
            with open(os.path.join(d, f)) as fh:
                r = json.load(fh)
            s = r["settings"]
            runs.setdefault((s["workload"], s["trace"]), []).append(r)
    return runs


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def compare(args):
    a, b = load(args.a), load(args.b)
    bounds = {}
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        for m in spec["end_to_end"]:
            bounds[m["name"]] = (m["bound"], m["better"])
    except (OSError, ValueError):
        pass
    refused = regressed = False
    for key in sorted(set(a) & set(b)):
        ra, rb = a[key], b[key]

        def fixed(runs):
            return {json.dumps({k: v for k, v in r["settings"].items()
                                if k not in FREE_SETTINGS}, sort_keys=True)
                    for r in runs}
        sa, sb = fixed(ra), fixed(rb)
        seeds_a = sorted(r["settings"]["seed"] for r in ra)
        seeds_b = sorted(r["settings"]["seed"] for r in rb)
        if len(sa) != 1 or sa != sb or seeds_a != seeds_b:
            print("%s trace=%s: settings differ, refusing to compare" % key)
            for s in sorted(sa | sb):
                print("  " + s)
            refused = True
            continue
        print("%s trace=%s: %d runs each" % (key[0], key[1], len(ra)))
        for m in ra[0]["result"]["metrics"]:
            va = [r["result"]["metrics"][m]["value"] for r in ra]
            vb = [r["result"]["metrics"][m]["value"] for r in rb]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            note = ""
            if m in bounds and len(va) >= 2:
                bound, better = bounds[m]
                worse = change if better == "lower" else -change
                if worse > bound and worse > spread(va):
                    note = "  REGRESSION (bound %.0f%%)" % (100 * bound)
                    regressed = True
            print("  %-34s %14.6g -> %14.6g  %+7.1f%%%s" % (m, ma, mb, 100 * change, note))
    if refused:
        sys.exit(2)
    sys.exit(1 if regressed else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True,
                   choices=["paper-l6", "commit-l5", "serve-l5"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--results", default=os.path.join(RUN_DIR, "results"))
    run(p.parse_args())


if __name__ == "__main__":
    main()
