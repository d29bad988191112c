#!/usr/bin/env python3
"""Build and run the repo benchmark, or compare two sets of its results.

Run one workload (from the repository root):

    python3 rhw_perf/run.py --workload attack_sweep --seed 1 --seconds 15 --trace 0

builds the rhw library and the rhw_perf program from source into
.bench_build/rhw_perf (CMake, Release), runs the program, and passes its
output through. The last line of output is the program's JSON result; the
exit code is the program's (0 = every output check passed). The full record,
with the host fingerprint, is also saved under .bench_build/results/.

Compare saved results (directories of records, or single record files):

    python3 rhw_perf/run.py --compare BASE NEW

prints each metric's median on both sides and the change. It refuses
(exit 2) when any two records carry different fingerprints, when a record was
measured while the hypervisor stole more than STEAL_LIMIT_PCT of the host's
CPU time, or when BASE and NEW runs of a workload were not interleaved in
time (run them alternately: a host that speeds up or slows down between two
blocks of runs moves every metric of the later block). It exits 1 when an
end-to-end metric of NEW is worse than BASE by more than its bound in
BENCHMARK.json, and 3 when none is but a metric is unresolved: its spread
over the BASE runs (quartile distance over median) exceeds its bound and not
every NEW run reads better than every BASE run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rhw_perf")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 175
# Records measured with more of the host's CPU time stolen than this are not
# compared: at 7-8% steal, serving latency and max_qps collapsed in tests.
STEAL_LIMIT_PCT = 2.0


def fail(msg, code=2):
    print("rhw_perf: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources at src/ next to rhw_perf/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "rhw_perf"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "rhw_perf")


def run(args):
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail("unknown workload %r (BENCHMARK.json has %s)" % (args.workload, sorted(names)))
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("rhw_perf exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("rhw_perf exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    fingerprint = next((json.loads(l.split(" ", 1)[1]) for l in lines
                        if l.startswith("fingerprint ")), None)
    steal = next((float(l.split("=", 1)[1].split()[0]) for l in lines
                  if l.startswith("detail host.steal_pct ")), -1.0)

    # The metric set must be exactly the one BENCHMARK.json declares.
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = set(result["metrics"])
    if printed != declared or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(declared - printed), sorted(printed - declared)), 3)

    os.makedirs(RESULTS, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint, "steal_pct": steal,
              "started": started, "ended": time.time(), "result": result}
    path = os.path.join(RESULTS, "%s.trace%d.seed%d.json"
                        % (args.workload, args.trace, args.seed))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return proc.returncode


def load_records(path):
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, n) for n in sorted(os.listdir(path)) if n.endswith(".json")]
    records = []
    for name in files:
        with open(name) as f:
            records.append(json.load(f))
    if not records:
        fail("no result records under " + path)
    return records


def compare(base_path, new_path):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_records(base_path), load_records(new_path)
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) != 1:
        print("refusing to compare: the records were measured on different "
              "fingerprints:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2

    noisy = [r for r in base + new
             if not 0 <= r.get("steal_pct", -1) <= STEAL_LIMIT_PCT]
    if noisy:
        print("refusing to compare: %d record(s) measured with host steal "
              "above %g%% or unknown:" % (len(noisy), STEAL_LIMIT_PCT),
              file=sys.stderr)
        for r in noisy:
            print("  %s seed %s: steal %s%%" % (r["workload"], r["seed"],
                                                r.get("steal_pct")), file=sys.stderr)
        return 2
    if any("started" not in r for r in base + new):
        print("refusing to compare: records without a start time",
              file=sys.stderr)
        return 2
    for workload, trace in sorted({(r["workload"], r["trace"]) for r in base}
                                  & {(r["workload"], r["trace"]) for r in new}):
        b_starts = [r["started"] for r in base
                    if (r["workload"], r["trace"]) == (workload, trace)]
        n_starts = [r["started"] for r in new
                    if (r["workload"], r["trace"]) == (workload, trace)]
        if max(b_starts) < min(n_starts) or max(n_starts) < min(b_starts):
            print("refusing to compare: the %s runs of BASE and NEW were made "
                  "in two separate blocks; run them alternately" % workload,
                  file=sys.stderr)
            return 2

    def grouped(records):
        out = {}
        for r in records:
            for name, m in r["result"]["metrics"].items():
                out.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
        return out

    b, n = grouped(base), grouped(new)
    regressions = unresolved = 0
    print("%-28s %-30s %14s %14s %9s" % ("workload", "metric", "base p50", "new p50", "change"))
    for key in sorted(set(b) & set(n)):
        workload, trace, name = key
        bm, nm = statistics.median(b[key]), statistics.median(n[key])
        change = (nm - bm) / bm if bm else 0.0
        flag = ""
        m = metrics.get(name, {})
        if not trace and "bound" in m:
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * change
            spread = 0.0
            if len(b[key]) >= 2 and bm:
                q = statistics.quantiles(b[key], n=4)
                spread = (q[2] - q[0]) / abs(bm)
            all_better = max(sign * v for v in n[key]) < min(sign * v for v in b[key])
            if spread > m["bound"] and not all_better:
                flag = "  UNRESOLVED (base spread %.0f%% > bound %.0f%%)" % (
                    100 * spread, 100 * m["bound"])
                unresolved += 1
            elif worse > m["bound"]:
                flag = "  REGRESSION (bound %.0f%%)" % (100 * m["bound"])
                regressions += 1
        print("%-28s %-30s %14.6g %14.6g %+8.1f%%%s"
              % (workload, name, bm, nm, 100 * change, flag))
    return 1 if regressions else 3 if unresolved else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if not args.workload:
        parser.error("--workload is required")
    sys.exit(run(args))


if __name__ == "__main__":
    main()
