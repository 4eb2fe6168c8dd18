#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <transfer|lookup_ckpt|embedded|compiled>
                           --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --repeat N [--workloads a,b] [--seconds S] [--seed K]

The first form builds perfbench/ (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload and prints its metrics, one per line,
then a last line of JSON: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit status is 0 only when every correctness check passed.

The second form is repeat mode: N runs of each workload (default: those
of BENCHMARK.json), alternating the workload order between rounds, seeds
K..K+N-1, reporting each end-to-end
metric's median, quartiles and quartile spread (what the bounds in
BENCHMARK.json are checked against).

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import summarize  # noqa: E402

WORKLOADS = summarize.WORKLOADS
RUN_TIMEOUT_S = 160
FSYNC_POLICY = ("one fsync per commit group (Wal::sync) before any ack; "
                "checkpoint: temp file + fsync + rename + directory fsync")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def checkout_root():
    root = os.path.dirname(HERE)
    needed = ["CMakeLists.txt", "src", "tests/codegen/golden"]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        log("perfbench: not a checkout of the repository (missing: "
            + ", ".join(missing) + ")")
        sys.exit(2)
    return root


def build(root):
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        r = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr,
            stderr=sys.stderr)
        if r.returncode:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    r = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         str(os.cpu_count() or 1)], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode:
        log("perfbench: build failed")
        sys.exit(2)
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        log(f"perfbench: refusing to report from a {build_type or 'default'}"
            " build; reconfigure with -DCMAKE_BUILD_TYPE=Release")
        sys.exit(3)
    return build_dir


def filesystem_of(path):
    path = os.path.realpath(path)
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3 and (path == parts[1] or path.startswith(
                        parts[1].rstrip("/") + "/")) and len(parts[1]) > len(
                            best):
                    best, fs = parts[1], parts[2]
    except OSError:
        pass
    return fs


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision(root):
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def metadata(root, run_dir, run, args):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": run.texts.get("compiler"),
        "build_type": run.texts.get("build_type"),
        "assertions": run.texts.get("assertions"),
        "git_revision": git_revision(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "wal_filesystem": filesystem_of(run_dir),
        "fsync_policy": FSYNC_POLICY,
    }


def run_once(args):
    root = checkout_root()
    build_dir = build(root)
    run_dir = os.path.join(
        build_dir, "runs",
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(4)
    sys.stdout.write(proc.stdout)
    if not os.path.exists(os.path.join(run_dir, "report.json")):
        log(f"perfbench: the binary exited {proc.returncode} without a report")
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(proc.returncode or 2)
    run = summarize.Run(run_dir)
    meta = metadata(root, run_dir, run, args)
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.trace:
        m, extra, table, attempted, failed = summarize.per_layer(run)
        print("spans: name count p50_ns self_p50_ns")
        for name, n, p50, self_p50 in table:
            cells = [f"{v:14.0f}" if v is not None else f"{'n/a':>14s}"
                     for v in (p50, self_p50)]
            print(f"  {name:18s} {n:8d} " + " ".join(cells))
    else:
        m, extra, attempted, failed = summarize.end_to_end(run, args.workload)
    for name, v in m.values.items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    if extra:
        for name, v in extra.values.items():
            print(f"({name} = {v['value']:.6g} {v['unit']})")
        m.notes += extra.notes
    for note in m.notes:
        print("note: " + note)
    correct = proc.returncode == 0 and not run.violations
    for v in run.violations:
        print("violation: " + v)
    if not args.keep:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": m.values}))
    return 0 if correct else 1


def repeat(args):
    if args.workloads:
        names = args.workloads.split(",")
    else:
        with open(os.path.join(checkout_root(), "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    for n in names:
        if n not in WORKLOADS:
            log(f"perfbench: unknown workload {n}")
            return 2
    results = {n: [] for n in names}
    for r in range(args.repeat):
        order = names if r % 2 == 0 else names[::-1]
        for n in order:
            seed = args.seed + r
            t0 = time.time()
            p = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", n,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {"correct": False}
            log(f"round {r} {n} seed {seed}: exit {p.returncode} "
                f"correct {res.get('correct')} {time.time() - t0:.1f}s")
            if p.returncode or not res.get("correct"):
                log(p.stdout[-3000:])
                log(p.stderr[-3000:])
            results[n].append(res)
    summary = {}
    print(f"{'workload':12s} {'metric':14s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}")
    for n in names:
        metrics = sorted({k for res in results[n]
                          for k in res.get("metrics", {})})
        summary[n] = {}
        for k in metrics:
            vals = [res["metrics"][k]["value"] for res in results[n]
                    if k in res.get("metrics", {})]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[n][k] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "runs": len(vals)}
            print(f"{n:12s} {k:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3%}")
    build_dir = os.path.join(checkout_root(),
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    out = os.path.join(build_dir, f"repeat-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump({"seconds": args.seconds, "runs": args.repeat,
                   "summary": summary, "results": results}, f, indent=1)
    print(f"wrote {out}")
    failed = [n for n in names
              if not all(res.get("correct") for res in results[n])]
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--keep", action="store_true",
                    help="keep the raw report directory")
    ap.add_argument("--repeat", type=int, default=0,
                    help="repeat mode: runs per workload")
    ap.add_argument("--workloads", default="",
                    help="repeat mode: comma-separated workloads")
    args = ap.parse_args()
    if args.repeat:
        return repeat(args)
    if not args.workload:
        ap.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
