#!/usr/bin/env python3
"""Build and run the out-of-core render benchmark.

One run:
    python3 perfbench/run.py --workload render_warm_native --seed 1 \
        --seconds 30 --trace 0

prints the benchmark's report and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics (and writes the replay's Chrome
trace to .bench_build/traces/<workload>.trace.json).

Steadiness report:
    python3 perfbench/run.py --workload scan_slowdisk_native --repeat 10 \
        --seed 1 --seconds 30 --trace 0

runs the workload with seeds seed .. seed+N-1 and prints, per metric, the
median, the quartiles, (q3-q1)/median and (max-min)/median.

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/ at the repository root, or into $CARGO_TARGET_DIR when set.
Scratch files live in .bench_build/tmp/ and are removed when a run ends.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} exited {proc.returncode}")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists() and str(BENCH_DIR) not in cache.read_text(errors="replace"):
        shutil.rmtree(out)  # configured for another checkout
    if not cache.exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "--build", str(out), "--target", "ooc_bench", "-j", jobs],
                BUILD_TIMEOUT_S)
    return out / "ooc_bench"


def commit_id():
    """The checkout's commit when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout lines)."""
    scratch = build_dir() / "tmp" / f"run-{os.getpid()}-{seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit_id()]
    if trace == 1:
        cmd += ["--trace-out", str(build_dir() / "traces" / f"{workload}.trace.json")]
    # Own process group: a timeout kills the binary and every rank it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        wait_group_gone(proc.pid)
        log(f"run.py: {workload} seed {seed} timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, out.splitlines()


def wait_group_gone(pgid):
    """Waits until every process of the group (forked ranks too) has ended."""
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def parse_result(lines, trace):
    """The result line, checked against the contract and BENCHMARK.json."""
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        raise ValueError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ expected)}")
    return result


def steadiness(binary, args):
    values = {}
    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        rc, lines = run_once(binary, args.workload, seed, args.seconds, args.trace)
        if rc != 0:
            print("\n".join(lines))
            log(f"run.py: seed {seed} failed (exit {rc})")
            return 1
        result = parse_result(lines, args.trace)
        info = [json.loads(l)["info"] for l in lines if l.startswith('{"info"')]
        runs.append({"info": info[0] if info else {}, "correct": result["correct"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    report = {}
    print(f"\n{args.workload}: {args.repeat} runs, seeds {args.seed}..{seed}, "
          f"--seconds {args.seconds} --trace {args.trace}")
    print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'range/med':>9} unit")
    for name, (unit, v) in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(v) - min(v)) / med if med else 0.0
        report[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": iqr,
                        "range_over_median": rng, "unit": unit}
        print(f"{name:30} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.4f} {rng:9.4f} {unit}")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "trace": args.trace, "steadiness": report, "runs": runs}))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness report over this many seeds")
    args = p.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: build failed: {e}")
        return 1
    if args.repeat > 0:
        return steadiness(binary, args)
    rc, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    if rc != 0:
        return 1
    try:
        parse_result(lines, args.trace)
    except ValueError as e:
        log(f"run.py: bad result: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
