#!/usr/bin/env python3
"""Benchmark entry point named by BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Builds the perfbench binary (and the library, through the repository's own
CMake project) into .bench_build/ at the checkout root, runs it, checks that
the result carries exactly the metrics BENCHMARK.json declares for the mode,
each finite and with its declared unit, and prints three JSON lines:
provenance, details, and last the result object. Any failure exits non-zero
without a result line.

--self-check runs every workload briefly in both modes and fails if any
declared metric is missing, non-finite or unitless.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
RUN_TIMEOUT_S = 170
SELF_CHECK_SECONDS = 2


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; build output goes to stderr."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "Makefile").exists():
            subprocess.run(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr, check=True)


def source_digest():
    """sha256 over every source file the benchmark builds from."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        paths += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_perfbench(workload, seed, seconds, trace):
    """Runs perfbench in its own process group; returns its stdout lines."""
    TRACES.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", str(TRACES / f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        raise RuntimeError(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Forked wire ranks live in perfbench's group; none may outlive it.
        kill_group(proc.pid)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with code {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if len(lines) < 3:
        raise RuntimeError("perfbench printed no result")
    return lines


def check_result(result, declared):
    """Raises unless `result` has exactly the declared metrics, each finite
    with its declared unit."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"result keys {sorted(result)}")
    metrics = result["metrics"]
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        raise RuntimeError(f"metrics missing {missing}, undeclared {extra}")
    for name, unit in declared.items():
        m = metrics[name]
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise RuntimeError(f"metric {name} is not a finite number: {v}")
        if not m.get("unit") or m["unit"] != unit:
            raise RuntimeError(f"metric {name} has unit {m.get('unit')!r}, "
                               f"declared {unit!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RuntimeError("no operation attempted")


def declared_metrics(bench, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def measure(bench, workload, seed, seconds, trace):
    lines = run_perfbench(workload, seed, seconds, trace)
    provenance = json.loads(lines[0])
    details = json.loads(lines[-2])
    result = json.loads(lines[-1])
    check_result(result, declared_metrics(bench, trace))
    provenance["provenance"]["source_sha256"] = source_digest()
    provenance["provenance"]["git_sha"] = git_sha()
    return provenance, details, result


def self_check(bench):
    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            try:
                _, _, result = measure(bench, w["name"], 1, SELF_CHECK_SECONDS,
                                       trace)
                status = "ok" if result["correct"] else "INCORRECT"
                ok = ok and result["correct"]
            except (RuntimeError, ValueError, KeyError) as e:
                status, ok = f"FAILED: {e}", False
            print(f"self-check {w['name']} trace={trace}: {status}", flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_check:
        return 0 if self_check(bench) else 1

    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {names}")
        return 2
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    try:
        provenance, details, result = measure(bench, args.workload, args.seed,
                                              seconds, args.trace)
    except (RuntimeError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    print(json.dumps(provenance))
    print(json.dumps(details))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
