#!/usr/bin/env python3
"""The repository benchmark: build fcsl-perfbench from source, run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: corpus, corpus_reduced, diamond3, daemon (see perfbench/README.md).
The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/ at the repository root; later calls only rebuild what changed.
Each run gets a fresh directory under .bench_build/runs/ for its store and
socket, removed afterwards. Traced runs write their spans to
.bench_build/traces/. The last line of standard output is the run's JSON
result; nothing is printed there when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "fcsl-perfbench"
WORKLOADS = ["corpus", "corpus_reduced", "diamond3", "daemon"]
END_TO_END = ["setup_s", "op_ms_p50", "op_ms_tail", "throughput_per_s",
              "peak_rss_mb"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.exists()


def revision():
    """Git revision when there is one, plus a hash of the sources built."""
    rev = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()[:12]
    digest = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"git:{rev} src:{digest.hexdigest()[:12]}"


def run_binary(args, cwd):
    """Runs the benchmark binary in its own process group; returns
    (returncode, stdout) or (None, stdout) on timeout."""
    proc = subprocess.Popen([str(BINARY)] + args, cwd=cwd,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out


def result_of(stdout):
    lines = stdout.rstrip("\n").split("\n")
    try:
        res = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return None
    return res


def run_workload(opts):
    if not build():
        return 1
    rev = revision()
    workdir = BUILD / "runs" / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    traces = BUILD / "traces"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", opts.trace,
            "--rev", rev]
    if opts.trace == "1":
        args += ["--trace-out",
                 str(traces / f"{opts.workload}-seed{opts.seed}.json")]
    try:
        code, out = run_binary(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code is None:
        sys.stderr.write(out)
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    if code != 0 or result_of(out) is None:
        sys.stderr.write(out)
        log(f"run failed (exit {code})")
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


def self_test():
    """The binary's own checks, plus agreement between BENCHMARK.json and
    the metric names the binary prints."""
    if not build():
        return 1
    ok = True
    workdir = BUILD / "runs" / f"self-test-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        code, out = run_binary(["--self-test"], workdir)
        sys.stdout.write(out)
        ok &= code == 0
        code, out = run_binary(["--list-metrics"], workdir)
        ok &= code == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads(out) if code == 0 else []
    if [m["name"] for m in spec["per_layer"]] != [m["name"] for m in layers]:
        print("self-test FAILED: BENCHMARK.json per_layer differs from "
              "--list-metrics")
        ok = False
    if sorted(m["name"] for m in spec["end_to_end"]) != sorted(END_TO_END):
        print("self-test FAILED: BENCHMARK.json end_to_end names")
        ok = False
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        print("self-test FAILED: BENCHMARK.json workloads")
        ok = False
    print("run.py self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.self_test:
        return self_test()
    if None in (opts.workload, opts.seed, opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_workload(opts)


if __name__ == "__main__":
    sys.exit(main())
