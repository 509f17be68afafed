#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; scratch files and the trace file go there
too. The last line of stdout is the JSON result; the exit code is nonzero
when the build fails, an output check fails or a count guard trips.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("climate-buffers", "durability-staged", "open-storm-tcp",
             "ensemble-broadcast")
RUN_TIMEOUT_S = 170

_running = []  # the child process, so a signal can stop it first


def _stop(signum, _frame):
    for child in _running:
        child.kill()
        child.wait()
    sys.exit(128 + signum)


def call(command, timeout=None, **kwargs):
    """Runs a child to completion; kills and reaps it on timeout."""
    child = subprocess.Popen(command, **kwargs)
    _running.append(child)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise
    finally:
        _running.remove(child)
    return child.returncode, out


def build(root, build_dir):
    """Configures (once) and builds the perfbench target; output to stderr."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print("perfbench: no program sources beside the benchmark",
              file=sys.stderr)
        return False
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if call(configure, stdout=sys.stderr)[0] != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return call(["cmake", "--build", str(build_dir), "-j", jobs],
                stdout=sys.stderr)[0] == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    root = Path(__file__).resolve().parent.parent
    out_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_dir / "perfbench"
    if not build(root, build_dir):
        return 2

    scratch = out_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scratch", str(scratch),
               "--trace-out",
               str(out_dir / f"trace-{args.workload}-{args.seed}.json")]
    try:
        code, stdout = call(command, timeout=RUN_TIMEOUT_S,
                            stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, TMPDIR=str(scratch)))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
