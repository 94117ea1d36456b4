#!/usr/bin/env python3
"""Build and run the gscope serving benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --selftest

Configures and builds servebench/ (which compiles the gscope library from
src/) into $CARGO_TARGET_DIR/servebench, default .bench_build/servebench,
runs the benchmark's self-test, then runs one workload.  The last line of
stdout is the result object; every other line is a human-readable report.
Exits non-zero without a result when the build, the self-test or the run
fails.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (ROOT / "src" / "net" / "stream_server.cc").is_file():
        log(f"gscope sources not found under {ROOT / 'src'}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, timeout=840).returncode == 0


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target / "servebench"
    if not build(build_dir):
        log("build failed")
        return 1
    selftest = subprocess.run([str(build_dir / "servebench_selftest")], stdout=sys.stderr,
                              timeout=60)
    if selftest.returncode != 0:
        log("self-test failed")
        return 1
    if argv == ["--selftest"]:
        return 0

    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 != 0 or "--workload" not in args:
        log("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
        return 2
    out_dir = target / "servebench-out" / args["--workload"]
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([str(build_dir / "servebench"), *argv, "--out", str(out_dir)],
                          stdout=subprocess.PIPE, text=True, timeout=178)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = expected_metrics(args.get("--trace") == "1")
    if want is not None and set(result["metrics"]) != want:
        log(f"metric names differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ want)}")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
