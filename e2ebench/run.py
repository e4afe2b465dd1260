#!/usr/bin/env python3
"""Builds and runs the qdb end-to-end benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload cardest_fleet|rollout \
        --seed N --seconds S --trace 0|1

Builds e2ebench/ (and the library sources under src/) with CMake into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench, relative to the
repository root), runs one workload, and prints the binary's output. The
last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}. Each result is also appended, with the host stamp, to
<build root>/results/<workload>.jsonl for e2ebench/compare.py; a traced
run leaves its Chrome trace and report under <build root>/traces/.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cardest_fleet", "rollout")
# The pool's lanes are the dispatcher plus QDB_THREADS - 1 workers; with
# clients blocked on their replies, 4 lanes keep the 4-CPU host busy
# without oversubscribing it.
QDB_THREADS = "4"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_ = ["cmake", "--build", str(build_dir), "-j", "4"]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = build_dir / "qdb_e2ebench"
    if not binary.is_file():
        fail(f"{binary} was not built")
    return binary


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root / "e2ebench")

    work = build_root / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
    env = dict(os.environ, QDB_THREADS=QDB_THREADS)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{args.workload} exited with {proc.returncode}")

    result = json.loads(lines[-1])
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")),
                None)
    names = expected_metrics(args.trace)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")

    if args.trace:
        traces = build_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        for path in work.glob(f"{args.workload}.*.json"):
            target = traces / f"{path.stem}-seed{args.seed}.json"
            shutil.move(str(path), target)
    shutil.rmtree(work, ignore_errors=True)

    results = build_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "result": result}
    with open(results / f"{args.workload}.jsonl", "a") as out:
        out.write(json.dumps(record) + "\n")

    for line in lines[:-1]:
        print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
