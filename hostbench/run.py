#!/usr/bin/env python3
"""Host wall-clock benchmark runner.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark (hostbench/CMakeLists.txt,
which compiles the libraries under src/) into $CARGO_TARGET_DIR/hostbench
(default .bench_build/hostbench), runs one workload in its own process under a
watchdog, and prints as the last line of stdout one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

A per-layer metric that the workload does not exercise (hostbench/metrics.json
lists where each one is measured) is reported as 0: that workload did no work
in that layer.

A run whose process does not exit after writing its result (a teardown hang)
is killed and counts as a failed run: every unit of it fails and ok_frac is 0.

The build log, the human-readable report and watchdog notes go to stderr; the
side report (machine facts, sample counts) and the Chrome trace of a traced
run are written under the build directory.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 170.0  # the whole invocation, build included, except a first build
TEARDOWN_GRACE_S = 10.0  # after the result line, for the process to exit
WORKLOADS = ("zoo_infer", "showcase_stream", "serve_burst", "deploy_warm")


def log(message):
    print(f"[hostbench] {message}", file=sys.stderr, flush=True)


def fail(code, message):
    log(message)
    sys.exit(code)


def build(build_dir):
    """Configure once, then (re)build; returns True when it had to configure."""
    configured = (build_dir / "CMakeCache.txt").exists()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not configured:
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if result.returncode != 0:
            fail(3, f"build step failed: {' '.join(step)}")
    return not configured


def run_workload(binary, args, work_dir, deadline):
    """Run one workload under the watchdog; returns (result dict, hung flag)."""
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                               cwd=ROOT)
    lines = []
    result_seen = threading.Event()

    def read_stdout():
        for line in process.stdout:
            lines.append(line.rstrip("\n"))
            if line.startswith("{"):
                result_seen.set()

    reader = threading.Thread(target=read_stdout, daemon=True)
    reader.start()
    hung = False
    while process.poll() is None:
        now = time.monotonic()
        if result_seen.is_set():
            # Results are written before teardown; a process that then does
            # not exit (e.g. a pool shutdown hang) is killed and recorded.
            try:
                process.wait(timeout=TEARDOWN_GRACE_S)
            except subprocess.TimeoutExpired:
                hung = True
                log("watchdog: teardown did not finish; process killed")
                process.kill()
                process.wait()
            break
        if now > deadline:
            log("watchdog: no result before the deadline; process killed")
            process.kill()
            process.wait()
            reader.join(timeout=5)
            fail(4, "run hung before writing its result")
        time.sleep(0.05)
    reader.join(timeout=5)
    results = [line for line in lines if line.startswith("{")]
    if not results:
        fail(5, f"benchmark exited with code {process.returncode} without a result")
    if process.returncode != 0 and not hung:
        fail(5, f"benchmark exited with code {process.returncode}")
    return json.loads(results[-1]), hung


def shape_metrics(result, args, spec, layer_homes):
    """Keep exactly the metric set BENCHMARK.json names for this mode."""
    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    measured = result["metrics"]
    extra = set(measured) - {m["name"] for m in wanted}
    if extra:
        fail(6, f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            if measured[name]["unit"] != metric["unit"]:
                fail(6, f"unit of {name} is {measured[name]['unit']}, "
                        f"BENCHMARK.json says {metric['unit']}")
            metrics[name] = measured[name]
        elif args.trace == 1 and args.workload not in layer_homes.get(name, ()):
            metrics[name] = {"value": 0, "unit": metric["unit"]}
        else:
            fail(6, f"workload {args.workload} did not report {name}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_homes = {name: layer["measured_on"]
                   for name, layer in json.loads((HERE / "metrics.json").read_text())
                   ["per_layer"].items()}

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "hostbench"
    first_build = build(build_dir)
    deadline = (time.monotonic() if first_build else start) + RUN_DEADLINE_S

    work_dir = build_dir / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, hung = run_workload(build_dir / "hostbench", args, work_dir, deadline)
    if hung:
        result["failed"] = result["attempted"]
        if "ok_frac" in result["metrics"]:
            result["metrics"]["ok_frac"]["value"] = 0.0
    if args.workload in {w["name"] for w in spec["workloads"]}:
        result["metrics"] = shape_metrics(result, args, spec, layer_homes)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)


if __name__ == "__main__":
    main()
