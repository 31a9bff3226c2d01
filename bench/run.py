"""Benchmark of mufilt: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's inputs from the seed, then runs the workload in fresh
interpreters (worker.py) with mufilt imported from ./src.  With --trace 0
it reports the end-to-end metrics, with --trace 1 the per-layer metrics of
a traced run.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The same object is written to .bench_out/result-<workload>-<seed>-trace<t>.json,
and a traced run writes its spans to .bench_out/trace-<workload>-<seed>.jsonl.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"  # relative to ROOT, the working directory of every child
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MUFILT_") and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONHOME")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv: list[str], env: dict) -> dict:
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *argv,
         "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "mufilt", "__init__.py")):
        print(f"no mufilt sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    workdir = f"{OUT}/run-{os.getpid()}"
    os.makedirs(os.path.join(ROOT, workdir))
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, workdir)
        for path, text in inputs.pop("files").items():
            with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
                fh.write(text)
        inputs_path = f"{workdir}/inputs.json"
        with open(os.path.join(ROOT, inputs_path), "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)

        env = _child_env()
        common = ["--workload", args.workload, "--inputs", inputs_path, "--src", SRC]
        setups = []
        if not args.trace:
            # the first child also fills the bytecode cache; its time is dropped
            for _ in range(SETUP_SAMPLES):
                setups.append(_spawn(common + ["--setup-only"], env)["setup_s"])
            setups = setups[1:]
        timed = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            timed += ["--trace-out", f"{OUT}/trace-{args.workload}-{args.seed}.jsonl"]
        run = _spawn(common + timed, env)
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["layers"].items()}
    else:
        setups.append(run["setup_s"])
        run["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in UNITS.items()}
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6f} {m['unit']}")
    for line in run["failures"] + run["errors"]:
        print(f"# {line}", file=sys.stderr)
    with open(os.path.join(ROOT, OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
