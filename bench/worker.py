"""One workload in a fresh interpreter; started by run.py, not by hand.

Order of events: load the inputs run.py wrote, import mufilt, warm up, then
either report the set-up time and exit (--setup-only) or run the timed
loop, check the outputs and report.  Set-up time runs from the moment
run.py started this process to the first timed operation, minus the time
spent loading the inputs.

The timed loop is closed: one caller on one thread starts the next
operation when the previous one returns, and repeats whole rounds of the
input operations until --seconds have passed and at least MIN_OPS ran.
With --trace 1, untraced and traced rounds alternate; end-to-end metrics
are not reported then.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import workloads

MIN_OPS = 100
MAX_REPORTED_ERRORS = 5


def _cli_runner(cli):
    def run(op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(op["argv"])
        return code, out.getvalue()

    return run


def _sweep_runner(sc, pc):
    h = workloads.SWEEP_H

    def run(op):
        # the body of the tier-1 K sweep for one signature
        f, q = op["f"], op["q"]
        sig = sc.Signature(f=f, p=op["p"], h=h, q=q)
        consts = sc.constants(sig)
        maps = [(t, pc.multiplication_map(sig, t)) for t in range(f) if q[t] not in (0, h)]
        return 0, (consts, maps)

    return run


class Loop:
    """Runs rounds of the operations and keeps what the checks need."""

    def __init__(self, ops, runner, compare_repeats):
        self.ops = ops
        self.runner = runner
        self.compare_repeats = compare_repeats
        self.first = [None] * len(ops)
        self.failures = []
        self.mismatches = 0
        self.latencies = []

    def round(self, tracer=None) -> float:
        """One pass over the operations; returns the summed op time."""
        total = 0.0
        perf = time.perf_counter
        for i, op in enumerate(self.ops):
            root = tracer.begin_op() if tracer else None
            t0 = perf()
            try:
                code, out = self.runner(op)
            except Exception as exc:  # an escaped exception is a failed op
                code, out = repr(exc), None
            elapsed = perf() - t0
            if tracer:
                tracer.end_op(root)
            self.latencies.append(elapsed)
            total += elapsed
            if code != 0:
                self.failures.append((i, code))
            elif self.first[i] is None:
                self.first[i] = out
            elif self.compare_repeats and out != self.first[i]:
                self.mismatches += 1
        return total


def check(workload, ops, outputs) -> list[str]:
    errors = []
    for op, out in zip(ops, outputs):
        if out is None:
            continue
        if workload == "period-sweep":
            found = workloads.check_sweep(op, out)
        else:
            found = workloads.check_output(op, out)
        errors += [f"{op.get('argv', op)}: {e}" for e in found]
    if workload in ("hn-sig", "hn-lattice"):
        errors += workloads.check_pairs(ops, outputs)
    return errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    load_start = time.monotonic()
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    ops = inputs["ops"]
    if args.workload == "period-sweep":
        for op in ops:
            op["q"] = tuple(op["q"])
    load_s = time.monotonic() - load_start

    import mufilt.cli_reports as cli
    import mufilt.period_calculus as pc
    import mufilt.signature_core as sc

    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"mufilt was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    runner = _sweep_runner(sc, pc) if args.workload == "period-sweep" else _cli_runner(cli)
    for i in inputs["warmup"]:
        runner(ops[i])
    setup_s = time.monotonic() - args.spawned_at - load_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # CLI stdout is compared byte for byte on every repetition.  Untraced
    # period-sweep results are only checked once: comparing the result
    # objects costs about 3% of an op (19 of 605 us).
    loop = Loop(ops, runner, compare_repeats=args.workload != "period-sweep" or args.trace)
    result = {"setup_s": setup_s}
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer("mufilt")
        times = {False: 0.0, True: 0.0}
        counts = {False: 0, True: 0}
        begin = time.perf_counter()
        traced = False
        while True:
            if traced:
                tracer.install()
            try:
                times[traced] += loop.round(tracer if traced else None)
            finally:
                tracer.uninstall()
            counts[traced] += len(ops)
            traced = not traced
            if (not traced and time.perf_counter() - begin >= args.seconds
                    and sum(counts.values()) >= MIN_OPS):
                break
        metrics = layer_metrics(tracer, counts[True])
        overhead = times[True] / counts[True] - times[False] / counts[False]
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
        result["layers"] = metrics
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "ops": counts[True]})
    else:
        cpu0 = time.process_time()
        begin = time.perf_counter()
        while True:
            loop.round()
            if time.perf_counter() - begin >= args.seconds and len(loop.latencies) >= MIN_OPS:
                break
        wall = time.perf_counter() - begin
        cpu = time.process_time() - cpu0
        lat = loop.latencies
        result.update(
            ops_per_s=len(lat) / wall,
            latency_p50_ms=statistics.median(lat) * 1e3,
            latency_p90_ms=statistics.quantiles(lat, n=10)[-1] * 1e3,
            cpu_ms_per_op=cpu / len(lat) * 1e3,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )

    errors = check(args.workload, ops, loop.first)
    if loop.mismatches:
        errors.append(f"{loop.mismatches} repeated ops gave different output")
    result.update(
        attempted=len(loop.latencies),
        failed=len(loop.failures),
        failures=[f"{ops[i].get('argv', ops[i])}: {code}"
                  for i, code in loop.failures[:MAX_REPORTED_ERRORS]],
        errors=errors[:MAX_REPORTED_ERRORS],
        correct=not errors,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
