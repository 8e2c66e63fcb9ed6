"""Benchmark of majorana-pt: one closed-loop client, checked outputs.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload verify --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload requests --seed 3 --seconds 40 --trace 1

``--trace 0`` is the untraced run.  It measures set-up time in fresh
processes, then repeats the workload's unit (see ``workloads.py``) in this
process until ``--seconds`` have passed, and reports the end-to-end metrics,
with timings scaled to a reference host speed (see ``speed.py``).
``--trace 1`` alternates untraced and traced units for ``--seconds`` and
reports the per-layer metrics from the traced units (see ``tracer.py``),
with the tracing overhead measured between the two kinds of unit.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result (machine facts, failing requests, sample counts) is written to
``perfbench/out/``, and a traced run also writes its spans there.
"""

import time

_IMPORT_STARTED = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: Fresh processes per run whose set-up times give the ``setup_s`` median.
SETUP_PROBES = {"full": 5, "tiny": 1}
#: End-to-end metrics of the untraced run, with units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
#: op_p90_ms is a well-founded tail only with at least this many samples.
P90_MIN_SAMPLES = 100


def load_program():
    """Import majorana_pt from this checkout's ``src`` and the benchmark modules."""
    package = os.path.join(SRC, "majorana_pt")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"run.py: {package} not found; run from a repository checkout")
    sys.path[:0] = [SRC, ROOT]
    import majorana_pt

    if os.path.dirname(os.path.abspath(majorana_pt.__file__)) != package:
        raise SystemExit(f"run.py: imported majorana_pt from {majorana_pt.__file__}, "
                         f"not from {package}")
    from perfbench import workloads

    return workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="majorana-pt benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("verify", "sweep-large", "requests"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test inputs for the benchmark's own tests")
    parser.add_argument("--probe", action="store_true",
                        help="internal: one set-up measurement in this fresh process")
    return parser.parse_args(argv)


def probe(args) -> None:
    """Import, run the workload's probe operations, print the set-up time."""
    workloads = load_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        workload = workloads.Workload(args.workload, args.seed, workdir, args.size)
        outcomes = [workloads.execute(op) for op in workload.probe()]
        setup_s = time.perf_counter() - _IMPORT_STARTED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from perfbench import speed

    print(json.dumps({"setup_s": setup_s, "calibration_s": speed.task_seconds(),
                      "failures": [o.failure for o in outcomes if o.failure],
                      "ops": len(outcomes)}))


def measure_setup(args) -> tuple[list[dict], int, list[str]]:
    """Set-up and calibration times of fresh processes, their op count and failures."""
    samples, ops, failures = [], 0, []
    command = [sys.executable, os.path.abspath(__file__), "--probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
    for _ in range(SETUP_PROBES[args.size]):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise SystemExit(f"run.py: set-up probe exited {done.returncode}: {done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append({"setup_s": result["setup_s"], "calibration_s": result["calibration_s"]})
        ops += result["ops"]
        failures += result["failures"]
    return samples, ops, failures


def run_untraced(workloads, unit, seconds, host=None):
    """Repeat whole units for ``seconds``; also return each op's time scaled by ``host``."""
    from perfbench import speed

    host = host or speed.HostSpeed()
    outcomes, units = [], 0
    started = time.perf_counter()
    while units == 0 or time.perf_counter() - started < seconds:
        for op in unit:
            host.before_op()
            outcomes.append(workloads.execute(op))
            host.after_op(outcomes[-1].seconds)
        units += 1
    return outcomes, host.scaled(), units


def run_traced(workloads, unit, seconds, tracer):
    """Alternate untraced and traced units, starting untraced, at least one of each."""
    outcomes, unit_s = [], {False: [], True: []}
    started = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - started < seconds:
        traced = index % 2 == 1
        quiet = tracer.paused if traced else contextlib.nullcontext
        if traced:
            tracer.install()
            tracer.begin_unit(index)
        try:
            done = []
            for position, op in enumerate(unit):
                tracer.op = position
                done.append(workloads.execute(op, quiet))
        finally:
            if traced:
                tracer.uninstall()
        unit_s[traced].append(sum(o.seconds for o in done))
        outcomes += done
        index += 1
    return outcomes, unit_s[True], unit_s[False]


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99), linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(setup_s, op_s) -> dict:
    """The timing metrics from set-up times and operation times, in seconds."""
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(op_s) / sum(op_s),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p90_ms": quantile(op_s, 90) * 1e3,
    }


def failing_requests(outcomes) -> list[dict]:
    """Distinct failing operations with their kind, N, mu and first reason."""
    seen = {}
    for o in outcomes:
        if o.failure is not None:
            key = (o.op.kind, o.op.n, o.op.mu)
            if key not in seen:
                seen[key] = {"kind": o.op.kind, "N": o.op.n, "mu": o.op.mu,
                             "in_domain": o.op.in_domain, "reason": o.failure, "count": 0}
            seen[key]["count"] += 1
    return sorted(seen.values(), key=lambda f: (f["kind"], f["mu"] or 0, f["N"] or 0))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    if args.seconds <= 0:
        raise SystemExit("run.py: --seconds must be positive")
    workloads = load_program()
    from perfbench import facts, speed, tracer as tracing

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_ops, setup_failures = 0, []
    if args.trace == 0:
        setup_samples, setup_ops, setup_failures = measure_setup(args)

    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        workload = workloads.Workload(args.workload, args.seed, workdir, args.size)
        unit = workload.unit()
        if args.trace == 0:
            host = speed.HostSpeed()
            outcomes, scaled, units = run_untraced(workloads, unit, args.seconds, host)
        else:
            tracer = tracing.Tracer()
            outcomes, traced_s, untraced_s = run_traced(workloads, unit, args.seconds, tracer)
            units = len(traced_s) + len(untraced_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # failed_frac and ok_frac cover the measured operations only: whole units
    # repeat, so they are the same on every run of one seed.  The set-up
    # probes' operations count in attempted and, if they fail, in failed.
    times = [o.seconds for o in outcomes]
    failed_all = sum(o.failure is not None for o in outcomes)
    failed_domain = sum(o.failure is not None and o.op.in_domain for o in outcomes)
    failed_domain += len(setup_failures)
    attempted = len(outcomes) + setup_ops
    summary = {
        "ops": len(outcomes),
        "units": units,
        "ops_per_unit": len(unit),
        "failed_frac": failed_all / len(outcomes),
        "failed": failed_all,
        "failed_in_domain": failed_domain,
        "setup_ops": setup_ops,
        "setup_failures": setup_failures,
    }
    if args.trace == 0:
        setup_raw = [p["setup_s"] for p in setup_samples]
        setup_scaled = [p["setup_s"] * speed.REFERENCE_S / p["calibration_s"]
                        for p in setup_samples]
        raw = timing_metrics(setup_raw, times)
        values = {
            **timing_metrics(setup_scaled, scaled),
            "ok_frac": 1.0 - summary["failed_frac"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit_name}
                   for name, unit_name in END_TO_END.items()}
        summary.update(raw_timings=raw, setup_samples=setup_samples, op_samples=len(times),
                       calibration_s=host.samples,
                       slowdown_median=statistics.median(host.samples) / speed.REFERENCE_S)
        print(f"{args.workload} seed={args.seed}: {len(times)} ops in {units} units; "
              f"host {summary['slowdown_median']:.3f}x slower than the reference "
              f"(median of {len(host.samples)} calibrations)")
        print(f"  {'metric':<12} {'scaled':>12} {'raw':>12}")
        for name, metric in metrics.items():
            print(f"  {name:<12} {metric['value']:12.6g} {raw.get(name, metric['value']):12.6g}"
                  f" {metric['unit']}")
        print(f"  {'failed_frac':<12} {summary['failed_frac']:12.6g} ratio "
              f"({failed_all}/{len(outcomes)} measured operations; {failed_domain} failed "
              f"inside the measured domain, set-up probes included)")
        if len(times) < P90_MIN_SAMPLES:
            print(f"  note: op_p90_ms rests on {len(times)} samples "
                  f"(fewer than {P90_MIN_SAMPLES})")
    else:
        specs = tracing.metric_specs()
        values = tracer.metrics(traced_s, untraced_s)
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
        summary["traced_unit_s"] = traced_s
        summary["untraced_unit_s"] = untraced_s
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        print(f"{args.workload} seed={args.seed}: {tracer.units} traced and "
              f"{len(untraced_s)} untraced units; {len(tracer.spans)} spans in {spans_path}")
        print(f"  tracing overhead {values['trace.overhead_frac']:.3%} "
              f"(unit medians {statistics.median(traced_s):.4g} s traced, "
              f"{statistics.median(untraced_s):.4g} s untraced)")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "facts": facts.collect(ROOT),
        "summary": summary,
        "failing": failing_requests(outcomes),
        "metrics": metrics,
    }
    result_path = os.path.join(OUT, f"result-{tag}.json")
    with open(result_path, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"  result written to {result_path}")
    print(json.dumps({"correct": failed_domain == 0, "attempted": attempted,
                      "failed": failed_domain, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
