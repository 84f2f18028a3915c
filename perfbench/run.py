"""End-to-end benchmark of the TGI reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` alternates untraced ops with ops whose layer entry points
are wrapped by :mod:`tracing`, reports the per-layer metrics and writes
the spans and per-op trees to ``perfbench/out/``.  Either way every op's
output is checked, outside the timed region, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("paper", "scale", "fleet", "campaign")
#: Fresh interpreters timed per run for ``setup_s`` / ``import.cold_s``.
PROBES = 3
#: Timed ops per run, at least (per side in a traced run).
MIN_OPS = 3

#: Seconds :func:`calibrate` takes in a quiet spell of the reference host
#: (2 vCPUs, Python 3.11.7, NumPy 2.4).  Scaled times are in seconds of
#: that host.
CAL_REF_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "pcc_abs_err": "1",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as a fresh-interpreter start-up probe (see run_probes).
    parser.add_argument("--probe", choices=("import", "setup"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux), so that the peak read
    after an op is the op's own and not the calibration kernel's."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, allocation and NumPy work
    outside ``repro``.

    On shared virtual CPUs every op slows by up to half for spells of tens
    of seconds, and so does this kernel.  Each timed op and each set-up
    probe is therefore also reported scaled by ``CAL_REF_S`` over the mean
    of the kernel times just before and just after it.  The kernel calls
    no BLAS routine: BLAS threads make it track the other vCPU's load.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    np.sort(np.random.default_rng(0).random(200_000))
    # Small pieces, so that little memory stays resident between ops.
    for _ in range(3):
        records = [{"a": i, "b": (i, float(i))} for i in range(10_000)]
    del records
    for _ in range(15):
        values = np.empty(200_000)
        values.fill(1.0)
        np.cumsum(values) * 2.0 + values
    return time.perf_counter() - start


def probe(args) -> int:
    """Print CLOCK_MONOTONIC stamps at the end of the cold import and of set-up."""
    import repro.cli  # noqa: F401  (the import a ``tgi`` user pays)

    stamps = {"import": time.monotonic()}
    if args.probe == "setup":
        import workloads

        OUT.mkdir(exist_ok=True)
        workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
        try:
            workload.setup()
            workload.op(workload.inputs(0))
            stamps["setup"] = time.monotonic()
        finally:
            workload.close()
    print(json.dumps(stamps))
    return 0


def run_probes(args, kind: str) -> list:
    """Seconds from spawning a fresh interpreter to each of its stamps, as
    ``(raw, scaled)`` pairs (see :func:`calibrate`)."""
    results = []
    cal_before = calibrate()
    for _ in range(PROBES):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--probe", kind,
        ]
        spawned = time.monotonic()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"{kind} probe failed:\n{done.stderr}")
        stamps = json.loads(done.stdout.strip().splitlines()[-1])
        cal_after = calibrate()
        scale = 2 * CAL_REF_S / (cal_before + cal_after)
        results.append({key: (value - spawned, (value - spawned) * scale) for key, value in stamps.items()})
        cal_before = cal_after
    return results


class Run:
    """One benchmark run: ops, their summaries and their failures."""

    def __init__(self, workload):
        self.workload = workload
        self.summaries = {}
        self.failed_ops = {}

    def op(self, index: int, tracer=None):
        """Run op ``index``; returns its wall and CPU seconds and its peak
        RSS in KiB (zeros where traced), or ``None`` if it raised."""
        try:
            inputs = self.workload.inputs(index)
            if tracer is None:
                reset_peak_rss()
                cpu0, t0 = cpu_seconds(), time.perf_counter()
                output = self.workload.op(inputs)
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                tracer.install()
                try:
                    with tracer.op_span(index):
                        output = self.workload.op(inputs)
                finally:
                    tracer.uninstall()
                wall, cpu, peak_kib = tracer.op_tree(index)["wall_s"], 0.0, 0
            self.summaries[index] = self.workload.summarize(index, output)
        except Exception:
            self.failed_ops[index] = [traceback.format_exc()]
            return None
        return {"wall": wall, "cpu": cpu, "peak_kib": peak_kib}

    def loop(self, seconds: float, tracer=None):
        """Time ops 1, 2, ... for ``seconds``.

        Returns ``(untraced, traced)`` lists of :meth:`op` results, each
        with a ``scale`` that converts the op's times to reference-host
        seconds (see :func:`calibrate`).  With a tracer, odd ops run traced and
        even ops untraced.
        """
        timings = ([], [])
        start, index = time.perf_counter(), 1
        cal_before = calibrate()
        while True:
            side = index % 2 if tracer is not None else 0
            timing = self.op(index, tracer if side else None)
            cal_after = calibrate()
            if timing is not None:
                timing["scale"] = 2 * CAL_REF_S / (cal_before + cal_after)
                timings[side].append(timing)
            cal_before = cal_after
            index += 1
            elapsed = time.perf_counter() - start
            sides = timings if tracer is not None else timings[:1]
            if elapsed >= seconds and min(len(t) for t in sides) >= MIN_OPS:
                return timings
            if elapsed >= 10 * seconds + 60:
                raise RuntimeError("too few ops succeeded to measure")

    def verdict(self):
        """``(attempted, problems by op)`` over every op and extra check op."""
        problems = dict(self.failed_ops)
        for index, summary in self.summaries.items():
            found = self.workload.check(index, summary)
            if found:
                problems[index] = found
        attempted = len(self.summaries) + len(self.failed_ops)
        try:
            for label, found in self.workload.final_ops():
                attempted += 1
                if found:
                    problems[label] = found
        except Exception:
            attempted += 1
            problems["final ops"] = [traceback.format_exc()]
        return attempted, problems


def end_to_end(args, run: Run):
    run.op(0)  # warm-up
    timings, _ = run.loop(args.seconds)
    rss_kib = max(
        max(t["peak_kib"] for t in timings),
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    attempted, problems = run.verdict()
    ok = [s for i, s in run.summaries.items() if i not in problems]
    setups = [p["setup"] for p in run_probes(args, "setup")]
    unscaled = {
        "setup_s": statistics.median(raw for raw, _ in setups),
        "ops_per_s": len(timings) / sum(t["wall"] for t in timings),
        "op_p50_s": statistics.median(t["wall"] for t in timings),
        "cpu_per_op_s": statistics.median(t["cpu"] for t in timings),
    }
    for name, value in unscaled.items():
        print(f"{args.workload} {name} (unscaled) = {value:.6g} {END_TO_END_UNITS[name]}")
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "ops_per_s": len(timings) / sum(t["wall"] * t["scale"] for t in timings),
        "op_p50_s": statistics.median(t["wall"] * t["scale"] for t in timings),
        "cpu_per_op_s": statistics.median(t["cpu"] * t["scale"] for t in timings),
        "peak_rss_mb": rss_kib / 1024.0,
        "ok_ratio": (attempted - len(problems)) / attempted,
        "pcc_abs_err": run.workload.pcc_abs_err(ok),
    }
    return attempted, problems, metrics


def traced(args, run: Run):
    tracer = tracing.Tracer()
    run.op(0)  # warm-up
    untraced_timings, traced_timings = run.loop(args.seconds, tracer)
    attempted, problems = run.verdict()
    per_op, trees = [], {}
    for index, summary in run.summaries.items():
        if index % 2 == 0:
            continue
        trees[index] = tree = tracer.op_tree(index)
        per_op.append(tracing.layer_metrics(tree, tracer.counts[index], summary))
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    metrics["trace.overhead_ratio"] = statistics.median(
        t["wall"] * t["scale"] for t in traced_timings
    ) / statistics.median(t["wall"] * t["scale"] for t in untraced_timings)
    metrics["import.cold_s"] = statistics.median(
        scaled for _, scaled in (p["import"] for p in run_probes(args, "import"))
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "missing_entry_points": tracer.missing,
                "metrics": metrics,
                "ops": trees,
                "spans": tracer.span_dicts(),
            },
            indent=1,
        )
    )
    return attempted, problems, dict(sorted(metrics.items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe:
        return probe(args)

    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        workload.setup()
        run = Run(workload)
        measure = traced if args.trace else end_to_end
        attempted, problems, metrics = measure(args, run)
    finally:
        workload.close()
    units = END_TO_END_UNITS if not args.trace else tracing.LAYER_UNITS
    for index, found in problems.items():
        for problem in found:
            print(f"FAILED op {index}: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
