"""The cca benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload check-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

With --trace 0 it measures the end-to-end metrics with tracing off; with
--trace 1 it reports per-layer metrics from spans recorded around calls into
each module, plus the tracing overhead.  Every output is checked against the
reference recorded in bench/reference/ and against the paper's facts.

A run repeats the workload's fixed work in passes for --seconds seconds, at
least one pass.  Times are reported in reference seconds (see speed.py): each
operation's measured time scaled by the host speed sampled while it ran, because
on a shared host the same work takes up to 1.5x longer for minutes at a
time.  An operation's latency is the median of its reference times over the
passes; wall_s is the sum of those latencies, the fixed work's time to
solution; setup_s is the median over SETUP_PROBES fresh processes, each
scaled by a baseline process started just before it.  The
measured seconds are kept beside them in bench/out/.  The last line of stdout
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout holds no cca source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

from speed import HostSpeed
from workloads import RECIPE_ORDER, WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 9
# About the set-up baseline's time on the 2-core Xeon host the benchmark was
# written on; see measure_setup.
BASELINE_S = 0.15

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("perms.pmul.calls", "count"),
    ("groups.close_generators.s", "s"),
    ("groups.close_generators.calls", "count"),
    ("groups.close_generators.elements", "count"),
    ("groups.is_normal.s", "s"),
    ("groups.is_normal.calls", "count"),
    ("groups.normal_subgroups.s", "s"),
    ("groups.find_isomorphism.s", "s"),
    ("builders.build_spec.s", "s"),
    ("builders.build_spec.calls", "count"),
    ("graphs.ColouredCayleyGraph.s", "s"),
    ("graphs.ColouredCayleyGraph.calls", "count"),
    ("graphs.graph_automorphisms.s", "s"),
    ("engine.autc_group.s", "s"),
    ("engine.autc_group.self_s", "s"),
    ("engine.autc_group.calls", "count"),
    ("engine.autc_stabiliser.s", "s"),
    ("engine.stabiliser.elements", "count"),
    ("engine.aut_pm1_group.s", "s"),
    ("engine.fast_cca_verdict.s", "s"),
    ("engine.fast_cca_verdict.calls", "count"),
    ("engine.fast_cca_verdict.noncca", "count"),
    ("engine.refused", "count"),
    ("engine.predicted_autc_complete.s", "s"),
    ("structure.enumerate_connection_sets.s", "s"),
    ("structure.enumerate_connection_sets.self_s", "s"),
    ("structure.decompose_structure.s", "s"),
    ("structure.reduction_gamma_prime.s", "s"),
    ("structure.converse_build.s", "s"),
    ("constructions.line_graph_construction.s", "s"),
    ("constructions.subdivision_construction.s", "s"),
    ("constructions.wreath_witness.s", "s"),
    *[(f"recipes.{rid}.s", "s") for rid in RECIPE_ORDER],
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def time_to_ready(argv: list[str]) -> float:
    """Seconds from starting a process to its first line, `ready`."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{argv[1]} failed with exit code {code}")
    return seconds


def measure_setup(steps: list[str]) -> tuple[list[float], list[float]]:
    """SETUP_PROBES set-up times, as measured and in reference seconds.

    Set-up is mostly process start and imports, which the speed kernel does
    not track.  Each probe is scaled instead by a baseline timed just before
    it: a fresh interpreter that imports numpy and nothing of cca.  A
    reference second is then a second on a host where that baseline takes
    BASELINE_S."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), *steps]
    baseline = [sys.executable, "-c", "import numpy; print('ready')"]
    measured, reference = [], []
    for _ in range(SETUP_PROBES):
        base = time_to_ready(baseline)
        measured.append(time_to_ready(probe))
        reference.append(measured[-1] * BASELINE_S / base)
    return measured, reference


def run_pass(tasks, tracer=None) -> list[Op]:
    """Each task once, in order."""
    ops = []
    for task in tasks:
        call = task.call if tracer is None else partial(tracer.span,
                                                        task.span, task.call)
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:   # noqa: BLE001 - counted, not fatal
            end = time.perf_counter()
            status, detail = (
                task.on_error(exc) if task.on_error else
                ("failed", f"{task.item}: {type(exc).__name__}: {exc}"))
        else:
            end = time.perf_counter()
            status, detail = task.check(out)
        ops.append(Op(task.item, start, end, status, detail, task.cls))
    return ops


def measure(tasks, seconds: float):
    """Passes of the workload's fixed work until the next one would end
    past `seconds`; at least one.  Returns each pass's time and operations,
    and the host speed sampled meanwhile."""
    speed = HostSpeed()
    passes, runs = [], []
    with speed.sampling():
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            runs.append(run_pass(tasks))
            passes.append(time.perf_counter() - t0)
            if (time.perf_counter() - start + statistics.median(passes)
                    > seconds):
                return passes, runs, speed


def reference_latencies(runs, speed: HostSpeed) -> dict[str, float]:
    """Each operation's median over the passes of its reference seconds."""
    by_item: dict[str, list[float]] = {}
    for ops in runs:
        for op in ops:
            by_item.setdefault(op.item, []).append(
                speed.reference_seconds(op.start, op.end))
    return {item: statistics.median(v) for item, v in by_item.items()}


def measure_traced(tasks, cca):
    """Three passes: pmul calls counted (one counter, no spans), then an
    untraced pass, then a pass with every span on.  The overhead compares the
    last two, which start from the same warm caches, in reference seconds;
    span times are measured seconds less the sampler's own time."""
    from tracing import Tracer, count_calls

    counts: Counter = Counter()
    patches = count_calls(cca, "perms", "pmul", counts, "perms.pmul.calls")
    try:
        ops = run_pass(tasks)
    finally:
        patches.undo()
    speed = HostSpeed()
    tracer = Tracer()
    with speed.sampling():
        untraced_ops = run_pass(tasks)
        patches = tracer.install(cca)
        try:
            traced_ops = run_pass(tasks, tracer)
        finally:
            patches.undo()
    untraced, traced = (sum(speed.reference_seconds(op.start, op.end)
                            for op in pass_ops)
                        for pass_ops in (untraced_ops, traced_ops))
    counts.update(tracer.counts)
    counts["trace.untraced_wall_s"] = untraced
    counts["trace.traced_wall_s"] = traced
    counts["trace.overhead_s"] = traced - untraced
    return tracer, speed, counts, ops + untraced_ops + traced_ops


def layer_metrics(summary: dict, counts) -> dict:
    out = {}
    for name, unit in PER_LAYER:
        if name in counts:
            value = counts[name]
        else:
            span, _, field = name.rpartition(".")
            value = summary.get(span, {}).get(field, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state() -> dict:
    """SHA and dirty flag of the checkout; null outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), "--no-optional-locks",
                               *args], capture_output=True, text=True,
                              timeout=30).stdout.strip()

    return {"git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain",
                                  "--untracked-files=no"))}


def provenance() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            **git_state()}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"],
                   help="one workload, or `all` to run each in turn in a "
                        "fresh process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own fresh process, with the same arguments;
    exits with the worst status."""
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *(["--smoke"] if args.smoke else [])]
    return max(subprocess.run([sys.executable, __file__, "--workload", name,
                               *rest], cwd=ROOT).returncode
               for name in WORKLOADS)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "cca" / "__init__.py").is_file():
        print(f"error: no cca source tree under {src}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    setup_measured, setup_ref = measure_setup(workload.setup_calls())

    import cca
    if not Path(cca.__file__).resolve().is_relative_to(src):
        print(f"error: imported cca from {cca.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tasks = workload.setup(cca)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "provenance": provenance(),
              "info": workload.info()}
    if args.trace:
        tracer, speed, counts, ops = measure_traced(tasks, cca)
        record["spans"] = tracer.summary(speed.busy)
        metrics = layer_metrics(record["spans"], counts)
    else:
        passes, runs, speed = measure(tasks, args.seconds)
        ops = [op for pass_ops in runs for op in pass_ops]
        by_item = reference_latencies(runs, speed)
        latencies = list(by_item.values())
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": sum(latencies),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p95_ms": 1000 * percentile(latencies, 95),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END}
        p95 = metrics["latency_p95_ms"]["value"] / 1000
        record["samples"] = {
            "setup_probes": len(setup_ref), "passes": len(passes),
            "operations": len(latencies),
            "above_p95": sum(t > p95 for t in latencies)}
        record["measured"] = {
            "setup_s_median": statistics.median(setup_measured),
            "pass_s": passes,
            "op_s_sum_fastest_pass": min(
                sum(op.seconds for op in pass_ops) for pass_ops in runs)}
        record["host_speed"] = speed.summary()
        record["latency_s_by_item"] = by_item

    status = Counter(op.status for op in ops)
    failures = [op.detail for op in ops if op.status == "failed"]
    attempted, failed = len(ops), status["failed"]
    record["ops"] = {"attempted": attempted, "failed": failed,
                     "refused": status["refused"],
                     "failed_ratio": (failed + status["refused"]) / attempted,
                     "failures": failures}
    by_class: Counter = Counter()
    for op in ops:
        if op.cls:
            by_class[op.cls] += op.seconds
    if by_class:
        total = sum(by_class.values())
        record["ops"]["time_share_by_class"] = {
            c: round(t / total, 4) for c, t in sorted(by_class.items())}
    record["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(tracer.to_json_dict(), fh)

    _report(record)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _report(record: dict) -> None:
    """Human-readable lines before the final JSON line."""
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"workload {record['workload']} seed {record['seed']} "
          + json.dumps(record["info"], sort_keys=True))
    ops = record["ops"]
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "samples" in record:
        s = record["samples"]
        m = record["measured"]
        print(f"samples: setup_s median of {s['setup_probes']} fresh "
              f"processes; {s['passes']} pass(es); latencies over "
              f"{s['operations']} operations, each its median over the "
              f"passes, {s['above_p95']} above p95")
        print(f"measured: setup {m['setup_s_median']:.4g} s (median), "
              f"passes {', '.join(f'{t:.4g}' for t in m['pass_s'])} s; "
              "host speed " + json.dumps(record["host_speed"]))
    print(f"failed_ratio {ops['failed_ratio']:.6g} 1 ({ops['failed']} failed "
          f"+ {ops['refused']} refused of {ops['attempted']} attempted)")
    if "time_share_by_class" in ops:
        print("time share by class " + json.dumps(ops["time_share_by_class"]))
    for line in ops["failures"]:
        print(f"FAILED {line}")


if __name__ == "__main__":
    raise SystemExit(main())
