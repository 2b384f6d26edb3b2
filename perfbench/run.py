#!/usr/bin/env python3
"""Repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload sinc-narrow --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload of BENCHMARK.json, each in its own
process; ``--workload sweep-cli`` runs the two-thread sweep, which is
measured by hand only (see README.md). With
``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it first runs untraced for half the time, then replays
the same inputs with every layer binding wrapped (see tracing.py) and
reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object. The exit code is 0 when
every output passed the correctness gate, 1 when one did not, and 2 when
the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bootstrap  # noqa: E402

WORKLOAD_NAMES = ("sinc-narrow", "gauss-fill", "filter-cli")
"""The workloads of BENCHMARK.json, in the order ``--workload all`` runs them."""

MANUAL_WORKLOADS = ("sweep-cli",)
"""Runnable by name, but left out of BENCHMARK.json and ``all``."""

SETUP_PROBES = 3
"""Set-ups measured before and again after the timed loop of an untraced
run, each in a fresh process; setup_s is the median of all of them, so
it spans the run rather than one moment of the host's speed."""


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _versions() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
    }


def _setup(name: str, seed: int, scratch: str):
    """Imports, seeded input generation and one warm-up request."""
    import biphoton

    bootstrap.check_imported_from_source(biphoton)
    import workloads

    workload = workloads.WORKLOADS[name](seed, scratch)
    workload.warmup()
    return workload


def _probe_setups(name: str, seed: int, count: int) -> list[float]:
    """Seconds from process start to ready, each in a fresh interpreter."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(count):
        started = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line.strip()!r}")
        times.append(ready - started)
    return times


@dataclass
class Loop:
    """Samples of one closed-loop pass over a workload."""

    inputs: list = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    points: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rel_errs: list[float] = field(default_factory=list)
    output_bytes: int = 0
    wall: float = 0.0


def _run_loop(workload, seconds: float, inputs=None, tracer=None) -> Loop:
    """Run requests until `seconds` have passed, or replay `inputs` exactly."""
    loop = Loop()
    started = time.perf_counter()
    while True:
        inp = workload.next_input() if inputs is None else inputs[len(loop.inputs)]
        loop.inputs.append(inp)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = workload.call(inp)
            else:
                with tracer.request(workload.name):
                    raw = workload.call(inp)
        except Exception:  # a failed request is counted, and the loop goes on
            raw, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        t1 = time.perf_counter()
        loop.cpu.append(_cpu_s() - cpu0)
        loop.walls.append(t1 - t0)
        points = workload.points_per_request
        loop.points += points
        if error is not None:
            loop.failed += points
            loop.failures.append(f"{inp}: {error}")
        else:
            outcome = workload.check(inp, raw)
            loop.failed += outcome.failed
            loop.failures.extend(outcome.failures)
            loop.rel_errs.extend(outcome.rel_errs)
            loop.output_bytes += outcome.output_bytes
        # Free this output before the next request, so peak_rss_mb is the
        # footprint of one request, not of one plus the previous result.
        raw = None
        done = len(loop.inputs) == len(inputs) if inputs is not None else (
            time.perf_counter() - started >= seconds
        )
        if done:
            break
    loop.wall = time.perf_counter() - started
    return loop


def end_to_end(loop: Loop, setups: list[float]) -> dict:
    timed = sum(loop.walls)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "call_s_p50": (statistics.median(loop.walls), "s"),
        "points_per_s": (loop.points / timed, "1/s"),
        "cpu_s_per_point": (sum(loop.cpu) / loop.points, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (loop.failed / loop.points, "ratio"),
        "result_rel_err_max": (max(loop.rel_errs, default=0.0), "ratio"),
    }


END_TO_END_REPORTED = ("setup_s", "call_s_p50", "points_per_s", "cpu_s_per_point", "peak_rss_mb")
"""End-to-end metrics in the final JSON line. fail_ratio is carried by the
`attempted`/`failed` counts and result_rel_err_max by the per-layer line:
both are 0 or near round-off on a passing run, so no relative bound fits."""


def layer_metrics(spans, workload, untraced: Loop, traced: Loop) -> dict:
    import tracing
    import workloads

    selfs = tracing.self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def dur(name, via=None):
        return sum(s.duration for s in by_name[name] if via is None or s.via == via)

    def self_s(name):
        return sum(selfs[s.id] for s in by_name[name])

    def count(name, via=None):
        return sum(1 for s in by_name[name] if via is None or s.via == via)

    def attr(name, key):
        return [s.attrs[key] for s in by_name[name] if key in s.attrs]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    n = traced.points
    fills = by_name["_kernels.fill_amplitude_block"]
    values = sum(s.attrs["values"] for s in fills)
    fill_s = dur("_kernels.fill_amplitude_block")
    kept = attr("angular.adaptive_sectors", "kept")
    needed = attr("angular.adaptive_sectors", "needed")
    pairs = sum(attr("schmidt.eigh", "pairs"))
    modes = sum(attr("schmidt.decompose_sector", "modes"))
    main_s = dur("cli.main")
    metrics = {
        "kernels.fill_calls": (len(fills) / n, "count"),
        "kernels.fill_s": (fill_s / n, "s"),
        "kernels.values": (values / n, "count"),
        "kernels.tensor_fills_per_point": (
            values / (workloads.GRID_N**2 * workloads.N_THETA) / n, "count"),
        "kernels.mvals_per_s": (values / fill_s / 1e6 if fill_s else 0.0, "Mvalues/s"),
        "kernels.bytes_written_computed": (8 * values / n, "B"),
        "amplitudes.normalize_s": (dur("amplitudes.normalize") / n, "s"),
        "amplitudes.norm_integral_calls": (count("amplitudes.unit_norm_integral") / n, "count"),
        "amplitudes.norm_integral_s": (dur("amplitudes.unit_norm_integral") / n, "s"),
        "angular.scan_s": (self_s("angular.adaptive_sectors") / n, "s"),
        "angular.fourier_s": (dur("angular.angular_fourier") / n, "s"),
        "angular.sectors_kept": (mean(kept), "count"),
        "angular.sectors_needed": (mean(needed), "count"),
        "angular.sector_useful_ratio": (sum(needed) / sum(kept) if kept else 0.0, "ratio"),
        "angular.n_theta_used": (mean(attr("angular.angular_fourier", "n_theta")), "count"),
        "schmidt.sector_calls": (count("schmidt.decompose_sector") / n, "count"),
        "schmidt.sector_s": (dur("schmidt.decompose_sector") / n, "s"),
        "schmidt.eigh_calls": (count("schmidt.eigh") / n, "count"),
        "schmidt.eigh_s": (dur("schmidt.eigh") / n, "s"),
        "schmidt.node_count_calls": (count("schmidt.radial_node_count") / n, "count"),
        "schmidt.node_count_s": (dur("schmidt.radial_node_count") / n, "s"),
        "schmidt.eigenpairs_computed": (pairs / n, "count"),
        "schmidt.modes_kept": (modes / n, "count"),
        "schmidt.mode_useful_ratio": (modes / pairs if pairs else 0.0, "ratio"),
        "schmidt.assemble_s": (dur("schmidt.assemble_spectrum") / n, "s"),
        "pipeline.decompose_calls": (count("pipeline.decompose") / n, "count"),
        "pipeline.decompose_s": (dur("pipeline.decompose") / n, "s"),
        "pipeline.self_s": (self_s("pipeline.decompose") / n, "s"),
        "filtering.apply_filter_s": (dur("filtering.apply_filter") / n, "s"),
        "filtering.acceptance_s": (dur("amplitudes.unit_norm_integral", "filtering") / n, "s"),
        "filtering.decompose_calls": (count("pipeline.decompose", "filtering") / n, "count"),
        "filtering.self_s": (self_s("filtering.apply_filter") / n, "s"),
        "cli.main_s": (main_s / n, "s"),
        "cli.self_s": (self_s("cli.main") / n, "s"),
        "cli.output_bytes": (traced.output_bytes / n, "B"),
        "proc.cpu_s": (sum(traced.cpu) / n, "s"),
        "proc.blas_threads": (bootstrap.BLAS_THREADS, "count"),
        "proc.nproc": (_nproc(), "count"),
        "trace.overhead_ratio": (sum(traced.walls) / sum(untraced.walls), "ratio"),
        "trace.self_coverage": (sum(selfs.values()) / traced.wall, "ratio"),
        "gate.result_rel_err_max": (
            max(untraced.rel_errs + traced.rel_errs, default=0.0), "ratio"),
    }
    threads = getattr(workload, "threads", 0)
    if threads:
        sweep_points = [s.duration for s in by_name["pipeline.decompose"] if s.via == "cli"]
        metrics["cli.sweep_point_s_p50"] = (statistics.median(sweep_points), "s")
        metrics["cli.pool_efficiency"] = (sum(sweep_points) / (main_s * threads), "ratio")
    return metrics


def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<34} {value:>14.6g} {unit:<10}{note}")


def _result_line(correct: bool, loops, metrics: dict, names) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": sum(loop.points for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    })


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    scratch = os.path.join(bootstrap.OUT_DIR, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = _setup(name, seed, scratch)
        import biphoton

        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": _nproc(), "blas_threads": bootstrap.BLAS_THREADS,
            "blas_env": {v: os.environ.get(v) for v in bootstrap.BLAS_VARS},
            **_versions(), "kernel_backend": biphoton.KERNEL_BACKEND,
            "loadavg_start": os.getloadavg(),
        }
        if not trace:
            setups = _probe_setups(name, seed, SETUP_PROBES)
            loop = _run_loop(workload, seconds)
            setups += _probe_setups(name, seed, SETUP_PROBES)
            metrics = end_to_end(loop, setups)
            loops = [loop]
            names = END_TO_END_REPORTED
            notes = {"setup_s": f"median of {len(setups)} set-ups",
                     "call_s_p50": f"n={len(loop.walls)} requests",
                     "points_per_s": f"{loop.points} points"}
            record["setups_s"] = setups
        else:
            import tracing

            untraced = _run_loop(workload, seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = _run_loop(workload, 0.0, inputs=untraced.inputs, tracer=tracer)
            finally:
                tracer.restore()
            metrics = layer_metrics(tracer.spans, workload, untraced, traced)
            loops = [untraced, traced]
            names = list(metrics)
            notes = {}
            record["spans"] = [vars(s) for s in tracer.spans]
        record["loadavg_end"] = os.getloadavg()
        record["requests"] = [{"input": inp, "wall_s": w, "cpu_s": c}
                              for loop in loops for inp, w, c in zip(loop.inputs, loop.walls, loop.cpu)]
        record["failures"] = [f for loop in loops for f in loop.failures]
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        correct = all(loop.failed == 0 for loop in loops)
        dump = os.path.join(bootstrap.OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)} correct={correct}")
    print("  run: " + " ".join(f"{k}={record[k]}" for k in (
        "nproc", "blas_threads", "python", "numpy", "scipy", "kernel_backend",
        "loadavg_start", "loadavg_end")))
    _print_metrics(metrics, notes)
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    print(f"  record: {os.path.relpath(dump, bootstrap.ROOT)}")
    print(_result_line(correct, loops, metrics, names))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process, from one seed."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, *MANUAL_WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        bootstrap.prepare()
        if args.setup_probe:
            scratch = os.path.join(bootstrap.OUT_DIR, f"probe-{os.getpid()}")
            os.makedirs(scratch, exist_ok=True)
            try:
                _setup(args.workload, args.seed, scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (bootstrap.MissingSource, ImportError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
