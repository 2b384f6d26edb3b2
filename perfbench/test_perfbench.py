"""Self-checks of the benchmark itself.

Run from the root of a checkout (about one minute)::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import bootstrap

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of one short traced run of each single-threaded workload."""
    results = {}
    for name in ("gauss-fill", "filter-cli"):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", name, "--seed", "3", "--seconds", "1",
             "--trace", "1"],
            stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        results[name] = {k: v["value"] for k, v in result["metrics"].items()}
    return results


@pytest.mark.parametrize("name", ["gauss-fill", "filter-cli"])
def test_self_times_sum_to_traced_wall(traced, name):
    assert traced[name]["trace.self_coverage"] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("name, fills", [("gauss-fill", 3), ("filter-cli", 8)])
def test_tensor_fills_per_point(traced, name, fills):
    assert traced[name]["kernels.tensor_fills_per_point"] == fills


def test_untraced_run_sees_original_functions(monkeypatch, tmp_path):
    bootstrap.add_source_path()
    import biphoton.pipeline
    import run
    import tracing
    import workloads

    originals = tracing.current_bindings()
    seen = []
    build_grid = biphoton.pipeline.build_radial_grid

    def spy(*args, **kwargs):
        seen.append(tracing.current_bindings() == originals)
        return build_grid(*args, **kwargs)

    monkeypatch.setattr(biphoton.pipeline, "build_radial_grid", spy)
    workload = workloads.GaussFill(1, str(tmp_path))
    loop = run._run_loop(workload, 0.0)
    assert loop.failed == 0 and seen == [True]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        run._run_loop(workload, 0.0, inputs=loop.inputs, tracer=tracer)
    finally:
        tracer.restore()
    assert seen == [True, False]
    assert tracing.current_bindings() == originals
    assert tracer.spans
