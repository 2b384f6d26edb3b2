"""The package names the benchmark reaches into keep resolving.

perfbench/tracing.py wraps the module attributes in its BINDINGS from
outside src/, and perfbench/run.py records biphoton.KERNEL_BACKEND. A
rename or deletion of any of them, or a changed return that a probe
unpacks, crashes the traced benchmark, so the fast suite checks them
here: the names directly, the returns through one traced decompose and
one traced filter command. perfbench/test_perfbench.py also pins the
number of amplitude values each workload fills (3 tensors per decompose,
8 per filter command); the fill-count tests below pin the same counts on
a small grid, and the values filled when the sector schedule stops
between rungs or doubles n_theta (which normalizes again).
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import biphoton
import biphoton.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(tracing):
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in tracing.BINDINGS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
    assert isinstance(biphoton.KERNEL_BACKEND, str)


def test_traced_runs_give_every_probed_span_its_attrs(tracing, tmp_path):
    # The probes unpack what the wrapped functions return; a changed return
    # crashes a traced benchmark run, and only there.
    originals = tracing.current_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        biphoton.decompose("sinc", 0.5, grid_n=16)
        argv = ["filter", "--family", "sinc", "--bsigma", "0.5", "--mu-c", "1.5"]
        argv += ["--grid-n", "16", "--out", str(tmp_path / "filter.json")]
        assert biphoton.cli.main(argv) == 0
    finally:
        tracer.restore()
    assert tracing.current_bindings() == originals
    probed = {name for _, _, name, probe in tracing.BINDINGS if probe is not None}
    spans = [span for span in tracer.spans if span.name in probed]
    # eigh is recorded only inside decompose_sector, which solves no modes.
    assert {span.name for span in spans} == probed - {"schmidt.eigh"}
    for span in spans:
        assert span.attrs, span.name
        assert all(isinstance(value, int) for value in span.attrs.values()), span


def _values(fill_shapes):
    return sum(math.prod(shape) for shape in fill_shapes)


def test_decompose_fills_three_tensors(fill_shapes):
    biphoton.decompose("gaussian", 1.5, grid_n=40)
    assert _values(fill_shapes) == 3 * 40**2 * 512


def test_filter_command_fills_eight_tensors(fill_shapes, tmp_path, capsys):
    argv = ["filter", "--family", "sinc", "--bsigma", "0.5", "--mu-c", "1.5"]
    argv += ["--grid-n", "40", "--out", str(tmp_path / "filter.json")]
    assert biphoton.cli.main(argv) == 0
    assert _values(fill_shapes) == 8 * 40**2 * 512


def test_schedule_stopping_between_rungs_fills_three_tensors(fill_shapes):
    # The scan reads m <= 8 and falls short; one coefficient pass at the
    # schedule's top serves every rung up to the one it stops at.
    result = biphoton.decompose("sinc", 0.5, grid_n=40)
    assert result.m_max == 64 and result.n_theta == 512
    assert _values(fill_shapes) == 3 * 40**2 * 512


def test_doubled_angular_grid_repeats_the_norm_and_the_coefficient_pass(fill_shapes):
    # normalize, the scan and a coefficient pass at 128; then normalize
    # and a coefficient pass at each doubled n_theta.
    result = biphoton.decompose("sinc", 0.5, grid_n=40, n_theta=128)
    assert result.n_theta == 256
    assert _values(fill_shapes) == 40**2 * (128 + 128 + 128 + 256 + 256)
