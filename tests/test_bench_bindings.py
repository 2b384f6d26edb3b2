"""The package names the benchmark reaches into keep resolving.

perfbench/tracing.py wraps the module attributes in its BINDINGS from
outside src/, and perfbench/run.py records biphoton.KERNEL_BACKEND. A
rename or deletion of any of them, or a changed return that a probe
unpacks, crashes the traced benchmark, so the fast suite checks them
here: the names directly, the returns through one traced decompose and
one traced filter command. The fill-count tests below pin, in call
order, the distinct half-rows (n_theta // 2 + 1, N) each path fills on a
small grid: one tensor for a decompose that stops on the first rung (the
sector pass normalizes from its own sweep), two when the schedule stops
between rungs (the first-rung pass, then the top pass), five for a
filter command, and one more top pass per doubled n_theta.
perfbench/test_perfbench.py still pins 3 and 8 tensors per gauss-fill
and filter-cli point, the counts before the sector pass normalized, and
counts a tensor as 200^2 512 values, where a sweep now fills
200^2 257.
"""

import importlib
import importlib.util
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


def _rows(n_theta, passes, n=40):
    """The shapes of `passes` sweeps of an n-node tensor at n_theta, in order."""
    return [(n_theta // 2 + 1, n)] * (n * passes)


def test_decompose_fills_one_tensor(fill_shapes):
    result = biphoton.decompose("gaussian", 1.5, grid_n=40)
    assert result.m_max == 8 and result.n_theta == 512
    assert fill_shapes == _rows(512, 1)


def test_filter_command_fills_five_tensors(fill_shapes, tmp_path, capsys):
    # The unfiltered run's two passes, the surviving integral and the
    # filtered run's two passes; the command normalizes no model of its own.
    argv = ["filter", "--family", "sinc", "--bsigma", "0.5", "--mu-c", "1.5"]
    argv += ["--grid-n", "40", "--out", str(tmp_path / "filter.json")]
    assert biphoton.cli.main(argv) == 0
    assert fill_shapes == _rows(512, 5)


def test_schedule_stopping_between_rungs_fills_two_tensors(fill_shapes):
    # The first-rung pass reads m <= 8 and falls short; one pass at the
    # schedule's top serves every rung up to the one it stops at.
    result = biphoton.decompose("sinc", 0.5, grid_n=40)
    assert result.m_max == 64 and result.n_theta == 512
    assert fill_shapes == _rows(512, 2)


def test_doubled_angular_grid_repeats_only_the_top_pass(fill_shapes):
    # The first-rung and top passes at 128, then one top pass at the
    # doubled n_theta, which normalizes from its own sweep.
    result = biphoton.decompose("sinc", 0.5, grid_n=40, n_theta=128)
    assert result.n_theta == 256
    assert fill_shapes == _rows(128, 2) + _rows(256, 1)
