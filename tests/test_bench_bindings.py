"""The package names the benchmark reaches into keep resolving.

perfbench/tracing.py wraps the module attributes in its BINDINGS from
outside src/, and perfbench/run.py records biphoton.KERNEL_BACKEND. A
rename or deletion of any of them crashes the traced benchmark, so the
fast suite checks them here. perfbench/test_perfbench.py also pins the
number of amplitude values each workload fills (3 tensors per decompose,
8 per filter command); the fill-count tests below pin the same counts on
a small grid.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import biphoton
import biphoton.cli
from biphoton import _kernels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in tracing.BINDINGS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
    assert isinstance(biphoton.KERNEL_BACKEND, str)


@pytest.fixture
def filled_values(monkeypatch):
    """Count the amplitude values passed through the fill, as perfbench does."""
    values = []
    fill = _kernels.fill_amplitude_block

    def counting_fill(*args, **kwargs):
        values.append(args[0].size)
        return fill(*args, **kwargs)

    monkeypatch.setattr(_kernels, "fill_amplitude_block", counting_fill)
    return values


def test_decompose_fills_three_tensors(filled_values):
    biphoton.decompose("gaussian", 1.5, grid_n=40)
    assert sum(filled_values) == 3 * 40**2 * 512


def test_filter_command_fills_eight_tensors(filled_values, tmp_path, capsys):
    argv = ["filter", "--family", "sinc", "--bsigma", "0.5", "--mu-c", "1.5"]
    argv += ["--grid-n", "40", "--out", str(tmp_path / "filter.json")]
    assert biphoton.cli.main(argv) == 0
    assert sum(filled_values) == 8 * 40**2 * 512
