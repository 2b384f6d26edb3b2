"""The package names the benchmark reaches into keep resolving.

perfbench/tracing.py wraps the module attributes in its BINDINGS from
outside src/, and perfbench/run.py records biphoton.KERNEL_BACKEND. A
rename or deletion of any of them crashes the traced benchmark, so the
fast suite checks them here. perfbench/test_perfbench.py also pins the
number of amplitude values each workload fills (3 tensors per decompose,
8 per filter command); the fill-count tests below pin the same counts on
a small grid, and the values filled when the sector schedule stops
between rungs or doubles n_theta.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import biphoton
import biphoton.cli

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


def test_doubled_angular_grid_repeats_only_the_coefficient_pass(fill_shapes):
    # normalize and the scan at 128, then one coefficient pass per n_theta tried.
    result = biphoton.decompose("sinc", 0.5, grid_n=40, n_theta=128)
    assert result.n_theta == 256
    assert _values(fill_shapes) == 40**2 * (128 + 128 + 128 + 256)
