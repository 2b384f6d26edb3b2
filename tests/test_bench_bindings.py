"""The package names the benchmark reaches into keep resolving.

perfbench/tracing.py wraps the module attributes in its BINDINGS from
outside src/, and perfbench/run.py records biphoton.KERNEL_BACKEND. A
rename or deletion of any of them crashes the traced benchmark, so the
fast suite checks them here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import biphoton

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
