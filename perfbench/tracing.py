"""Span tracer that wraps the package's layer functions from outside.

Each wrapped binding is the module attribute the package actually calls
through (``biphoton.pipeline.normalize`` rather than only
``biphoton.amplitudes.normalize``), so every call on the measured path
opens a span. Spans record name, binding, start, end, parent and thread,
and stay in memory until the benchmark dumps them. ``Tracer.restore``
puts every original back; nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _fill_attrs(args, kwargs, result):
    return {"values": int(args[0].size)}


def _sectors_attrs(args, kwargs, result):
    # adaptive_sectors(model, grid, sector_tol=1e-6, n_theta=512)
    tol = kwargs.get("sector_tol", args[2] if len(args) > 2 else 1e-6)
    kernels, _ = result
    kept = len(kernels)
    cumulative = 0.0
    needed = kept
    for kernel in kernels:
        cumulative += kernel.p_m if kernel.m == 0 else 2.0 * kernel.p_m
        if cumulative >= 1.0 - tol:
            needed = kernel.m + 1
            break
    return {"kept": kept, "needed": needed}


def _fourier_attrs(args, kwargs, result):
    # angular_fourier(model, grid, m_max, n_theta=512, sector_tol=None)
    return {"n_theta": int(kwargs.get("n_theta", args[3] if len(args) > 3 else 512))}


def _eigh_attrs(args, kwargs, result):
    return {"pairs": int(args[0].shape[-1])}


def _sector_attrs(args, kwargs, result):
    return {"modes": len(result.gammas)}


BINDINGS = (
    # (module, attribute, layer function, attribute probe)
    ("biphoton._kernels", "fill_amplitude_block", "_kernels.fill_amplitude_block", _fill_attrs),
    ("biphoton.amplitudes", "unit_norm_integral", "amplitudes.unit_norm_integral", None),
    ("biphoton.filtering", "unit_norm_integral", "amplitudes.unit_norm_integral", None),
    ("biphoton.pipeline", "normalize", "amplitudes.normalize", None),
    ("biphoton.cli", "normalize", "amplitudes.normalize", None),
    ("biphoton.pipeline", "adaptive_sectors", "angular.adaptive_sectors", _sectors_attrs),
    ("biphoton.pipeline", "angular_fourier", "angular.angular_fourier", _fourier_attrs),
    ("biphoton.angular", "angular_fourier", "angular.angular_fourier", _fourier_attrs),
    ("biphoton.pipeline", "decompose_sector", "schmidt.decompose_sector", _sector_attrs),
    ("biphoton.schmidt", "radial_node_count", "schmidt.radial_node_count", None),
    ("biphoton.pipeline", "assemble_spectrum", "schmidt.assemble_spectrum", None),
    ("numpy.linalg", "eigh", "schmidt.eigh", _eigh_attrs),
    ("biphoton", "decompose", "pipeline.decompose", None),
    ("biphoton.filtering", "decompose", "pipeline.decompose", None),
    ("biphoton.cli", "decompose", "pipeline.decompose", None),
    ("biphoton.cli", "apply_filter", "filtering.apply_filter", None),
    ("biphoton.cli", "main", "cli.main", None),
)
"""Every binding the traced run wraps. ``numpy.linalg.eigh`` is recorded
only inside a ``schmidt.decompose_sector`` span."""

_ONLY_INSIDE = {"schmidt.eigh": "schmidt.decompose_sector"}


@dataclass
class Span:
    id: int
    name: str
    via: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans at every binding in BINDINGS while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._request_stack: list[Span] | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, via: str) -> Span:
        stack = self._stack()
        # A worker thread starts with an empty stack; its spans belong to
        # the innermost span open on the thread that runs the request, which
        # waits for the workers (cli.main around the sweep pool).
        if not stack and self._request_stack:
            parent = self._request_stack[-1].id
        else:
            parent = stack[-1].id if stack else None
        with self._lock:
            span = Span(next(self._ids), name, via, parent, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def request(self, name: str):
        """Root span of one benchmark request, run on the calling thread."""
        span = self._open(name, "perfbench")
        self._request_stack = self._stack()
        try:
            yield span
        finally:
            self._request_stack = None
            self._close(span)

    def _wrapper(self, original, name: str, via: str, probe):
        inside = _ONLY_INSIDE.get(name)

        def traced(*args, **kwargs):
            if inside is not None:
                stack = self._stack()
                if not stack or stack[-1].name != inside:
                    return original(*args, **kwargs)
            span = self._open(name, via)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, probe in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            via = module_name.rsplit(".", 1)[-1]
            setattr(module, attr, self._wrapper(original, name, via, probe))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def current_bindings() -> dict[tuple[str, str], object]:
    """The objects every traced binding currently resolves to."""
    return {
        (module_name, attr): getattr(importlib.import_module(module_name), attr)
        for module_name, attr, _, _ in BINDINGS
    }


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover.

    Children of one span may overlap (sweep worker threads), so the
    covered part is the length of the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result
