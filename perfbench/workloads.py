"""The benchmark workloads, their seeded inputs and correctness gate.

Each workload is a closed loop of one client: the next request starts
when the previous one has returned. Inputs come only from the seed; the
package receives just the generated b_sigma (and mu_c) values. A point
is one b_sigma the user asked for: one decompose call, one filter
command, or one sweep row. See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from dataclasses import dataclass, field

import biphoton
import biphoton.cli

import reference

K_RTOL = 1e-3
"""Relative tolerance on K and acceptance: the tolerance acceptance
criterion 1 (tests/test_acceptance.py) puts on K. The library reports no
error estimate that a tighter gate could rest on: at
default settings sinc K at b_sigma 1.6 is 5.8e-5 off the refined value
(grid_n 200 under-resolves it), against 1e-14 below 1.3. The size of the
error is reported as result_rel_err_max."""

P_M_ATOL = 1e-7
"""Absolute tolerance on each sector probability against analytic_P_m."""

GRID_N = 200
N_THETA = 512
"""Library defaults, used to express fill counts in whole-tensor units."""

WARMUP_GRID_N = 16
"""The warm-up request takes the workload's own code path on a small grid,
so lazy imports and FFT plans are ready without a full-size call."""

SCHEMA_PATH = os.path.join(
    os.path.dirname(biphoton.__file__), "schemas", "filter_report.schema.json"
)


@dataclass
class Outcome:
    """What one request produced, as the gate sees it."""

    points: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rel_errs: list[float] = field(default_factory=list)
    output_bytes: int = 0

    def fail(self, message: str, points: int = 1) -> None:
        self.failures.append(message)
        self.failed = min(self.points, self.failed + points)


def _gate(outcome: Outcome, label: str, value: float, ref: float) -> bool:
    """Record the relative error of one output; False when out of tolerance."""
    err = abs(value - ref) / abs(ref)
    outcome.rel_errs.append(err)
    if err <= K_RTOL:
        return True
    outcome.failures.append(f"{label} = {value!r}, reference {ref!r}")
    return False


class Workload:
    name = ""
    points_per_request = 1

    def __init__(self, seed: int, scratch: str):
        self.rng = random.Random(seed)
        self.table = reference.load()

    def next_input(self):
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def call(self, inp):
        """Run one user request; this is the timed part."""
        raise NotImplementedError

    def check(self, inp, raw) -> Outcome:
        """Gate the outputs of one request against their references."""
        raise NotImplementedError


class SincNarrow(Workload):
    name = "sinc-narrow"

    def next_input(self):
        return self.rng.choice(reference.SINC_NARROW_T)

    def warmup(self) -> None:
        biphoton.decompose("sinc", reference.SINC_NARROW_T[0], grid_n=WARMUP_GRID_N)

    def call(self, t):
        return biphoton.decompose("sinc", t)

    def check(self, t, result) -> Outcome:
        outcome = Outcome(points=1)
        if not _gate(outcome, f"K({t})", result.spectrum.k, self.table["sinc"][reference.key(t)]["K"]):
            outcome.failed = 1
        return outcome


class GaussFill(Workload):
    name = "gauss-fill"

    def next_input(self):
        return self.rng.uniform(1.25, 2.5)

    def warmup(self) -> None:
        biphoton.decompose("gaussian", 1.25, grid_n=WARMUP_GRID_N)

    def call(self, t):
        return biphoton.decompose("gaussian", t)

    def check(self, t, result) -> Outcome:
        outcome = Outcome(points=1)
        ok = _gate(outcome, f"K({t})", result.spectrum.k, biphoton.analytic_K(t))
        for m, p in result.spectrum.p_m_table.items():
            if not abs(p - biphoton.analytic_P_m(t, m)) <= P_M_ATOL:
                outcome.failures.append(f"P_{m}({t}) = {p!r}")
                ok = False
        outcome.failed = 0 if ok else 1
        return outcome


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return biphoton.cli.main(argv)


class FilterCli(Workload):
    name = "filter-cli"

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        import jsonschema

        with open(SCHEMA_PATH, encoding="utf-8") as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self.out = os.path.join(scratch, "filter.json")
        self.csv = os.path.join(scratch, "filter.csv")

    def next_input(self):
        return self.rng.choice(reference.FILTER_POINTS)

    def _argv(self, t, c, *extra):
        return ["filter", "--family", "sinc", "--bsigma", repr(t), "--mu-c", repr(c),
                "--out", self.out, *extra]

    def warmup(self) -> None:
        _quiet_main(self._argv(*reference.FILTER_POINTS[0], "--grid-n", str(WARMUP_GRID_N)))

    def call(self, inp):
        for path in (self.out, self.csv):
            if os.path.exists(path):
                os.remove(path)
        return _quiet_main(self._argv(*inp))

    def check(self, inp, rc) -> Outcome:
        t, c = inp
        outcome = Outcome(points=1)
        if rc != 0:
            outcome.fail(f"filter {inp} exited {rc}")
            return outcome
        outcome.output_bytes = os.path.getsize(self.out) + os.path.getsize(self.csv)
        with open(self.out, encoding="utf-8") as fh:
            payload = json.load(fh)
        errors = [e.message for e in self.validator.iter_errors(payload)]
        if errors:
            outcome.fail(f"filter {inp} JSON: {errors[0]}")
            return outcome
        ref = self.table["filter"][reference.key(t, c)]
        checks = [_gate(outcome, f"{name}{inp}", payload[name], ref[name])
                  for name in ("acceptance", "k_filtered", "k_original")]
        outcome.failed = 0 if all(checks) else 1
        return outcome


class SweepCli(Workload):
    name = "sweep-cli"
    points_per_request = 4
    threads = 2

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.out = os.path.join(scratch, "sweep.csv")

    def next_input(self):
        return self.rng.choice(reference.SWEEP_RANGES)

    def _argv(self, a, b, *extra):
        return ["sweep", "--family", "sinc", "--bsigma-range", f"{a!r}:{b!r}:4",
                "--threads", str(self.threads), "--out", self.out, *extra]

    def warmup(self) -> None:
        _quiet_main(self._argv(*reference.SWEEP_RANGES[0], "--grid-n", str(WARMUP_GRID_N)))

    def call(self, inp):
        if os.path.exists(self.out):
            os.remove(self.out)
        return _quiet_main(self._argv(*inp))

    def check(self, inp, rc) -> Outcome:
        outcome = Outcome(points=self.points_per_request)
        if not os.path.exists(self.out):
            outcome.fail(f"sweep {inp} wrote nothing (exit {rc})", outcome.points)
            return outcome
        outcome.output_bytes = os.path.getsize(self.out)
        with open(self.out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        if len(rows) != outcome.points:
            outcome.fail(f"sweep {inp} wrote {len(rows)} rows", outcome.points)
            return outcome
        for row in rows:
            t = float(row["b_sigma"])
            if row["error"]:
                outcome.fail(f"sweep row {t}: {row['error']}")
            elif not _gate(outcome, f"K({t})", float(row["K_sinc"]),
                           self.table["sinc"][reference.key(t)]["K"]):
                outcome.failed += 1
        if rc != 0 and not outcome.failed:
            outcome.fail(f"sweep {inp} exited {rc}", outcome.points)
        return outcome


WORKLOADS = {cls.name: cls for cls in (SincNarrow, GaussFill, FilterCli, SweepCli)}
