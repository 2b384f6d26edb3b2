"""Reference table for the numerically checked workloads.

The sinc family has no closed form, so sinc-narrow, filter-cli and
sweep-cli are checked against values computed once at refined settings
(``grid_n`` 400, ``n_theta`` 1024; other settings at their defaults) and
committed as ``reference.json`` next to this file. Workload inputs are
drawn only from the points listed here, so every checked output has a
reference value.

Regenerate the table (about 15 minutes on two cores) with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os
import sys

REFINED = {"grid_n": 400, "n_theta": 1024}

SINC_NARROW_T = (0.2, 0.225, 0.25, 0.275, 0.3, 0.325, 0.35)
"""sinc-narrow inputs; the adaptive schedule keeps 129 sectors throughout."""

SWEEP_RANGES = ((0.4, 1.3), (0.5, 1.4), (0.6, 1.5), (0.4, 1.6), (0.6, 1.2))
"""sweep-cli endpoints; with 4 points every row lands on a 0.1 step."""

SWEEP_T = tuple(round(0.4 + 0.1 * i, 10) for i in range(13))
"""Every b_sigma a sweep-cli row can take, 0.4 .. 1.6."""

FILTER_POINTS = tuple((t, c) for t in (0.4, 0.5, 0.6) for c in (1.0, 1.5, 2.0))
"""filter-cli (b_sigma, mu_c) inputs."""

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def key(*values: float) -> str:
    """Table key of a point; tolerant of linspace rounding in sweep rows."""
    return ":".join(f"{v:.6f}" for v in values)


def load(path: str = PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    if table.get("settings") != REFINED:
        raise ValueError(f"{path} was not computed at {REFINED}")
    return table


def _sinc_point(t: float) -> tuple[str, str, dict]:
    import biphoton

    res = biphoton.decompose("sinc", t, **REFINED)
    return "sinc", key(t), {"K": float(res.spectrum.k), "m_max": int(res.m_max)}


def _filter_point(t: float, c: float) -> tuple[str, str, dict]:
    import biphoton

    # Mirrors the CLI filter command: the unfiltered model is normalized on
    # the unfiltered grid, then apply_filter does the rest.
    grid = biphoton.build_radial_grid(
        REFINED["grid_n"], 0.0, biphoton.default_k_max(t)
    )
    model = biphoton.normalize(
        biphoton.AmplitudeModel.from_b_sigma("sinc", t), grid, REFINED["n_theta"]
    )
    report = biphoton.apply_filter(model, c, **REFINED)
    return "filter", key(t, c), {
        "acceptance": float(report.acceptance),
        "k_filtered": float(report.k_filtered),
        "k_original": float(report.k_original),
    }


def _run(task):
    kind, *args = task
    return _sinc_point(*args) if kind == "sinc" else _filter_point(*args)


def generate() -> dict:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    tasks = [("filter", t, c) for t, c in FILTER_POINTS]
    tasks += [("sinc", t) for t in sorted(set(SINC_NARROW_T) | set(SWEEP_T))]
    table: dict = {
        "settings": dict(REFINED),
        "command": "python3 perfbench/reference.py",
        "sinc": {},
        "filter": {},
    }
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        for kind, point, values in pool.map(_run, tasks):
            table[kind][point] = values
            print(kind, point, values, flush=True)
    table["sinc"] = dict(sorted(table["sinc"].items()))
    return table


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import bootstrap

    bootstrap.prepare()
    table = generate()
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
