"""Command-line interface: decompose, sweep, modes, slice, filter, oracle.

Every run resolves its configuration from three layers (built-in
defaults, then an optional JSON config file, then explicit flags) and
echoes the effective physics configuration into the output metadata.
Outputs are data-only CSV and JSON; identical configuration produces
byte-identical files whatever --threads sets. The files of a sinc
sweep on 120 nodes and of a filter point at the defaults are also
byte-identical at one and two BLAS threads; other commands, inputs and
BLAS thread counts are not covered, since a BLAS product may split its
sums by that count.
"""

from __future__ import annotations

import argparse
import csv
import json
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

# normalize and apply_filter are unused here: the filter command runs
# _filter. The names stay bound as biphoton.cli.normalize and
# biphoton.cli.apply_filter, which perfbench/tracing.py's BINDINGS wraps.
from .amplitudes import AmplitudeModel, crystal_b, normalize
from .filtering import _filter, apply_filter, slice_intensity
from .gaussian import analytic_K, analytic_spectrum, xi_of
from .pipeline import (
    FAMILIES,
    RUN_SETTINGS,
    RunConfig,
    SweepRange,
    _check_type,
    decompose,
    schmidt_number_by_trace,
)
from .schmidt import radial_node_count

__all__ = ["main"]

TOP_MODES = 20
"""Number of leading eigenvalues echoed into JSON summaries."""

SLICE_K_MAX = 4.0
SLICE_K_COUNT = 201
"""Radial grid of the slice command; chosen so k = 2 lands on a node."""

_OPTIONS: dict = {
    "format": None,
    "out": None,
    "threads": 1,
    "numerical_gaussian": False,
}
"""Execution-only config keys and their defaults."""

_KEYS = (*(setting.key for setting in RUN_SETTINGS), *_OPTIONS)
"""Every config key: those of the run settings, which RunConfig defaults
and checks, then the execution options."""

_PLAIN = {str: str, numbers.Real: float, numbers.Integral: int}
"""Flag type of a run-setting kind, which also turns its value into plain JSON."""


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _fmt_rows(rows):
    """Rows with every value written by _fmt."""
    return ([_fmt(value) for value in row] for row in rows)


def _write_csv(path, metadata, header, rows) -> None:
    """Metadata lines, the header, then the rows as they are given.

    csv writes an int or a float as str(), which is _fmt's text for it,
    so the plain (int, int, float) rows of an eigenvalue table go in
    directly; rows that may hold None, bools or NumPy scalars are passed
    through _fmt_rows.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in metadata:
            fh.write(f"# {key} = {_fmt(value)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload) -> None:
    # Serialized before the file opens, so a payload that json rejects
    # leaves no partial file behind.
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _config_echo(cfg: RunConfig) -> dict:
    """Physics and grid parameters that determine the output numbers.

    One entry per RunConfig field, as plain JSON values; a sweep range
    stands in b_sigma's place. Execution-only knobs (threads, output
    path, format) are excluded so equivalent runs carry identical
    metadata.
    """
    echo: dict = {}
    for setting in RUN_SETTINGS:
        value = getattr(cfg, setting.field)
        if setting.kind is SweepRange:
            if value is not None:
                echo["b_sigma"] = asdict(value)
        else:
            echo[setting.field] = None if value is None else _PLAIN[setting.kind](value)
    return echo


def _metadata(echo: dict) -> list[tuple[str, object]]:
    lines: list[tuple[str, object]] = []
    for key, value in echo.items():
        if isinstance(value, dict):
            lines.extend((f"{key}.{sub}", subval) for sub, subval in value.items())
        else:
            lines.append((key, value))
    return lines


def _summary_payload(echo: dict, spectrum) -> dict:
    return {
        "config": echo,
        "coverage": float(spectrum.coverage),
        "K_raw": float(spectrum.k_raw),
        "K_renormalized": float(spectrum.k),
        "entropy_bits": float(spectrum.entropy),
        "p_m": [[int(m), float(p)] for m, p in sorted(spectrum.p_m_table.items())],
        "top_modes": [
            [int(n), int(m), float(lam)] for n, m, lam in spectrum.entries[:TOP_MODES]
        ],
    }


def _parse_range(text: str) -> SweepRange:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError("range must be start:stop:count[:log|linear]")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError("range must be start:stop:count[:log|linear]") from exc
    log = False
    if len(parts) == 4:
        if parts[3] not in {"log", "linear"}:
            raise ValueError("range scale must be 'log' or 'linear'")
        log = parts[3] == "log"
    return SweepRange(start, stop, count, log=log)


def _as_range(value) -> SweepRange:
    if isinstance(value, str):
        return _parse_range(value)
    if isinstance(value, dict):
        missing = {"start", "stop", "count"} - set(value)
        if missing:
            raise ValueError("range object needs start, stop, count")
        log = value.get("log", False)
        _check_type("bsigma_range.start", value["start"])
        _check_type("bsigma_range.stop", value["stop"])
        _check_type("bsigma_range.count", value["count"], numbers.Integral)
        _check_type("bsigma_range.log", log, bool)
        return SweepRange(
            float(value["start"]), float(value["stop"]), value["count"], log=log
        )
    raise ValueError("unrecognized sweep range specification")


def _parse_mode(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) != 2:
            raise ValueError
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"mode spec {text!r} is not of the form n,m") from None
    if n < 0:
        raise ValueError("mode index n must be nonnegative")
    return n, m


def _merge_config(args: argparse.Namespace) -> dict:
    merged = dict(_OPTIONS)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        merged.update(file_cfg)
    for key in _KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if args.physical:
        if merged.get("bsigma") is not None:
            raise ValueError("--physical and --bsigma are mutually exclusive")
        missing = [
            flag
            for flag, val in (
                ("--length", args.length),
                ("--pump-omega", args.pump_omega),
                ("--pump-waist", args.pump_waist),
            )
            if val is None
        ]
        if missing:
            raise ValueError(f"--physical requires {', '.join(missing)}")
        if args.pump_waist <= 0:
            raise ValueError("--pump-waist must be positive")
        # sigma_perp = 2 / waist for a Gaussian pump written over intensity
        # radius; b comes from the crystal length and pump frequency.
        merged["bsigma"] = crystal_b(args.length, args.pump_omega) * (
            2.0 / args.pump_waist
        )
    return merged


def _build_runconfig(merged: dict) -> RunConfig:
    fields = {s.field: merged[s.key] for s in RUN_SETTINGS if s.key in merged}
    if fields.get("sweep") is not None:
        fields["sweep"] = _as_range(fields["sweep"])
    return RunConfig(**fields)


def _cmd_decompose(cfg: RunConfig, opts: dict) -> int:
    result = decompose(cfg.family, cfg.b_sigma, **cfg.settings())
    spectrum = result.spectrum
    echo = _config_echo(cfg)
    csv_path, json_path = opts["paths"]["csv"], opts["paths"]["json"]
    _write_csv(csv_path, _metadata(echo), ["n", "m", "lambda"], spectrum.entries)
    _write_json(json_path, _summary_payload(echo, spectrum))
    print(
        f"K = {spectrum.k:.6f} (raw {spectrum.k_raw:.6f}, "
        f"coverage {spectrum.coverage:.9f})"
    )
    print(f"E = {spectrum.entropy:.6f} bits")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_sweep(cfg: RunConfig, opts: dict) -> int:
    families = ["gaussian", "sinc"] if cfg.family == "both" else [cfg.family]
    numerical_gaussian = opts["numerical_gaussian"]
    points = cfg.sweep.points()
    columns = [f"K_{'gauss' if fam == 'gaussian' else 'sinc'}" for fam in families]

    def worker(t: float) -> dict:
        row: dict = {}
        try:
            for fam, column in zip(families, columns):
                analytic = (
                    fam == "gaussian" and not numerical_gaussian and cfg.mu_c == 0.0
                )
                if analytic:
                    row[column] = analytic_K(t)
                else:
                    row[column] = schmidt_number_by_trace(fam, t, **cfg.settings()).k
        except Exception as exc:  # recorded in-row; the sweep continues
            row["error"] = str(exc)
        return row

    with ThreadPoolExecutor(max_workers=opts["threads"]) as pool:
        rows = list(pool.map(worker, points))

    meta = _metadata(_config_echo(cfg))
    meta.append(("numerical_gaussian", numerical_gaussian))
    table = []
    failures = 0
    for t, row in zip(points, rows):
        error = row.get("error", "")
        if error:
            failures += 1
        table.append([t, *[row.get(column, "") for column in columns], error])
    out = opts["paths"]["csv"]
    _write_csv(out, meta, ["b_sigma", *columns, "error"], _fmt_rows(table))
    print(f"wrote {out} ({len(points)} points, {failures} failed)")
    return 1 if failures else 0


def _cmd_modes(cfg: RunConfig, opts: dict) -> int:
    result = decompose(cfg.family, cfg.b_sigma, **cfg.settings())
    sectors = result.sector_spectra
    meta = _metadata(_config_echo(cfg))
    columns: list[tuple[str, np.ndarray]] = []
    failures = 0
    for n, m in opts["modes"]:
        label = f"phi_n{n}_m{m}"
        sector = sectors[abs(m)] if abs(m) < len(sectors) else None
        if sector is None or n >= len(sector.gammas):
            meta.append((f"error_{label}", "beyond truncation"))
            failures += 1
            continue
        mode = sector.modes[n]
        meta.append((f"nodes_{label}", radial_node_count(mode)))
        columns.append((label, mode.values))
    rows = (
        [k, *[values[i] for _, values in columns]]
        for i, k in enumerate(result.grid.nodes)
    )
    out = opts["paths"]["csv"]
    _write_csv(out, meta, ["k", *[label for label, _ in columns]], _fmt_rows(rows))
    print(f"wrote {out} ({len(columns)} modes, {failures} beyond truncation)")
    return 1 if failures else 0


def _cmd_slice(cfg: RunConfig, opts: dict) -> int:
    model = AmplitudeModel.from_b_sigma(cfg.family, cfg.b_sigma, cutoff=cfg.mu_c)
    k = np.linspace(0.0, SLICE_K_MAX, SLICE_K_COUNT)
    dtheta, intensity = slice_intensity(model, k, n_theta=cfg.n_theta)
    rows = (
        [k[i], dtheta[j], intensity[i, j]]
        for i in range(k.size)
        for j in range(dtheta.size)
    )
    out = opts["paths"]["csv"]
    header = ["k", "dtheta", "intensity"]
    _write_csv(out, _metadata(_config_echo(cfg)), header, _fmt_rows(rows))
    print(f"wrote {out}")
    return 0


def _cmd_filter(cfg: RunConfig, opts: dict) -> int:
    report = _filter(cfg)
    echo = _config_echo(cfg)
    payload = {
        "config": echo,
        "mu_c": float(report.mu_c),
        "acceptance": float(report.acceptance),
        "k_filtered": float(report.k_filtered),
        "k_original": float(report.k_original),
    }
    csv_path, json_path = opts["paths"]["csv"], opts["paths"]["json"]
    _write_json(json_path, payload)
    _write_csv(
        csv_path,
        _metadata(echo),
        ["n", "m", "lambda"],
        report.filtered_spectrum.entries,
    )
    print(
        f"K_filtered = {report.k_filtered:.6f} "
        f"(K_original = {report.k_original:.6f}, "
        f"acceptance = {report.acceptance:.6f})"
    )
    print(f"wrote {json_path} and {csv_path}")
    return 0


def _cmd_oracle(cfg: RunConfig, opts: dict) -> int:
    t = float(cfg.b_sigma)
    entries, _ = analytic_spectrum(t)
    payload = {
        "config": {"family": "gaussian", "b_sigma": t},
        "K_analytic": float(analytic_K(t)),
        "xi": float(xi_of(t)),
        "top_modes": [[n, m, float(lam)] for n, m, lam in entries[:TOP_MODES]],
    }
    out = opts["paths"]["json"]
    _write_json(out, payload)
    print(f"K = {payload['K_analytic']:.6f} (xi = {payload['xi']:.6f})")
    print(f"wrote {out}")
    return 0


class _Command(NamedTuple):
    """What a command needs before it runs."""

    run: Callable[[RunConfig, dict], int]
    formats: tuple[str, ...]
    """The formats it writes, one file each; the first is the default."""
    single_family: bool
    control: str
    """The RunConfig field it reads the control parameter from."""


_COMMANDS = {
    "decompose": _Command(_cmd_decompose, ("csv", "json"), True, "b_sigma"),
    "sweep": _Command(_cmd_sweep, ("csv",), False, "sweep"),
    "modes": _Command(_cmd_modes, ("csv",), True, "b_sigma"),
    "slice": _Command(_cmd_slice, ("csv",), True, "b_sigma"),
    "filter": _Command(_cmd_filter, ("json", "csv"), True, "b_sigma"),
    "oracle": _Command(_cmd_oracle, ("json",), False, "b_sigma"),
}

_MISSING_CONTROL = {
    "b_sigma": "a control parameter is required (--bsigma or --physical)",
    "sweep": "--bsigma-range is required for sweep",
}


def _add_flags(parser: argparse.ArgumentParser, settings) -> None:
    """One flag per run setting, named after its config key."""
    for setting in settings:
        parser.add_argument(
            f"--{setting.key.replace('_', '-')}",
            dest=setting.key,
            type=_PLAIN.get(setting.kind),
            choices=FAMILIES if setting.field == "family" else None,
            help=setting.help,
        )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_flags(common, [s for s in RUN_SETTINGS if s.kind is not SweepRange])
    common.add_argument("--format", choices=["csv", "json"], help="primary output format")
    common.add_argument("--out", help="output path")
    common.add_argument("--threads", type=int, help="worker threads for sweep points")
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument(
        "--physical",
        action="store_true",
        help="derive bsigma from SI crystal and pump parameters",
    )
    common.add_argument(
        "--length", type=float, help="crystal length in meters (with --physical)"
    )
    common.add_argument(
        "--pump-omega",
        type=float,
        dest="pump_omega",
        help="pump angular frequency in rad/s (with --physical)",
    )
    common.add_argument(
        "--pump-waist",
        type=float,
        dest="pump_waist",
        help="pump beam waist in meters (with --physical)",
    )

    parser = argparse.ArgumentParser(
        prog="biphoton",
        description=(
            "Schmidt decomposition of biphoton transverse-wavevector amplitudes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "decompose",
        parents=[common],
        help="run one decomposition; writes the eigenvalue CSV and a JSON summary",
    )
    sweep = sub.add_parser(
        "sweep", parents=[common], help="Schmidt number over a control parameter range"
    )
    _add_flags(sweep, [s for s in RUN_SETTINGS if s.kind is SweepRange])
    sweep.add_argument(
        "--numerical-gaussian",
        dest="numerical_gaussian",
        action="store_true",
        default=None,
        help="run the gaussian column through the numerical pipeline",
    )
    modes = sub.add_parser(
        "modes", parents=[common], help="radial mode profiles for selected (n, m)"
    )
    modes.add_argument(
        "--modes",
        nargs="+",
        required=True,
        metavar="N,M",
        help="mode indices, e.g. --modes 0,0 1,0 0,2",
    )
    sub.add_parser(
        "slice",
        parents=[common],
        help="peak-normalized |C|^2 on the equal-magnitude subspace",
    )
    sub.add_parser(
        "filter",
        parents=[common],
        help="entanglement enhancement by a hard radial filter at mu-c",
    )
    sub.add_parser(
        "oracle",
        parents=[common],
        help="closed-form gaussian spectrum and Schmidt number",
    )
    return parser


def _options(args: argparse.Namespace, merged: dict, cfg: RunConfig) -> dict:
    """Check the run against its _COMMANDS entry and return the execution options.

    The requested format owns the output path, by default the command's
    name with that extension; a command that writes a second format puts
    it on the same base name with the other extension, which may not
    land on the same path.
    """
    name, command = args.command, _COMMANDS[args.command]
    if merged["out"] is not None:
        _check_type("out", merged["out"], str)
    _check_type("threads", merged["threads"], numbers.Integral)
    _check_type("numerical_gaussian", merged["numerical_gaussian"], bool)
    if command.single_family and cfg.family == "both":
        raise ValueError(f"family must be 'gaussian' or 'sinc' for {name}")
    if getattr(cfg, command.control) is None:
        raise ValueError(_MISSING_CONTROL[command.control])
    fmt = command.formats[0] if merged["format"] is None else merged["format"]
    if fmt not in command.formats:
        names = " or ".join(f.upper() for f in command.formats)
        raise ValueError(f"{name} output is {names} only")
    out = merged["out"] or f"{name}.{fmt}"
    base, _ = os.path.splitext(out)
    paths = {f: out if f == fmt else f"{base}.{f}" for f in command.formats}
    if len(set(paths.values())) < len(paths):
        raise ValueError(f"--out {out} would receive both the CSV and the JSON output")
    return {
        "paths": paths,
        "threads": max(1, merged["threads"]),
        "numerical_gaussian": merged["numerical_gaussian"],
        "modes": [_parse_mode(text) for text in getattr(args, "modes", None) or ()],
    }


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        merged = _merge_config(args)
        cfg = _build_runconfig(merged)
        opts = _options(args, merged, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command].run(cfg, opts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
