"""Command-line interface: decompose, sweep, modes, slice, filter, oracle.

Every run resolves its configuration from three layers (built-in
defaults, then an optional JSON config file, then explicit flags) and
echoes the effective physics configuration into the output metadata.
Outputs are data-only CSV and JSON; identical configuration produces
byte-identical files regardless of the thread count.
"""

from __future__ import annotations

import argparse
import csv
import json
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .amplitudes import AmplitudeModel, crystal_b, normalize
from .filtering import apply_filter, slice_intensity
from .gaussian import analytic_K, analytic_spectrum, xi_of
from .pipeline import RunConfig, SweepRange, _check_type, decompose
from .schmidt import radial_node_count

__all__ = ["main"]

TOP_MODES = 20
"""Number of leading eigenvalues echoed into JSON summaries."""

SLICE_K_MAX = 4.0
SLICE_K_COUNT = 201
"""Radial grid of the slice command; chosen so k = 2 lands on a node."""

_RUN_KEYS = {
    "family": "family",
    "bsigma": "b_sigma",
    "bsigma_range": "sweep",
    "grid_n": "grid_n",
    "kmax_factor": "kmax_factor",
    "ntheta": "n_theta",
    "sector_tol": "sector_tol",
    "m_max": "m_max",
    "mu_c": "mu_c",
}
"""Config keys of the run settings and the RunConfig fields they set.

RunConfig holds their defaults and checks them."""

_OPTIONS: dict = {
    "format": None,
    "out": None,
    "threads": 1,
    "numerical_gaussian": False,
}
"""Execution-only config keys and their defaults."""


class _ConfigError(ValueError):
    """Configuration problem; reported with exit code 2."""


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, metadata, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in metadata:
            fh.write(f"# {key} = {_fmt(value)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(value) for value in row])


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _resolve_pair(out: str | None, fmt: str, base_default: str) -> tuple[str, str]:
    """CSV and JSON paths for commands that always write both.

    The requested format owns the given path; the sibling file swaps the
    extension on the same base name.
    """
    if out is None:
        out = f"{base_default}.{fmt}"
    base, _ = os.path.splitext(out)
    csv_path = out if fmt == "csv" else f"{base}.csv"
    json_path = out if fmt == "json" else f"{base}.json"
    return csv_path, json_path


def _config_echo(cfg: RunConfig) -> dict:
    """Physics and grid parameters that determine the output numbers.

    Execution-only knobs (threads, output path, format) are excluded so
    equivalent runs carry identical metadata.
    """
    if cfg.sweep is not None:
        b: object = {
            "start": float(cfg.sweep.start),
            "stop": float(cfg.sweep.stop),
            "count": int(cfg.sweep.count),
            "log": bool(cfg.sweep.log),
        }
    else:
        b = None if cfg.b_sigma is None else float(cfg.b_sigma)
    return {
        "family": cfg.family,
        "b_sigma": b,
        "grid_n": int(cfg.grid_n),
        "kmax_factor": float(cfg.kmax_factor),
        "n_theta": int(cfg.n_theta),
        "sector_tol": float(cfg.sector_tol),
        "m_max": None if cfg.m_max is None else int(cfg.m_max),
        "mu_c": float(cfg.mu_c),
    }


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
        raise _ConfigError("range must be start:stop:count[:log|linear]")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _ConfigError("range must be start:stop:count[:log|linear]") from exc
    log = False
    if len(parts) == 4:
        if parts[3] not in {"log", "linear"}:
            raise _ConfigError("range scale must be 'log' or 'linear'")
        log = parts[3] == "log"
    return SweepRange(start, stop, count, log=log)


def _as_range(value) -> SweepRange:
    if isinstance(value, str):
        return _parse_range(value)
    if isinstance(value, dict):
        missing = {"start", "stop", "count"} - set(value)
        if missing:
            raise _ConfigError("range object needs start, stop, count")
        log = value.get("log", False)
        _check_type("bsigma_range.start", value["start"])
        _check_type("bsigma_range.stop", value["stop"])
        _check_type("bsigma_range.count", value["count"], numbers.Integral)
        _check_type("bsigma_range.log", log, bool)
        return SweepRange(
            float(value["start"]), float(value["stop"]), value["count"], log=log
        )
    raise _ConfigError("unrecognized sweep range specification")


def _parse_mode(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) != 2:
            raise ValueError
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise _ConfigError(f"mode spec {text!r} is not of the form n,m") from None
    if n < 0:
        raise _ConfigError("mode index n must be nonnegative")
    return n, m


def _merge_config(args: argparse.Namespace) -> dict:
    merged = dict(_OPTIONS)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise _ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise _ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise _ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(_RUN_KEYS) - set(_OPTIONS))
        if unknown:
            raise _ConfigError(f"unknown config keys: {', '.join(unknown)}")
        merged.update(file_cfg)
    for key in (*_RUN_KEYS, *_OPTIONS):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if args.physical:
        if merged.get("bsigma") is not None:
            raise _ConfigError("--physical and --bsigma are mutually exclusive")
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
            raise _ConfigError(f"--physical requires {', '.join(missing)}")
        if args.pump_waist <= 0:
            raise _ConfigError("--pump-waist must be positive")
        # sigma_perp = 2 / waist for a Gaussian pump written over intensity
        # radius; b comes from the crystal length and pump frequency.
        merged["bsigma"] = crystal_b(args.length, args.pump_omega) * (
            2.0 / args.pump_waist
        )
    return merged


def _build_runconfig(merged: dict) -> RunConfig:
    fields = {name: merged[key] for key, name in _RUN_KEYS.items() if key in merged}
    if fields.get("sweep") is not None:
        fields["sweep"] = _as_range(fields["sweep"])
    return RunConfig(**fields)


def _require_single_family(cfg: RunConfig, command: str) -> None:
    if cfg.family == "both":
        raise _ConfigError(f"family must be 'gaussian' or 'sinc' for {command}")


def _require_b_sigma(cfg: RunConfig) -> float:
    if cfg.b_sigma is None:
        raise _ConfigError("a control parameter is required (--bsigma or --physical)")
    return cfg.b_sigma


def _cmd_decompose(cfg: RunConfig, opts: dict) -> int:
    _require_single_family(cfg, "decompose")
    t = _require_b_sigma(cfg)
    fmt = opts["format"] or "csv"
    result = decompose(cfg.family, t, **cfg.settings())
    spectrum = result.spectrum
    echo = _config_echo(cfg)
    csv_path, json_path = _resolve_pair(opts["out"], fmt, "decompose")
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
    if cfg.sweep is None:
        raise _ConfigError("--bsigma-range is required for sweep")
    if opts["format"] == "json":
        raise _ConfigError("sweep output is CSV only")
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
                    row[column] = decompose(fam, t, **cfg.settings()).spectrum.k
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
    out = opts["out"] or "sweep.csv"
    _write_csv(out, meta, ["b_sigma", *columns, "error"], table)
    print(f"wrote {out} ({len(points)} points, {failures} failed)")
    return 1 if failures else 0


def _cmd_modes(cfg: RunConfig, opts: dict) -> int:
    _require_single_family(cfg, "modes")
    t = _require_b_sigma(cfg)
    if opts["format"] == "json":
        raise _ConfigError("modes output is CSV only")
    requests = [_parse_mode(text) for text in opts["modes"]]
    result = decompose(cfg.family, t, **cfg.settings())
    sectors = result.sector_spectra
    meta = _metadata(_config_echo(cfg))
    columns: list[tuple[str, np.ndarray]] = []
    failures = 0
    for n, m in requests:
        label = f"phi_n{n}_m{m}"
        sector = sectors[abs(m)] if abs(m) < len(sectors) else None
        if sector is None or n >= len(sector.modes):
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
    out = opts["out"] or "modes.csv"
    _write_csv(out, meta, ["k", *[label for label, _ in columns]], rows)
    print(f"wrote {out} ({len(columns)} modes, {failures} beyond truncation)")
    return 1 if failures else 0


def _cmd_slice(cfg: RunConfig, opts: dict) -> int:
    _require_single_family(cfg, "slice")
    t = _require_b_sigma(cfg)
    if opts["format"] == "json":
        raise _ConfigError("slice output is CSV only")
    model = AmplitudeModel.from_b_sigma(cfg.family, t, cutoff=cfg.mu_c)
    k = np.linspace(0.0, SLICE_K_MAX, SLICE_K_COUNT)
    dtheta, intensity = slice_intensity(model, k, n_theta=cfg.n_theta)
    rows = (
        [k[i], dtheta[j], intensity[i, j]]
        for i in range(k.size)
        for j in range(dtheta.size)
    )
    out = opts["out"] or "slice.csv"
    _write_csv(out, _metadata(_config_echo(cfg)), ["k", "dtheta", "intensity"], rows)
    print(f"wrote {out}")
    return 0


def _cmd_filter(cfg: RunConfig, opts: dict) -> int:
    _require_single_family(cfg, "filter")
    t = _require_b_sigma(cfg)
    fmt = opts["format"] or "json"
    grid = replace(cfg, mu_c=0.0).radial_grid()
    model = normalize(AmplitudeModel.from_b_sigma(cfg.family, t), grid, cfg.n_theta)
    report = apply_filter(model, **cfg.settings())
    echo = _config_echo(cfg)
    payload = {
        "config": echo,
        "mu_c": float(report.mu_c),
        "acceptance": float(report.acceptance),
        "k_filtered": float(report.k_filtered),
        "k_original": float(report.k_original),
    }
    csv_path, json_path = _resolve_pair(opts["out"], fmt, "filter")
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
    t = float(_require_b_sigma(cfg))
    if opts["format"] == "csv":
        raise _ConfigError("oracle output is JSON only")
    entries, _ = analytic_spectrum(t)
    payload = {
        "config": {"family": "gaussian", "b_sigma": t},
        "K_analytic": float(analytic_K(t)),
        "xi": float(xi_of(t)),
        "top_modes": [[n, m, float(lam)] for n, m, lam in entries[:TOP_MODES]],
    }
    out = opts["out"] or "oracle.json"
    _write_json(out, payload)
    print(f"K = {payload['K_analytic']:.6f} (xi = {payload['xi']:.6f})")
    print(f"wrote {out}")
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "sweep": _cmd_sweep,
    "modes": _cmd_modes,
    "slice": _cmd_slice,
    "filter": _cmd_filter,
    "oracle": _cmd_oracle,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--family",
        choices=["gaussian", "sinc", "both"],
        help="amplitude family ('both' is valid for sweep only)",
    )
    common.add_argument("--bsigma", type=float, help="control parameter b*sigma_perp")
    common.add_argument(
        "--grid-n", type=int, dest="grid_n", help="radial quadrature order"
    )
    common.add_argument(
        "--kmax-factor",
        type=float,
        dest="kmax_factor",
        help="radial truncation k_max = factor * max(1, 1/bsigma)",
    )
    common.add_argument(
        "--ntheta", type=int, help="azimuthal samples, a power of two >= 64"
    )
    common.add_argument(
        "--sector-tol",
        type=float,
        dest="sector_tol",
        help="allowed probability outside the kept angular sectors",
    )
    common.add_argument(
        "--m-max",
        type=int,
        dest="m_max",
        help="fixed largest angular sector (default: adaptive)",
    )
    common.add_argument(
        "--mu-c", type=float, dest="mu_c", help="hard radial filter cutoff"
    )
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
    sweep.add_argument(
        "--bsigma-range",
        dest="bsigma_range",
        help="control parameter sweep as start:stop:count[:log|linear]",
    )
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        merged = _merge_config(args)
        cfg = _build_runconfig(merged)
        if merged["format"] not in (None, "csv", "json"):
            raise _ConfigError("format must be 'csv' or 'json'")
        if merged["out"] is not None:
            _check_type("out", merged["out"], str)
        _check_type("threads", merged["threads"], numbers.Integral)
        _check_type("numerical_gaussian", merged["numerical_gaussian"], bool)
        opts = {
            "format": merged["format"],
            "out": merged["out"],
            "threads": max(1, merged["threads"]),
            "numerical_gaussian": merged["numerical_gaussian"],
            "modes": getattr(args, "modes", None),
        }
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, opts)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
