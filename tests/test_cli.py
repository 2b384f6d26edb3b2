import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

import biphoton
from biphoton import analytic_K, crystal_b, default_k_max
from biphoton.cli import main

FAST = ["--grid-n", "120", "--ntheta", "128", "--m-max", "16"]


def _schema(name: str) -> dict:
    text = (resources.files("biphoton") / "schemas" / name).read_text(encoding="utf-8")
    return json.loads(text)


def _read_csv(path):
    """Split a metadata-prefixed CSV into (metadata dict, header, rows)."""
    metadata = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            metadata[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    return metadata, rows[0], rows[1:]


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_oracle_writes_valid_json(workdir, capsys):
    assert main(["oracle", "--bsigma", "0.25"]) == 0
    payload = json.loads((workdir / "oracle.json").read_text())
    jsonschema.validate(payload, _schema("oracle.schema.json"))
    assert payload["K_analytic"] == 4.515625
    assert payload["xi"] == pytest.approx(0.36, rel=1e-12)
    n, m, lam = payload["top_modes"][0]
    assert (n, m) == (0, 0)
    assert lam == pytest.approx(0.4096, rel=1e-12)
    assert "K = 4.515625" in capsys.readouterr().out


def test_oracle_rejects_csv_format(workdir, capsys):
    assert main(["oracle", "--bsigma", "1.0", "--format", "csv"]) == 2
    assert "JSON only" in capsys.readouterr().err


def test_decompose_writes_csv_and_summary(workdir, capsys):
    args = ["decompose", "--family", "gaussian", "--bsigma", "0.5", *FAST]
    assert main(args) == 0
    metadata, header, rows = _read_csv(workdir / "decompose.csv")
    assert header == ["n", "m", "lambda"]
    assert metadata["family"] == "gaussian"
    assert metadata["b_sigma"] == "0.5"
    assert metadata["grid_n"] == "120"
    assert metadata["m_max"] == "16"
    assert "threads" not in metadata
    assert float(rows[0][2]) == pytest.approx((8.0 / 9.0) ** 2, rel=1e-9)

    payload = json.loads((workdir / "decompose.json").read_text())
    jsonschema.validate(payload, _schema("summary.schema.json"))
    assert payload["K_renormalized"] == pytest.approx(analytic_K(0.5), rel=1e-9)
    assert payload["config"]["n_theta"] == 128
    assert len(payload["top_modes"]) == 20
    out = capsys.readouterr().out
    assert "K = " in out and "E = " in out


def test_decompose_extension_swap(workdir):
    args = [
        "decompose", "--family", "gaussian", "--bsigma", "0.5",
        "--format", "json", "--out", "run.json", *FAST,
    ]
    assert main(args) == 0
    assert (workdir / "run.json").exists()
    assert (workdir / "run.csv").exists()


def test_config_file_with_flag_override(workdir):
    (workdir / "cfg.json").write_text(
        json.dumps({"family": "gaussian", "bsigma": 0.5, "grid_n": 100, "m_max": 16})
    )
    args = ["decompose", "--config", "cfg.json", "--grid-n", "150", "--ntheta", "128"]
    assert main(args) == 0
    metadata, _, _ = _read_csv(workdir / "decompose.csv")
    assert metadata["family"] == "gaussian"
    assert metadata["grid_n"] == "150"
    assert metadata["n_theta"] == "128"


@pytest.mark.parametrize(
    "key, value, other",
    [
        ("grid_n", 48, 32),
        ("kmax_factor", 6.0, 7.5),
        ("ntheta", 128, 256),
        ("sector_tol", 1e-8, 1e-4),
        ("m_max", 12, 16),
        ("mu_c", 0.5, 1.0),
    ],
)
def test_every_run_setting_round_trips(workdir, key, value, other):
    # A value given by flag or by config file writes the same outputs, and
    # a flag overrides the file.
    fast = {"grid_n": "40", "ntheta": "64"}
    base = ["decompose", "--family", "gaussian", "--bsigma", "1.5"]
    for name, text in fast.items():
        if name != key:
            base += [f"--{name.replace('_', '-')}", text]
    flag = [f"--{key.replace('_', '-')}", repr(value)]
    runs = {"flag": (flag, None), "file": ([], value), "override": (flag, other)}
    outputs = {}
    for run, (flags, file_value) in runs.items():
        args = [*base, *flags, "--out", f"{run}.csv"]
        if file_value is not None:
            (workdir / f"{run}.cfg").write_text(json.dumps({key: file_value}))
            args += ["--config", f"{run}.cfg"]
        assert main(args) == 0
        outputs[run] = [(workdir / f"{run}.{ext}").read_bytes() for ext in ("csv", "json")]
    assert outputs["file"] == outputs["flag"]
    assert outputs["override"] == outputs["flag"]
    field = "n_theta" if key == "ntheta" else key
    assert json.loads(outputs["flag"][1])["config"][field] == value
    metadata, _, _ = _read_csv(workdir / "flag.csv")
    assert metadata[field] == repr(value)


def test_out_naming_the_other_format_exits_2(workdir, capsys, fill_shapes):
    # The second output would overwrite the first; nothing runs or is written.
    base = ["--family", "gaussian", "--bsigma", "0.5", *FAST]
    for args in (
        ["decompose", "--format", "json", "--out", "result.csv"],
        ["filter", "--format", "csv", "--out", "r.json"],
    ):
        assert main([*args, *base]) == 2
        assert "both the CSV and the JSON output" in capsys.readouterr().err
    assert fill_shapes == []
    assert not any(workdir.iterdir())


def test_b_sigma_with_a_sweep_range_exits_2(workdir, capsys, fill_shapes):
    (workdir / "c.json").write_text(json.dumps({"bsigma_range": "0.5:2:3"}))
    for args in (
        ["decompose", "--bsigma", "1.5", "--config", "c.json"],
        ["sweep", "--bsigma", "3", "--bsigma-range", "0.5:2:3"],
    ):
        assert main(args) == 2
        assert "mutually exclusive" in capsys.readouterr().err
    assert fill_shapes == []
    assert sorted(path.name for path in workdir.iterdir()) == ["c.json"]


@pytest.mark.parametrize(
    "args",
    [
        ["decompose", "--bsigma", "0.5"],
        ["filter", "--bsigma", "0.5"],
        ["sweep", "--bsigma-range", "0.5:1:2"],
        ["slice", "--bsigma", "0.5"],
    ],
    ids=lambda args: args[0],
)
def test_cutoff_beyond_the_truncation_exits_2(workdir, capsys, fill_shapes, args):
    # The stretched truncation at b_sigma 0.5 is 24; the range rule
    # rejects the run, or every sweep point, before anything is filled.
    assert main([*args, "--family", "sinc", "--mu-c", "1000"]) == 2
    assert "cutoff exceeds the radial truncation" in capsys.readouterr().err
    assert fill_shapes == []
    assert not any(workdir.iterdir())


def test_config_file_unknown_key(workdir, capsys):
    (workdir / "cfg.json").write_text(json.dumps({"famly": "gaussian"}))
    assert main(["decompose", "--config", "cfg.json", "--bsigma", "1.0"]) == 2
    assert "unknown config keys: famly" in capsys.readouterr().err


def test_config_file_not_json(workdir, capsys):
    (workdir / "cfg.json").write_text("family: gaussian")
    assert main(["decompose", "--config", "cfg.json"]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_config_file_wrong_types_exit_2(workdir, capsys):
    def run(file_cfg, out=("--out", "run.csv")):
        (workdir / "cfg.json").write_text(json.dumps(file_cfg))
        args = ["decompose", "--config", "cfg.json", "--family", "gaussian"]
        code = main([*args, "--bsigma", "0.5", *out])
        assert "error:" in capsys.readouterr().err
        return code

    assert run({"grid_n": None}) == 2
    assert run({"threads": None}) == 2
    assert run({"grid_n": [200]}) == 2
    assert run({"grid_n": 2.7}) == 2
    span = {"start": 0.5, "stop": 1.0, "count": 3}
    assert run({"bsigma_range": span | {"start": None}}) == 2
    assert run({"bsigma_range": span | {"stop": "1.0"}}) == 2
    assert run({"bsigma_range": span | {"count": 2.7}}) == 2
    assert run({"bsigma_range": span | {"log": "no"}}) == 2
    assert run({"numerical_gaussian": "no"}) == 2
    assert run({"format": "xml"}) == 2
    assert run({"out": 5}, out=()) == 2
    assert sorted(path.name for path in workdir.iterdir()) == ["cfg.json"]


def test_config_range_object_runs_like_the_range_flag(workdir):
    span = {"start": 0.5, "stop": 2.0, "count": 3, "log": True}
    (workdir / "cfg.json").write_text(json.dumps({"bsigma_range": span}))
    base = ["sweep", "--family", "gaussian"]
    assert main([*base, "--config", "cfg.json", "--out", "object.csv"]) == 0
    assert main([*base, "--bsigma-range", "0.5:2:3:log", "--out", "flag.csv"]) == 0
    text = (workdir / "object.csv").read_text(encoding="utf-8")
    assert text == (workdir / "flag.csv").read_text(encoding="utf-8")
    metadata, _, rows = _read_csv(workdir / "object.csv")
    assert metadata["b_sigma.count"] == "3"
    assert len(rows) == 3


@pytest.mark.parametrize(
    "config, extra, message",
    [
        ({"bsigma_range": {"start": 0.5, "stop": 2.0}}, [], "needs start, stop, count"),
        ({"bsigma_range": [0.5, 2.0, 3]}, [], "unrecognized sweep range"),
        (None, [], "cannot read config file"),
        ([{"family": "gaussian"}], [], "must hold a JSON object"),
        ({}, ["--physical", "--length", "0.002", "--pump-omega", "2.3e15",
              "--pump-waist", "0"], "--pump-waist must be positive"),
    ],
    ids=["range-without-count", "range-list", "unreadable", "json-array", "zero-waist"],
)
def test_bad_config_inputs_exit_2(workdir, capsys, fill_shapes, config, extra, message):
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config))
    assert main(["sweep", "--family", "gaussian", "--config", "cfg.json", *extra]) == 2
    assert message in capsys.readouterr().err
    assert fill_shapes == []
    assert not (workdir / "sweep.csv").exists()


def test_missing_control_parameter(workdir, capsys):
    assert main(["decompose", "--family", "gaussian"]) == 2
    assert "control parameter" in capsys.readouterr().err


def test_decompose_rejects_family_both(workdir, capsys):
    assert main(["decompose", "--family", "both", "--bsigma", "1.0"]) == 2
    assert "family" in capsys.readouterr().err


def test_invalid_run_parameters_exit_2(workdir, capsys):
    assert main(["decompose", "--family", "sinc", "--bsigma", "-1"]) == 2
    assert main(["decompose", "--family", "sinc", "--bsigma", "1", "--ntheta", "100"]) == 2
    # non-finite values fail validation instead of reaching the numerics
    decompose = ["decompose", "--family", "sinc"]
    assert main([*decompose, "--bsigma", "nan"]) == 2
    assert main([*decompose, "--bsigma", "1", "--mu-c", "nan"]) == 2
    assert main([*decompose, "--bsigma", "1", "--kmax-factor", "inf"]) == 2
    assert main(["sweep", "--family", "sinc", "--bsigma-range", "0.5:nan:3"]) == 2
    assert main(["oracle", "--bsigma", "inf"]) == 2
    assert main(["oracle", "--bsigma", "nan"]) == 2
    # b_sigma^2, 2 k_max^2, the norm integral's k_max^4 or the closed-form
    # K overflows: rejected before any arithmetic warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for b_sigma in ("1e300", "1e-300"):
            assert main([*decompose, "--bsigma", b_sigma]) == 2
            assert main(["oracle", "--bsigma", b_sigma]) == 2
        assert main([*decompose, "--bsigma", "1e-100"]) == 2
        gaussian = ["decompose", "--family", "gaussian", "--grid-n", "20", "--ntheta", "64"]
        assert main([*gaussian, "--bsigma", "1e-80"]) == 2
        for factor in ("1e-10", "1e-100"):
            assert main(["oracle", "--bsigma", "1e-160", "--kmax-factor", factor]) == 2
        # every sweep point, the closed-form gaussian column's too
        for spec in ("1e-160:1e-150:2", "1.0:1e200:3:log"):
            assert main(["sweep", "--family", "gaussian", "--bsigma-range", spec]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert sum("b_sigma out of range" in line for line in errors) == 10
    assert not any(workdir.iterdir())


def test_json_payload_that_json_rejects_leaves_no_file(workdir):
    with pytest.raises(ValueError, match="not JSON compliant"):
        biphoton.cli._write_json("out.json", {"K_analytic": float("inf")})
    assert not any(workdir.iterdir())


def test_csv_only_commands_reject_json(workdir, capsys):
    base = ["--family", "sinc", "--format", "json"]
    for command in (
        ["sweep", "--bsigma-range", "1:2:3"],
        ["slice", "--bsigma", "1.0"],
        ["modes", "--modes", "0,0", "--bsigma", "1.0"],
    ):
        assert main([*command, *base]) == 2
        assert f"{command[0]} output is CSV only" in capsys.readouterr().err


def test_bad_sweep_range_specs(workdir):
    for spec in ["1:2", "a:b:c", "1:2:3:cubic"]:
        assert main(["sweep", "--family", "sinc", "--bsigma-range", spec]) == 2


def test_sweep_requires_range(workdir, capsys):
    assert main(["sweep", "--family", "sinc"]) == 2
    assert "--bsigma-range" in capsys.readouterr().err


def test_bad_mode_specs(workdir):
    base = ["modes", "--family", "gaussian", "--bsigma", "0.5"]
    for spec in ["1", "x,y"]:
        assert main([*base, "--modes", spec]) == 2
    # a leading dash must be attached to the flag to clear argparse
    assert main([*base, "--modes=-1,0"]) == 2


def test_sweep_both_families(workdir):
    args = [
        "sweep", "--family", "both", "--bsigma-range", "0.8:1.2:3",
        "--grid-n", "100", "--ntheta", "256",
    ]
    assert main(args) == 0
    metadata, header, rows = _read_csv(workdir / "sweep.csv")
    assert header == ["b_sigma", "K_gauss", "K_sinc", "error"]
    assert metadata["family"] == "both"
    assert metadata["b_sigma.count"] == "3"
    assert metadata["numerical_gaussian"] == "false"
    assert len(rows) == 3
    for b_sigma, k_gauss, k_sinc, error in rows:
        assert error == ""
        # the gaussian column comes from the closed form, byte for byte
        assert k_gauss == repr(analytic_K(float(b_sigma)))
        assert float(k_sinc) > float(k_gauss)


def test_sweep_numerical_gaussian(workdir):
    args = [
        "sweep", "--family", "gaussian", "--bsigma-range", "0.8:1.2:2",
        "--numerical-gaussian", "--grid-n", "100", "--ntheta", "128",
        "--m-max", "16", "--out", "num.csv",
    ]
    assert main(args) == 0
    metadata, _, rows = _read_csv(workdir / "num.csv")
    assert metadata["numerical_gaussian"] == "true"
    for b_sigma, k_gauss, error in rows:
        assert error == ""
        assert float(k_gauss) == pytest.approx(analytic_K(float(b_sigma)), rel=1e-6)


def test_sweep_is_thread_count_invariant(workdir):
    base = [
        "sweep", "--family", "both", "--bsigma-range", "0.8:1.2:3",
        "--grid-n", "100", "--ntheta", "256",
    ]
    assert main([*base, "--threads", "1", "--out", "a.csv"]) == 0
    assert main([*base, "--threads", "3", "--out", "b.csv"]) == 0
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_sweep_records_per_point_errors(workdir, capsys):
    # Narrow sinc points need more sectors than a 64-point azimuth grid,
    # doubled twice, can resolve.
    args = [
        "sweep", "--family", "sinc", "--bsigma-range", "0.05:0.06:2",
        "--grid-n", "24", "--ntheta", "64",
    ]
    assert main(args) == 1
    _, header, rows = _read_csv(workdir / "sweep.csv")
    assert header == ["b_sigma", "K_sinc", "error"]
    for _, k_sinc, error in rows:
        assert k_sinc == ""
        assert "angular resolution exhausted" in error
    assert "2 failed" in capsys.readouterr().out


def test_modes_profiles_and_node_counts(workdir):
    args = [
        "modes", "--family", "gaussian", "--bsigma", "0.5",
        "--modes", "0,0", "1,0", "0,2", *FAST,
    ]
    assert main(args) == 0
    metadata, header, rows = _read_csv(workdir / "modes.csv")
    assert header == ["k", "phi_n0_m0", "phi_n1_m0", "phi_n0_m2"]
    assert len(rows) == 120
    assert metadata["nodes_phi_n0_m0"] == "0"
    assert metadata["nodes_phi_n1_m0"] == "1"
    assert metadata["nodes_phi_n0_m2"] == "0"
    assert 0.0 < float(rows[0][0]) < float(rows[-1][0]) <= default_k_max(0.5)


def test_modes_beyond_truncation(workdir, capsys):
    args = [
        "modes", "--family", "gaussian", "--bsigma", "0.5",
        "--modes", "0,0", "9999,0", *FAST,
    ]
    assert main(args) == 1
    metadata, header, _ = _read_csv(workdir / "modes.csv")
    assert metadata["error_phi_n9999_m0"] == "beyond truncation"
    assert header == ["k", "phi_n0_m0"]
    assert "1 beyond truncation" in capsys.readouterr().out


def test_slice_grid_and_normalization(workdir):
    args = ["slice", "--family", "sinc", "--bsigma", "0.25", "--ntheta", "64"]
    assert main(args) == 0
    metadata, header, rows = _read_csv(workdir / "slice.csv")
    assert header == ["k", "dtheta", "intensity"]
    assert len(rows) == 201 * 64
    assert metadata["mu_c"] == "0.0"
    intensities = [float(row[2]) for row in rows]
    assert max(intensities) == 1.0
    assert min(intensities) >= 0.0


def test_filter_report_and_spectrum(workdir, capsys):
    args = [
        "filter", "--family", "gaussian", "--bsigma", "0.5", "--mu-c", "1.0",
        "--grid-n", "100", "--ntheta", "128", "--m-max", "16",
    ]
    assert main(args) == 0
    payload = json.loads((workdir / "filter.json").read_text())
    jsonschema.validate(payload, _schema("filter_report.schema.json"))
    assert payload["mu_c"] == 1.0
    assert payload["k_filtered"] > payload["k_original"]
    assert 0.0 < payload["acceptance"] < 1.0
    _, header, rows = _read_csv(workdir / "filter.csv")
    assert header == ["n", "m", "lambda"]
    assert rows
    assert "K_filtered" in capsys.readouterr().out


def test_filter_command_is_the_library_filter(workdir, capsys):
    # The command runs apply_filter's path on its config without a model
    # of its own; a caller that normalizes first gets the same report,
    # bit for bit.
    args = ["filter", "--family", "sinc", "--bsigma", "0.5", "--mu-c", "1.5"]
    assert main([*args, "--grid-n", "40"]) == 0
    payload = json.loads((workdir / "filter.json").read_text())
    _, _, rows = _read_csv(workdir / "filter.csv")
    cfg = biphoton.RunConfig(family="sinc", b_sigma=0.5, grid_n=40)
    bare = biphoton.AmplitudeModel.from_b_sigma("sinc", 0.5)
    model = biphoton.normalize(bare, cfg.radial_grid(), cfg.n_theta)
    report = biphoton.apply_filter(model, 1.5, grid_n=40)
    assert payload["acceptance"] == report.acceptance
    assert payload["k_filtered"] == report.k_filtered
    assert payload["k_original"] == report.k_original
    entries = [(int(n), int(m), float(lam)) for n, m, lam in rows]
    assert entries == report.filtered_spectrum.entries


def test_filter_overdriven_cutoff_exits_1(workdir, capsys):
    args = [
        "filter", "--family", "gaussian", "--bsigma", "0.5", "--mu-c", "7.0",
        "--grid-n", "100", "--ntheta", "128", "--m-max", "16",
    ]
    assert main(args) == 1
    assert "removes essentially all" in capsys.readouterr().err


def test_physical_parameters_set_control(workdir):
    length, omega, waist = 0.002, 2.3e15, 5e-4
    args = [
        "oracle", "--physical",
        "--length", repr(length), "--pump-omega", repr(omega),
        "--pump-waist", repr(waist),
    ]
    assert main(args) == 0
    payload = json.loads((workdir / "oracle.json").read_text())
    expected = crystal_b(length, omega) * 2.0 / waist
    assert payload["config"]["b_sigma"] == pytest.approx(expected, rel=1e-12)


def test_physical_flag_conflicts(workdir, capsys):
    assert main(["oracle", "--physical", "--bsigma", "1.0"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert main(["oracle", "--physical", "--length", "0.002"]) == 2
    err = capsys.readouterr().err
    assert "--pump-omega" in err and "--pump-waist" in err


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("biphoton")
    env = dict(os.environ)
    if exe is None:
        # not installed: run the module from the package's source tree
        command = [sys.executable, "-m", "biphoton.cli"]
        source = os.path.dirname(os.path.dirname(os.path.abspath(biphoton.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source, env.get("PYTHONPATH")])
        )
    else:
        command = [exe]

    def run(*args):
        return subprocess.run(
            [*command, *args], cwd=tmp_path, env=env, capture_output=True, text=True
        )

    proc = run("oracle", "--bsigma", "0.25")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "oracle.json").exists()
    bad = run("decompose", "--bsigma", "nan", "--out", "bad.csv")
    assert bad.returncode == 2, bad.stderr
    assert bad.stderr.startswith("error:")
    assert not (tmp_path / "bad.csv").exists()


def test_numerical_sweep_solves_no_eigenproblem(workdir, monkeypatch):
    # A sweep row reports K only, which the trace identity gives without
    # a sector eigensolve; the Legendre rule is cached before the spy.
    biphoton.build_radial_grid(40, 0.0, 1.0)
    calls = []

    def spying(solver):
        def spy(*args, **kwargs):
            calls.append(solver.__name__)
            return solver(*args, **kwargs)

        return spy

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, spying(getattr(np.linalg, name)))
    args = [
        "sweep", "--family", "both", "--numerical-gaussian", "--bsigma-range",
        "0.8:1.2:2", "--grid-n", "40", "--ntheta", "128",
    ]
    assert main(args) == 0
    assert calls == []
    _, _, rows = _read_csv(workdir / "sweep.csv")
    for t, k_gauss, k_sinc, error in rows:
        assert error == ""
        for family, k in (("gaussian", k_gauss), ("sinc", k_sinc)):
            table = biphoton.decompose(family, float(t), grid_n=40, n_theta=128)
            assert float(k) == pytest.approx(table.spectrum.k, rel=1e-13, abs=0.0)


def _reference_write_csv(path, metadata, header, rows):
    """The CSV writer with every row value written by _fmt, row by row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in metadata:
            fh.write(f"# {key} = {biphoton.cli._fmt(value)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([biphoton.cli._fmt(value) for value in row])


def test_csv_writer_matches_the_formatted_reference(tmp_path, sinc_quarter):
    metadata = [("family", "sinc"), ("m_max", None), ("flag", True), ("t", 0.25)]
    header = ["n", "m", "lambda"]
    tables = {
        "table": (header, sinc_quarter.spectrum.entries, False),
        "sweep": (
            ["b_sigma", "K_sinc", "error"],
            [
                [np.float64(0.8), 1.5, ""],
                [0.9, "", 'value, with "quotes"\nand a newline'],
                [1.0, None, "a,b"],
                [np.float32(1.25), True, "'"],
            ],
            True,
        ),
    }
    for name, (columns, rows, formatted) in tables.items():
        written, reference = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref"
        given = biphoton.cli._fmt_rows(rows) if formatted else rows
        biphoton.cli._write_csv(written, metadata, columns, given)
        _reference_write_csv(reference, metadata, columns, rows)
        assert written.read_bytes() == reference.read_bytes()


def test_data_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # A sinc sweep on 120 nodes and one filter point at the defaults, at
    # one and two BLAS threads: every file they write is byte-identical.
    # A BLAS reduction in the data path (np.vdot in sector_purity did)
    # splits its sum by the thread count and moves the last digits; a
    # sweep on 60 nodes never showed it.
    source = os.path.dirname(os.path.dirname(os.path.abspath(biphoton.__file__)))
    commands = [
        ["sweep", "--family", "sinc", "--bsigma-range", "0.2:1.6:8", "--grid-n", "120",
         "--out", "sweep.csv"],
        ["filter", "--family", "sinc", "--bsigma", "0.5", "--mu-c", "1.5",
         "--out", "filter.json"],
    ]
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        workdir = tmp_path / threads
        workdir.mkdir()
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "biphoton.cli", *argv],
                cwd=workdir, env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        outputs[threads] = {path.name: path.read_bytes() for path in workdir.iterdir()}
    assert sorted(outputs["1"]) == ["filter.csv", "filter.json", "sweep.csv"]
    assert outputs["1"] == outputs["2"]
