import dataclasses
import inspect
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import biphoton
from biphoton import (
    RunConfig,
    SweepRange,
    analytic_K,
    analytic_P_m,
    analytic_entropy,
    analytic_mode,
    apply_filter,
    decompose,
    schmidt_number_by_trace,
)


RUN_DEFAULT_KEYWORDS = {
    "n_theta": "n_theta",
    "sector_tol": "sector_tol",
    "factor": "kmax_factor",
}
"""Stage keywords whose default is a run setting, and the RunConfig field."""


def _stage_defaults():
    # Every public function with a defaulted run keyword, so a stage added
    # or deleted later is covered without editing this list. A None
    # default switches a check off (angular_fourier's sector_tol) and
    # names no run setting.
    for stage in biphoton.__all__:
        function = getattr(biphoton, stage)
        if not inspect.isfunction(function):
            continue
        parameters = inspect.signature(function).parameters
        for keyword, setting in RUN_DEFAULT_KEYWORDS.items():
            if keyword in parameters and parameters[keyword].default not in (
                inspect.Parameter.empty,
                None,
            ):
                yield stage, keyword, setting


@pytest.mark.parametrize("stage, keyword, setting", list(_stage_defaults()))
def test_stage_default_is_the_run_default(stage, keyword, setting):
    # A stage's keyword default names the same constant as RunConfig's
    # field, so the two never drift apart.
    default = inspect.signature(getattr(biphoton, stage)).parameters[keyword].default
    assert default == getattr(RunConfig(), setting)


def test_runconfig_validation():
    RunConfig(family="gaussian", b_sigma=0.5)
    with pytest.raises(ValueError, match="family"):
        RunConfig(family="cosine")
    with pytest.raises(ValueError, match="b_sigma"):
        RunConfig(b_sigma=-1.0)
    with pytest.raises(ValueError, match="grid_n"):
        RunConfig(grid_n=1)
    with pytest.raises(ValueError, match="power of two"):
        RunConfig(n_theta=100)
    with pytest.raises(ValueError, match="sector_tol"):
        RunConfig(sector_tol=0.0)
    with pytest.raises(ValueError, match="m_max"):
        RunConfig(m_max=-2)
    with pytest.raises(ValueError, match="mu_c"):
        RunConfig(mu_c=-0.5)
    with pytest.raises(ValueError, match="mutually exclusive"):
        RunConfig(b_sigma=1.5, sweep=SweepRange(0.5, 2.0, 3))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="b_sigma"):
            RunConfig(b_sigma=bad)
        with pytest.raises(ValueError, match="kmax_factor"):
            RunConfig(kmax_factor=bad)
        with pytest.raises(ValueError, match="mu_c"):
            RunConfig(mu_c=bad)
    # b_sigma^2 overflows above ~1.3e154. The norm integral's weight
    # products, bounded by k_max^4, overflow below ~6.9e-77 at the default
    # kmax_factor 8, or ~1.04e-76 once a filter stretches k_max by 1.5. The
    # closed-form K overflows below ~3.7e-155, which only a small
    # kmax_factor lets past the k_max rule.
    RunConfig(b_sigma=1e154)
    RunConfig(b_sigma=1e-76)
    RunConfig(b_sigma=4e-155, kmax_factor=1e-100)
    for changes in (
        {"b_sigma": 2e154},
        {"b_sigma": 6.5e-77},
        {"b_sigma": 1e-76, "mu_c": 1.0},
        {"b_sigma": 1e-76, "kmax_factor": 16.0},
        {"b_sigma": 3.5e-155, "kmax_factor": 1e-100},
    ):
        with pytest.raises(ValueError, match="b_sigma out of range"):
            RunConfig(**changes)


def test_bad_settings_fail_before_any_fill(fill_shapes, gauss_model_grid):
    model, _ = gauss_model_grid
    fills = fill_shapes
    calls = [
        ("kmax_factor", lambda: decompose("gaussian", 1.5, kmax_factor=math.inf)),
        ("sector_tol", lambda: decompose("gaussian", 1.5, sector_tol=0.0)),
        ("n_theta", lambda: decompose("gaussian", 1.5, n_theta=100)),
        ("m_max", lambda: decompose("gaussian", 1.5, m_max=-1)),
        ("mu_c", lambda: apply_filter(model, math.nan)),
    ]
    for setting, call in calls:
        with pytest.raises(ValueError, match=setting):
            call()
    assert fills == []
    # the counter sees the fills of a valid run
    decompose("gaussian", 1.5, grid_n=8, n_theta=64, m_max=4)
    assert fills


def test_kept_sectors_do_not_hold_the_top_sized_array():
    # The schedule stops at 64 below the top, 128; the kept kernels are
    # the packed rows of one array of their own, (m_max + 1) N (N + 1) / 2
    # doubles in all.
    result = decompose("sinc", 0.5, grid_n=40)
    assert result.m_max == 64
    base = result.kernels[0].packed.base
    assert base.shape == (result.m_max + 1, 40 * 41 // 2)
    assert base.dtype == np.float64
    for kernel in result.kernels:
        assert kernel.packed.flags.c_contiguous
        assert np.shares_memory(kernel.packed, base)


@pytest.mark.parametrize("family, t", [("sinc", 0.5), ("gaussian", 1.5)])
def test_a_run_cannot_change_its_kernels(family, t):
    # A kernel is checked once, when it is built, and its packed row is
    # read-only from then on: on the first rung (gaussian) and after the
    # shrink below the top (sinc) alike.
    result = decompose(family, t, grid_n=40)
    for kernel in result.kernels:
        assert not kernel.packed.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        result.kernels[2].packed[1] = np.nan


_RECORDS = {
    "grid": lambda: biphoton.build_radial_grid(24, 0.0, 8.0),
    "result": lambda: decompose("gaussian", 1.5, grid_n=24),
    "kernel": lambda: decompose("gaussian", 1.5, grid_n=24).kernels[0],
    "sector": lambda: decompose("gaussian", 1.5, grid_n=24).sector_spectra[0],
    "mode": lambda: decompose("gaussian", 1.5, grid_n=24).sector_spectra[0].modes[0],
}


@pytest.mark.parametrize("record", list(_RECORDS))
def test_records_holding_arrays_compare_by_identity(record):
    # Two builds from the same input hold equal arrays; == and hashing go
    # by identity and never compare the arrays.
    first, second = _RECORDS[record](), _RECORDS[record]()
    assert first == first
    assert first != second
    assert len({first, second, first}) == 2


def test_a_profiled_run_keeps_the_sectors_of_a_plain_one():
    # A profiler or tracer holds one more reference to the top coefficient
    # array, and ndarray.resize refuses to shrink it then; the kept sectors
    # are copied out of it instead. Under an outside profiler (cProfile,
    # a coverage tool) the run is profiled already, and that profiler is
    # left in place.
    plain = decompose("sinc", 0.5, grid_n=40)
    previous = sys.getprofile()
    if previous is None:
        sys.setprofile(lambda *args: None)
    try:
        profiled = decompose("sinc", 0.5, grid_n=40)
    finally:
        if previous is None:
            sys.setprofile(None)
    assert sys.getprofile() is previous
    assert profiled.m_max == 64
    assert profiled.spectrum.k == plain.spectrum.k
    base = profiled.kernels[0].packed.base
    assert base.shape == (profiled.m_max + 1, 40 * 41 // 2)
    for kernel in profiled.kernels:
        assert kernel.packed.flags.c_contiguous
        assert np.shares_memory(kernel.packed, base)


def test_stopping_below_the_top_holds_no_second_coefficient_array():
    # At grid_n 120 the sinc 0.5 schedule stops at 64 of 128. The top
    # array of packed kernels is 7.5 MB; a right-sized copy of its
    # leading 65 sectors would add 3.8 MB at once. The sweep itself adds
    # one radial row of the tensor (0.49 MB), its projection buffer and
    # the fill workspaces, each at most a row, so the peak stays below
    # four rows past the top array (1.97 MB). The kept sectors are
    # bitwise the top pass's leading ones.
    grid = RunConfig(family="sinc", b_sigma=0.5, grid_n=120).radial_grid()
    model = biphoton.normalize(biphoton.AmplitudeModel.from_b_sigma("sinc", 0.5), grid, 512)
    top = 129 * grid.count * (grid.count + 1) // 2 * 8
    row = 512 * grid.count * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sectors, n_theta = biphoton.adaptive_sectors(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(sectors), n_theta) == (65, 512)
    assert peak - before < top + 4 * row
    reference = biphoton.angular_fourier(model, grid, 128, 512)
    for kept, full in zip(sectors, reference):
        assert kept.p_m == full.p_m
        assert np.array_equal(kept.matrix, full.matrix)


def test_sweep_range_points():
    linear = SweepRange(1.0, 2.0, 3).points()
    assert linear == pytest.approx([1.0, 1.5, 2.0])
    log = SweepRange(0.25, 4.0, 3, log=True).points()
    assert log == pytest.approx([0.25, 1.0, 4.0])
    with pytest.raises(ValueError, match="count"):
        SweepRange(1.0, 2.0, 1)
    with pytest.raises(ValueError, match="positive"):
        SweepRange(-1.0, 2.0, 3)
    with pytest.raises(ValueError, match="finite"):
        SweepRange(0.5, float("nan"), 3)
    with pytest.raises(ValueError, match="finite"):
        SweepRange(float("inf"), 2.0, 3)


def test_gaussian_run_matches_closed_forms():
    t = 0.5
    result = decompose("gaussian", t)
    spectrum = result.spectrum
    assert spectrum.k == pytest.approx(analytic_K(t), rel=1e-6)
    assert spectrum.entropy == pytest.approx(analytic_entropy(t), rel=1e-6)
    for m in range(0, 6):
        assert spectrum.p_m_table[m] == pytest.approx(analytic_P_m(t, m), abs=1e-9)
    assert spectrum.coverage > 1.0 - 1e-6
    assert result.grid.k_min == 0.0
    assert result.n_theta == 512


def test_numerical_modes_match_oracle_modes():
    result = decompose("gaussian", 0.5)
    wk = result.grid.weights * result.grid.nodes
    for n, m in [(0, 0), (1, 0), (0, 1), (2, 2)]:
        numeric = result.sector_spectra[m].modes[n].values
        oracle = analytic_mode(n, m, 0.5, result.grid).values
        overlap = abs(float(np.sum(wk * numeric * oracle)))
        assert overlap > 1.0 - 1e-6


def test_explicit_m_max_agrees_with_adaptive():
    adaptive = decompose("gaussian", 0.5)
    fixed = decompose("gaussian", 0.5, m_max=adaptive.m_max)
    assert fixed.m_max == adaptive.m_max
    assert fixed.spectrum.k == pytest.approx(adaptive.spectrum.k, rel=1e-12)


def test_explicit_m_max_too_small():
    with pytest.raises(ValueError, match="m_max too small"):
        decompose("gaussian", 0.25, m_max=3)


def test_filtered_grid_starts_at_cutoff():
    result = decompose("gaussian", 0.5, mu_c=1.0)
    assert result.grid.k_min == 1.0
    assert result.model.cutoff == 1.0
    # stretched truncation: 1.5 * 8 * max(1, 1/0.5)
    assert result.grid.k_max == pytest.approx(24.0)
    assert result.spectrum.k > analytic_K(0.5)


def test_cutoff_beyond_truncation():
    with pytest.raises(ValueError, match="cutoff exceeds"):
        decompose("gaussian", 1.0, mu_c=100.0)


def test_n_theta_recovery_after_doubling():
    # t = 0.5 needs m_max = 64, which a 128-point azimuth grid cannot
    # reach (its scan stops at 32); the adaptive stage doubles n_theta
    # and the result records the value actually used.
    result = decompose("sinc", 0.5, n_theta=128)
    assert result.n_theta == 256
    assert result.m_max == 64
    reference = decompose("sinc", 0.5)
    assert result.spectrum.k == pytest.approx(reference.spectrum.k, rel=1e-9)


def test_a_doubled_n_theta_normalizes_again():
    # At grid_n 60, sinc 0.2 keeps m <= 128. From n_theta 128 the run
    # doubles twice, and each doubled azimuth grid takes its own norm, so
    # it ends where a run started at 512 does. Kept at the aliased norm
    # of n_theta 128, the P_m fall short of 1 - sector_tol at every n_theta.
    doubled = decompose("sinc", 0.2, grid_n=60, n_theta=128)
    direct = decompose("sinc", 0.2, grid_n=60)
    assert (doubled.m_max, doubled.n_theta) == (direct.m_max, direct.n_theta)
    assert (direct.m_max, direct.n_theta) == (128, 512)
    assert doubled.spectrum.k == direct.spectrum.k
    assert doubled.model == direct.model


def test_python_backend_full_run():
    code = (
        "import biphoton; r = biphoton.decompose('gaussian', 0.5, grid_n=80, "
        "n_theta=128, m_max=20); print(repr(r.spectrum.k))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    k = float(out.stdout.strip())
    assert k == pytest.approx(analytic_K(0.5), rel=1e-4)


def test_import_does_not_load_scipy():
    # Only the closed-form mode and Bessel coefficient need scipy.special,
    # and they import it when called.
    code = (
        "import sys, biphoton, biphoton.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_family_accepts_enum_and_string():
    by_string = decompose("gaussian", 2.0, grid_n=80, n_theta=128)
    by_enum = decompose(
        biphoton.AmplitudeFamily.DOUBLE_GAUSSIAN, 2.0, grid_n=80, n_theta=128
    )
    assert by_string.spectrum.k == by_enum.spectrum.k


@pytest.mark.parametrize(
    "family, t, mu_c",
    [
        ("sinc", 0.25, 0.0),
        ("sinc", 0.5, 0.0),
        ("sinc", 1.0, 0.0),
        ("gaussian", 0.5, 0.0),
        ("gaussian", 1.5, 0.0),
        ("sinc", 0.5, 1.5),
    ],
)
def test_schmidt_number_by_trace_matches_the_table(family, t, mu_c, sinc_quarter):
    # K = 1 / Tr rho^2 from the sector kernels equals the eigenvalue
    # table's K up to rounding and the gammas below the noise floor.
    if (family, t, mu_c) == ("sinc", 0.25, 0.0):
        result = sinc_quarter
    else:
        result = decompose(family, t, mu_c=mu_c)
    by_trace = schmidt_number_by_trace(family, t, mu_c=mu_c)
    assert by_trace.k == pytest.approx(result.spectrum.k, rel=1e-13, abs=0.0)
    assert by_trace.model == result.model
    if family == "gaussian":
        assert by_trace.k == pytest.approx(analytic_K(t), rel=1e-6)


def _planting(monkeypatch, plant):
    """Make the pipeline's adaptive_sectors hand out kernels changed by plant."""
    original = biphoton.pipeline.adaptive_sectors

    def planted(*args, **kwargs):
        kernels, n_theta = original(*args, **kwargs)
        plant(kernels)
        return kernels, n_theta

    monkeypatch.setattr(biphoton.pipeline, "adaptive_sectors", planted)


def _non_finite(kernels):
    # A kernel's packed row is read-only, so a NaN is planted in a copy,
    # which is rejected when it is turned into a kernel.
    packed = kernels[2].packed.copy()
    packed[1] = np.nan
    kernels[2] = dataclasses.replace(kernels[2], packed=packed)


def _asymmetric(kernels):
    # A kernel keeps one triangle, so an asymmetric matrix is rejected
    # when it is turned into a kernel.
    matrix = kernels[2].matrix
    matrix[0, 1] += 1e-8
    kernels[2] = biphoton.SectorKernel.from_matrix(
        2, kernels[2].p_m, matrix, kernels[2].grid
    )


@pytest.mark.parametrize(
    "plant, message", [(_non_finite, "non-finite"), (_asymmetric, "asymmetric")]
)
def test_schmidt_number_by_trace_checks_kernels_like_decompose(
    monkeypatch, plant, message
):
    _planting(monkeypatch, plant)
    messages = []
    for run in (decompose, schmidt_number_by_trace):
        with pytest.raises(ValueError, match=message) as raised:
            run("sinc", 1.0, grid_n=40, n_theta=64)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def test_schmidt_number_by_trace_warns_on_low_coverage_like_decompose():
    settings = dict(grid_n=40, n_theta=64, m_max=1, sector_tol=0.5)
    caught = []
    for run in (decompose, schmidt_number_by_trace):
        with pytest.warns(UserWarning, match="truncation coverage") as record:
            run("sinc", 1.0, **settings)
        caught.append([(w.category, str(w.message)) for w in record])
    assert caught[0] == caught[1]
    assert len(caught[0]) == 1
