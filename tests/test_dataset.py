import ctypes
import importlib.util
import math
import multiprocessing
import os
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hullforge.config import (FROUDE_RANGE, GRID_FROUDE, HOLDOUT_FRACTION,
                              WaterConstants, default_cases)
from hullforge.dataset import (DATASET_FIELDS, HullTable, build_dataset,
                               classifier_rows, fit_normalizer, geometry_rows,
                               load_normalizer, pool_map, read_dataset_csv, read_meta,
                               resistance_rows, sample_infeasible_vector,
                               sample_random_hull, save_normalizer,
                               write_dataset_csv, write_meta)
from hullforge import geometry, hydro
from hullforge.errors import (DomainError, GenerationError, QuadratureAccuracyWarning,
                              RepresentationError)
from hullforge.geometry import (HULL_FIELDS, HullParams, measure_at, measure_curves,
                                validate, volume_at)
from hullforge.hydro import GRID_COLUMNS, grid_lookup, resistance_grid
from hullforge.pipeline import _split_records

from conftest import make_hull

_spec = importlib.util.spec_from_file_location(
    "bench_checks", Path(__file__).resolve().parent.parent / "benchmark" / "checks.py")
bench_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_checks)


def test_sample_random_hull_deterministic():
    a = sample_random_hull(np.random.default_rng(42))
    b = sample_random_hull(np.random.default_rng(42))
    assert a.loa == b.loa
    assert np.array_equal(a.shape, b.shape)


def test_random_hulls_always_feasible():
    rng = np.random.default_rng(1)
    for _ in range(500):
        assert validate(sample_random_hull(rng)).feasible


def test_bulb_fraction_matches_probability():
    rng = np.random.default_rng(9)
    n = 10_000
    bulbs = sum(1 for _ in range(n)
                if sample_random_hull(rng).bulb_len > 0)
    assert bulbs / n == pytest.approx(0.25, abs=0.02)


def test_infeasible_vectors_violate_and_cover_all_kinds():
    rng = np.random.default_rng(3)
    kinds = set()
    for _ in range(200):
        params = sample_infeasible_vector(rng)
        report = validate(params)
        assert not report.feasible
        kinds.update(name for name, _ in report.violations)
    assert {"taper_overlap", "rake_sum", "bulb_clearance",
            "bulb_tie"} <= kinds


def test_build_dataset_counts_and_invariants(mini_table):
    t = mini_table
    assert t.feasible.tolist() == [True] * 64 + [False] * 64
    assert t.loa.shape == (128,) and t.shapes.shape == (128, 13)
    assert t.vols.shape == t.areas.shape == t.wls.shape == (64, 100)
    assert t.rws.shape == (64, 4, 7)
    assert np.all(np.diff(t.vols, axis=1) >= -1e-15)
    assert np.all(np.diff(t.areas, axis=1) >= -1e-12)
    assert np.all(t.rws >= 0)
    assert all(validate(HullParams(loa, s)).feasible == f
               for loa, s, f in zip(t.loa, t.shapes, t.feasible))


def test_build_dataset_schedule_independent():
    serial = build_dataset(6, seed=11, workers=1, n_theta=96, nx=128, nz=24)
    parallel = build_dataset(6, seed=11, workers=2, n_theta=96, nx=128, nz=24)
    assert _tables_equal(serial, parallel)


def _openblas_threads(*_):
    """Thread count of the loaded OpenBLAS, or None without one."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return fn()
    return None


def test_pool_map_workers_run_one_blas_thread():
    """build_dataset and cmd_train both run their pools through pool_map."""
    parent = _openblas_threads()
    if parent is None:
        pytest.skip("no OpenBLAS loaded")
    # each pool job reports its worker's thread count
    assert pool_map(_openblas_threads, [0, 1, 2, 3], workers=2) == [1, 1, 1, 1]
    assert _openblas_threads() == parent


def test_pool_map_threads_run_one_blas_thread_then_restore_the_count():
    parent = _openblas_threads()
    if parent is None:
        pytest.skip("no OpenBLAS loaded")
    jobs = [0, 1, 2, 3]
    assert pool_map(_openblas_threads, jobs, workers=2, threads=True) == [1, 1, 1, 1]
    assert _openblas_threads() == parent
    assert pool_map(_openblas_threads, jobs, workers=1, threads=True) == [parent] * 4


def _fail_first(job):
    index, marks = job
    if index == 0:
        raise GenerationError("job 0 failed")
    time.sleep(0.1)
    (marks / str(index)).touch()


@pytest.mark.parametrize("threads", [False, True], ids=["processes", "threads"])
def test_pool_map_failure_cancels_pending_jobs(tmp_path, threads):
    jobs = [(i, tmp_path) for i in range(50)]
    before = threading.enumerate()
    with pytest.raises(GenerationError, match="job 0"):
        pool_map(_fail_first, jobs, workers=2, threads=threads)
    assert multiprocessing.active_children() == []   # every worker was joined
    assert threading.enumerate() == before
    assert len(list(tmp_path.iterdir())) < 10        # the rest never started


def test_pool_map_in_process_for_one_worker_or_one_job(monkeypatch):
    def pid(_):
        return os.getpid(), threading.get_ident()

    here = [pid(None)]
    assert pool_map(pid, [None], workers=2) == here
    assert pool_map(pid, [1, 2, 3], workers=1) == here * 3
    monkeypatch.setattr(os, "cpu_count", lambda: 1)   # workers = 0 on one CPU
    assert pool_map(pid, [1, 2, 3], workers=0) == here * 3
    assert pool_map(pid, [1, 2, 3], workers=0, threads=True) == here * 3


# The per-hull kernels of the dataset stage, on a plain hull, a bulbous hull
# (extra x-stations) and the prism limit (the end-cap path).
KERNEL_HULLS = {
    "reference": {},
    "bulb": dict(bulb_len=0.05, bulb_radius=0.06, bulb_height=0.08),
    "prism-limit": dict(run_frac=0.0, entrance_frac=0.0, bow_rake=0.0, stern_rake=0.0),
}


def _kernel_values(hull):
    curves = measure_curves(hull)
    # measure_at and volume_at on the design path's grids and on one of
    # several blocks; resistance_grid at the desk resolution
    return (curves.vol, curves.area, curves.wl,
            *measure_at(hull, 0.5), *measure_at(hull, 0.8, nz=1000, nx=300),
            volume_at(hull, 0.5, nz=160, nx=192), volume_at(hull, 0.8, nz=1000, nx=300),
            resistance_grid(hull, n_theta=384, nx=512, nz=48))


def _spy(monkeypatch, module, name, log):
    """Wrap ``module.name`` so that each call appends ``name`` to ``log``."""
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: log.append(name) or fn(*a))


@pytest.mark.parametrize("name", KERNEL_HULLS)
def test_blocked_kernels_equal_whole_grid_kernels_bitwise(name, monkeypatch):
    """Row blocks of the measures and row chunks of the wave amplitude give
    the values of one block and one chunk, bit for bit."""
    hull = make_hull(**KERNEL_HULLS[name])
    calls = []
    _spy(monkeypatch, geometry, "_half_breadth_grid", calls)
    _spy(monkeypatch, hydro, "_amplitude_rows", calls)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureAccuracyWarning)
        blocked = _kernel_values(hull)
        split = Counter(calls)
        calls.clear()
        monkeypatch.setattr(geometry, "MEASURE_BLOCK_CELLS", 10**9)
        monkeypatch.setattr(hydro, "AMPLITUDE_ROWS", 10**9)
        whole = _kernel_values(hull)
    # the defaults did split the work: more blocks and chunks than whole grids
    assert split["_half_breadth_grid"] > calls.count("_half_breadth_grid")
    assert split["_amplitude_rows"] > calls.count("_amplitude_rows")
    for got, want in zip(blocked, whole, strict=True):
        assert np.array_equal(got, want)


def test_design_path_grids_stay_one_block(monkeypatch):
    """measure_at's default 200 x 256 grid, the volume constraint's 160 x 192
    volume_at and an audit's single-node Michell call run unsplit."""
    hull = make_hull(**KERNEL_HULLS["bulb"])
    field = geometry.centerplane_slopes(HullParams(1.0, hull.shape), 0.5, 512, 48)
    calls = []
    _spy(monkeypatch, geometry, "_half_breadth_grid", calls)
    measure_at(hull, 0.5)
    volume_at(hull, 0.5, nz=160, nx=192)
    assert calls == ["_half_breadth_grid"] * 2
    calls.clear()
    _spy(monkeypatch, hydro, "_wave_amplitude", calls)
    _spy(monkeypatch, hydro, "_amplitude_rows", calls)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureAccuracyWarning)
        hydro.michell_wave_resistance(field, hydro.FlowCondition(1.0, 1.0, 0.5))
    assert calls[:2] == ["_wave_amplitude", "_amplitude_rows"]
    assert calls.count("_wave_amplitude") == calls.count("_amplitude_rows")


# tracemalloc peaks of the whole-grid kernels were 15.8 (plain) to 23.8 MB
# (bulbous) for measure_curves and 18.8 MB for resistance_grid
WORKING_SET_BOUND = 5 * 2**20


@pytest.mark.parametrize("name", ["reference", "bulb"])
def test_per_hull_kernels_work_in_a_bounded_working_set(name):
    hull = make_hull(**KERNEL_HULLS[name])
    kernels = {"measure_curves": measure_curves,
               "resistance_grid": lambda h: resistance_grid(h, n_theta=384, nx=512, nz=48)}
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for label, kernel in kernels.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuadratureAccuracyWarning)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                kernel(hull)
                peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= WORKING_SET_BOUND, (label, peak / 2**20)
    finally:
        if not tracing:
            tracemalloc.stop()


def test_build_dataset_rejects_bad_count():
    with pytest.raises(DomainError):
        build_dataset(0, seed=1)


# -- normalizer ---------------------------------------------------------------

def test_normalizer_fitted_sample_roundtrip(mini_table, mini_normalizer):
    shapes = mini_table.shapes[mini_table.feasible]
    back = mini_normalizer.denormalize(mini_normalizer.normalize(shapes))
    assert np.abs(back - shapes).max() < 1e-9


def test_normalizer_continuous_sample_endpoints_and_median():
    rng = np.random.default_rng(0)
    n = 257
    mat = rng.uniform(2.0, 5.0, (n, 3))
    norm = fit_normalizer(mat)
    for i in range(3):
        col = np.sort(mat[:, i])
        got = norm.normalize(mat)[:, i]
        assert got.min() == pytest.approx(-1.0, abs=1e-12)
        assert got.max() == pytest.approx(1.0, abs=1e-12)
        med = np.median(col)
        assert norm.normalize(np.tile(med, (1, 3)))[0, i] == pytest.approx(
            0.0, abs=1.0 / n)


def test_normalizer_heldout_roundtrip_close():
    rng = np.random.default_rng(5)
    n = 1024
    mat = rng.uniform(0.0, 1.0, (n, 2))
    norm = fit_normalizer(mat)
    held = rng.uniform(0.05, 0.95, (100, 2))
    back = norm.denormalize(norm.normalize(held))
    assert np.abs(back - held).max() < 2.0 / n


def test_normalizer_monotone_and_clamped():
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(512, 1))
    norm = fit_normalizer(mat)
    grid = np.linspace(mat.min() - 1, mat.max() + 1, 200)[:, None]
    out = norm.normalize(grid)[:, 0]
    assert np.all(np.diff(out) >= 0)
    assert out[0] == -1.0 and out[-1] == 1.0
    assert np.abs(norm.denormalize(np.array([[1.7]]))[0, 0] - mat.max()) < 1e-12


def test_normalizer_uniformizes():
    # empirical CDF of normalized values is uniform up to rank ties
    rng = np.random.default_rng(8)
    mat = rng.lognormal(size=(1024, 1))
    norm = fit_normalizer(mat)
    u = np.sort((norm.normalize(mat)[:, 0] + 1.0) / 2.0)
    ks = np.abs(u - (np.arange(1024) + 0.5) / 1024).max()
    assert ks < 0.05


def test_normalizer_zero_variance_identity():
    mat = np.column_stack([np.full(100, 3.3), np.linspace(0, 1, 100)])
    with pytest.warns(UserWarning, match="zero variance"):
        norm = fit_normalizer(mat)
    out = norm.normalize(mat)
    assert np.allclose(out[:, 0], 3.3)


def test_normalizer_needs_enough_samples():
    with pytest.raises(DomainError):
        fit_normalizer(np.random.default_rng(0).uniform(size=(10, 2)))


def test_normalizer_save_load_roundtrip(tmp_path, mini_normalizer):
    path = tmp_path / "norm.txt"
    save_normalizer(mini_normalizer, path)
    back = load_normalizer(path)
    probe = np.random.default_rng(0).uniform(-1, 1, (50, mini_normalizer.dim))
    assert np.array_equal(back.denormalize(probe),
                          mini_normalizer.denormalize(probe))


# Ways to break a normalizer file: a header line, an identity line, then
# one knot line per block.
MALFORMED_NORMALIZERS = {
    "truncated": lambda lines: lines[:3],
    "header-only": lambda lines: lines[:1],
    "missing-value": lambda lines: [*lines[:3], lines[3].rsplit(" ", 1)[0], *lines[4:]],
    "non-numeric": lambda lines: [*lines[:2], lines[2] + " x", *lines[3:]],
}


@pytest.mark.parametrize("case", MALFORMED_NORMALIZERS)
def test_load_normalizer_rejects_a_malformed_file(tmp_path, mini_normalizer, case):
    """Never a bare KeyError, IndexError or ValueError: the error names the file."""
    path = tmp_path / "norm.txt"
    save_normalizer(mini_normalizer, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(MALFORMED_NORMALIZERS[case](lines)) + "\n")
    with pytest.raises(RepresentationError, match=r"normalizer .*norm\.txt"):
        load_normalizer(path)


# -- training rows ------------------------------------------------------------

def test_training_row_deterministic(mini_stacked):
    a = resistance_rows(mini_stacked, np.random.default_rng(7), 256)
    b = resistance_rows(mini_stacked, np.random.default_rng(7), 256)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_training_rows_finite_bulk(mini_stacked):
    rng = np.random.default_rng(0)
    x, y = resistance_rows(mini_stacked, rng, 10_000)
    assert x.shape == (10_000, 16)
    assert np.isfinite(y).all()
    assert np.all((x[:, 13] >= 0.25) & (x[:, 13] <= 0.67))
    # every Froude number inside the grid's axis, so no row clamps to its edge
    assert np.all((x[:, 14] >= GRID_FROUDE[0]) & (x[:, 14] <= GRID_FROUDE[-1]))
    assert np.all((x[:, 15] >= 0.47) & (x[:, 15] <= 2.65))


def test_bundled_cases_sit_inside_the_training_froude_range():
    # the surrogate's Fn uses the waterline length, at most LOA, so it is
    # at least each case's length Froude number U / sqrt(g LOA)
    for case in default_cases().values():
        fn = case.speed / math.sqrt(WaterConstants.g * case.loa)
        assert fn >= FROUDE_RANGE[0], case.name


def test_vector_rows_match_hand_chain(mini_stacked):
    rng = np.random.default_rng(4)
    x, y = resistance_rows(mini_stacked, rng, 64)
    # recompute one row independently from the stacked tables
    k = 17
    tstar, fn, log_loa = x[k, 13], x[k, 14], x[k, 15]
    idx = np.argmin(np.abs(mini_stacked.norm_shapes - x[k, :13]).sum(axis=1))
    water = WaterConstants()
    loa = 10.0 ** log_loa
    marks = np.linspace(0.01, 1.0, 100)
    sa = np.interp(tstar, marks, mini_stacked.areas[idx])
    wl = np.interp(tstar, marks, mini_stacked.wls[idx])
    rw = grid_lookup(mini_stacked.rws, idx, float(tstar), float(fn)) * loa**3
    speed = fn * math.sqrt(water.g * wl * loa)
    re = speed * wl * loa / water.nu
    cf = 0.075 / (math.log10(re) - 2.0) ** 2
    rf = 0.5 * cf * water.rho * speed**2 * sa * loa**2
    expected = math.log10((rw + rf) / (0.5 * water.rho * speed**2 * loa**2))
    assert y[k] == pytest.approx(expected, rel=1e-9)


def test_geometry_rows_ranges(mini_stacked):
    x, logv, wl = geometry_rows(mini_stacked, np.random.default_rng(1), 2048)
    assert x.shape == (2048, 14)
    assert np.isfinite(logv).all() and np.isfinite(wl).all()
    assert np.all((x[:, 13] >= 0.01) & (x[:, 13] <= 1.0))
    assert np.all(wl > 0) and np.all(wl <= 1.0)


def test_classifier_rows_balanced(mini_table, mini_normalizer):
    x, y = classifier_rows(mini_table, np.arange(64), mini_normalizer)
    assert x.shape == (128, 13)
    assert y.sum() == 64
    assert np.all(np.abs(x) <= 1.0)
    x, y = classifier_rows(mini_table, [5, 2], mini_normalizer)
    assert y.tolist() == [1.0, 1.0] + [0.0] * 64
    assert np.array_equal(x[:2], mini_normalizer.normalize(mini_table.shapes[[5, 2]]))


@pytest.mark.parametrize("n", [1, 7, 64, 4096])
def test_split_indices_match_the_benchmark_holdout(n):
    """The held-out rows are the ones benchmark/checks.py recomputes on its own."""
    train, held = _split_records(n, 7)
    assert held.tolist() == bench_checks.holdout_indices(n, HOLDOUT_FRACTION, 7)
    assert np.all(np.diff(train) > 0)
    assert sorted([*train, *held]) == list(range(n))


# -- serialization ------------------------------------------------------------

def _tables_equal(a: HullTable, b: HullTable) -> bool:
    """Every array of the two tables equal bit for bit, dtype and shape too."""
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes()
               for x, y in zip(vars(a).values(), vars(b).values()))


def _take(table: HullTable, rows) -> HullTable:
    """The table's rows ``rows``, in that order."""
    rows = np.asarray(rows)
    feas = (np.cumsum(table.feasible) - 1)[rows[table.feasible[rows]]]
    return HullTable(table.loa[rows], table.shapes[rows], table.feasible[rows],
                     table.vols[feas], table.areas[feas], table.wls[feas],
                     table.rws[feas])


def test_dataset_csv_roundtrip(tmp_path, mini_table):
    path = tmp_path / "hulls.csv"
    write_dataset_csv(mini_table, path)
    assert _tables_equal(read_dataset_csv(path), mini_table)
    with open(path) as fh:
        assert tuple(fh.readline().strip().split(",")) == DATASET_FIELDS
    # the grid columns run over Froude numbers within each draft
    assert len(GRID_COLUMNS) == 28
    assert GRID_COLUMNS[0] == "rw_0.25_0.15" and GRID_COLUMNS[1] == "rw_0.25_0.20"
    assert GRID_COLUMNS[-1] == "rw_0.67_0.45"


def test_dataset_csv_reads_infeasible_rows_first(tmp_path, mini_table):
    """The mask comes from each row's flag, not from the rows' order."""
    path = tmp_path / "hulls.csv"
    order = [*range(64, 128), *range(64)]
    write_dataset_csv(_take(mini_table, order), path)
    back = read_dataset_csv(path)
    assert back.feasible.tolist() == [False] * 64 + [True] * 64
    assert _tables_equal(_take(back, np.argsort(order)), mini_table)


# Ways to break a feasible dataset row, given as its list of cells.
# The hull cells' faults are in test_geometry's malformed-file test.
MALFORMED_ROWS = {
    "non-numeric-value": lambda cells: [*cells[:-1], "abc"],
    "bad-flag": lambda cells: [*cells[:len(HULL_FIELDS)], "2",
                               *cells[len(HULL_FIELDS) + 1:]],
}


@pytest.mark.parametrize("case", MALFORMED_ROWS)
def test_dataset_csv_rejects_a_malformed_row(tmp_path, mini_table, case):
    """Never numpy's or float()'s bare ValueError: the error names the
    line and the file."""
    path = tmp_path / "hulls.csv"
    write_dataset_csv(_take(mini_table, [0]), path)
    header, row = path.read_text().splitlines()
    path.write_text(header + "\n" + ",".join(MALFORMED_ROWS[case](row.split(","))) + "\n")
    with pytest.raises(RepresentationError, match=r"line 2 .*hulls\.csv"):
        read_dataset_csv(path)


def test_meta_roundtrip(tmp_path):
    path = tmp_path / "info.meta"
    write_meta(path, {"seed": 7, "rho": 1025.0, "scheme": "separable-13"})
    back = read_meta(path)
    assert back["seed"] == "7"
    assert back["scheme"] == "separable-13"
