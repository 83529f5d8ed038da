import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullforge.errors import (DomainError, FeasibilityError,
                              RepresentationError)
from hullforge.dataset import HullTable, read_dataset_csv, write_dataset_csv
from hullforge.geometry import (DRAFT_MARKS, HULL_FIELDS, SHAPE_NAMES,
                                HullParams, centerplane_slopes, half_breadth,
                                measure_at, measure_curves, read_hull_csv,
                                validate, volume_at, write_hull_csv)
from conftest import make_hull


# -- feasibility ------------------------------------------------------------

def test_validate_midpoints_feasible(reference_hull):
    report = validate(reference_hull)
    assert report.feasible
    assert report.violations == ()


def test_validate_taper_overlap_residual():
    hull = make_hull(run_frac=0.6, entrance_frac=0.6)
    report = validate(hull)
    assert not report.feasible
    assert report.residuals["taper_overlap"] == pytest.approx(0.25)
    assert ("taper_overlap", pytest.approx(0.25)) in report.violations


def test_validate_bulb_clearance_residual():
    hull = make_hull(depth_ratio=0.08, bulb_len=0.04, bulb_radius=0.1,
                     bulb_height=0.05)
    report = validate(hull)
    assert not report.feasible
    assert report.residuals["bulb_clearance"] == pytest.approx(0.07)


def test_validate_bulb_tie():
    hull = make_hull(bulb_len=0.05)      # length without radius
    report = validate(hull)
    assert not report.feasible
    assert report.residuals["bulb_tie"] == pytest.approx(0.05)


def test_wrong_arity_rejected():
    with pytest.raises(RepresentationError):
        HullParams(50.0, np.zeros(7))


# -- surface ----------------------------------------------------------------

def test_box_hull_constant_half_breadth(box_hull):
    xs = np.linspace(0, 1, 17)
    zs = np.linspace(0, 1, 9)
    y = half_breadth(box_hull, xs[None, :], zs[:, None])
    assert np.allclose(y, 0.05, rtol=0, atol=1e-15)


def test_profile_endpoints_zero(reference_hull):
    for zeta in (0.0, 0.3, 0.7, 1.0):
        x_aft, x_fwd = (reference_hull.stern_rake * (1 - zeta),
                        1 - reference_hull.bow_rake * (1 - zeta))
        assert half_breadth(reference_hull, x_aft, zeta) == 0.0
        assert half_breadth(reference_hull, x_fwd, zeta) == 0.0


def test_half_breadth_reference_oracle(reference_hull):
    # independent closed-form evaluation at (x, zeta) = (0.5, 0.5)
    h = reference_hull
    zeta = 0.5
    x_aft = 0.15 * (1 - zeta)
    x_fwd = 1 - 0.15 * (1 - zeta)
    w_run = min(1.0, ((0.5 - x_aft) / 0.325) ** (1 / 2.25))
    w_ent = min(1.0, ((x_fwd - 0.5) / 0.325) ** (1 / 2.25))
    sec = min(1.0, (zeta / 0.25) ** (1 / 3.25))
    expected = 0.5 * 0.26 * min(w_run, w_ent) * sec
    assert half_breadth(h, 0.5, 0.5) == pytest.approx(expected, rel=1e-12)


def test_half_breadth_infeasible_raises():
    with pytest.raises(FeasibilityError):
        half_breadth(make_hull(run_frac=0.6, entrance_frac=0.6), 0.5, 0.5)


def test_bulb_protrudes_at_center_height():
    hull = make_hull(bow_rake=0.2, bulb_len=0.05, bulb_radius=0.06,
                     bulb_height=0.04)
    assert validate(hull).feasible
    zeta_u = 0.04 / hull.depth_ratio
    x_c = min(1 - 0.2 * (1 - zeta_u), 1 - 0.05)
    assert half_breadth(hull, x_c, zeta_u) == pytest.approx(0.06, rel=1e-12)
    # and the surface stays inside the unit length
    assert half_breadth(hull, 1.0, zeta_u) == pytest.approx(0.0, abs=1e-12)


# -- measures ---------------------------------------------------------------

def test_box_hull_measures_match_closed_forms(box_hull):
    curves = measure_curves(box_hull)
    t = DRAFT_MARKS
    b, d = 0.1, 0.05
    assert np.allclose(curves.vol, b * d * t, rtol=1e-6)
    # bottom + two sides + two submerged end caps
    assert np.allclose(curves.area, b + 2 * d * t + 2 * b * d * t, rtol=1e-6)
    assert np.allclose(curves.wl, 1.0, rtol=0, atol=1e-15)


def test_measure_at_box_value(box_hull):
    v, sa, wl = measure_at(box_hull, 0.5)
    assert v == pytest.approx(0.1 * 0.05 * 0.5, rel=1e-9)
    assert sa == pytest.approx(0.1 + 2 * 0.05 * 0.5 + 2 * 0.1 * 0.05 * 0.5,
                               rel=1e-9)
    assert wl == 1.0


# measure_at on its default grid, pinned to a direct integration of the same
# grid: 2-D trapezoid volume, and shell, bottom and cap areas summed whole
PINNED_MEASURES = {
    "box": (0.37, 0.0018499999999999996, 0.14070000000000002),
    "plain": (0.37, 0.007272232179944988, 0.20573811281192328),
    "bulb": (0.8, 0.019657153593038285, 0.35623319786935387),
}


@pytest.mark.parametrize("name", PINNED_MEASURES)
def test_measure_at_pinned_values(name, box_hull):
    hull = {"box": box_hull, "plain": make_hull(),
            "bulb": make_hull(bulb_len=0.05, bulb_radius=0.05, bulb_height=0.06)}[name]
    tstar, vol, area = PINNED_MEASURES[name]
    v, sa, _ = measure_at(hull, tstar)
    assert v == pytest.approx(vol, rel=1e-13)
    assert sa == pytest.approx(area, rel=1e-13)


def test_measure_at_waterline_is_the_curves_waterline():
    """Both measures take WL from one expression, so they agree bit for bit."""
    from hullforge.dataset import sample_random_hull

    rng = np.random.default_rng(5)
    for _ in range(40):
        hull = sample_random_hull(rng)
        wl = measure_curves(hull).wl
        for k in rng.choice(DRAFT_MARKS.size, 4, replace=False):
            assert measure_at(hull, DRAFT_MARKS[k], nz=8, nx=16)[2] == wl[k]


VOLUME_HULLS = {
    "plain": {},
    "bulb": dict(bulb_len=0.05, bulb_radius=0.05, bulb_height=0.06),
    "prism-limit": dict(run_frac=0.0, entrance_frac=0.0),
}


@pytest.mark.parametrize("tstar", [0.37, 0.8, 1.0])
@pytest.mark.parametrize("name", VOLUME_HULLS)
def test_volume_at_is_measure_at_volume_bitwise(name, tstar):
    hull = make_hull(**VOLUME_HULLS[name])
    assert volume_at(hull, tstar, nz=160, nx=192) \
        == measure_at(hull, tstar, nz=160, nx=192)[0]


@pytest.mark.parametrize("hull,tstar,error", [
    (make_hull(), 0.0, DomainError),
    (make_hull(), -0.2, DomainError),
    (make_hull(), 1.0 + 1e-12, DomainError),
    (make_hull(run_frac=0.6, entrance_frac=0.6), 0.5, FeasibilityError),
    (make_hull(run_frac=0.6, entrance_frac=0.6), 1.5, FeasibilityError),
], ids=["zero", "negative", "past-deck", "taper-overlap", "both"])
def test_volume_at_rejects_what_measure_at_rejects(hull, tstar, error):
    for measure in (measure_at, volume_at):
        with pytest.raises(error):
            measure(hull, tstar, nz=160, nx=192)


@pytest.mark.parametrize("shape,nx,nzeta", [
    # (zeta / deadrise)^(1 / section_fullness) has an infinite slope at the keel
    (dict(section_fullness=5.5, deadrise_frac=0.03), 1025, 2049),
    # a bulb shorter than two of measure_curves' even x-steps
    (dict(section_fullness=1.0, bulb_len=0.006, bulb_radius=0.07,
          bulb_height=0.04), 8193, 257)], ids=["sharp-keel", "short-bulb"])
def test_first_mark_volume_matches_fine_integration(shape, nx, nzeta):
    # even stations put these first-mark volumes 1.2% and 2.4% low
    hull = make_hull(1.0, **shape)
    x = np.linspace(0.0, 1.0, nx)
    zeta = np.linspace(0.0, DRAFT_MARKS[0], nzeta)
    y = half_breadth(hull, x[None, :], zeta[:, None])
    want = 2.0 * hull.depth_ratio * np.trapezoid(np.trapezoid(y, x, axis=1), zeta)
    assert measure_curves(hull).vol[0] == pytest.approx(want, rel=0.003)


def test_measure_infeasible_raises():
    with pytest.raises(FeasibilityError):
        measure_curves(make_hull(run_frac=0.6, entrance_frac=0.6))


def test_subnormal_deadrise_measures_without_overflow():
    """zeta / deadrise_frac overflows for a subnormal deadrise_frac; on the
    grid such a hull is one whose sections reach full beam at the keel."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        curves = measure_curves(make_hull(1.0, deadrise_frac=5e-324))
    full = measure_curves(make_hull(1.0, deadrise_frac=0.0))
    for got, want in zip((curves.vol, curves.area, curves.wl),
                         (full.vol, full.area, full.wl)):
        assert np.allclose(got, want, rtol=0.01, atol=0.0)


# -- slope fields -----------------------------------------------------------

def test_box_hull_slopes_zero_interior(box_hull):
    field = centerplane_slopes(box_hull, 0.5, 32, 16)
    assert np.allclose(field.dydx[1:-1], 0.0, atol=1e-14)
    assert field.z[0] == pytest.approx(-0.5 * 0.05 * 100.0)
    assert field.z[-1] == 0.0


def test_wedge_entrance_slope_constant(wedge_hull):
    field = centerplane_slopes(wedge_hull, 0.5, 201, 16)
    x = field.x  # loa = 1
    expected = -(0.12 / 2) / 0.45
    inside = (x > 1 - 0.45 + 0.02) & (x < 1 - 0.02)
    assert np.allclose(field.dydx[inside], expected, rtol=1e-9)


def test_slope_field_grid_refinement(reference_hull):
    coarse = centerplane_slopes(reference_hull, 0.5, 64, 32)
    fine = centerplane_slopes(reference_hull, 0.5, 256, 128)

    def interp2(field, xq, zq):
        ix = np.interp(xq, field.x, np.arange(field.x.size))
        iz = np.interp(zq, field.z, np.arange(field.z.size))
        i0, j0 = int(ix), int(iz)
        fx, fz = ix - i0, iz - j0
        i1, j1 = min(i0 + 1, field.x.size - 1), min(j0 + 1, field.z.size - 1)
        d = field.dydx
        return ((d[i0, j0] * (1 - fx) + d[i1, j0] * fx) * (1 - fz)
                + (d[i0, j1] * (1 - fx) + d[i1, j1] * fx) * fz)

    # probe smooth regions: bands that stay strictly inside the run, midbody
    # and entrance at every submerged height (the raked profile moves the
    # singular taper edges with depth, so the bands are conservative)
    rng = np.random.default_rng(5)
    margins = [(0.22, 0.37), (0.48, 0.52), (0.63, 0.78)]
    max_slope = np.abs(fine.dydx).max()
    worst = 0.0
    for lo, hi in margins:
        for _ in range(60):
            xq = rng.uniform(lo, hi) * reference_hull.loa
            zq = rng.uniform(fine.z[2], fine.z[-3])
            worst = max(worst, abs(interp2(coarse, xq, zq) - interp2(fine, xq, zq)))
    assert worst < 0.02 * max_slope


def test_slopes_reject_small_grids(reference_hull):
    with pytest.raises(DomainError):
        centerplane_slopes(reference_hull, 0.5, 4, 16)


# -- properties -------------------------------------------------------------

feasible_shapes = st.builds(
    lambda b, d, xr, xe, pr, pe, ps, kb, rb, rs: make_hull(
        beam_ratio=b, depth_ratio=d, run_frac=xr, entrance_frac=xe,
        run_fullness=pr, entrance_fullness=pe, section_fullness=ps,
        deadrise_frac=kb, bow_rake=rb, stern_rake=rs),
    b=st.floats(0.05, 0.5), d=st.floats(0.05, 0.3),
    xr=st.floats(0.05, 0.55), xe=st.floats(0.05, 0.4),
    pr=st.floats(0.5, 4.0), pe=st.floats(0.5, 4.0), ps=st.floats(0.5, 6.0),
    kb=st.floats(0.0, 0.5), rb=st.floats(0.0, 0.3), rs=st.floats(0.0, 0.3),
)


@settings(max_examples=8, deadline=None)
@given(hull=feasible_shapes, loa=st.floats(3.0, 450.0))
def test_scale_equivariance(hull, loa):
    a = measure_curves(hull)
    b = measure_curves(HullParams(loa, hull.shape))
    assert np.array_equal(a.vol, b.vol)
    assert np.array_equal(a.area, b.area)
    assert np.array_equal(a.wl, b.wl)


@settings(max_examples=15, deadline=None)
@given(hull=feasible_shapes)
def test_monotone_and_bounded_measures(hull):
    curves = measure_curves(hull)
    assert np.all(np.diff(curves.vol) >= -1e-15)
    assert np.all(np.diff(curves.area) >= -1e-12)
    assert np.all(curves.vol >= 0) and np.all(curves.area >= 0)
    assert np.all((curves.wl >= 0) & (curves.wl <= 1 + 1e-15))
    cap = hull.beam_ratio * hull.depth_ratio * DRAFT_MARKS
    assert np.all(curves.vol <= cap + 1e-12)


@settings(max_examples=10, deadline=None)
@given(hull=feasible_shapes, c=st.floats(0.2, 1.8))
def test_beam_linearity(hull, c):
    scaled = hull.with_shape(beam_ratio=c * hull.beam_ratio)
    if not validate(scaled).feasible:
        return
    a = measure_curves(hull)
    b = measure_curves(scaled)
    assert np.allclose(b.vol, c * a.vol, rtol=1e-9, atol=1e-16)
    pts = [(0.3, 0.5), (0.62, 0.9), (0.5, 0.2)]
    for x, z in pts:
        assert half_breadth(scaled, x, z) == pytest.approx(
            c * half_breadth(hull, x, z), rel=1e-12, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(hull=feasible_shapes, idx=st.integers(0, 9),
       eps=st.floats(1e-7, 1e-5))
def test_residual_continuity(hull, idx, eps):
    base = validate(hull).residuals
    bumped = validate(hull.with_shape(**{SHAPE_NAMES[idx]: hull.shape[idx] + eps}))
    for key, val in bumped.residuals.items():
        assert abs(val - base[key]) <= 2.0 * eps + 1e-12


# -- serialization ----------------------------------------------------------

def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_hull_csv_roundtrip(tmp_path):
    """A sample file (one LOA for every row) and a population file (its
    own LOA per row, two extra columns) read back bit for bit."""
    rng = np.random.default_rng(3)
    shapes = rng.uniform(0.0, 1.0, (5, len(SHAPE_NAMES))) / 3.0
    path = tmp_path / "hulls.csv"
    write_hull_csv(path, 7.5, shapes)
    loa, back = read_hull_csv(path)
    assert _bitwise_equal(loa, np.full(5, 7.5)) and _bitwise_equal(back, shapes)

    loas, pred_rt, violation = rng.uniform(2.0, 400.0, (3, 5))
    violation[:2] = 0.0
    path = tmp_path / "population.csv"
    write_hull_csv(path, loas, shapes, pred_rt=pred_rt, violation=violation)
    back = read_hull_csv(path, "pred_rt", "violation")
    assert all(map(_bitwise_equal, back, (loas, shapes, pred_rt, violation)))


def _write_hull_file(path):
    write_hull_csv(path, 50.0, make_hull().shape[None, :])


def _write_dataset_file(path):
    """A one-row dataset file: a feasible hull with zero curves and grid."""
    hull, zeros = make_hull(), np.zeros((1, DRAFT_MARKS.size))
    write_dataset_csv(HullTable(np.array([hull.loa]), hull.shape[None, :],
                                np.array([True]), zeros, zeros, zeros,
                                np.zeros((1, 4, 7))), path)


HULL_READERS = {"hull": (_write_hull_file, read_hull_csv),
                "dataset": (_write_dataset_file, read_dataset_csv)}
# Ways to break a hull CSV, given its header and its first row's cells.
MALFORMED_FILES = {
    "empty": lambda header, cells: "",
    "non-numeric": lambda header, cells: f"{header}\nabc,{','.join(cells[1:])}\n",
    "truncated": lambda header, cells: f"{header}\n{','.join(cells[:-1])}\n",
    "non-finite": lambda header, cells: f"{header}\n{cells[0]},inf,{','.join(cells[2:])}\n",
}


@pytest.mark.parametrize("reader, case", [
    pytest.param(reader, case, id=case if reader == "hull" else f"{reader}-{case}")
    for reader in HULL_READERS for case in MALFORMED_FILES])
def test_hull_csv_rejects_a_malformed_file(tmp_path, reader, case):
    """The sample, population and dataset readers share one row parser:
    never float()'s bare ValueError, but an error that names the file and,
    for a bad row, the line."""
    write, read = HULL_READERS[reader]
    path = tmp_path / "hulls.csv"
    write(path)
    header, row = path.read_text().splitlines()
    path.write_text(MALFORMED_FILES[case](header, row.split(",")))
    with pytest.raises(RepresentationError,
                       match=r"hulls\.csv" if case == "empty" else r"line 2 .*hulls\.csv"):
        read(path)


def test_hull_row_arity(tmp_path):
    """A hull row is the LOA and the 13 shape parameters, no more, no less."""
    path = tmp_path / "hulls.csv"
    with pytest.raises(RepresentationError):
        write_hull_csv(path, 50.0, np.ones((1, 5)))
    _write_hull_file(path)
    header, row = path.read_text().splitlines()
    assert header.split(",") == list(HULL_FIELDS) and len(row.split(",")) == 14
    with pytest.raises(RepresentationError):
        read_hull_csv(path, "pred_rt")
