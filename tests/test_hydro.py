import math
import warnings

import numpy as np
import pytest

from hullforge.config import GRID_DRAFTS, GRID_FROUDE, WaterConstants
from hullforge.errors import (DomainError, QuadratureAccuracyWarning,
                              SingularityError)
from hullforge.geometry import (HullParams, SlopeField, centerplane_slopes,
                                waterline_bounds)
from hullforge.hydro import (FlowCondition, _linexp_weights, _wave_amplitude,
                             friction_resistance, froude_speed, grid_lookup,
                             ittc_line, michell_wave_resistance,
                             predicted_total_resistance, resistance_coefficient,
                             resistance_grid, skin_friction)
from conftest import make_hull


def test_froude_supercarrier_point():
    # speed and length of the largest bundled test case
    fn = 16.0 / froude_speed(1.0, 333.0)
    assert fn == pytest.approx(16.0 / math.sqrt(9.81 * 333.0), rel=1e-12)
    assert fn == pytest.approx(0.2799, abs=5e-5)


def test_froude_limits():
    assert 0.0 / froude_speed(1.0, 100.0) == 0.0
    one = 3.0 / froude_speed(0.9, 50.0)
    two = 3.0 / froude_speed(0.9, 100.0)
    assert one / two == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_ittc_spot_values():
    assert ittc_line(1e9) == pytest.approx(0.075 / 49.0, abs=1e-7)
    assert ittc_line(1e7) == pytest.approx(3.0e-3, abs=1e-7)
    assert ittc_line(1e12) == pytest.approx(7.5e-4, abs=1e-7)


def test_ittc_scalar_matches_array():
    """One formula for scalars and arrays: no last-bit fork between them."""
    for re in 10.0 ** np.random.default_rng(8).uniform(3.0, 10.0, 20000):
        assert ittc_line(float(re)) == ittc_line(np.array([re]))[0]


def test_friction_and_coefficient_scalar_match_array():
    """A scalar call is the one-element array call, bit for bit: the
    squares of speed and LOA multiply for both."""
    rng = np.random.default_rng(9)
    for speed, loa, sa, wl in zip(rng.uniform(0.1, 20.0, 5000),
                                  10.0 ** rng.uniform(0.47, 2.65, 5000),
                                  rng.uniform(0.05, 0.5, 5000),
                                  rng.uniform(0.3, 1.0, 5000)):
        rf = skin_friction(float(speed), float(sa), float(wl), float(loa))
        assert rf == skin_friction(np.array([speed]), sa, wl, loa)[0]
        assert (resistance_coefficient(2.0 * rf, float(speed), float(loa))
                == resistance_coefficient(np.array([2.0 * rf]), np.array([speed]),
                                          np.array([loa]))[0])


def test_ittc_singularity():
    for re in (100.0, 50.0, -4.0):
        with pytest.raises(SingularityError):
            ittc_line(re)


def test_friction_resistance_chain():
    cond = FlowCondition(speed=1.5, loa=3.8, tstar=0.4)
    # independent hand chain: Re, ITTC line, then the half-rho-U^2 scaling
    re = 1.5 * 1.0 * 3.8 / 1.19e-6
    cf = 0.075 / (math.log10(re) - 2.0) ** 2
    expected = 0.5 * cf * 1025.0 * 1.5**2 * 0.2 * 3.8**2
    assert friction_resistance(cond, sa=0.2, wl=1.0) == pytest.approx(expected,
                                                                      rel=1e-12)


def test_friction_zero_area_and_linearity():
    cond = FlowCondition(speed=2.0, loa=10.0, tstar=0.5)
    assert friction_resistance(cond, 0.0, 1.0) == 0.0
    one = friction_resistance(cond, 0.1, 0.9)
    three = friction_resistance(cond, 0.3, 0.9)
    assert three == pytest.approx(3.0 * one, rel=1e-12)


def test_michell_zero_slopes_zero_resistance(wedge_hull):
    field = centerplane_slopes(wedge_hull, 0.5, 64, 24)
    silent = SlopeField(field.x, field.z, np.zeros_like(field.dydx))
    cond = FlowCondition(speed=1.0, loa=1.0, tstar=0.5)
    assert michell_wave_resistance(silent, cond) == 0.0


def test_michell_zero_field_ends_tail_without_warning(wedge_hull):
    field = centerplane_slopes(wedge_hull, 0.5, 64, 24)
    silent = SlopeField(field.x, field.z, np.zeros_like(field.dydx))
    cond = FlowCondition(speed=1.0, loa=1.0, tstar=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureAccuracyWarning)
        assert michell_wave_resistance(silent, cond) == 0.0


def test_michell_beam_squared_scaling(wedge_hull):
    field = centerplane_slopes(wedge_hull, 0.5, 96, 24)
    cond = FlowCondition(speed=0.3 * froude_speed(1.0, 1.0), loa=1.0,
                         tstar=0.5)
    base = michell_wave_resistance(field, cond)
    scaled = SlopeField(field.x, field.z, 2.5 * field.dydx)
    assert michell_wave_resistance(scaled, cond) == pytest.approx(
        2.5**2 * base, rel=1e-12)
    assert base > 0


def test_michell_against_fine_oracle(wedge_hull):
    # production resolution vs a 10x finer quadrature of the same integral
    cond = FlowCondition(speed=0.3 * froude_speed(1.0, 1.0), loa=1.0,
                         tstar=0.5)
    production = michell_wave_resistance(
        centerplane_slopes(wedge_hull, 0.5, 512, 48), cond, n_theta=384)
    oracle = michell_wave_resistance(
        centerplane_slopes(wedge_hull, 0.5, 5120, 96), cond, n_theta=3840)
    assert production == pytest.approx(oracle, rel=0.01)


def test_michell_requires_positive_speed(wedge_hull):
    field = centerplane_slopes(wedge_hull, 0.5, 64, 24)
    with pytest.raises(DomainError):
        michell_wave_resistance(field, FlowCondition(speed=0.0, loa=1.0,
                                                     tstar=0.5))
    conds = [FlowCondition(speed=s, loa=1.0, tstar=0.5) for s in (1.0, 0.0, 2.0)]
    with pytest.raises(DomainError):
        michell_wave_resistance(field, conds)


def _recorded(fn):
    """fn()'s result and the number of QuadratureAccuracyWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, sum(issubclass(w.category, QuadratureAccuracyWarning)
                    for w in caught)


@pytest.mark.parametrize("nx,nz,tail_tolerance", [(512, 48, None), (1536, 96, None),
                                                   (512, 48, 1e-13)])
def test_michell_condition_sequence_matches_single_calls(reference_hull, nx, nz,
                                                         tail_tolerance, monkeypatch):
    # eight speeds through one call: each value bit for bit its own call's.
    # The conditions' tails stop after different rounds; at 1e-13 the Fn 0.10
    # tail never does, and only its call warns that it failed to decay.
    from hullforge import hydro

    if tail_tolerance is not None:
        monkeypatch.setattr(hydro, "TAIL_TOLERANCE", tail_tolerance)
    field = centerplane_slopes(HullParams(1.0, reference_hull.shape), 0.5, nx, nz)
    conds = [FlowCondition(speed=fn * froude_speed(1.0, 1.0), loa=1.0, tstar=0.5)
             for fn in (0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45)]
    one, one_warned = _recorded(
        lambda: [michell_wave_resistance(field, c) for c in conds])
    stacked, stacked_warned = _recorded(lambda: michell_wave_resistance(field, conds))
    assert isinstance(one[0], float)
    assert stacked.shape == (len(conds),)
    assert np.array_equal(stacked, one)
    assert stacked_warned == one_warned
    assert one_warned >= (tail_tolerance is not None)


def test_michell_self_check_spaces_each_tail_block_by_its_own_step(reference_hull,
                                                                   monkeypatch):
    """A field whose theta tail grows: every other node of the main grid and
    of each 33-node tail block (6x the main spacing here) gives a coarse
    estimate within 1e-6; spacing the tail blocks' nodes as the main grid's
    would put it near 1e-4 and warn at the 1e-5 set here."""
    from hullforge import hydro

    calls = []
    monkeypatch.setattr(hydro, "_wave_amplitude",
                        lambda *a: calls.append(1) or _wave_amplitude(*a))
    monkeypatch.setattr(hydro, "REFINEMENT_WARN", 1e-5)
    field = centerplane_slopes(HullParams(1.0, reference_hull.shape), 0.5, 512, 48)
    cond = FlowCondition(speed=0.3 * froude_speed(1.0, 1.0), loa=1.0, tstar=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureAccuracyWarning)
        assert michell_wave_resistance(field, cond, n_theta=768) > 0
    assert len(calls) >= 3   # the main grid, a grown block, a last block


def test_michell_empty_condition_sequence(wedge_hull):
    field = centerplane_slopes(wedge_hull, 0.5, 64, 24)
    out = michell_wave_resistance(field, [])
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_resistance_grid_shape_and_positivity(reference_hull):
    grid = resistance_grid(reference_hull, n_theta=128, nx=128, nz=24)
    assert grid.shape == (4, 7)
    assert np.all(grid >= 0)
    assert GRID_DRAFTS == (0.25, 0.33, 0.50, 0.67)
    assert GRID_FROUDE == (0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45)


# resistance_grid(make_hull(), n_theta=128, nx=128, nz=24), rows GRID_DRAFTS
PINNED_GRID = np.array([
    (0.17704095981990586, 0.46595227822891017, 0.9799068521383176,
     1.1403146477554702, 0.9728756200700722, 1.5749943479854083,
     2.8850521988237894),
    (0.21758648337454728, 0.6718406792746981, 1.3842070508462112,
     1.7912477622701843, 1.4468131390524617, 2.629509588116589,
     5.056546112633203),
    (0.255655965582723, 0.9932594689137402, 1.8278762939684776,
     3.1285663184065022, 2.313133963577271, 5.248403805482349,
     10.660871377599282),
    (0.2964725064338186, 1.2065687153276465, 1.9375344564001817,
     4.446082428441826, 3.1207526875200213, 8.273888581230006,
     17.11239136946585),
])


def test_resistance_grid_pinned_values(reference_hull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureAccuracyWarning)
        grid = resistance_grid(reference_hull, n_theta=128, nx=128, nz=24)
    assert grid == pytest.approx(PINNED_GRID, rel=1e-13)


def test_resistance_grid_refinement(reference_hull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = resistance_grid(reference_hull)
        fine = resistance_grid(reference_hull, n_theta=768, nx=1024, nz=96)
    rel = np.abs(fine - base) / fine
    assert rel.max() < 0.01


def _grid_node_by_node(params, n_theta, nx, nz):
    """resistance_grid as one single-condition Michell call per node."""
    ref = HullParams(1.0, params.shape)
    rw = np.empty((len(GRID_DRAFTS), len(GRID_FROUDE)))
    for i, tstar in enumerate(GRID_DRAFTS):
        field = centerplane_slopes(ref, tstar, nx, nz)
        x_aft, x_fwd = waterline_bounds(ref, tstar)
        for j, fn in enumerate(GRID_FROUDE):
            cond = FlowCondition(speed=float(fn * froude_speed(x_fwd - x_aft, 1.0)),
                                 loa=1.0, tstar=tstar)
            rw[i, j] = michell_wave_resistance(field, cond, n_theta=n_theta)
    return rw


@pytest.mark.parametrize("bulb", [{}, dict(bulb_len=0.05, bulb_radius=0.06,
                                           bulb_height=0.08)], ids=["plain", "bulb"])
def test_resistance_grid_matches_node_by_node_calls(bulb):
    hull = make_hull(**bulb)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureAccuracyWarning)
        grid = resistance_grid(hull, n_theta=128, nx=128, nz=24)
        want = _grid_node_by_node(hull, n_theta=128, nx=128, nz=24)
    assert np.array_equal(grid, want)


def test_interpolated_grid_tracks_direct_evaluation(reference_hull):
    # random interior query vs a direct Michell evaluation at that condition
    from hullforge.geometry import HullParams, waterline_bounds

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = resistance_grid(reference_hull)
    tstar, fn = 0.41, 0.27
    from_grid = grid_lookup(grid[None], 0, tstar, fn)
    ref = HullParams(1.0, reference_hull.shape)
    x_aft, x_fwd = waterline_bounds(ref, tstar)
    cond = FlowCondition(speed=fn * froude_speed(x_fwd - x_aft, 1.0),
                         loa=1.0, tstar=tstar)
    direct = michell_wave_resistance(centerplane_slopes(ref, tstar, 512, 48),
                                     cond, n_theta=384)
    assert from_grid == pytest.approx(direct, rel=0.10)


def test_michell_tail_truncation_negligible(wedge_hull):
    # extending the wave-angle range further changes nothing material
    from hullforge import hydro

    field = centerplane_slopes(wedge_hull, 0.5, 256, 48)
    cond = FlowCondition(speed=0.3 * froude_speed(1.0, 1.0), loa=1.0,
                         tstar=0.5)
    base = michell_wave_resistance(field, cond, n_theta=768)
    k0 = WaterConstants.g / cond.speed**2
    theta = np.linspace(0.0, 14.0, 8193)   # far beyond the adaptive cutoff
    lam = np.cosh(theta)
    amp = hydro._wave_amplitude(field, k0, lam)
    vals = (amp.real**2 + amp.imag**2) * lam**2
    pref = (hydro.MICHELL_PREFACTOR * WaterConstants.rho * WaterConstants.g**2
            / (np.pi * cond.speed**2))
    extended = pref * hydro._simpson(vals, theta[1] - theta[0])
    assert base == pytest.approx(extended, rel=1e-4)


def _direct_amplitude(field, k0, lam):
    """I + iJ from a full phase table exp(i mu x) and a full depth table
    exp(kappa z), with each z cell integrated down from its top node (so
    e^{h s} <= 1)."""
    x, z, f = field.x, field.z, field.dydx
    dx, dz = x[1] - x[0], z[1] - z[0]
    kappa, mu = k0 * lam**2, k0 * lam
    ez = np.exp(kappa[:, None] * z[None, :])
    a, b = _linexp_weights(-kappa[:, None] * dz, ez[:, 1:], ez[:, :-1])
    wz = np.zeros((lam.size, z.size))
    wz[:, :-1] += dz * b
    wz[:, 1:] += dz * a
    g = wz @ f.T
    h = 1j * mu[:, None] * dx
    ax, bx = _linexp_weights(h, 1.0, np.exp(h))
    phase = np.exp(1j * np.outer(mu, x))
    return dx * ((ax * g[:, :-1] + bx * g[:, 1:]) * phase[:, :-1]).sum(axis=1)


@pytest.mark.parametrize("nx,nz,fn,rel", [
    pytest.param(512, 48, 0.30, 1e-12, id="512-48-0.3"),
    pytest.param(1536, 96, 0.10, 1e-12, id="1536-96-0.1"),
    pytest.param(512, 48, (0.10, 0.30), 1e-12, id="512-48-0.1+0.3"),
    # at Fn 30 the nodes with theta below about 1.5 have kappa dz < 1e-5 and
    # take the series z weights; just above that threshold the closed form
    # loses about eps / (kappa dz)^2 to cancellation
    pytest.param(512, 48, (0.30, 30.0), 1e-8, id="512-48-0.3+30"),
])
def test_wave_amplitude_matches_direct_phase_table(reference_hull, nx, nz, fn, rel):
    # theta from 0 to 14 spans lambda = 1 .. cosh(14); far out, the phase
    # of either sum is good to ~mu x eps only, so the bound is on the
    # largest amplitude rather than node by node
    field = centerplane_slopes(HullParams(1.0, reference_hull.shape), 0.5, nx, nz)
    k0s = [9.81 / (f * froude_speed(1.0, 1.0)) ** 2 for f in np.atleast_1d(fn)]
    lam = np.cosh(np.linspace(0.0, 14.0, 1001))
    # one k0 for all rows, or one per row with the Froude numbers interleaved
    n = len(k0s)
    k0 = k0s[0] if n == 1 else np.array(k0s)[np.arange(lam.size) % n]
    got = _wave_amplitude(field, k0, lam)
    want = _direct_amplitude(field, k0, lam)
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))
    for i, k in enumerate(k0s):   # each row's bits are its scalar-k0 call's
        assert np.array_equal(got[i::n], _wave_amplitude(field, k, lam[i::n]))


def test_interpolate_rw_nodes_and_midpoints():
    rw = np.arange(28, dtype=float).reshape(4, 7) + 1.0
    assert grid_lookup(rw[None], 0, 0.33, 0.20) == rw[1, 1]
    mid = grid_lookup(rw[None], 0, 0.33, 0.225)
    assert mid == pytest.approx(0.5 * (rw[1, 1] + rw[1, 2]), rel=1e-12)


def test_interpolate_rw_clamps_froude_to_the_grid_edges_silently():
    rw = (np.arange(28, dtype=float) + 1.0).reshape(1, 4, 7)   # columns differ
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid_lookup(rw, 0, 0.5, 0.07) == rw[0, 2, 0]    # the 0.15 column
        assert grid_lookup(rw, 0, 0.5, 0.60) == rw[0, 2, -1]   # the 0.45 column


def test_ct_scale_and_inverse():
    cond = FlowCondition(speed=4.0, loa=20.0, tstar=0.5)
    half_rho_u2_l2 = 0.5 * 1025.0 * 16.0 * 400.0
    speed, loa = cond.speed, cond.loa
    assert resistance_coefficient(half_rho_u2_l2, speed, loa) == pytest.approx(0.0, abs=1e-14)
    c_t = resistance_coefficient(123.4 + 567.8, speed, loa)
    assert predicted_total_resistance(c_t, cond) == pytest.approx(123.4 + 567.8,
                                                                  rel=1e-12)
    ten = resistance_coefficient(1234.0 + 5678.0, speed, loa)
    assert resistance_coefficient(12340.0 + 56780.0, speed, loa) == pytest.approx(
        ten + 1.0, rel=1e-12)


def test_predicted_total_resistance_squares_by_multiplying():
    """At C_T = 0 the scale is 0.5 rho U^2 LOA^2 with U*U and LOA*LOA, the
    squares resistance_coefficient divides by, bit for bit."""
    rng = np.random.default_rng(11)
    rho = WaterConstants.rho
    for u, loa in zip(rng.uniform(0.1, 40.0, 4000), rng.uniform(1.0, 400.0, 4000)):
        u, loa = float(u), float(loa)
        cond = FlowCondition(speed=u, loa=loa, tstar=0.5)
        assert predicted_total_resistance(0.0, cond) == 0.5 * rho * (u * u) * (loa * loa)


def test_flow_condition_validation():
    with pytest.raises(DomainError):
        FlowCondition(speed=-1.0, loa=10.0, tstar=0.5)
    with pytest.raises(DomainError):
        FlowCondition(speed=1.0, loa=10.0, tstar=1.2)
