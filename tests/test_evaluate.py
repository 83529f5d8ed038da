import math

import numpy as np
import pytest

from hullforge.config import TestCase
from hullforge.errors import DegeneracyError, DomainError
from hullforge.evaluate import (AUDIT_COLUMNS, AuditTable, audit_one,
                                audit_samples, audit_stats, compare, fit_pca2,
                                kde, volume_error_fraction)
from hullforge.geometry import measure_at
from hullforge.neural import init_mlp
from hullforge.optimize import evaluate_individual
from conftest import make_hull


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_volume_error_fraction_degenerate():
    assert volume_error_fraction(1.0, 0.0, 0.0) == 1.0
    assert volume_error_fraction(1.0, 0.06, 0.0) == 0.0
    assert volume_error_fraction(0.4, 0.0, 0.0) == pytest.approx(0.4)


def test_volume_error_fraction_unit_sigma_band():
    got = volume_error_fraction(1.0, 0.0, 0.05)
    assert got == pytest.approx(_phi(1.0) - _phi(-1.0), rel=1e-12)
    assert got == pytest.approx(0.682689, abs=1e-6)


def test_volume_error_fraction_reported_operating_point():
    # feasibility 88.28%, mean error 2.53%, spread 5.97%
    got = volume_error_fraction(0.8828, 0.0253, 0.0597)
    oracle = 0.8828 * (_phi((0.05 - 0.0253) / 0.0597)
                       - _phi((-0.05 - 0.0253) / 0.0597))
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(0.49161, abs=2e-4)   # frozen regression value


def test_volume_error_fraction_rejects_negative_sigma():
    with pytest.raises(DomainError):
        volume_error_fraction(1.0, 0.0, -0.1)


def test_volume_error_fraction_matches_empirical():
    rng = np.random.default_rng(0)
    mu, sigma = 0.01, 0.04
    sample = rng.normal(mu, sigma, 4096)
    empirical = np.mean(np.abs(sample) <= 0.05)
    assert volume_error_fraction(1.0, mu, sigma) == pytest.approx(empirical,
                                                                  abs=0.05)


# -- PCA ----------------------------------------------------------------------

def test_pca_plane_embedding_recovered():
    rng = np.random.default_rng(1)
    basis = np.linalg.qr(rng.normal(size=(13, 2)))[0].T
    coords = rng.normal(size=(200, 2)) * [3.0, 1.5]
    data = coords @ basis + 0.25
    p = fit_pca2(data)
    recon = p.project(data) @ p.components + p.mean
    assert np.abs(recon - data).max() < 1e-9
    assert p.explained_ratio.sum() == pytest.approx(1.0, abs=1e-9)


def test_pca_isotropic_shares():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(4000, 13))
    p = fit_pca2(data)
    assert p.explained_ratio.sum() == pytest.approx(2.0 / 13.0, rel=0.2)


def test_pca_train_mean_projects_to_origin():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(50, 5)) + 7.0
    out = fit_pca2(data).project(data.mean(axis=0))
    assert np.allclose(out, 0.0, atol=1e-9)


def test_pca_degenerate_inputs():
    with pytest.raises(DegeneracyError):
        fit_pca2(np.zeros((2, 4)))
    line = np.outer(np.linspace(0, 1, 30), np.ones(4))
    with pytest.raises(DegeneracyError):
        fit_pca2(line)


# -- KDE ----------------------------------------------------------------------

def test_kde_two_equal_values_is_spike_with_warning():
    with pytest.warns(UserWarning, match="zero-variance"):
        grid, density = kde([3.0, 3.0])
    assert density.min() >= 0
    assert grid[np.argmax(density)] == pytest.approx(3.0, abs=1e-3)


def test_kde_standard_normal_peak():
    rng = np.random.default_rng(4)
    grid, density = kde(rng.normal(size=10_000))
    assert density.max() == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=0.03)
    assert np.all(density >= 0)
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_two_point_mass():
    grid, density = kde([0.0, 1.0])
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_needs_two_values():
    with pytest.raises(DomainError):
        kde([1.0])


# -- audits and comparison ------------------------------------------------------

@pytest.fixture(scope="module")
def audit_env():
    from hullforge.dataset import fit_normalizer, sample_random_hull

    rng = np.random.default_rng(6)
    mat = np.array([sample_random_hull(rng).shape for _ in range(256)])
    normalizer = fit_normalizer(mat)
    resistance = init_mlp(16, (16, 16), 1, "linear", np.random.default_rng(7))
    waterline = init_mlp(14, (16, 16), 1, "linear", np.random.default_rng(8))
    return normalizer, resistance, waterline


def _case_for(hull, volume_scale=1.0):
    loa = hull.loa
    tstar = 0.5
    vol = measure_at(hull, tstar)[0] * loa**3
    return TestCase("probe", loa, hull.beam_ratio * loa,
                    tstar * hull.depth_ratio * loa, hull.depth_ratio * loa,
                    vol * volume_scale, 4.0)


def test_audit_exact_targets(audit_env):
    normalizer, resistance, waterline = audit_env
    hull = make_hull(40.0)
    case = _case_for(hull)
    x = normalizer.normalize(hull.shape)
    audit = audit_one(x, case, resistance, waterline, normalizer,
                      n_theta=128, plane_nx=128, plane_nz=24)
    assert audit is not None
    vol_err, beam_err, _depth_err, surrogate_rt, simulated_rt = audit
    # denormalize(normalize(.)) reproduces the hull up to quantile-grid
    # granularity; the exact-volume target makes vol_err pure arithmetic
    assert vol_err == pytest.approx(0.0, abs=0.02)
    assert beam_err == pytest.approx(0.0, abs=0.01)
    assert simulated_rt > 0 and surrogate_rt > 0


def test_audit_volume_error_is_relative(audit_env):
    normalizer, resistance, waterline = audit_env
    hull = make_hull(40.0)
    case = _case_for(hull, volume_scale=1.0 / 1.1)
    x = normalizer.normalize(hull.shape)
    vol_err = audit_one(x, case, resistance, waterline, normalizer,
                        n_theta=128, plane_nx=128, plane_nz=24)[0]
    assert vol_err == pytest.approx(0.1, abs=0.025)


def test_audit_flags_infeasible(audit_env):
    normalizer, resistance, waterline = audit_env
    bad = make_hull(40.0, run_frac=0.6, entrance_frac=0.6)
    audits = audit_samples(np.vstack([normalizer.normalize(bad.shape),
                                      normalizer.normalize(make_hull(40.0).shape)]),
                           _case_for(make_hull(40.0)), resistance, waterline,
                           normalizer, n_theta=96, plane_nx=96, plane_nz=24)
    assert audits.feasible.tolist() == [False, True]
    assert all(getattr(audits, c).shape == (1,) for c in AUDIT_COLUMNS)


def test_audit_table_columns_cover_the_feasible_rows_in_order(audit_env):
    normalizer, resistance, waterline = audit_env
    bad = normalizer.normalize(make_hull(40.0, run_frac=0.6, entrance_frac=0.6).shape)
    good = [normalizer.normalize(make_hull(40.0, beam_ratio=b).shape)
            for b in (0.22, 0.26, 0.30)]
    rows = np.vstack([bad, good[0], bad, good[1], good[2], bad])
    case = _case_for(make_hull(40.0))
    kw = dict(n_theta=32, plane_nx=32, plane_nz=8)
    audits = audit_samples(rows, case, resistance, waterline, normalizer, **kw)
    assert audits.feasible.tolist() == [False, True, False, True, True, False]
    want = np.array([audit_one(x, case, resistance, waterline, normalizer, **kw)
                     for x in good])
    for j, name in enumerate(AUDIT_COLUMNS):
        assert np.array_equal(getattr(audits, name), want[:, j])
    assert len(set(audits.beam_err)) == 3


def test_audit_samples_propagates_bugs(audit_env):
    normalizer, resistance, _waterline = audit_env

    class BrokenWaterline:
        def predict(self, x):
            raise TypeError("not a domain failure")

    hull = make_hull(40.0)
    with pytest.raises(TypeError):
        audit_samples(normalizer.normalize(hull.shape), _case_for(hull),
                      resistance, BrokenWaterline(), normalizer,
                      n_theta=32, plane_nx=32, plane_nz=8)


def test_optimizer_and_audit_share_the_surrogate(audit_env):
    normalizer, resistance, waterline = audit_env
    hull = make_hull(40.0)
    case = _case_for(hull)
    x = normalizer.normalize(hull.shape)
    objs, _violation = evaluate_individual(x, case, resistance, waterline,
                                           normalizer)
    audit = audit_one(x, case, resistance, waterline, normalizer,
                      n_theta=32, plane_nx=32, plane_nz=8)
    assert audit is not None
    assert objs[0] == audit[AUDIT_COLUMNS.index("surrogate_rt")]


def _table(feasible, rows):
    """An AuditTable from the feasibility mask and the feasible rows'
    AUDIT_COLUMNS values."""
    values = np.array(rows, dtype=float).reshape(-1, len(AUDIT_COLUMNS))
    return AuditTable(np.array(feasible, dtype=bool), *values.T)


def test_audit_stats_and_band(audit_env):
    audits = _table([True, True, False], [(0.01, 0.0, 0.0, 1.0, 1.0),
                                          (-0.03, 0.01, 0.0, 1.0, 1.2)])
    stats = audit_stats(audits)
    assert stats["n"] == 3
    assert stats["feasibility_rate"] == pytest.approx(2 / 3)
    assert stats["vol_err_mean"] == pytest.approx(-0.01)
    assert 0.0 <= stats["volume_in_band"] <= stats["feasibility_rate"]


def _audits(*hulls):
    """An AuditTable from (rt, vol_err) pairs, None for an infeasible hull."""
    return _table([h is not None for h in hulls],
                  [(vol_err, 0.0, 0.0, rt, rt) for rt, vol_err in filter(None, hulls)])


def test_compare_identical_sets_zero_counts():
    audits = _audits((5.0, 0.0), (6.0, 0.0), (7.0, 0.0))
    report = compare(audits, audits)
    assert report.counts == {0.01: 0, 0.05: 0, 0.10: 0}
    assert report.delta_rt == pytest.approx(0.0)


def test_compare_hand_enumeration():
    nsga = _audits((10.0, 0.0), (12.0, 0.0))
    sampled = _audits((9.0, 0.005), (8.0, 0.04), (7.0, 0.08), (11.0, 0.0),
                      (6.0, 0.2), None)
    report = compare(sampled, nsga)
    # enumerate by hand: below 10.0 and inside each band
    assert report.nsga_min_rt == 10.0
    assert report.counts[0.01] == 1          # 9.0
    assert report.counts[0.05] == 2          # 9.0, 8.0
    assert report.counts[0.10] == 3          # + 7.0
    assert report.sample_min_rt == 8.0       # min within the 5% band
    assert report.delta_rt == pytest.approx(-0.2)
    assert report.counts[0.01] <= report.counts[0.05] <= report.counts[0.10]


def test_compare_needs_data():
    with pytest.raises(DomainError):
        compare(_audits(), _audits((1.0, 0.0)))
    with pytest.raises(DomainError):
        compare(_audits((1.0, 0.0)), _audits())


def test_compare_without_feasible_nsga_hull():
    """An optimizer population with no feasible audit loses to every
    feasible in-band sample; there is no relative gap to report."""
    sampled = _audits((9.0, 0.005), (8.0, 0.04), (7.0, 0.08), (6.0, 0.2), None)
    report = compare(sampled, _audits(None, None))
    assert report.nsga_min_rt == math.inf
    assert report.counts == {0.01: 1, 0.05: 2, 0.10: 3}
    assert report.sample_min_rt == 8.0
    assert report.delta_rt is None
    assert report.n_feasible == 4
